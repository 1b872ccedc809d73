package telemetry

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceIDs(t *testing.T) {
	tid := NewTraceID()
	if tid.IsZero() {
		t.Fatal("NewTraceID returned zero id")
	}
	back, err := ParseTraceID(tid.String())
	if err != nil || back != tid {
		t.Fatalf("trace id round trip: %v, %v != %v", err, back, tid)
	}
	sid := NewSpanID()
	if sid.IsZero() {
		t.Fatal("NewSpanID returned zero id")
	}
	sback, err := ParseSpanID(sid.String())
	if err != nil || sback != sid {
		t.Fatalf("span id round trip: %v, %v != %v", err, sback, sid)
	}
	for _, bad := range []string{"", "xyz", strings.Repeat("0", 31), strings.Repeat("A", 32)} {
		if _, err := ParseTraceID(bad); err == nil {
			t.Errorf("ParseTraceID(%q) accepted", bad)
		}
	}
	for _, bad := range []string{"", "abcd", strings.Repeat("F", 16)} {
		if _, err := ParseSpanID(bad); err == nil {
			t.Errorf("ParseSpanID(%q) accepted", bad)
		}
	}
}

func TestSpanHierarchy(t *testing.T) {
	tr := NewTrace()
	root := tr.Root("request")
	child := root.StartChild("engine")
	child.SetAttr("settled_nodes", 42)
	grand := child.StartChild("dijkstra")
	grand.End()
	child.End()
	other := NewTraceID()
	root.AddLink(other)
	root.AddLink(TraceID{}) // zero links are dropped
	root.End()

	snap := tr.Snapshot()
	if snap.TraceID != tr.ID().String() || snap.Name != "request" || snap.NumSpans != 3 {
		t.Fatalf("snapshot header: %+v", snap)
	}
	if len(snap.Spans) != 1 {
		t.Fatalf("want 1 top-level span, got %d", len(snap.Spans))
	}
	r := snap.Spans[0]
	if r.Name != "request" || len(r.Links) != 1 || r.Links[0] != other.String() {
		t.Fatalf("root span: %+v", r)
	}
	if len(r.Children) != 1 || r.Children[0].Name != "engine" {
		t.Fatalf("root children: %+v", r.Children)
	}
	eng := r.Children[0]
	if eng.Attrs["settled_nodes"] != 42 {
		t.Fatalf("engine attrs: %+v", eng.Attrs)
	}
	if len(eng.Children) != 1 || eng.Children[0].Name != "dijkstra" {
		t.Fatalf("engine children: %+v", eng.Children)
	}
}

func TestTraceContinuation(t *testing.T) {
	tid, sid := NewTraceID(), NewSpanID()
	tr := NewTraceFrom(tid, sid)
	if tr.ID() != tid || tr.RemoteParent() != sid {
		t.Fatalf("NewTraceFrom did not adopt ids: %v %v", tr.ID(), tr.RemoteParent())
	}
	root := tr.Root("request")
	root.End()
	snap := tr.Snapshot()
	if snap.RemoteParent != sid.String() {
		t.Fatalf("remote parent = %q, want %q", snap.RemoteParent, sid)
	}
	// The root still renders as a top-level span even though its parent id
	// (the remote caller's span) is not in this trace.
	if len(snap.Spans) != 1 || snap.Spans[0].ParentID != sid.String() {
		t.Fatalf("root span parent: %+v", snap.Spans)
	}

	if got := NewTraceFrom(TraceID{}, SpanID{}); got.ID().IsZero() {
		t.Fatal("zero trace id must fall back to a fresh one")
	}
}

func TestContextPropagation(t *testing.T) {
	if SpanFromContext(context.Background()) != nil {
		t.Fatal("empty context should carry no span")
	}
	tr := NewTrace()
	root := tr.Root("request")
	ctx := ContextWithSpan(context.Background(), root)
	if SpanFromContext(ctx) != root || SpanFromContext(ctx).Trace() != tr {
		t.Fatal("context round trip lost the span")
	}
	child := root.StartChild("inner")
	ctx2 := ContextWithSpan(ctx, child)
	if SpanFromContext(ctx2) != child {
		t.Fatal("inner span not carried")
	}
	// Nil span leaves the context unchanged.
	if ContextWithSpan(ctx, nil) != ctx {
		t.Fatal("nil span should return ctx unchanged")
	}
}

func TestTraceparent(t *testing.T) {
	tid, sid := NewTraceID(), NewSpanID()
	h := FormatTraceparent(tid, sid, true)
	gtid, gsid, sampled, err := ParseTraceparent(h)
	if err != nil || gtid != tid || gsid != sid || !sampled {
		t.Fatalf("round trip %q: %v %v %v %v", h, gtid, gsid, sampled, err)
	}
	if _, _, sampled, err = ParseTraceparent(FormatTraceparent(tid, sid, false)); err != nil || sampled {
		t.Fatalf("unsampled round trip: %v %v", sampled, err)
	}

	// Versions above 00 may carry extra fields; version 00 may not.
	ok := "cc-" + tid.String() + "-" + sid.String() + "-01-extra-fields"
	if _, _, _, err := ParseTraceparent(ok); err != nil {
		t.Errorf("version cc with extra fields rejected: %v", err)
	}
	for _, bad := range []string{
		"",
		"00",
		"00-" + tid.String() + "-" + sid.String(),                          // missing flags
		"00-" + tid.String() + "-" + sid.String() + "-01-extra",            // 00 + extra field
		"ff-" + tid.String() + "-" + sid.String() + "-01",                  // reserved version
		"0-" + tid.String() + "-" + sid.String() + "-01",                   // short version
		"00-" + strings.Repeat("0", 32) + "-" + sid.String() + "-01",       // zero trace id
		"00-" + tid.String() + "-" + strings.Repeat("0", 16) + "-01",       // zero parent id
		"00-" + strings.ToUpper(tid.String()) + "-" + sid.String() + "-01", // uppercase
		"00-" + tid.String() + "-" + sid.String() + "-1",                   // short flags
		"00-" + tid.String() + "-" + sid.String() + "-zz",                  // non-hex flags
	} {
		if _, _, _, err := ParseTraceparent(bad); err == nil {
			t.Errorf("ParseTraceparent(%q) accepted", bad)
		}
	}
}

func FuzzTraceparent(f *testing.F) {
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00")
	f.Add("cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-suffix")
	f.Add("ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Add("")
	f.Add("garbage")
	f.Add("00-00000000000000000000000000000000-0000000000000000-00")
	f.Fuzz(func(t *testing.T, h string) {
		tid, sid, sampled, err := ParseTraceparent(h)
		if err != nil {
			return // malformed input must only error, never panic
		}
		if tid.IsZero() || sid.IsZero() {
			t.Fatalf("accepted zero id from %q", h)
		}
		// Whatever parses must survive a format/parse round trip.
		h2 := FormatTraceparent(tid, sid, sampled)
		tid2, sid2, sampled2, err := ParseTraceparent(h2)
		if err != nil || tid2 != tid || sid2 != sid || sampled2 != sampled {
			t.Fatalf("round trip %q -> %q: %v %v %v %v", h, h2, tid2, sid2, sampled2, err)
		}
	})
}

// TestRecorderTiers drives the recorder with a deterministic sampler and
// asserts the exact retention decisions: errors and slow always kept, normal
// traces by the coin flip, each tier evicting only within itself.
func TestRecorderTiers(t *testing.T) {
	rec := NewRecorder(0.5)
	rec.slowAfter = time.Hour // nothing real is slow; slowness is simulated below
	coin := 0.0
	rec.sampler = func() float64 { v := coin; coin = 1 - coin; return v }

	finished := func(name string) *Trace {
		tr := NewTrace()
		tr.Root(name).End()
		return tr
	}
	// Overfill both rings: the coin keeps every other normal trace.
	const errs, norms = errorCapacity + 2, 2 * (normalCapacity + 2)
	for i := 0; i < errs; i++ {
		rec.Record(finished("err"), true)
	}
	for i := 0; i < norms; i++ {
		rec.Record(finished("norm"), false)
	}
	st := rec.Stats()
	if st.Errors != errs || st.Sampled != norms/2 || st.SampledOut != norms/2 || st.Slow != 0 {
		t.Fatalf("stats: %+v", st)
	}
	all := rec.Traces("", 0, 0)
	if len(all) != errorCapacity+normalCapacity { // each ring holds its capacity
		t.Fatalf("retained %d traces, want %d", len(all), errorCapacity+normalCapacity)
	}
	errTier := rec.Traces("err", 0, 0)
	if len(errTier) != errorCapacity {
		t.Fatalf("err tier: %d, want %d (ring cap)", len(errTier), errorCapacity)
	}
	for _, s := range errTier {
		if s.Tier != TierError || !s.Error {
			t.Fatalf("error trace mis-tiered: %+v", s)
		}
	}
	for _, s := range rec.Traces("norm", 0, 0) {
		if s.Tier != TierNormal {
			t.Fatalf("normal trace mis-tiered: %+v", s)
		}
	}

	// Get finds a retained trace by id; misses report false.
	id := errTier[0].TraceID
	if snap, ok := rec.Get(id); !ok || snap.TraceID != id {
		t.Fatalf("Get(%q) = %+v, %v", id, snap, ok)
	}
	if _, ok := rec.Get(NewTraceID().String()); ok {
		t.Fatal("Get of unknown id succeeded")
	}

	// A slow trace (simulated by ending the root after the threshold via a
	// tiny threshold recorder) is always retained regardless of sampling.
	slow := NewRecorder(0)
	slow.slowAfter = time.Nanosecond
	slow.sampler = func() float64 { return 1 } // never sample normals
	tr := finished("q")
	slow.Record(tr, false)
	if st := slow.Stats(); st.Slow != 1 {
		t.Fatalf("slow trace not retained: %+v", st)
	}
}

func TestRecorderActive(t *testing.T) {
	rec := NewRecorder(0)
	tr := NewTrace()
	root := tr.Root("request")
	root.StartChild("parked")
	rec.StartActive(tr)
	act := rec.Active()
	if len(act) != 1 || act[0].TraceID != tr.ID().String() || act[0].OpenSpan != "parked" {
		t.Fatalf("active: %+v", act)
	}
	rec.EndActive(tr)
	rec.EndActive(tr) // idempotent
	if act := rec.Active(); len(act) != 0 {
		t.Fatalf("still active after EndActive: %+v", act)
	}
}

// TestRecorderConcurrency hammers record, scrape and active registration from
// many goroutines; run under -race in CI. Afterward the always-keep tiers
// must hold exactly min(recorded, capacity) traces.
func TestRecorderConcurrency(t *testing.T) {
	const (
		goroutines = 8
		perG       = 100 // one in ten is an error: 80 overfill the error ring
	)
	rec := NewRecorder(1) // every normal trace retained: deterministic counts
	rec.slowAfter = time.Hour
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tr := NewTrace()
				root := tr.Root(fmt.Sprintf("verb-%d", g%2))
				rec.StartActive(tr)
				child := root.StartChild("stage")
				child.SetAttr("i", i)
				child.End()
				root.End()
				rec.EndActive(tr)
				rec.Record(tr, i%10 == 0)
			}
		}(g)
	}
	// Scrape concurrently with recording: list, get, active, stats.
	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			sums := rec.Traces("", 0, 0)
			for _, s := range sums {
				rec.Get(s.TraceID)
			}
			rec.Active()
			rec.Stats()
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-scraped

	st := rec.Stats()
	wantErr := uint64(goroutines * perG / 10)
	if st.Errors != wantErr {
		t.Fatalf("errors recorded = %d, want %d", st.Errors, wantErr)
	}
	if st.Sampled != uint64(goroutines*perG)-wantErr {
		t.Fatalf("sampled = %d, want %d", st.Sampled, uint64(goroutines*perG)-wantErr)
	}
	if st.SampledOut != 0 {
		t.Fatalf("sampled out = %d at rate 1", st.SampledOut)
	}
	// Rings hold exactly their capacity once saturated.
	errs := 0
	for _, s := range rec.Traces("", 0, 0) {
		if s.Tier == TierError {
			errs++
		}
	}
	if errs != errorCapacity {
		t.Fatalf("error ring holds %d, want capacity %d", errs, errorCapacity)
	}
	if act := rec.Active(); len(act) != 0 {
		t.Fatalf("active leak: %+v", act)
	}
}
