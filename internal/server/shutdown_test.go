package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	obstacles "repro"
)

// admissionBlocker wires testHookAdmitted so a test can hold chosen
// requests in flight at a deterministic point (admitted, slot held, handler
// not yet run). Push a release channel with park() before firing a request;
// that request blocks on it. Requests with no parked channel pass straight
// through.
type admissionBlocker struct {
	route string
	ch    chan chan struct{}
}

func installBlocker(t *testing.T, route string) *admissionBlocker {
	t.Helper()
	b := &admissionBlocker{route: route, ch: make(chan chan struct{}, 16)}
	testHookAdmitted = func(r string) {
		if r != b.route {
			return
		}
		select {
		case rel := <-b.ch:
			<-rel
		default:
		}
	}
	t.Cleanup(func() { testHookAdmitted = nil })
	return b
}

func (b *admissionBlocker) park() chan struct{} {
	rel := make(chan struct{})
	b.ch <- rel
	return rel
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGracefulShutdownDrains is the shutdown contract end to end: an
// in-flight query survives the drain and completes normally, new requests
// are refused with the typed 503, the database stays open (and mutable)
// until the drain finishes, and only then does Shutdown close it.
func TestGracefulShutdownDrains(t *testing.T) {
	db := newDurableTestDB(t)
	s := New(db, Config{MaxInFlight: 4})
	ts := httptest.NewServer(s)
	defer ts.Close()
	q := freePoint(t, db)
	b := obstacles.Pt(q.X+800, q.Y+600)
	want, err := db.ObstructedDistance(context.Background(), q, b)
	if err != nil {
		t.Fatal(err)
	}
	blocker := installBlocker(t, "distance")

	// A long query: admitted, then parked on the blocker.
	rel := blocker.park()
	type result struct {
		status int
		body   []byte
	}
	longDone := make(chan result, 1)
	go func() {
		st, raw := post(t, ts.URL+"/v1/distance", DistanceRequest{
			A: Pt{q.X, q.Y}, B: Pt{b.X, b.Y},
		})
		longDone <- result{st, raw}
	}()
	waitFor(t, "long query in flight", func() bool { return s.gate.inFlight() == 1 })

	// Shutdown starts draining but cannot finish: the long query holds a
	// slot.
	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.Shutdown(context.Background()) }()
	waitFor(t, "drain to start", s.Draining)

	// New requests are shed with the typed draining error.
	st, raw := post(t, ts.URL+"/v1/distance", DistanceRequest{A: Pt{0, 0}, B: Pt{1, 1}})
	if st != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: status %d (%s), want 503", st, raw)
	}
	if e := wireErr(t, raw); e.Code != CodeDraining {
		t.Fatalf("request during drain: code %q, want %q", e.Code, CodeDraining)
	}

	// Health answers during the drain (it bypasses the gate) and says so.
	st, raw = get(t, ts.URL+"/healthz")
	if st != 200 {
		t.Fatalf("healthz during drain: %d", st)
	}
	var hr HealthResponse
	decodeInto(t, raw, &hr)
	if hr.Status != "draining" {
		t.Fatalf("healthz status %q during drain", hr.Status)
	}

	// The database is still open: Shutdown must not close it while a
	// request is in flight. A direct mutation proves it.
	if _, err := db.InsertPoints("P", obstacles.Pt(1, 2)); err != nil {
		t.Fatalf("database closed before drain finished: %v", err)
	}
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) with a request still in flight", err)
	default:
	}

	// Release the long query: it completes with a full answer.
	close(rel)
	res := <-longDone
	if res.status != 200 {
		t.Fatalf("long query failed during drain: %d %s", res.status, res.body)
	}
	var dr DistanceResponse
	decodeInto(t, res.body, &dr)
	if float64(dr.Dist) != want {
		t.Fatalf("drained query answered %v, library says %v", dr.Dist, want)
	}

	// Shutdown now finishes and has closed the database.
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// The commit path reports ErrDatabaseClosed; a mutation can also trip
	// over the released file earlier, during its index reads. Either way it
	// must fail — the handle is provably closed.
	if _, err := db.InsertPoints("P", obstacles.Pt(3, 4)); err == nil {
		t.Fatal("mutation after Shutdown succeeded on a closed database")
	}

	// Idempotent.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

// TestOverloadSheds saturates a one-slot gate and checks the 429 contract:
// the executing request holds the slot, one waiter queues, and the next
// arrival is shed immediately with the typed overloaded error and a
// Retry-After header.
func TestOverloadSheds(t *testing.T) {
	db := newTestDB(t)
	defer db.Close()
	s := New(db, Config{MaxInFlight: 1, MaxQueued: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()
	q := freePoint(t, db)
	blocker := installBlocker(t, "distance")

	rel := blocker.park()
	aDone := make(chan int, 1)
	go func() {
		st, _ := post(t, ts.URL+"/v1/distance", DistanceRequest{A: Pt{q.X, q.Y}, B: Pt{q.X + 10, q.Y}})
		aDone <- st
	}()
	waitFor(t, "request A in flight", func() bool { return s.gate.inFlight() == 1 })

	bDone := make(chan int, 1)
	go func() {
		st, _ := post(t, ts.URL+"/v1/distance", DistanceRequest{A: Pt{q.X, q.Y}, B: Pt{q.X, q.Y + 10}})
		bDone <- st
	}()
	waitFor(t, "request B queued", func() bool { return s.gate.queued.Load() == 1 })

	// C finds the queue full: shed, typed, with retry advice.
	resp, err := http.Post(ts.URL+"/v1/distance", "application/json",
		jsonBody(t, DistanceRequest{A: Pt{0, 0}, B: Pt{1, 1}}))
	if err != nil {
		t.Fatal(err)
	}
	raw := readAll(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated request: status %d (%s), want 429", resp.StatusCode, raw)
	}
	if e := wireErr(t, raw); e.Code != CodeOverloaded {
		t.Fatalf("saturated request: code %q, want %q", e.Code, CodeOverloaded)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if got := s.met.rejectedOverload.Value(); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}

	// Unblock: A and B both complete.
	close(rel)
	if st := <-aDone; st != 200 {
		t.Fatalf("request A: %d", st)
	}
	if st := <-bDone; st != 200 {
		t.Fatalf("request B: %d", st)
	}
}

// TestQueuedWaiterHonorsDeadline: a request whose deadline — the client's,
// or its own ?timeout= — expires while it waits for a slot gives up instead
// of occupying the queue forever.
func TestQueuedWaiterHonorsDeadline(t *testing.T) {
	db := newTestDB(t)
	defer db.Close()
	s := New(db, Config{MaxInFlight: 1, MaxQueued: 4})
	ts := httptest.NewServer(s)
	defer ts.Close()
	q := freePoint(t, db)
	blocker := installBlocker(t, "distance")

	rel := blocker.park()
	aDone := make(chan int, 1)
	go func() {
		st, _ := post(t, ts.URL+"/v1/distance", DistanceRequest{A: Pt{q.X, q.Y}, B: Pt{q.X + 10, q.Y}})
		aDone <- st
	}()
	waitFor(t, "request A in flight", func() bool { return s.gate.inFlight() == 1 })

	// B queues with a short client-side context; the queue admission path
	// watches the request context directly.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/distance",
		jsonBody(t, DistanceRequest{A: Pt{0, 0}, B: Pt{1, 1}}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err = http.DefaultClient.Do(req); err == nil {
		t.Fatal("queued request outlived its context")
	}

	// C queues with ?timeout= and no client deadline: the server's own
	// deadline bounds the wait, so C gets a typed 504 while A still holds
	// the slot. A malformed ?timeout= is refused before admission: 400 at
	// once, no wait behind A.
	for _, c := range []struct {
		timeout string
		status  int
		code    string
	}{
		{"50ms", http.StatusGatewayTimeout, CodeDeadlineExceeded},
		{"bogus", http.StatusBadRequest, CodeBadRequest},
	} {
		type result struct {
			status int
			body   []byte
		}
		done := make(chan result, 1)
		go func() {
			st, raw := post(t, ts.URL+"/v1/distance?timeout="+c.timeout, DistanceRequest{A: Pt{0, 0}, B: Pt{1, 1}})
			done <- result{st, raw}
		}()
		var res result
		select {
		case res = <-done:
		case <-time.After(5 * time.Second):
			close(rel) // let the stuck request through so the test can end
			t.Fatalf("?timeout=%s: still waiting behind request A after 5s", c.timeout)
		}
		if res.status != c.status {
			t.Fatalf("?timeout=%s behind a busy slot: status %d (%s), want %d", c.timeout, res.status, res.body, c.status)
		}
		if e := wireErr(t, res.body); e.Code != c.code {
			t.Fatalf("?timeout=%s behind a busy slot: code %q, want %q", c.timeout, e.Code, c.code)
		}
		if s.gate.inFlight() != 1 {
			t.Fatalf("request A left the slot before its release: %d in flight", s.gate.inFlight())
		}
	}

	close(rel)
	if st := <-aDone; st != 200 {
		t.Fatalf("request A: %d", st)
	}
	waitFor(t, "gate to empty", func() bool { return s.gate.inFlight() == 0 && s.gate.queued.Load() == 0 })
}
