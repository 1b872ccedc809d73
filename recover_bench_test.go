package obstacles

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/pagefile"
)

// recoverScales are the two worlds the self-healing benchmarks run at.
var recoverScales = []struct{ nObst, nPts int }{
	{2000, 4000},
	{8000, 16000},
}

// buildDurableWorld creates a checkpointed durable database of the given
// scale with a fault injector attached (no rules installed yet).
func buildDurableWorld(b *testing.B, nObst, nPts int) (*Database, *pagefile.Injector, string) {
	b.Helper()
	inj := pagefile.NewInjector()
	opts := DefaultOptions()
	opts.Chaos = inj
	path := filepath.Join(b.TempDir(), "bench.obs")
	db, err := Open(path, opts)
	if err != nil {
		b.Fatal(err)
	}
	world := dataset.Generate(dataset.DefaultConfig(3, nObst))
	if _, err := db.AddObstacleRects(world.Rects...); err != nil {
		b.Fatal(err)
	}
	if err := db.AddDataset("P", world.Entities(world.EntityRand(1), nPts)); err != nil {
		b.Fatal(err)
	}
	// Churn a little so the WAL and free list look lived-in, then land
	// everything on disk: both recovery and a cold reopen start from the
	// same checkpointed image plus a short WAL tail.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 32; i++ {
		if _, err := db.InsertPoints("P", Pt(rng.Float64()*1000, rng.Float64()*1000)); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	return db, inj, path
}

// BenchmarkRecoverInPlace measures one poison -> Recover() cycle: the handle
// degrades on an injected WAL fsync fault and recovery rebuilds the durable
// layer from disk in place (including its trailing checkpoint probe),
// without dropping pinned readers. Compare against BenchmarkColdReopen, the
// restart it replaces.
func BenchmarkRecoverInPlace(b *testing.B) {
	for _, sc := range recoverScales {
		b.Run(fmt.Sprintf("obst=%d/pts=%d", sc.nObst, sc.nPts), func(b *testing.B) {
			db, inj, _ := buildDurableWorld(b, sc.nObst, sc.nPts)
			defer db.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				inj.Clear()
				inj.Add(pagefile.FaultRule{Op: pagefile.OpWALSync, Count: 1})
				if _, err := db.InsertPoints("P", Pt(1, 1)); err == nil {
					b.Fatal("insert during fault succeeded")
				}
				if !db.Degraded() {
					b.Fatal("handle not degraded")
				}
				b.StartTimer()
				if err := db.Recover(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkColdReopen measures the alternative to in-place recovery: a full
// Close + Open of the same checkpointed file — what an operator-driven
// process restart costs, minus process startup itself.
func BenchmarkColdReopen(b *testing.B) {
	for _, sc := range recoverScales {
		b.Run(fmt.Sprintf("obst=%d/pts=%d", sc.nObst, sc.nPts), func(b *testing.B) {
			db, _, path := buildDurableWorld(b, sc.nObst, sc.nPts)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := db.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				var err error
				if db, err = Open(path, DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			db.Close()
		})
	}
}

// BenchmarkScrub measures the online checksum scrub: every allocated page
// read back and verified against its CRC while the database stays live.
// Reports pages/s.
func BenchmarkScrub(b *testing.B) {
	for _, sc := range recoverScales {
		b.Run(fmt.Sprintf("obst=%d/pts=%d", sc.nObst, sc.nPts), func(b *testing.B) {
			db, _, _ := buildDurableWorld(b, sc.nObst, sc.nPts)
			defer db.Close()
			b.ResetTimer()
			var pages int
			var dur time.Duration
			for i := 0; i < b.N; i++ {
				rep, err := db.Scrub(ctx)
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Clean() {
					b.Fatalf("scrub found corruption: %+v", rep)
				}
				pages += rep.Scanned
				dur += rep.Duration
			}
			b.ReportMetric(float64(pages)/dur.Seconds(), "pages/s")
		})
	}
}
