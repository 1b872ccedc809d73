package obstacles_test

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	obstacles "repro"
)

// BenchmarkMVCCReadMix measures read throughput under a write mix. mode=mvcc is the engine as shipped:
// mutators copy the pages they touch and publish a new generation, readers
// pin and never block. mode=drain re-imposes the retired discipline at the
// harness level with an external RWMutex — every read holds the read side,
// every mutation takes the write side (waiting out in-flight readers, and
// stalling arrivals until it commits) — which is what the engine itself did
// before multi-versioning. The spread between the modes at a given mix is
// the price of drain-the-readers, paid back by COW; cow-copies/update is
// the write amplification MVCC pays instead.
func BenchmarkMVCCReadMix(b *testing.B) {
	for _, mode := range []string{"mvcc", "drain"} {
		for _, mix := range []float64{0, 0.01, 0.10} {
			b.Run(fmt.Sprintf("mode=%s/mix=%g%%", mode, mix*100), func(b *testing.B) {
				benchMVCCMix(b, mode == "drain", mix)
			})
		}
	}
}

func benchMVCCMix(b *testing.B, drain bool, mix float64) {
	const g = 4
	db, universe := clusterBench(b, 1000, 2000)
	rng := rand.New(rand.NewSource(5))
	queries := make([]obstacles.Point, 64)
	for i := range queries {
		queries[i] = obstacles.Pt(rng.Float64()*universe, rng.Float64()*universe)
	}
	radius := universe * 0.02
	for _, q := range queries {
		if _, err := db.NearestNeighbors(bctx, "P", q, 8); err != nil {
			b.Fatal(err)
		}
	}
	var (
		nQueries atomic.Uint64
		nUpdates atomic.Uint64
		qNanos   atomic.Uint64
		uNanos   atomic.Uint64
		placeMu  sync.Mutex
		// gate simulates the retired reader-drain: readers share it, each
		// mutation excludes them (drain mode only).
		gate sync.RWMutex
	)
	cowBefore := sample(b, db, "obstacles_cow_page_copies_total")
	per := (b.N + g - 1) / g
	var wg sync.WaitGroup
	b.ResetTimer()
	start := time.Now()
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(int64(100 + w)))
			var myPts, myObst []int64
			for i := 0; i < per; i++ {
				if wrng.Float64() < mix {
					nUpdates.Add(1)
					t0 := time.Now()
					if drain {
						gate.Lock()
					}
					err := churnUpdate(db, wrng, universe, &placeMu, &myPts, &myObst)
					if drain {
						gate.Unlock()
					}
					uNanos.Add(uint64(time.Since(t0)))
					if err != nil {
						b.Error(err)
						return
					}
					continue
				}
				nQueries.Add(1)
				t0 := time.Now()
				if drain {
					gate.RLock()
				}
				q := queries[(w*per+i)%len(queries)]
				var err error
				if i%2 == 0 {
					_, err = db.NearestNeighbors(bctx, "P", q, 8)
				} else {
					_, err = db.Range(bctx, "P", q, radius)
				}
				if drain {
					gate.RUnlock()
				}
				qNanos.Add(uint64(time.Since(t0)))
				if err != nil {
					b.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	elapsed := time.Since(start)
	if q := nQueries.Load(); q > 0 {
		b.ReportMetric(float64(q)/elapsed.Seconds(), "queries/sec")
		b.ReportMetric(float64(qNanos.Load())/float64(q)/1e6, "ms/query")
	}
	if u := nUpdates.Load(); u > 0 {
		cow := sample(b, db, "obstacles_cow_page_copies_total") - cowBefore
		b.ReportMetric(cow/float64(u), "cow-copies/update")
		// In drain mode this includes the wait for in-flight readers — the
		// latency MVCC removes from the write path.
		b.ReportMetric(float64(uNanos.Load())/float64(u)/1e6, "ms/update")
	}
	b.ReportMetric(float64(nUpdates.Load())/float64(b.N), "update-frac")
}
