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

// BenchmarkChurnMix measures query throughput under the dynamic-update
// workload. Workers over one shared Database run the mixed k-NN + range workload of
// BenchmarkConcurrentQueries, but a fraction of operations (the update mix)
// mutate the database in place instead: point churn (InsertPoints +
// DeletePoints keeping the live count steady) alternating with obstacle
// churn (AddObstacleRects + RemoveObstacles, each closure invalidating only
// the cached graphs whose coverage it touches). queries/sec is aggregate
// query throughput; pages/query is per-query page accesses via WithStats.
func BenchmarkChurnMix(b *testing.B) {
	for _, mix := range []float64{0, 0.01, 0.10} {
		for _, g := range []int{1, 4} {
			b.Run(fmt.Sprintf("mix=%g%%/goroutines=%d", mix*100, g), func(b *testing.B) {
				benchChurn(b, mix, g)
			})
		}
	}
}

func benchChurn(b *testing.B, mix float64, g int) {
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
		pages    atomic.Uint64
		// placeMu makes each obstacle probe-then-add atomic across workers:
		// two concurrent placements could otherwise both probe "clear" and
		// insert overlapping interiors, which the plane sweep does not allow.
		placeMu sync.Mutex
	)
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
					if err := churnUpdate(db, wrng, universe, &placeMu, &myPts, &myObst); err != nil {
						b.Error(err)
						return
					}
					continue
				}
				nQueries.Add(1)
				q := queries[(w*per+i)%len(queries)]
				var qs obstacles.QueryStats
				var err error
				if i%2 == 0 {
					_, err = db.NearestNeighbors(bctx, "P", q, 8, obstacles.WithStats(&qs))
				} else {
					_, err = db.Range(bctx, "P", q, radius, obstacles.WithStats(&qs))
				}
				if err != nil {
					b.Error(err)
					return
				}
				pages.Add(qs.PageAccesses)
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	elapsed := time.Since(start)
	if q := nQueries.Load(); q > 0 {
		b.ReportMetric(float64(q)/elapsed.Seconds(), "queries/sec")
		b.ReportMetric(float64(pages.Load())/float64(q), "pages/query")
	}
	b.ReportMetric(float64(nUpdates.Load())/float64(b.N), "update-frac")
}

// churnUpdate performs one steady-state mutation: point churn and obstacle
// churn alternate, each insert paired with a delayed delete so live counts
// stay roughly constant for the whole run.
func churnUpdate(db *obstacles.Database, rng *rand.Rand, universe float64, placeMu *sync.Mutex, myPts, myObst *[]int64) error {
	if rng.Intn(2) == 0 {
		ids, err := db.InsertPoints("P", obstacles.Pt(rng.Float64()*universe, rng.Float64()*universe))
		if err != nil {
			return err
		}
		*myPts = append(*myPts, ids...)
		if len(*myPts) > 32 {
			id := (*myPts)[0]
			*myPts = (*myPts)[1:]
			return db.DeletePoints("P", id)
		}
		return nil
	}
	// A small construction site; probe its corners so it (almost) never
	// overlaps an existing obstacle's interior. The probe and the add
	// commit as one atomic placement under placeMu, so concurrent workers
	// cannot both probe "clear" and insert overlapping sites.
	placeMu.Lock()
	defer placeMu.Unlock()
	s := universe * 0.002
	for try := 0; try < 8; try++ {
		x, y := rng.Float64()*(universe-s), rng.Float64()*(universe-s)
		clear := true
		for _, p := range []obstacles.Point{
			obstacles.Pt(x, y), obstacles.Pt(x+s, y),
			obstacles.Pt(x, y+s), obstacles.Pt(x+s, y+s),
			obstacles.Pt(x+s/2, y+s/2),
		} {
			inside, err := db.InsideObstacle(p)
			if err != nil {
				return err
			}
			if inside {
				clear = false
				break
			}
		}
		if !clear {
			continue
		}
		ids, err := db.AddObstacleRects(obstacles.R(x, y, x+s, y+s))
		if err != nil {
			return err
		}
		*myObst = append(*myObst, ids...)
		break
	}
	if len(*myObst) > 16 {
		id := (*myObst)[0]
		*myObst = (*myObst)[1:]
		return db.RemoveObstacles(id)
	}
	return nil
}
