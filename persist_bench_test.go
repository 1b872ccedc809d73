package obstacles

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
)

// benchWorld generates the shared benchmark data: a street world plus
// entity points (the same generator the paper-figure benchmarks use).
func benchWorld(nObst, nPts int) ([]Rect, []Point) {
	world := dataset.Generate(dataset.DefaultConfig(3, nObst))
	return world.Rects, world.Entities(world.EntityRand(1), nPts)
}

func buildDurable(b *testing.B, path string, rects []Rect, pts []Point) {
	b.Helper()
	db, err := Open(path, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := db.AddObstacleRects(rects...); err != nil {
		b.Fatal(err)
	}
	if err := db.AddDataset("P", pts); err != nil {
		b.Fatal(err)
	}
	if err := db.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkColdOpen measures reopening a checkpointed database file:
// superblock + catalog reads, tree attachment and the leaf scans that
// rebuild the point tables — the restart path that replaces a full rebuild.
func BenchmarkColdOpen(b *testing.B) {
	rects, pts := benchWorld(2000, 4000)
	path := filepath.Join(b.TempDir(), "cold.obs")
	buildDurable(b, path, rects, pts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := Open(path, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemRebuild is the baseline ColdOpen replaces: building the same
// database from source data (STR bulk loads) as NewDatabase must on every
// process start.
func BenchmarkMemRebuild(b *testing.B) {
	rects, pts := benchWorld(2000, 4000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := NewDatabaseFromRects(rects, DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if err := db.AddDataset("P", pts); err != nil {
			b.Fatal(err)
		}
	}
}

// churnLoop runs b.N insert-one/delete-one point mutations, the cost of a
// mutation commit on each backend.
func churnLoop(b *testing.B, db *Database) {
	b.Helper()
	rng := rand.New(rand.NewSource(77))
	var live []int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ids, err := db.InsertPoints("P", Pt(rng.Float64()*10000, rng.Float64()*10000))
		if err != nil {
			b.Fatal(err)
		}
		live = append(live, ids...)
		if len(live) > 256 {
			if err := db.DeletePoints("P", live[0]); err != nil {
				b.Fatal(err)
			}
			live = live[1:]
		}
	}
}

// BenchmarkDurableChurn measures point-churn throughput with every
// mutation committing through the WAL (append + fsync per op; checkpoints
// at the default 4 MiB threshold are included).
func BenchmarkDurableChurn(b *testing.B) {
	rects, pts := benchWorld(1000, 2000)
	path := filepath.Join(b.TempDir(), "churn.obs")
	buildDurable(b, path, rects, pts)
	db, err := Open(path, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	churnLoop(b, db)
}

// BenchmarkMemChurn is the same churn on the in-memory backend: the gap to
// BenchmarkDurableChurn is the price of durability.
func BenchmarkMemChurn(b *testing.B) {
	rects, pts := benchWorld(1000, 2000)
	db, err := NewDatabaseFromRects(rects, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	if err := db.AddDataset("P", pts); err != nil {
		b.Fatal(err)
	}
	churnLoop(b, db)
}

// churnLoopParallel spreads b.N insert-one/delete-one mutations over the
// given number of goroutines, each churning its own id window — the
// multi-writer durable workload whose commits the group committer batches
// into shared fsyncs.
func churnLoopParallel(b *testing.B, db *Database, workers int) {
	b.Helper()
	var next atomic.Int64
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	b.ResetTimer()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(77 + int64(w)*131))
			var live []int64
			for next.Add(1) <= int64(b.N) {
				ids, err := db.InsertPoints("P", Pt(rng.Float64()*10000, rng.Float64()*10000))
				if err != nil {
					errc <- err
					return
				}
				live = append(live, ids...)
				if len(live) > 64 {
					if err := db.DeletePoints("P", live[0]); err != nil {
						errc <- err
						return
					}
					live = live[1:]
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		b.Fatal(err)
	}
	m := scrape(b, db)
	if fsyncs := m["obstacles_wal_fsyncs_total"]; fsyncs > 0 {
		b.ReportMetric(m["obstacles_commits_total"]/fsyncs, "commits/fsync")
	}
}

// BenchmarkDurableChurnParallel measures multi-writer durable churn under
// group commit (the default): concurrent mutators stage while a committer
// fsyncs, so throughput scales with batching rather than fsync count.
func BenchmarkDurableChurnParallel(b *testing.B) {
	for _, workers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			rects, pts := benchWorld(1000, 2000)
			path := filepath.Join(b.TempDir(), "churn.obs")
			buildDurable(b, path, rects, pts)
			db, err := Open(path, DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			churnLoopParallel(b, db, workers)
		})
	}
}
