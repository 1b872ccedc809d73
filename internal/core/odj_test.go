package core

import (
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/visgraph"
)

// diskJoin is DistanceJoin with every seed's field opening on its own disk's
// range query, the seeds in id order: the per-seed sums ODJ's counters must
// equal.
func diskJoin(s *Session, S, T *PointSet, dist float64) (_ []JoinPair, st Stats, _ error) {
	w := s.snap()
	defer s.finishCall(&st, w)
	self := S == T
	partnersS, partnersT := map[int64][]int64{}, map[int64][]int64{}
	err := rtree.JoinDistance(s.pointTree(S), s.pointTree(T), dist, func(a, b rtree.Item) bool {
		if !self || a.Data < b.Data {
			partnersS[a.Data] = append(partnersS[a.Data], b.Data)
			partnersT[b.Data] = append(partnersT[b.Data], a.Data)
			st.Candidates++
		}
		return true
	})
	if err != nil {
		return nil, st, err
	}
	seedsFromS := len(partnersS) <= len(partnersT)
	seedSet, otherSet, partners := S, T, partnersS
	if !seedsFromS {
		seedSet, otherSet, partners = T, S, partnersT
	}
	var out []JoinPair
	for _, seed := range slices.Sorted(maps.Keys(partners)) {
		f := s.newField(nil, seedSet.Point(seed), dist, &st)
		buried, err := f.sourceBuried()
		if err == nil && !buried {
			ps := partners[seed]
			for _, pid := range ps {
				f.add(otherSet.Point(pid))
			}
			err = f.settle(dist, func(i int, d float64) {
				st.Results++
				out = append(out, makePair(seedsFromS, seed, ps[i], d))
				if self {
					out = append(out, makePair(!seedsFromS, seed, ps[i], d))
				}
			})
		}
		f.close()
		if err != nil {
			return nil, st, err
		}
	}
	st.FalseHits = st.Candidates - st.Results
	sortRanked(out)
	return out, st, nil
}

func obstacleIDs(obs []visgraph.Obstacle) []int64 {
	ids := make([]int64, len(obs))
	for i, ob := range obs {
		ids[i] = ob.ID
	}
	return ids
}

// TestJoinWindowMatchesDiskScans: a join seed's field that opens through its
// run's window finds exactly what the range query of the seed's own disk
// returns, the same ids in the same order. A run of one seed reads exactly
// that query's pages, a longer run no more than its seeds' queries together
// and no page twice. ODJ's counters, and those of its S = T
// form that DBSCAN runs, equal the sums over fields that each scan their own
// disk. Worlds: a street map, and a scene of street blocks that share edges
// and corners with obstacles overlapping them.
func TestJoinWindowMatchesDiskScans(t *testing.T) {
	street := dataset.Generate(dataset.Config{Seed: 5, Universe: 2000, Obstacles: 300, Hotspots: 2, HotspotFraction: 0.5, MaxRunBlocks: 4})
	streetObst, err := NewObstacleSet(testTreeOpts(), street.Polys, true)
	if err != nil {
		t.Fatal(err)
	}
	lattice := latticeScene(t, rand.New(rand.NewSource(71)))
	overlap := overlapScene(t, rand.New(rand.NewSource(72)))
	mixed := sceneOf(t, append(slices.Clone(lattice.rects), overlap.rects...))
	worlds := []struct {
		name     string
		obst     *ObstacleSet
		universe float64
		points   func(rng *rand.Rand, n int) []geom.Point
	}{
		{"street", streetObst, 2000, street.Entities},
		{"touching and overlapping", mixed.obst, 100, func(rng *rand.Rand, n int) []geom.Point {
			pts := make([]geom.Point, n)
			for i := range pts {
				pts[i] = mixed.freePoint(rng, 100)
			}
			return pts
		}},
	}
	for _, w := range worlds {
		eng := NewEngine(w.obst, DefaultEngineOptions())
		rng := rand.New(rand.NewSource(73))
		for _, frac := range []float64{0, 0.0025, 0.01, 0.03, 0.08} {
			e := frac * w.universe
			for trial := 0; trial < 24; trial++ {
				// A run: seeds each within 2e of the one before, as DistanceJoin
				// groups them; every other run is a single seed.
				run := w.points(rng, 1)
				for n := (trial % 2) * (2 + rng.Intn(10)); len(run) < n; {
					p, a, r := run[len(run)-1], rng.Float64()*2*math.Pi, rng.Float64()*2*e
					run = append(run, geom.Pt(p.X+r*math.Cos(a), p.Y+r*math.Sin(a)))
				}
				s := bg(eng)
				box := geom.PointRect(run[0])
				for _, p := range run {
					box = box.ExtendPoint(p)
				}
				var win rtree.Window
				win.Reset(box, e)
				var winReads, diskReads, maxDisk uint64
				for _, p := range run {
					before := s.obstIO[obstScan].LogicalReads
					f := s.newField(nil, p, e, &Stats{})
					f.win = &win
					if err := f.scan(); err != nil {
						t.Fatal(err)
					}
					mid := s.obstIO[obstScan].LogicalReads
					want, err := s.relevantObstacles(disk(p, e), nil)
					if err != nil {
						t.Fatal(err)
					}
					if got, want := obstacleIDs(f.obs), obstacleIDs(want); !slices.Equal(got, want) {
						t.Fatalf("%s e=%g run of %d: seed %v opens on %v, its disk's scan %v", w.name, e, len(run), p, got, want)
					}
					f.close()
					own := s.obstIO[obstScan].LogicalReads - mid
					winReads, diskReads, maxDisk = winReads+mid-before, diskReads+own, max(maxDisk, own)
				}
				if len(run) == 1 && winReads != diskReads {
					t.Fatalf("%s e=%g: a one-seed window read %d pages, the disk's scan %d", w.name, e, winReads, diskReads)
				}
				if winReads > diskReads || winReads < maxDisk {
					t.Fatalf("%s e=%g run of %d: the window read %d pages, the disks' scans %d in all and %d at most", w.name, e, len(run), winReads, diskReads, maxDisk)
				}
				// Every page the run visited is in the window now: the run's
				// scans again read none.
				before := s.obstIO[obstScan].LogicalReads
				for _, p := range run {
					if _, err := s.relevantObstacles(disk(p, e), &win); err != nil {
						t.Fatal(err)
					}
				}
				if again := s.obstIO[obstScan].LogicalReads - before; again != 0 {
					t.Fatalf("%s e=%g run of %d: the window's second pass read %d pages", w.name, e, len(run), again)
				}
			}
		}
		S, err := NewPointSet(testTreeOpts(), w.points(rng, 150), true)
		if err != nil {
			t.Fatal(err)
		}
		T, err := NewPointSet(testTreeOpts(), w.points(rng, 60), true)
		if err != nil {
			t.Fatal(err)
		}
		for _, frac := range []float64{0.02, 0.05, 0.1} {
			e := frac * w.universe
			for _, pair := range [][2]*PointSet{{S, T}, {T, S}, {S, S}} {
				got, gst, err := bg(eng).DistanceJoin(pair[0], pair[1], e)
				if err != nil {
					t.Fatal(err)
				}
				want, wst, err := diskJoin(bg(eng), pair[0], pair[1], e)
				if err != nil {
					t.Fatal(err)
				}
				self := pair[0] == pair[1]
				if !slices.Equal(got, want) {
					t.Fatalf("%s e=%g self=%v: %d pairs, per-seed disks %d", w.name, e, self, len(got), len(want))
				}
				if gst.Candidates != wst.Candidates || gst.Results != wst.Results || gst.FalseHits != wst.FalseHits ||
					gst.DistComputations != wst.DistComputations || gst.Sweeps != wst.Sweeps || gst.SettledNodes != wst.SettledNodes {
					t.Fatalf("%s e=%g self=%v: stats %+v, per-seed disks %+v", w.name, e, self, gst, wst)
				}
				if gst.Candidates == 0 {
					t.Fatalf("%s e=%g self=%v: no candidates", w.name, e, self)
				}
			}
		}
	}
}
