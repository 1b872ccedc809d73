package obstacles

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

func TestOptionsValidation(t *testing.T) {
	bad := []Options{
		{PageSize: -1},
		{BufferFraction: -0.5},
		{BufferFraction: 1.5},
		{BufferFraction: math.NaN()},
	}
	for _, o := range bad {
		if _, err := NewDatabaseFromRects(nil, o); err == nil {
			t.Errorf("options %+v accepted, want error", o)
		}
	}
	// Zero values still mean "use the defaults".
	db, err := NewDatabaseFromRects([]Rect{R(0, 0, 1, 1)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if db.opts.PageSize != 4096 || db.opts.BufferFraction != 0.10 {
		t.Errorf("zero options resolved to %+v", db.opts)
	}
	// A tiny positive page size fails in the index layer with a descriptive
	// error rather than being coerced.
	if _, err := NewDatabaseFromRects(nil, Options{PageSize: 64}); err == nil {
		t.Error("PageSize 64 accepted")
	}
}

func TestInsertDeletePoints(t *testing.T) {
	db := cityDB(t, DefaultOptions())
	if err := db.AddDataset("p", []Point{Pt(5, 5), Pt(45, 5)}); err != nil {
		t.Fatal(err)
	}
	ids, err := db.InsertPoints("p", Pt(95, 95), Pt(5, 95))
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != 2 || ids[1] != 3 {
		t.Fatalf("InsertPoints ids = %v", ids)
	}
	if n, _ := db.DatasetLen("p"); n != 4 {
		t.Fatalf("DatasetLen = %d", n)
	}
	nn, err := db.NearestNeighbors(ctx, "p", Pt(94, 94), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(nn) != 1 || nn[0].ID != 2 {
		t.Fatalf("NN after insert = %v", nn)
	}
	if err := db.DeletePoints("p", 2); err != nil {
		t.Fatal(err)
	}
	if n, _ := db.DatasetLen("p"); n != 3 {
		t.Fatalf("DatasetLen after delete = %d", n)
	}
	nn, err = db.NearestNeighbors(ctx, "p", Pt(94, 94), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(nn) != 1 || nn[0].ID == 2 {
		t.Fatalf("NN after delete = %v", nn)
	}
	// Deleting again, or deleting an id that never existed, errors with no
	// partial effect.
	if err := db.DeletePoints("p", 2); err == nil {
		t.Error("double delete accepted")
	}
	if err := db.DeletePoints("p", 0, 77); err == nil {
		t.Error("unknown id accepted")
	}
	if n, _ := db.DatasetLen("p"); n != 3 {
		t.Fatalf("failed delete mutated the dataset: len = %d", n)
	}
	if err := db.DeletePoints("p", 0, 0); err == nil {
		t.Error("duplicate id in one delete accepted")
	}
	// Freed ids are reused before the id space grows.
	ids, err = db.InsertPoints("p", Pt(50, 95))
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != 2 {
		t.Fatalf("freed id not reused: got %v", ids)
	}
	if _, err := db.InsertPoints("nope", Pt(0, 0)); err == nil {
		t.Error("insert into unknown dataset accepted")
	}
}

func TestAddRemoveObstacles(t *testing.T) {
	// One wall between a and b; removing it straightens the path, adding it
	// back restores the detour.
	db, err := NewDatabaseFromRects([]Rect{R(40, -50, 60, 50)}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	a, b := Pt(0, 0), Pt(100, 0)
	blocked, err := db.ObstructedDistance(ctx, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if blocked <= 100 {
		t.Fatalf("blocked distance = %v, want > 100", blocked)
	}
	if err := db.RemoveObstacles(0); err != nil {
		t.Fatal(err)
	}
	if db.NumObstacles() != 0 {
		t.Fatalf("NumObstacles = %d", db.NumObstacles())
	}
	d, err := db.ObstructedDistance(ctx, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-100) > 1e-9 {
		t.Fatalf("distance after removal = %v, want 100", d)
	}
	ids, err := db.AddObstacleRects(R(40, -50, 60, 50))
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != 0 {
		t.Fatalf("AddObstacleRects ids = %v (freed obstacle id should be reused)", ids)
	}
	d, err = db.ObstructedDistance(ctx, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-blocked) > 1e-9 {
		t.Fatalf("distance after re-add = %v, want %v", d, blocked)
	}
	if err := db.RemoveObstacles(5); err == nil {
		t.Error("unknown obstacle id accepted")
	}
	if err := db.RemoveObstacles(0, 0); err == nil {
		t.Error("duplicate obstacle id accepted")
	}
	if _, err := db.AddObstacles(Polygon{}); err == nil {
		t.Error("zero-value polygon accepted")
	}
	if _, err := db.AddObstacleRects(Rect{MinX: 1, MaxX: 0}); err == nil {
		t.Error("empty rect accepted")
	}
}

// TestStreamsSurviveConcurrentUpdate pins the MVCC read contract: a stream
// started before a mutation commits finishes without error and yields
// exactly the answer set of the generation it pinned — the mutation neither
// interrupts it nor leaks into it — while a stream started afterwards sees
// the new state.
func TestStreamsSurviveConcurrentUpdate(t *testing.T) {
	db := cityDB(t, DefaultOptions())
	pts := []Point{Pt(5, 5), Pt(45, 5), Pt(95, 95), Pt(5, 95), Pt(45, 45)}
	if err := db.AddDataset("p", pts); err != nil {
		t.Fatal(err)
	}
	if err := db.AddDataset("q", pts); err != nil {
		t.Fatal(err)
	}
	q := Pt(0, 0)
	sameNeighbors := func(label string, got, want []Neighbor) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: got %d results, pinned generation has %d", label, len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i].ID || math.Abs(got[i].Distance-want[i].Distance) > 1e-12 {
				t.Fatalf("%s result %d: got %+v, want %+v", label, i, got[i], want[i])
			}
		}
	}

	var want []Neighbor
	for nb, err := range db.Nearest(ctx, "p", q) {
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, nb)
	}

	// Nearest: point and obstacle mutations between pulls leave the stream
	// on its pinned generation.
	var got []Neighbor
	var wallIDs []int64
	for nb, err := range db.Nearest(ctx, "p", q) {
		if err != nil {
			t.Fatalf("Nearest after update: err = %v, want stream to survive", err)
		}
		got = append(got, nb)
		if len(got) == 1 {
			if _, err := db.InsertPoints("p", Pt(1, 1)); err != nil {
				t.Fatal(err)
			}
			if wallIDs, err = db.AddObstacleRects(R(70, 70, 75, 75)); err != nil {
				t.Fatal(err)
			}
		}
	}
	sameNeighbors("Nearest across update", got, want)

	// A stream started after the commit reads the new generation: the
	// inserted entity appears.
	got = got[:0]
	for nb, err := range db.Nearest(ctx, "p", q) {
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, nb)
	}
	if len(got) != len(want)+1 {
		t.Fatalf("fresh stream sees %d entities, want %d", len(got), len(want)+1)
	}

	// Closest: an obstacle removal mid-stream does not disturb the pinned
	// pair order either.
	var wantPairs []Pair
	for p, err := range db.Closest(ctx, "p", "q") {
		if err != nil {
			t.Fatal(err)
		}
		wantPairs = append(wantPairs, p)
	}
	var gotPairs []Pair
	for p, err := range db.Closest(ctx, "p", "q") {
		if err != nil {
			t.Fatalf("Closest after update: err = %v, want stream to survive", err)
		}
		gotPairs = append(gotPairs, p)
		if len(gotPairs) == 1 {
			if err := db.RemoveObstacles(wallIDs...); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(gotPairs) != len(wantPairs) {
		t.Fatalf("Closest across update: got %d pairs, pinned generation has %d", len(gotPairs), len(wantPairs))
	}
	for i := range gotPairs {
		if gotPairs[i] != wantPairs[i] {
			t.Fatalf("Closest pair %d: got %+v, want %+v", i, gotPairs[i], wantPairs[i])
		}
	}
}

// TestCachedDistancesPerGeneration pins the graph cache's contract under
// MVCC: a cached graph serves exactly the obstacle generation it was built
// at. Readers on snapshots pinned at alternating generations — two held open
// for the whole test, the rest taken fresh while a writer adds and removes
// one wall across their paths — run cached ObstructedDistances, and every
// answer must equal an uncached database's over that reader's obstacles.
// Run it under -race.
func TestCachedDistancesPerGeneration(t *testing.T) {
	base := []Rect{R(20, 50, 30, 60), R(70, -70, 80, -60), R(-40, -10, -30, 10)}
	wall := R(45, -40, 55, 40)
	q := Pt(0, 0)
	targets := []Point{Pt(100, 0), Pt(100, 30), Pt(50, 80), Pt(-60, 0)}
	open := func(rects []Rect, cached bool) *Database {
		db, err := NewDatabaseFromRects(rects, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !cached {
			db.engine.EnableGraphCache(0)
		}
		t.Cleanup(func() { db.Close() })
		return db
	}
	// want[1] is the walled world's answer, want[0] the open one's.
	var want [2][]float64
	for walled, rects := range [][]Rect{base, append(base[:len(base):len(base)], wall)} {
		d, err := open(rects, false).ObstructedDistances(ctx, q, targets)
		if err != nil {
			t.Fatal(err)
		}
		want[walled] = d
	}
	if !(want[1][0] > want[0][0]) {
		t.Fatalf("the wall does not lengthen the path to %v: %v vs %v", targets[0], want[1][0], want[0][0])
	}

	db := open(base, true)
	opened := db.Snapshot()
	defer opened.Close()
	wallIDs, err := db.AddObstacleRects(wall)
	if err != nil {
		t.Fatal(err)
	}
	walled := db.Snapshot()
	defer walled.Close()

	const readers, rounds = 4, 25
	done := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := db.RemoveObstacles(wallIDs...); err != nil {
				t.Error(err)
				return
			}
			ids, err := db.AddObstacleRects(wall)
			if err != nil {
				t.Error(err)
				return
			}
			wallIDs = ids
		}
	}()
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				snap := []*Snapshot{opened, walled}[(r+i)%2]
				if i%3 == 2 {
					snap = db.Snapshot()
				}
				state := 0
				if snap.NumObstacles() == len(base)+1 {
					state = 1
				}
				got, err := snap.ObstructedDistances(ctx, q, targets)
				if snap != opened && snap != walled {
					snap.Close()
				}
				if err != nil {
					t.Error(err)
					return
				}
				for j := range got {
					if got[j] != want[state][j] {
						t.Errorf("reader %d round %d (walled %v) to %v: cached %v, uncached %v", r, i, state == 1, targets[j], got[j], want[state][j])
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(done)
	writer.Wait()
	if hits := scrape(t, db)["obstacles_graph_cache_hits_total"]; hits == 0 {
		t.Fatal("no reader hit the graph cache: the test exercises nothing")
	}
}

// churnWorld tracks the model state of a churn script: which points and
// obstacles are live, and which grid cells hold an obstacle (so added
// obstacles never overlap).
type churnWorld struct {
	rng       *rand.Rand
	livePts   map[int64]Point
	obstCells map[int64]int // live obstacle id -> grid cell
	freeCells []int
}

func (w *churnWorld) cellRect(cell int) Rect {
	x := float64(cell%10)*100 + 20
	y := float64(cell/10)*100 + 20
	return R(x, y, x+55, y+55)
}

// TestChurnMatchesRebuild is the acceptance test of the update subsystem:
// after a randomized script of interleaved point/obstacle inserts and
// deletes — with queries running concurrently the whole time — every query
// verb must return results identical to a fresh Database rebuilt from the
// final state.
func TestChurnMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	w := &churnWorld{rng: rng, livePts: map[int64]Point{}, obstCells: map[int64]int{}}
	// Seed: obstacles on half the cells of a 10x10 grid over [0,1000]^2.
	var rects []Rect
	for cell := 0; cell < 100; cell++ {
		if rng.Float64() < 0.5 {
			rects = append(rects, w.cellRect(cell))
			w.obstCells[int64(len(rects)-1)] = cell
		} else {
			w.freeCells = append(w.freeCells, cell)
		}
	}
	db, err := NewDatabaseFromRects(rects, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	randPt := func() Point { return Pt(rng.Float64()*1000, rng.Float64()*1000) }
	var initial []Point
	for i := 0; i < 150; i++ {
		initial = append(initial, randPt())
		w.livePts[int64(i)] = initial[i]
	}
	if err := db.AddDataset("P", initial); err != nil {
		t.Fatal(err)
	}
	var tPts []Point
	for i := 0; i < 40; i++ {
		tPts = append(tPts, randPt())
	}
	if err := db.AddDataset("T", tPts); err != nil {
		t.Fatal(err)
	}

	// Queries run concurrently with the churn below; one-shot verbs must
	// never observe a torn state (they serialize against writers).
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			qrng := rand.New(rand.NewSource(int64(1000 + g)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := Pt(qrng.Float64()*1000, qrng.Float64()*1000)
				var err error
				switch i % 3 {
				case 0:
					_, err = db.NearestNeighbors(ctx, "P", q, 4)
				case 1:
					_, err = db.Range(ctx, "P", q, 120)
				case 2:
					_, err = db.ObstructedDistance(ctx, q, Pt(qrng.Float64()*1000, qrng.Float64()*1000))
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}

	// The churn script: 200 random mutations.
	for op := 0; op < 200; op++ {
		switch rng.Intn(4) {
		case 0: // insert points
			n := 1 + rng.Intn(3)
			pts := make([]Point, n)
			for i := range pts {
				pts[i] = randPt()
			}
			ids, err := db.InsertPoints("P", pts...)
			if err != nil {
				t.Fatal(err)
			}
			for i, id := range ids {
				if _, live := w.livePts[id]; live {
					t.Fatalf("InsertPoints reassigned live id %d", id)
				}
				w.livePts[id] = pts[i]
			}
		case 1: // delete a point
			for id := range w.livePts {
				if err := db.DeletePoints("P", id); err != nil {
					t.Fatal(err)
				}
				delete(w.livePts, id)
				break
			}
		case 2: // add an obstacle in a free cell
			if len(w.freeCells) == 0 {
				continue
			}
			i := rng.Intn(len(w.freeCells))
			cell := w.freeCells[i]
			w.freeCells = append(w.freeCells[:i], w.freeCells[i+1:]...)
			ids, err := db.AddObstacleRects(w.cellRect(cell))
			if err != nil {
				t.Fatal(err)
			}
			if _, live := w.obstCells[ids[0]]; live {
				t.Fatalf("AddObstacles reassigned live id %d", ids[0])
			}
			w.obstCells[ids[0]] = cell
		case 3: // remove an obstacle
			for id, cell := range w.obstCells {
				if err := db.RemoveObstacles(id); err != nil {
					t.Fatal(err)
				}
				delete(w.obstCells, id)
				w.freeCells = append(w.freeCells, cell)
				break
			}
		}
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Rebuild a fresh database from the final state. Ids differ (the churned
	// database's id space is sparse), so all comparisons go by location.
	var finalRects []Rect
	for id := range w.obstCells {
		finalRects = append(finalRects, w.cellRect(w.obstCells[id]))
	}
	var finalPts []Point
	for _, p := range w.livePts {
		finalPts = append(finalPts, p)
	}
	sort.Slice(finalPts, func(i, j int) bool {
		if finalPts[i].X != finalPts[j].X {
			return finalPts[i].X < finalPts[j].X
		}
		return finalPts[i].Y < finalPts[j].Y
	})
	fresh, err := NewDatabaseFromRects(finalRects, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.AddDataset("P", finalPts); err != nil {
		t.Fatal(err)
	}
	if err := fresh.AddDataset("T", tPts); err != nil {
		t.Fatal(err)
	}
	if n, _ := db.DatasetLen("P"); n != len(finalPts) {
		t.Fatalf("churned DatasetLen = %d, model has %d", n, len(finalPts))
	}
	if db.NumObstacles() != len(finalRects) {
		t.Fatalf("churned NumObstacles = %d, model has %d", db.NumObstacles(), len(finalRects))
	}

	type loc struct{ x, y, d float64 }
	key := func(p Point, d float64) loc {
		return loc{math.Round(p.X*1e6) / 1e6, math.Round(p.Y*1e6) / 1e6, math.Round(d*1e6) / 1e6}
	}
	// nbKeys normalizes a result list for comparison: finite-distance
	// results as sorted (location, distance) keys, unreachable ones as a
	// bare count — which unreachable entities surface (all at +Inf) is an
	// id-order tie the two databases may break differently.
	nbKeys := func(nbs []Neighbor) ([]loc, int) {
		var out []loc
		inf := 0
		for _, nb := range nbs {
			if math.IsInf(nb.Distance, 1) {
				inf++
				continue
			}
			out = append(out, key(nb.Point, nb.Distance))
		}
		sort.Slice(out, func(i, j int) bool {
			a, b := out[i], out[j]
			if a.d != b.d {
				return a.d < b.d
			}
			if a.x != b.x {
				return a.x < b.x
			}
			return a.y < b.y
		})
		return out, inf
	}
	queries := make([]Point, 6)
	for i := range queries {
		queries[i] = randPt()
	}
	for _, q := range queries {
		for _, radius := range []float64{80, 200} {
			a, err := db.Range(ctx, "P", q, radius)
			if err != nil {
				t.Fatal(err)
			}
			b, err := fresh.Range(ctx, "P", q, radius)
			if err != nil {
				t.Fatal(err)
			}
			ka, ia := nbKeys(a)
			kb, ib := nbKeys(b)
			if len(ka) != len(kb) || ia != ib {
				t.Fatalf("Range(%v, %g): churned %d+%d results, fresh %d+%d", q, radius, len(ka), ia, len(kb), ib)
			}
			for i := range ka {
				if ka[i] != kb[i] {
					t.Fatalf("Range(%v, %g) result %d: churned %+v, fresh %+v", q, radius, i, ka[i], kb[i])
				}
			}
		}
		a, err := db.NearestNeighbors(ctx, "P", q, 5)
		if err != nil {
			t.Fatal(err)
		}
		b, err := fresh.NearestNeighbors(ctx, "P", q, 5)
		if err != nil {
			t.Fatal(err)
		}
		ka, ia := nbKeys(a)
		kb, ib := nbKeys(b)
		if len(ka) != len(kb) || ia != ib {
			t.Fatalf("NN(%v): churned %d+%d results, fresh %d+%d", q, len(ka), ia, len(kb), ib)
		}
		for i := range ka {
			if ka[i] != kb[i] {
				t.Fatalf("NN(%v) result %d: churned %+v, fresh %+v", q, i, ka[i], kb[i])
			}
		}
		// The incremental stream agrees with the fresh database too.
		var sa, sb []Neighbor
		for nb, err := range db.Nearest(ctx, "P", q, WithLimit(5)) {
			if err != nil {
				t.Fatal(err)
			}
			sa = append(sa, nb)
		}
		for nb, err := range fresh.Nearest(ctx, "P", q, WithLimit(5)) {
			if err != nil {
				t.Fatal(err)
			}
			sb = append(sb, nb)
		}
		ka, ia = nbKeys(sa)
		kb, ib = nbKeys(sb)
		if len(ka) != len(kb) || ia != ib {
			t.Fatalf("Nearest(%v): churned %d+%d results, fresh %d+%d", q, len(ka), ia, len(kb), ib)
		}
		for i := range ka {
			if ka[i] != kb[i] {
				t.Fatalf("Nearest(%v) result %d: churned %+v, fresh %+v", q, i, ka[i], kb[i])
			}
		}
		d1, err := db.ObstructedDistance(ctx, q, queries[0])
		if err != nil {
			t.Fatal(err)
		}
		d2, err := fresh.ObstructedDistance(ctx, q, queries[0])
		if err != nil {
			t.Fatal(err)
		}
		if d1 != d2 && math.Abs(d1-d2) > 1e-6 {
			t.Fatalf("ObstructedDistance(%v): churned %v, fresh %v", q, d1, d2)
		}
	}
	// Join and closest pairs: compare distance multisets.
	pairDists := func(ps []Pair) []float64 {
		out := make([]float64, len(ps))
		for i, p := range ps {
			out[i] = math.Round(p.Distance*1e6) / 1e6
		}
		sort.Float64s(out)
		return out
	}
	ja, err := db.DistanceJoin(ctx, "P", "T", 100)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := fresh.DistanceJoin(ctx, "P", "T", 100)
	if err != nil {
		t.Fatal(err)
	}
	da, dbb := pairDists(ja), pairDists(jb)
	if len(da) != len(dbb) {
		t.Fatalf("DistanceJoin: churned %d pairs, fresh %d", len(da), len(dbb))
	}
	for i := range da {
		if da[i] != dbb[i] {
			t.Fatalf("DistanceJoin pair %d: churned %v, fresh %v", i, da[i], dbb[i])
		}
	}
	ca, err := db.ClosestPairs(ctx, "P", "T", 8)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := fresh.ClosestPairs(ctx, "P", "T", 8)
	if err != nil {
		t.Fatal(err)
	}
	da, dbb = pairDists(ca), pairDists(cb)
	if len(da) != len(dbb) {
		t.Fatalf("ClosestPairs: churned %d, fresh %d", len(da), len(dbb))
	}
	for i := range da {
		if da[i] != dbb[i] {
			t.Fatalf("ClosestPairs %d: churned %v, fresh %v", i, da[i], dbb[i])
		}
	}
	// Clustering still works over the sparse id space: every live id gets an
	// assignment slot, deleted ids report noise.
	cl, err := db.Cluster(ctx, "P", ClusterOptions{Algorithm: DBSCAN, Eps: 150, MinPts: 3})
	if err != nil {
		t.Fatal(err)
	}
	for id := range w.livePts {
		if int(id) >= len(cl.Assignments) {
			t.Fatalf("live id %d beyond assignments (%d)", id, len(cl.Assignments))
		}
	}
}

// TestFilteredFalseHits is the regression test for the FalseHits
// miscounting: entities rejected by a caller's filter are true hits (their
// obstructed distance qualified them) and must not be reported as false
// hits, which count only candidates eliminated by the obstructed metric.
func TestFilteredFalseHits(t *testing.T) {
	// No obstacles: dO == dE for every pair, so nothing can be a false hit
	// regardless of what the filter rejects.
	db, err := NewDatabaseFromRects(nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pts := []Point{Pt(1, 0), Pt(2, 0), Pt(3, 0), Pt(4, 0), Pt(5, 0), Pt(6, 0)}
	if err := db.AddDataset("p", pts); err != nil {
		t.Fatal(err)
	}
	if err := db.AddDataset("q", []Point{Pt(0, 1), Pt(0, 2)}); err != nil {
		t.Fatal(err)
	}
	rejectOdd := func(nb Neighbor) bool { return nb.ID%2 == 0 }

	var qs QueryStats
	res, err := db.NearestNeighbors(ctx, "p", Pt(0, 0), 2, WithFilter(rejectOdd), WithStats(&qs))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].ID != 0 || res[1].ID != 2 {
		t.Fatalf("filtered kNN = %v", res)
	}
	if qs.FalseHits != 0 {
		t.Errorf("filtered kNN FalseHits = %d, want 0 (filter rejections are not false hits)", qs.FalseHits)
	}
	if qs.Results != 2 {
		t.Errorf("filtered kNN Results = %d, want 2", qs.Results)
	}

	for range db.Nearest(ctx, "p", Pt(0, 0), WithFilter(rejectOdd), WithLimit(2), WithStats(&qs)) {
	}
	if qs.FalseHits != 0 {
		t.Errorf("Nearest stream FalseHits = %d, want 0", qs.FalseHits)
	}

	rejectPair := func(p Pair) bool { return p.ID1%2 == 0 }
	if _, err := db.ClosestPairs(ctx, "p", "q", 2, WithPairFilter(rejectPair), WithStats(&qs)); err != nil {
		t.Fatal(err)
	}
	if qs.FalseHits != 0 {
		t.Errorf("filtered ClosestPairs FalseHits = %d, want 0", qs.FalseHits)
	}
	for range db.Closest(ctx, "p", "q", WithPairFilter(rejectPair), WithLimit(2), WithStats(&qs)) {
	}
	if qs.FalseHits != 0 {
		t.Errorf("Closest stream FalseHits = %d, want 0", qs.FalseHits)
	}
}
