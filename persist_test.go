package obstacles

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"repro/internal/catalog"
	"repro/internal/dataset"
	"repro/internal/pagefile"
	"repro/internal/rtree"
)

// persistLoc is a location+distance key for id-free result comparison (the
// durable and rebuilt databases assign different ids).
type persistLoc struct{ x, y, d float64 }

func persistKey(p Point, d float64) persistLoc {
	return persistLoc{math.Round(p.X*1e6) / 1e6, math.Round(p.Y*1e6) / 1e6, math.Round(d*1e6) / 1e6}
}

func neighborKeys(nbs []Neighbor) ([]persistLoc, int) {
	var out []persistLoc
	inf := 0
	for _, nb := range nbs {
		if math.IsInf(nb.Distance, 1) {
			inf++
			continue
		}
		out = append(out, persistKey(nb.Point, nb.Distance))
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

func pairDistKeys(ps []Pair) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = math.Round(p.Distance*1e6) / 1e6
	}
	sort.Float64s(out)
	return out
}

// assertVerbsMatch compares every query verb between a reopened durable
// database and a reference rebuilt in memory from the committed state.
// With full=true the joins, streams, path queries and clustering run too.
func assertVerbsMatch(t *testing.T, label string, got, want *Database, queries []Point, full bool) {
	t.Helper()
	for _, q := range queries {
		a, err := got.Range(ctx, "P", q, 150)
		if err != nil {
			t.Fatalf("%s: Range: %v", label, err)
		}
		b, err := want.Range(ctx, "P", q, 150)
		if err != nil {
			t.Fatal(err)
		}
		ka, ia := neighborKeys(a)
		kb, ib := neighborKeys(b)
		if len(ka) != len(kb) || ia != ib {
			t.Fatalf("%s: Range(%v): %d+%d results vs %d+%d", label, q, len(ka), ia, len(kb), ib)
		}
		for i := range ka {
			if ka[i] != kb[i] {
				t.Fatalf("%s: Range(%v) result %d: %+v vs %+v", label, q, i, ka[i], kb[i])
			}
		}
		a, err = got.NearestNeighbors(ctx, "P", q, 4)
		if err != nil {
			t.Fatalf("%s: NN: %v", label, err)
		}
		b, err = want.NearestNeighbors(ctx, "P", q, 4)
		if err != nil {
			t.Fatal(err)
		}
		ka, ia = neighborKeys(a)
		kb, ib = neighborKeys(b)
		if len(ka) != len(kb) || ia != ib {
			t.Fatalf("%s: NN(%v): %d+%d results vs %d+%d", label, q, len(ka), ia, len(kb), ib)
		}
		for i := range ka {
			if ka[i] != kb[i] {
				t.Fatalf("%s: NN(%v) result %d: %+v vs %+v", label, q, i, ka[i], kb[i])
			}
		}
		d1, err := got.ObstructedDistance(ctx, q, queries[0])
		if err != nil {
			t.Fatalf("%s: ObstructedDistance: %v", label, err)
		}
		d2, err := want.ObstructedDistance(ctx, q, queries[0])
		if err != nil {
			t.Fatal(err)
		}
		if d1 != d2 && math.Abs(d1-d2) > 1e-6 {
			t.Fatalf("%s: ObstructedDistance(%v): %v vs %v", label, q, d1, d2)
		}
	}
	if !full {
		return
	}
	q := queries[0]
	// Incremental stream.
	var sa, sb []Neighbor
	for nb, err := range got.Nearest(ctx, "P", q, WithLimit(5)) {
		if err != nil {
			t.Fatalf("%s: Nearest: %v", label, err)
		}
		sa = append(sa, nb)
	}
	for nb, err := range want.Nearest(ctx, "P", q, WithLimit(5)) {
		if err != nil {
			t.Fatal(err)
		}
		sb = append(sb, nb)
	}
	ka, ia := neighborKeys(sa)
	kb, ib := neighborKeys(sb)
	if len(ka) != len(kb) || ia != ib {
		t.Fatalf("%s: Nearest stream: %d+%d vs %d+%d", label, len(ka), ia, len(kb), ib)
	}
	// Path length agrees with the distance verb.
	_, pd, err := got.ObstructedPath(ctx, q, queries[1])
	if err != nil {
		t.Fatalf("%s: ObstructedPath: %v", label, err)
	}
	wd, err := want.ObstructedDistance(ctx, q, queries[1])
	if err != nil {
		t.Fatal(err)
	}
	if pd != wd && math.Abs(pd-wd) > 1e-6 {
		t.Fatalf("%s: path length %v vs distance %v", label, pd, wd)
	}
	// Join and closest pairs against the fixed T dataset.
	ja, err := got.DistanceJoin(ctx, "P", "T", 120)
	if err != nil {
		t.Fatalf("%s: DistanceJoin: %v", label, err)
	}
	jb, err := want.DistanceJoin(ctx, "P", "T", 120)
	if err != nil {
		t.Fatal(err)
	}
	da, db := pairDistKeys(ja), pairDistKeys(jb)
	if len(da) != len(db) {
		t.Fatalf("%s: DistanceJoin: %d vs %d pairs", label, len(da), len(db))
	}
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("%s: DistanceJoin pair %d: %v vs %v", label, i, da[i], db[i])
		}
	}
	ca, err := got.ClosestPairs(ctx, "P", "T", 6)
	if err != nil {
		t.Fatalf("%s: ClosestPairs: %v", label, err)
	}
	cb, err := want.ClosestPairs(ctx, "P", "T", 6)
	if err != nil {
		t.Fatal(err)
	}
	da, db = pairDistKeys(ca), pairDistKeys(cb)
	if len(da) != len(db) {
		t.Fatalf("%s: ClosestPairs: %d vs %d", label, len(da), len(db))
	}
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("%s: ClosestPairs %d: %v vs %v", label, i, da[i], db[i])
		}
	}
	// Clustering runs over the recovered (possibly sparse) id space.
	if _, err := got.Cluster(ctx, "P", ClusterOptions{Algorithm: DBSCAN, Eps: 150, MinPts: 3}); err != nil {
		t.Fatalf("%s: Cluster: %v", label, err)
	}
}

// crashDB abandons a durable handle the way a killed process would: the
// backing files are closed (releasing the file lock) with no checkpoint
// and no WAL truncation, leaving the exact on-disk crash image.
func crashDB(db *Database) {
	s := db.store
	s.log.Load().Close()
	s.fs.Close()
	s.closed = true
}

// rebuildReference builds a fresh in-memory Database from a committed-state
// snapshot.
func rebuildReference(t *testing.T, polys []Polygon, pts, tPts []Point) *Database {
	t.Helper()
	ref, err := NewDatabase(polys, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.AddDataset("P", pts); err != nil {
		t.Fatal(err)
	}
	if tPts != nil {
		if err := ref.AddDataset("T", tPts); err != nil {
			t.Fatal(err)
		}
	}
	return ref
}

func TestOpenCreateMutateReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "city.obs")
	db, err := Open(path, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !db.Persistent() {
		t.Fatal("Open returned a non-persistent database")
	}
	// An in-memory database reports itself accordingly and Close/Checkpoint
	// are no-ops.
	mem, err := NewDatabaseFromRects(nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if mem.Persistent() {
		t.Fatal("NewDatabase returned a persistent database")
	}
	if err := mem.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := mem.Close(); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(99))
	randPt := func() Point { return Pt(rng.Float64()*1000, rng.Float64()*1000) }
	var rects []Rect
	for i := 0; i < 12; i++ {
		x, y := rng.Float64()*900, rng.Float64()*900
		rects = append(rects, R(x, y, x+40, y+40))
	}
	if _, err := db.AddObstacleRects(rects...); err != nil {
		t.Fatal(err)
	}
	var pts []Point
	for i := 0; i < 80; i++ {
		pts = append(pts, randPt())
	}
	if err := db.AddDataset("P", pts); err != nil {
		t.Fatal(err)
	}
	var tPts []Point
	for i := 0; i < 25; i++ {
		tPts = append(tPts, randPt())
	}
	if err := db.AddDataset("T", tPts); err != nil {
		t.Fatal(err)
	}
	// Mutate: inserts, deletes, an obstacle removal and re-add.
	livePts := append([]Point(nil), pts...)
	ids, err := db.InsertPoints("P", Pt(5, 5), Pt(995, 995))
	if err != nil {
		t.Fatal(err)
	}
	livePts = append(livePts, Pt(5, 5), Pt(995, 995))
	if err := db.DeletePoints("P", ids[0], 3, 7); err != nil {
		t.Fatal(err)
	}
	livePts = removePoints(livePts, Pt(5, 5), pts[3], pts[7])
	if err := db.RemoveObstacles(2); err != nil {
		t.Fatal(err)
	}
	liveRects := append(append([]Rect(nil), rects[:2]...), rects[3:]...)
	extra := R(100, 100, 140, 150)
	if _, err := db.AddObstacleRects(extra); err != nil {
		t.Fatal(err)
	}
	liveRects = append(liveRects, extra)

	st := db.PersistStats()
	if st.Seq == 0 || st.WALBytes == 0 || st.FilePages == 0 {
		t.Fatalf("PersistStats = %+v", st)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Close checkpointed: the WAL must be empty on disk.
	if fi, err := os.Stat(path + ".wal"); err != nil || fi.Size() != 0 {
		t.Fatalf("WAL after Close: %v bytes, err %v", fi.Size(), err)
	}
	// Mutating a closed database fails cleanly.
	if _, err := db.InsertPoints("P", Pt(1, 1)); !errors.Is(err, ErrDatabaseClosed) {
		t.Fatalf("insert on closed db: %v", err)
	}
	if err := db.Checkpoint(); !errors.Is(err, ErrDatabaseClosed) {
		t.Fatalf("checkpoint on closed db: %v", err)
	}

	// Reopen: no bulk load, state recovered from the catalog and tree pages.
	back, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if n := back.NumObstacles(); n != len(liveRects) {
		t.Fatalf("reopened NumObstacles = %d, want %d", n, len(liveRects))
	}
	if n, err := back.DatasetLen("P"); err != nil || n != len(livePts) {
		t.Fatalf("reopened DatasetLen(P) = %d (%v), want %d", n, err, len(livePts))
	}
	names := back.Datasets()
	if len(names) != 2 || names[0] != "P" || names[1] != "T" {
		t.Fatalf("reopened Datasets = %v", names)
	}
	queries := make([]Point, 5)
	for i := range queries {
		queries[i] = randPt()
	}
	ref := rebuildReference(t, rectPolygons(liveRects), livePts, tPts)
	assertVerbsMatch(t, "reopen", back, ref, queries, true)

	// The reopened handle keeps mutating durably: freed ids are reusable and
	// a further reopen sees the change.
	ids, err = back.InsertPoints("P", Pt(500, 500))
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := Open(path, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	nn, err := again.NearestNeighbors(ctx, "P", Pt(500, 500), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(nn) != 1 || nn[0].ID != ids[0] || nn[0].Point != Pt(500, 500) {
		t.Fatalf("insert before close not recovered: %+v", nn)
	}

	// Conflicting page size is rejected.
	if _, err := Open(path, Options{PageSize: 8192}); err == nil {
		t.Fatal("page-size mismatch accepted")
	}
}

func removePoints(pts []Point, kill ...Point) []Point {
	out := pts[:0:0]
	dead := make(map[Point]bool, len(kill))
	for _, p := range kill {
		dead[p] = true
	}
	for _, p := range pts {
		if !dead[p] {
			out = append(out, p)
		}
	}
	return out
}

// rectPolygons is RectPolygon over rects.
func rectPolygons(rects []Rect) []Polygon {
	polys := make([]Polygon, len(rects))
	for i, r := range rects {
		polys[i] = RectPolygon(r)
	}
	return polys
}

// cellObstacle returns an obstacle inside the 50-unit square at (x, y), one
// of each form the obstacle store keeps: kind 0 is a rectangle (its own
// leaf entry), 1 a triangle, 2 an L-shape, and 3 a rectangle listed from
// another corner, which is not RectPolygon's vertex list and so is stored
// by its vertices like the others.
func cellObstacle(kind int, x, y float64) Polygon {
	var v []Point
	switch kind % 4 {
	case 0:
		return RectPolygon(R(x, y, x+50, y+50))
	case 1:
		v = []Point{Pt(x, y), Pt(x+50, y+10), Pt(x+20, y+50)}
	case 2:
		v = []Point{Pt(x, y), Pt(x+50, y), Pt(x+50, y+15), Pt(x+15, y+15), Pt(x+15, y+50), Pt(x, y+50)}
	default:
		v = []Point{Pt(x+50, y+50), Pt(x+50, y), Pt(x, y), Pt(x, y+50)}
	}
	pg, err := NewPolygon(v)
	if err != nil {
		panic(err)
	}
	return pg
}

// committedState is the model of everything durably committed after each
// mutation of the crash-recovery scripts.
type committedState struct {
	obst     map[int64]Polygon
	pts      []Point
	walBytes int64
}

// polys lists the model's obstacles in id order.
func (st committedState) polys() []Polygon {
	var out []Polygon
	for _, id := range slices.Sorted(maps.Keys(st.obst)) {
		out = append(out, st.obst[id])
	}
	return out
}

// assertObstacles checks that db holds exactly the model's obstacles under
// the model's ids, every vertex bit-identical.
func assertObstacles(t *testing.T, label string, db *Database, want map[int64]Polygon) {
	t.Helper()
	o := db.obstSet
	if o.Len() != len(want) {
		t.Fatalf("%s: %d obstacles, model has %d", label, o.Len(), len(want))
	}
	for id, pg := range want {
		if !o.Alive(id) {
			t.Fatalf("%s: obstacle %d is not live", label, id)
		}
		got, exp := o.Polygon(id).Vertices(), pg.Vertices()
		if !slices.EqualFunc(got, exp, func(a, b Point) bool {
			return math.Float64bits(a.X) == math.Float64bits(b.X) && math.Float64bits(a.Y) == math.Float64bits(b.Y)
		}) {
			t.Fatalf("%s: obstacle %d has vertices %v, model %v", label, id, got, exp)
		}
	}
}

// pickKey draws one key of m with rng, in key order so that a seed always
// draws the same one (Go's map order is random).
func pickKey[K cmp.Ordered, V any](rng *rand.Rand, m map[K]V) (K, bool) {
	if len(m) == 0 {
		var zero K
		return zero, false
	}
	keys := slices.Sorted(maps.Keys(m))
	return keys[rng.Intn(len(keys))], true
}

// runCrashScript drives a deterministic churn script against db, recording
// the committed model and the WAL length after every commit. The database's
// auto-checkpoint must be disabled so the data file stays at its post-create
// checkpoint image while the WAL accretes one transaction per mutation.
func runCrashScript(t *testing.T, db *Database, seed int64, ops int) (states []committedState, tPts []Point) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	randPt := func() Point { return Pt(rng.Float64()*1000, rng.Float64()*1000) }

	record := func(obst map[int64]Polygon, pts map[int64]Point) {
		st := committedState{obst: maps.Clone(obst), walBytes: db.PersistStats().WALBytes}
		for _, p := range pts {
			st.pts = append(st.pts, p)
		}
		states = append(states, st)
	}

	liveObst := make(map[int64]Polygon)
	livePts := make(map[int64]Point)

	// Obstacles of every stored form on a grid (non-overlapping), initial
	// points, a fixed T set.
	var initObst []Polygon
	for cell := 0; cell < 100; cell += 7 {
		initObst = append(initObst, cellObstacle(len(initObst), float64(cell%10)*100+25, float64(cell/10)*100+25))
	}
	ids, err := db.AddObstacles(initObst...)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		liveObst[id] = initObst[i]
	}
	record(liveObst, livePts)
	var initPts []Point
	for i := 0; i < 60; i++ {
		initPts = append(initPts, randPt())
	}
	if err := db.AddDataset("P", initPts); err != nil {
		t.Fatal(err)
	}
	for i, p := range initPts {
		livePts[int64(i)] = p
	}
	record(liveObst, livePts)
	for i := 0; i < 20; i++ {
		tPts = append(tPts, randPt())
	}
	if err := db.AddDataset("T", tPts); err != nil {
		t.Fatal(err)
	}
	record(liveObst, livePts)

	freeCells := map[int]bool{}
	for cell := 0; cell < 100; cell++ {
		if cell%7 != 0 {
			freeCells[cell] = true
		}
	}
	for op := 0; op < ops; op++ {
		switch rng.Intn(5) {
		case 0, 1: // insert points
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
				livePts[id] = pts[i]
			}
		case 2: // delete a point
			if id, ok := pickKey(rng, livePts); ok {
				if err := db.DeletePoints("P", id); err != nil {
					t.Fatal(err)
				}
				delete(livePts, id)
			}
		case 3: // add an obstacle of any stored form in a free grid cell
			cell, ok := pickKey(rng, freeCells)
			if !ok {
				continue
			}
			delete(freeCells, cell)
			pg := cellObstacle(rng.Intn(4), float64(cell%10)*100+25, float64(cell/10)*100+25)
			ids, err := db.AddObstacles(pg)
			if err != nil {
				t.Fatal(err)
			}
			liveObst[ids[0]] = pg
		default: // remove an obstacle
			if id, ok := pickKey(rng, liveObst); ok {
				if err := db.RemoveObstacles(id); err != nil {
					t.Fatal(err)
				}
				r := liveObst[id].Bounds()
				delete(liveObst, id)
				freeCells[int(r.MinX-25)/100+int(r.MinY-25)/100*10] = true
			}
		}
		record(liveObst, livePts)
	}
	return states, tPts
}

// TestCrashRecoveryAtEveryWALBoundary is the acceptance test of the
// durability subsystem: a database is created, churned through interleaved
// point and obstacle mutations, and "killed" at every WAL boundary — the
// data file plus a prefix of the WAL are copied aside, exactly what a crash
// between WAL fsync and write-back leaves behind. Every copy must reopen
// and answer every query verb identically to an in-memory database rebuilt
// from the state committed at that boundary. Cuts that land mid-transaction
// must recover to the previous boundary.
func TestCrashRecoveryAtEveryWALBoundary(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "churn.obs")
	opts := DefaultOptions()
	opts.WALCheckpointBytes = -1 // the script must own every WAL boundary
	db, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	states, tPts := runCrashScript(t, db, 17, 40)

	// Simulated crash: the handle is abandoned, never Closed (a Close would
	// checkpoint). The data file has not changed since the post-create
	// checkpoint, so one copy of it plus per-boundary WAL prefixes
	// reconstruct the crash image at every boundary.
	base, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	walFull, err := os.ReadFile(path + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := int64(len(walFull)), states[len(states)-1].walBytes; got != want {
		t.Fatalf("WAL file is %d bytes, last boundary says %d", got, want)
	}

	queries := []Point{Pt(120, 480), Pt(760, 210), Pt(415, 905)}
	reopenAt := func(label string, walPrefix []byte) *Database {
		t.Helper()
		cdir := t.TempDir()
		cpath := filepath.Join(cdir, "crash.obs")
		if err := os.WriteFile(cpath, base, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(cpath+".wal", walPrefix, 0o644); err != nil {
			t.Fatal(err)
		}
		back, err := Open(cpath, Options{})
		if err != nil {
			t.Fatalf("%s: reopen after crash: %v", label, err)
		}
		return back
	}

	for i, st := range states {
		label := fmt.Sprintf("boundary %d/%d", i, len(states)-1)
		back := reopenAt(label, walFull[:st.walBytes])
		assertObstacles(t, label, back, st.obst)
		if i == 0 {
			// Before the first AddDataset commit: no dataset may surface.
			if back.HasDataset("P") {
				t.Fatalf("%s: dataset P exists before its commit", label)
			}
			back.Close()
			continue
		}
		if n, err := back.DatasetLen("P"); err != nil || n != len(st.pts) {
			t.Fatalf("%s: DatasetLen = %d (%v), model has %d", label, n, err, len(st.pts))
		}
		var refT []Point
		if i >= 2 {
			refT = tPts
		}
		ref := rebuildReference(t, st.polys(), st.pts, refT)
		full := i >= 2 && (i%8 == 0 || i == len(states)-1)
		assertVerbsMatch(t, label, back, ref, queries, full)

		// A crash after recovery must also be clean: the recovered database
		// keeps accepting durable mutations.
		if i == len(states)-1 {
			if _, err := back.InsertPoints("P", Pt(1, 2)); err != nil {
				t.Fatalf("%s: mutating recovered db: %v", label, err)
			}
		}
		back.Close()
	}

	// Torn-tail cuts: a crash mid-append lands between boundaries; recovery
	// must fall back to the previous boundary.
	for _, i := range []int{1, len(states) / 2, len(states) - 1} {
		if states[i].walBytes == states[i-1].walBytes {
			continue
		}
		cut := states[i].walBytes - 3
		if cut <= states[i-1].walBytes {
			continue
		}
		label := fmt.Sprintf("torn cut before boundary %d", i)
		back := reopenAt(label, walFull[:cut])
		st := states[i-1]
		assertObstacles(t, label, back, st.obst)
		if i-1 > 0 {
			if n, err := back.DatasetLen("P"); err != nil || n != len(st.pts) {
				t.Fatalf("%s: DatasetLen = %d (%v), want %d", label, n, err, len(st.pts))
			}
		}
		back.Close()
	}
}

// TestRecoverIgnoresCatalogsInsideCheckpoint: a crash between a
// checkpoint's superblock write and its WAL truncation leaves a WAL whose
// commits the checkpoint already holds. Their catalog records predate the
// checkpoint's own allocations (its new blob chain, the old chain it
// retired), so recovery must take the checkpoint's state instead; taking a
// stale record would hand the live blob's pages out again. The recovered
// file must keep working through mutations, a checkpoint and a reopen.
func TestRecoverIgnoresCatalogsInsideCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "overlap.obs")
	opts := DefaultOptions()
	opts.WALCheckpointBytes = -1
	db, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	states, _ := runCrashScript(t, db, 29, 12)
	final := states[len(states)-1]
	stale, err := os.ReadFile(path + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	crashDB(db)
	if err := os.WriteFile(path+".wal", stale, 0o644); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		back, err := Open(path, opts)
		if err != nil {
			t.Fatalf("round %d: reopen: %v", round, err)
		}
		assertObstacles(t, fmt.Sprintf("round %d", round), back, final.obst)
		if n, err := back.DatasetLen("P"); err != nil || n != len(final.pts) {
			t.Fatalf("round %d: DatasetLen = %d (%v), want %d", round, n, err, len(final.pts))
		}
		if rep, err := back.Scrub(ctx); err != nil || !rep.Clean() {
			t.Fatalf("round %d: scrub = %+v, %v", round, rep, err)
		}
		assertPagesAccounted(t, fmt.Sprintf("round %d", round), back)
		for i := 0; i < 40; i++ {
			p := Pt(float64(100+i), 900)
			if _, err := back.InsertPoints("P", p); err != nil {
				t.Fatalf("round %d: insert: %v", round, err)
			}
			final.pts = append(final.pts, p)
		}
		if err := back.Close(); err != nil {
			t.Fatalf("round %d: close: %v", round, err)
		}
	}
}

// assertPagesAccounted checks the allocator against what the file reaches:
// every page a tree or the state blob reaches is allocated, and every
// allocated page is reached.
func assertPagesAccounted(t *testing.T, label string, db *Database) {
	t.Helper()
	s := db.store
	live, err := catalog.BlobChain(s.tx, s.super.State)
	if err != nil {
		t.Fatalf("%s: state chain: %v", label, err)
	}
	for _, tr := range db.trees() {
		if live, err = tr.Pages(live); err != nil {
			t.Fatalf("%s: tree pages: %v", label, err)
		}
	}
	_, free := s.fs.AllocState()
	for _, id := range free {
		if slices.Contains(live, id) {
			t.Fatalf("%s: page %d is reachable and on the free list", label, id)
		}
	}
	if n := s.fs.NumPages(); n != len(live) {
		t.Fatalf("%s: %d pages allocated, %d reachable", label, n, len(live))
	}
}

// TestFaultInjectionCheckpoint kills data-file writes after N operations
// for every N up to the checkpoint's full write count: commits keep
// succeeding (they reach only the WAL), the checkpoint fails part-way
// through its write-back, and reopening recovers every committed mutation
// from the WAL over the partially updated file.
func TestFaultInjectionCheckpoint(t *testing.T) {
	for n := int64(0); ; n++ {
		dir := t.TempDir()
		path := filepath.Join(dir, "fault.obs")
		// Create the file cleanly, then reopen with the fault injector armed.
		db, err := Open(path, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		fault := pagefile.NewInjector(pagefile.FaultRule{Op: pagefile.OpPageWrite, After: n})
		opts := DefaultOptions()
		opts.WALCheckpointBytes = -1
		opts.Chaos = fault
		db, err = Open(path, opts)
		if err != nil {
			t.Fatal(err)
		}
		states, _ := runCrashScript(t, db, 23, 8)
		final := states[len(states)-1]

		cperr := db.Checkpoint()
		exhausted := fault.Ops(pagefile.OpPageWrite) > n
		if exhausted && cperr == nil {
			t.Fatalf("n=%d: checkpoint succeeded despite exhausted write budget", n)
		}
		if cperr != nil && !errors.Is(cperr, pagefile.ErrInjectedFault) {
			t.Fatalf("n=%d: checkpoint error %v, want injected fault", n, cperr)
		}
		// The handle survives a failed checkpoint: commits still reach the
		// WAL, and a later mutation is recovered below.
		ids, err := db.InsertPoints("P", Pt(333, 333))
		if err != nil {
			t.Fatalf("n=%d: insert after failed checkpoint: %v", n, err)
		}
		_ = ids
		final.pts = append(final.pts, Pt(333, 333))

		// Crash: abandon the handle, reopen without faults.
		crashDB(db)
		back, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("n=%d: reopen: %v", n, err)
		}
		assertObstacles(t, fmt.Sprintf("n=%d", n), back, final.obst)
		if cnt, err := back.DatasetLen("P"); err != nil || cnt != len(final.pts) {
			t.Fatalf("n=%d: DatasetLen = %d (%v), want %d", n, cnt, err, len(final.pts))
		}
		ref := rebuildReference(t, final.polys(), final.pts, nil)
		assertVerbsMatch(t, fmt.Sprintf("fault n=%d", n), back, ref, []Point{Pt(500, 180)}, false)
		back.Close()

		if !exhausted {
			// The budget covered the whole checkpoint: every later N only
			// adds slack, so the sweep is complete.
			break
		}
	}
}

// TestWALFaultInjection kills WAL writes after N operations for increasing
// N: the first mutation whose commit cannot reach the log reports the
// failure and degrades the handle (ErrDegraded); reopening recovers exactly
// the mutations whose commits succeeded.
func TestWALFaultInjection(t *testing.T) {
	for n := 1; ; n++ {
		dir := t.TempDir()
		path := filepath.Join(dir, "walfault.obs")
		db, err := Open(path, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		// Writes 1..n succeed; every later one fails.
		inj := pagefile.NewInjector(pagefile.FaultRule{Op: pagefile.OpWALWrite, After: int64(n)})
		opts := DefaultOptions()
		opts.WALCheckpointBytes = -1
		opts.Chaos = inj
		db, err = Open(path, opts)
		if err != nil {
			t.Fatal(err)
		}

		// Committed model: only mutations that returned nil.
		var rects []Rect
		var pts []Point
		rng := rand.New(rand.NewSource(int64(n) * 131))
		failed := false
		for op := 0; op < 12 && !failed; op++ {
			if op%4 == 3 {
				x, y := rng.Float64()*900, rng.Float64()*900
				r := R(x, y, x+30, y+30)
				if _, err := db.AddObstacleRects(r); err != nil {
					failed = true
					break
				}
				rects = append(rects, r)
				continue
			}
			p := Pt(rng.Float64()*1000, rng.Float64()*1000)
			if op == 0 {
				if err := db.AddDataset("P", []Point{p}); err != nil {
					failed = true
					break
				}
			} else if _, err := db.InsertPoints("P", p); err != nil {
				failed = true
				break
			}
			pts = append(pts, p)
		}
		if fired := inj.Injected(pagefile.OpWALWrite) > 0; fired != failed {
			t.Fatalf("n=%d: a mutation failed = %v, but the WAL-write fault fired = %v", n, failed, fired)
		}
		if failed {
			// The handle is poisoned for further mutations.
			if _, err := db.InsertPoints("P", Pt(1, 1)); !errors.Is(err, ErrDegraded) {
				t.Fatalf("n=%d: mutation after WAL fault: %v, want ErrDegraded", n, err)
			}
			if err := db.Checkpoint(); !errors.Is(err, ErrDegraded) {
				t.Fatalf("n=%d: checkpoint after WAL fault: %v, want ErrDegraded", n, err)
			}
		}

		crashDB(db)
		back, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("n=%d: reopen: %v", n, err)
		}
		if nObst := back.NumObstacles(); nObst != len(rects) {
			t.Fatalf("n=%d: %d obstacles recovered, %d committed", n, nObst, len(rects))
		}
		if len(pts) == 0 {
			if back.HasDataset("P") {
				t.Fatalf("n=%d: dataset P recovered but its commit failed", n)
			}
		} else if cnt, err := back.DatasetLen("P"); err != nil || cnt != len(pts) {
			t.Fatalf("n=%d: %d points recovered (%v), %d committed", n, cnt, err, len(pts))
		}
		back.Close()

		if !failed {
			break // the budget covered every mutation: sweep complete
		}
	}
}

// TestDurableConcurrentQueries runs parallel readers against a durable
// database while a writer churns it — the same contract as the in-memory
// engine (one-shot verbs never see torn state), now with every read going
// through the transactional overlay and every commit through the WAL.
func TestDurableConcurrentQueries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "conc.obs")
	opts := DefaultOptions()
	opts.WALCheckpointBytes = 64 << 10 // exercise auto-checkpoints mid-churn
	db, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	states, _ := runCrashScriptConcurrent(t, db, 41, 60)
	final := states[len(states)-1]
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	assertObstacles(t, "concurrent churn", back, final.obst)
	ref := rebuildReference(t, final.polys(), final.pts, nil)
	assertVerbsMatch(t, "concurrent churn", back, ref, []Point{Pt(111, 222), Pt(880, 640)}, false)
}

// runCrashScriptConcurrent is runCrashScript with query goroutines hammering
// the database for the duration of the churn.
func runCrashScriptConcurrent(t *testing.T, db *Database, seed int64, ops int) ([]committedState, []Point) {
	t.Helper()
	stop := make(chan struct{})
	done := make(chan error, 2)
	for g := 0; g < 2; g++ {
		go func(g int) {
			qrng := rand.New(rand.NewSource(int64(7000 + g)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					done <- nil
					return
				default:
				}
				q := Pt(qrng.Float64()*1000, qrng.Float64()*1000)
				var err error
				if db.HasDataset("P") {
					if i%2 == 0 {
						_, err = db.NearestNeighbors(ctx, "P", q, 3)
					} else {
						_, err = db.Range(ctx, "P", q, 90)
					}
				} else {
					_, err = db.ObstructedDistance(ctx, q, Pt(qrng.Float64()*1000, qrng.Float64()*1000))
				}
				if err != nil {
					done <- err
					return
				}
			}
		}(g)
	}
	states, tPts := runCrashScript(t, db, seed, ops)
	close(stop)
	for g := 0; g < 2; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	return states, tPts
}

// TestDurableAddObstaclesValidation mirrors the in-memory validation: bad
// polygons are rejected with the typed error before anything commits.
func TestDurableAddObstaclesValidation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.obs")
	db, err := Open(path, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	before := db.PersistStats().Seq
	if _, err := db.AddObstacles(Polygon{}); !errors.Is(err, ErrInvalidPolygon) {
		t.Fatalf("zero polygon: %v", err)
	}
	collinear, err := NewPolygon([]Point{Pt(0, 0), Pt(1, 1), Pt(2, 2)})
	if err == nil {
		if _, err := db.AddObstacles(collinear); !errors.Is(err, ErrInvalidPolygon) {
			t.Fatalf("collinear polygon: %v", err)
		}
	}
	if after := db.PersistStats().Seq; after != before {
		t.Fatalf("rejected obstacle committed: %d -> %d", before, after)
	}
}

// TestOpenLocksFile pins the single-writer contract: a second Open of the
// same live file must fail (two handles would both replay and append to
// the WAL), and Close releases the lock.
func TestOpenLocksFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "locked.obs")
	db, err := Open(path, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Options{}); !errors.Is(err, pagefile.ErrFileLocked) {
		t.Fatalf("second Open = %v, want ErrFileLocked", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	back.Close()
}

// TestDurableDuplicateDatasetNoLeak pins the AddDataset rollback: a
// duplicate add is rejected before building, so the file neither grows nor
// commits anything for it.
func TestDurableDuplicateDatasetNoLeak(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dup.obs")
	db, err := Open(path, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	pts := make([]Point, 300)
	for i := range pts {
		pts[i] = Pt(float64(i%20)*7, float64(i/20)*11)
	}
	if err := db.AddDataset("P", pts); err != nil {
		t.Fatal(err)
	}
	before := db.PersistStats()
	if err := db.AddDataset("P", pts); err == nil {
		t.Fatal("duplicate dataset accepted")
	}
	after := db.PersistStats()
	if after.FilePages != before.FilePages {
		t.Fatalf("duplicate add leaked pages: %d -> %d", before.FilePages, after.FilePages)
	}
	if after.Seq != before.Seq {
		t.Fatalf("duplicate add committed: seq %d -> %d", before.Seq, after.Seq)
	}
}

// TestBufferSizedFromOwnPages: every tree's LRU buffer holds
// ceil(BufferFraction × its own pages), the same rule whether the tree has an
// in-memory page file of its own or shares one durable file with the other
// trees — before and after a reopen.
func TestBufferSizedFromOwnPages(t *testing.T) {
	world := dataset.Generate(dataset.DefaultConfig(1, 1000))
	ents := world.Entities(world.EntityRand(1), 2000)
	check := func(what string, db *Database) {
		t.Helper()
		trees := map[string]*rtree.Tree{"obstacle": db.obstSet.Tree()}
		for name, ps := range db.datasets {
			trees["dataset "+name] = ps.Tree()
		}
		for name, tr := range trees {
			ids, err := tr.Pages(nil)
			if err != nil {
				t.Fatal(err)
			}
			want := int(math.Ceil(float64(len(ids)) * db.opts.BufferFraction))
			if got := tr.PageFile().BufferPages(); got != want {
				t.Errorf("%s: the %s tree has %d pages and a %d-page buffer, want %d",
					what, name, len(ids), got, want)
			}
		}
	}

	mem, err := NewDatabaseFromRects(world.Rects, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	if err := mem.AddDataset("P", ents); err != nil {
		t.Fatal(err)
	}
	check("in memory", mem)

	path := filepath.Join(t.TempDir(), "w.obs")
	db, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddObstacleRects(world.Rects...); err != nil {
		t.Fatal(err)
	}
	if err := db.AddDataset("P", ents); err != nil {
		t.Fatal(err)
	}
	check("durable", db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(path, Options{}); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	check("reopened", db)
}
