package obstacles

import (
	"context"
	"errors"
	"iter"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// readVerbs is the read surface Database and Snapshot share: every verb the
// one reader declares. Both handles must satisfy it.
type readVerbs interface {
	Range(ctx context.Context, dataset string, q Point, radius float64, opts ...QueryOption) ([]Neighbor, error)
	NearestNeighbors(ctx context.Context, dataset string, q Point, k int, opts ...QueryOption) ([]Neighbor, error)
	DistanceJoin(ctx context.Context, dataset1, dataset2 string, dist float64, opts ...QueryOption) ([]Pair, error)
	ClosestPairs(ctx context.Context, dataset1, dataset2 string, k int, opts ...QueryOption) ([]Pair, error)
	ObstructedDistance(ctx context.Context, a, b Point, opts ...QueryOption) (float64, error)
	ObstructedPath(ctx context.Context, a, b Point, opts ...QueryOption) ([]Point, float64, error)
	ObstructedDistances(ctx context.Context, q Point, targets []Point, opts ...QueryOption) ([]float64, error)
	DistanceMatrix(ctx context.Context, pts []Point, opts ...QueryOption) ([][]float64, error)
	Cluster(ctx context.Context, dataset string, copts ClusterOptions, opts ...QueryOption) (*Clustering, error)
	Nearest(ctx context.Context, dataset string, q Point, opts ...QueryOption) iter.Seq2[Neighbor, error]
	Closest(ctx context.Context, dataset1, dataset2 string, opts ...QueryOption) iter.Seq2[Pair, error]
	InsideObstacle(p Point) (bool, error)
	Datasets() []string
	DatasetLen(name string) (int, error)
	NumObstacles() int
}

var (
	_ readVerbs = (*Database)(nil)
	_ readVerbs = (*Snapshot)(nil)
)

// readerWorld is a scene small enough to rebuild from scratch: the obstacle
// rectangles and the two datasets, as plain data.
type readerWorld struct {
	rects []Rect
	p, t  []Point
}

func (w readerWorld) build(t *testing.T) *Database {
	t.Helper()
	db, err := NewDatabaseFromRects(w.rects, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddDataset("P", w.p); err != nil {
		t.Fatal(err)
	}
	if err := db.AddDataset("T", w.t); err != nil {
		t.Fatal(err)
	}
	return db
}

// verbAnswers is one handle's answer to every verb, normalized so that two
// databases holding the same points and obstacles under different ids (and
// different tree shapes) compare equal: entities by location, distances
// rounded to 1e-6, ties ordered by location.
type verbAnswers struct {
	rng, nn, strm   []nbKey
	join, cp, cstrm []float64
	dist, pathLen   float64
	path            []Point
	batch           []float64
	matrix          [][]float64
	clusters, noise int
	inside          bool
	datasets        []string
	n, obst         int
}

type nbKey struct {
	pt   Point
	dist float64
}

func round6(d float64) float64 {
	if math.IsInf(d, 0) {
		return d
	}
	return math.Round(d*1e6) / 1e6
}

func nbKeys(nbs []Neighbor) []nbKey {
	out := make([]nbKey, len(nbs))
	for i, nb := range nbs {
		out[i] = nbKey{nb.Point, round6(nb.Distance)}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.dist != b.dist {
			return a.dist < b.dist
		}
		if a.pt.X != b.pt.X {
			return a.pt.X < b.pt.X
		}
		return a.pt.Y < b.pt.Y
	})
	return out
}

func pairDists(ps []Pair) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = round6(p.Distance)
	}
	return out
}

func drain[T any](t *testing.T, seq iter.Seq2[T, error]) []T {
	t.Helper()
	var out []T
	for v, err := range seq {
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, v)
	}
	return out
}

func readEveryVerb(t *testing.T, r readVerbs) verbAnswers {
	t.Helper()
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	var a verbAnswers
	corner, far := Pt(0, 0), Pt(100, 100)
	nbs, err := r.Range(ctx, "P", Pt(5, 50), 45)
	check(err)
	a.rng = nbKeys(nbs)
	nbs, err = r.NearestNeighbors(ctx, "P", Pt(98, 50), 6)
	check(err)
	a.nn = nbKeys(nbs)
	a.strm = nbKeys(drain(t, r.Nearest(ctx, "P", Pt(50, 2), WithLimit(8))))
	pairs, err := r.DistanceJoin(ctx, "P", "T", 12)
	check(err)
	a.join = pairDists(pairs)
	pairs, err = r.ClosestPairs(ctx, "P", "T", 5)
	check(err)
	a.cp = pairDists(pairs)
	a.cstrm = pairDists(drain(t, r.Closest(ctx, "P", "T", WithLimit(6))))
	a.dist, err = r.ObstructedDistance(ctx, corner, far)
	check(err)
	a.dist = round6(a.dist)
	a.path, a.pathLen, err = r.ObstructedPath(ctx, corner, far)
	check(err)
	a.pathLen = round6(a.pathLen)
	a.batch, err = r.ObstructedDistances(ctx, corner, []Point{far, Pt(5, 95), Pt(65, 35), Pt(35, 65)})
	check(err)
	for i, d := range a.batch {
		a.batch[i] = round6(d)
	}
	a.matrix, err = r.DistanceMatrix(ctx, []Point{corner, far, Pt(5, 95), Pt(95, 5)})
	check(err)
	for _, row := range a.matrix {
		for j, d := range row {
			row[j] = round6(d)
		}
	}
	cl, err := r.Cluster(ctx, "P", ClusterOptions{Algorithm: DBSCAN, Eps: 14, MinPts: 3})
	check(err)
	a.clusters, a.noise = cl.NumClusters, cl.NoiseCount
	a.inside, err = r.InsideObstacle(Pt(50, 50))
	check(err)
	a.datasets = r.Datasets()
	a.n, err = r.DatasetLen("P")
	check(err)
	a.obst = r.NumObstacles()
	return a
}

// TestDatabaseAndSnapshotShareOneReader: the two handles expose the same read
// verbs with identical signatures, and driving every verb through both on a
// churned world gives the pinned generation's answers on the Snapshot (equal
// to a database frozen before the churn) and the current generation's on the
// Database (equal to a rebuild from the final state); after Close every verb
// that can report an error reports ErrSnapshotClosed.
func TestDatabaseAndSnapshotShareOneReader(t *testing.T) {
	verbs := reflect.TypeOf((*readVerbs)(nil)).Elem()
	dbType, snapType := reflect.TypeOf(&Database{}), reflect.TypeOf(&Snapshot{})
	for i := 0; i < verbs.NumMethod(); i++ {
		name := verbs.Method(i).Name
		dm, ok1 := dbType.MethodByName(name)
		sm, ok2 := snapType.MethodByName(name)
		if !ok1 || !ok2 {
			t.Fatalf("%s: on Database %v, on Snapshot %v", name, ok1, ok2)
		}
		// Method types differ in the receiver only.
		if dm.Type.NumIn() != sm.Type.NumIn() || dm.Type.NumOut() != sm.Type.NumOut() || dm.Type.IsVariadic() != sm.Type.IsVariadic() {
			t.Fatalf("%s: Database has %v, Snapshot has %v", name, dm.Type, sm.Type)
		}
		for j := 1; j < dm.Type.NumIn(); j++ {
			if dm.Type.In(j) != sm.Type.In(j) {
				t.Errorf("%s: parameter %d is %v on Database, %v on Snapshot", name, j, dm.Type.In(j), sm.Type.In(j))
			}
		}
		for j := 0; j < dm.Type.NumOut(); j++ {
			if dm.Type.Out(j) != sm.Type.Out(j) {
				t.Errorf("%s: result %d is %v on Database, %v on Snapshot", name, j, dm.Type.Out(j), sm.Type.Out(j))
			}
		}
	}

	// The scene: the 3x3 city blocks, points kept clear of every obstacle the
	// test ever has (the two it adds included).
	var before readerWorld
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			x, y := 10+float64(i)*30, 10+float64(j)*30
			before.rects = append(before.rects, R(x, y, x+20, y+20))
		}
	}
	added := []Rect{R(2, 30, 8, 36), R(62, 2, 68, 8)}
	rng := rand.New(rand.NewSource(15))
	freePt := func() Point {
		for {
			p := Pt(rng.Float64()*110, rng.Float64()*110)
			clear := true
			for _, r := range append(before.rects, added...) {
				if r.Contains(p) {
					clear = false
				}
			}
			if clear {
				return p
			}
		}
	}
	for i := 0; i < 80; i++ {
		before.p = append(before.p, freePt())
	}
	for i := 0; i < 25; i++ {
		before.t = append(before.t, freePt())
	}

	db := before.build(t)
	snap := db.Snapshot()
	defer snap.Close()

	// Churn every mutable thing: delete and insert points in both datasets,
	// remove the centre block, add two obstacles.
	after := readerWorld{t: append([]Point(nil), before.t...)}
	deleted := map[int]bool{3: true, 17: true, 40: true, 41: true}
	for i, p := range before.p {
		if !deleted[i] {
			after.p = append(after.p, p)
		}
	}
	if err := db.DeletePoints("P", 3, 17, 40, 41); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		p := freePt()
		after.p = append(after.p, p)
		if _, err := db.InsertPoints("P", p); err != nil {
			t.Fatal(err)
		}
	}
	extra := freePt()
	after.t = append(after.t, extra)
	if _, err := db.InsertPoints("T", extra); err != nil {
		t.Fatal(err)
	}
	const centre = 4 // the block at (40,40)-(60,60)
	if err := db.RemoveObstacles(centre); err != nil {
		t.Fatal(err)
	}
	for i, r := range before.rects {
		if i != centre {
			after.rects = append(after.rects, r)
		}
	}
	after.rects = append(after.rects, added...)
	if _, err := db.AddObstacleRects(added...); err != nil {
		t.Fatal(err)
	}

	frozen, rebuilt := before.build(t), after.build(t)
	pinned, current := readEveryVerb(t, snap), readEveryVerb(t, db)
	if want := readEveryVerb(t, frozen); !reflect.DeepEqual(pinned, want) {
		t.Errorf("snapshot's answers differ from the pre-churn world's:\n got %+v\nwant %+v", pinned, want)
	}
	if want := readEveryVerb(t, rebuilt); !reflect.DeepEqual(current, want) {
		t.Errorf("database's answers differ from a rebuild of the final state:\n got %+v\nwant %+v", current, want)
	}
	if pinned.dist == current.dist || pinned.n == current.n || pinned.obst == current.obst || pinned.inside == current.inside {
		t.Fatalf("churn did not show: pinned %+v, current %+v", pinned, current)
	}

	if err := snap.Close(); err != nil {
		t.Fatal(err)
	}
	q := Pt(1, 1)
	closedErrs := map[string]error{}
	_, closedErrs["Range"] = snap.Range(ctx, "P", q, 10)
	_, closedErrs["NearestNeighbors"] = snap.NearestNeighbors(ctx, "P", q, 2)
	_, closedErrs["DistanceJoin"] = snap.DistanceJoin(ctx, "P", "T", 5)
	_, closedErrs["ClosestPairs"] = snap.ClosestPairs(ctx, "P", "T", 2)
	_, closedErrs["ObstructedDistance"] = snap.ObstructedDistance(ctx, q, Pt(9, 9))
	_, _, closedErrs["ObstructedPath"] = snap.ObstructedPath(ctx, q, Pt(9, 9))
	_, closedErrs["ObstructedDistances"] = snap.ObstructedDistances(ctx, q, []Point{Pt(9, 9)})
	_, closedErrs["DistanceMatrix"] = snap.DistanceMatrix(ctx, []Point{q, Pt(9, 9)})
	_, closedErrs["Cluster"] = snap.Cluster(ctx, "P", ClusterOptions{Eps: 10})
	_, closedErrs["InsideObstacle"] = snap.InsideObstacle(q)
	_, closedErrs["DatasetLen"] = snap.DatasetLen("P")
	closedErrs["Nearest"] = onlyError(t, snap.Nearest(ctx, "P", q))
	closedErrs["Closest"] = onlyError(t, snap.Closest(ctx, "P", "T"))
	for name, err := range closedErrs {
		if !errors.Is(err, ErrSnapshotClosed) {
			t.Errorf("%s on a closed snapshot: %v, want ErrSnapshotClosed", name, err)
		}
	}
	if len(closedErrs) != verbs.NumMethod()-2 { // Datasets and NumObstacles report no error
		t.Errorf("checked %d verbs after Close, the reader has %d that return an error", len(closedErrs), verbs.NumMethod()-2)
	}
}

// onlyError drains a stream that must yield exactly one element, an error.
func onlyError[T any](t *testing.T, seq iter.Seq2[T, error]) error {
	t.Helper()
	var errs []error
	for _, err := range seq {
		errs = append(errs, err)
	}
	if len(errs) != 1 {
		t.Fatalf("stream yielded %d elements, want one error", len(errs))
	}
	return errs[0]
}

// exitCase is one way into (and out of) a verb: the context, datasets, query
// point and options it is called with.
type exitCase struct {
	name    string
	ctx     context.Context
	ds, ds2 string
	q       Point
	// args selects the kind of argument the verb is handed.
	args argKind
	opts []QueryOption
	// wantErr is the error every verb must report (nil: none); datasetErr
	// applies to verbs that name a dataset, argErr to verbs that take a
	// point, radius or distance, clusterErr to Cluster.
	wantErr, datasetErr, argErr, clusterErr error
}

// argKind is the kind of argument an exitCase hands a verb.
type argKind int

const (
	argGood argKind = iota
	// argOutOfRange is a negative radius, distance or k, Eps 0 or an empty
	// batch: answered (empty), except Eps 0.
	argOutOfRange
	// argNonFinite is a NaN or infinite point or a NaN radius, distance or
	// Eps: refused before a session opens.
	argNonFinite
)

// exitVerb drives one verb with an exitCase's arguments.
type exitVerb struct {
	verb     string // the verb's label in obstacles_queries_total
	datasets bool   // the verb names a dataset
	geometry bool   // the verb takes a point, radius or distance
	call     func(r readVerbs, c exitCase, opts []QueryOption) error
}

func lastError[T any](seq iter.Seq2[T, error]) error {
	var last error
	for _, err := range seq {
		last = err
	}
	return last
}

// arg picks the argument of c's kind.
func arg[T any](c exitCase, outOfRange, nonFinite, good T) T {
	switch c.args {
	case argOutOfRange:
		return outOfRange
	case argNonFinite:
		return nonFinite
	}
	return good
}

var nan, inf = math.NaN(), math.Inf(1)

var exitVerbs = []exitVerb{
	{VerbRange, true, true, func(r readVerbs, c exitCase, opts []QueryOption) error {
		_, err := r.Range(c.ctx, c.ds, c.q, arg(c, -1.0, nan, 40), opts...)
		return err
	}},
	{VerbNearestNeighbors, true, true, func(r readVerbs, c exitCase, opts []QueryOption) error {
		_, err := r.NearestNeighbors(c.ctx, c.ds, arg(c, c.q, Pt(nan, 5), c.q), arg(c, -1, 3, 3), opts...)
		return err
	}},
	{VerbNearestStream, true, true, func(r readVerbs, c exitCase, opts []QueryOption) error {
		return lastError(r.Nearest(c.ctx, c.ds, arg(c, c.q, Pt(inf, 5), c.q), opts...))
	}},
	{VerbDistanceJoin, true, true, func(r readVerbs, c exitCase, opts []QueryOption) error {
		_, err := r.DistanceJoin(c.ctx, c.ds, c.ds2, arg(c, -1.0, nan, 15), opts...)
		return err
	}},
	{VerbClosestPairs, true, false, func(r readVerbs, c exitCase, opts []QueryOption) error {
		_, err := r.ClosestPairs(c.ctx, c.ds, c.ds2, arg(c, -1, 3, 3), opts...)
		return err
	}},
	{VerbClosestStream, true, false, func(r readVerbs, c exitCase, opts []QueryOption) error {
		return lastError(r.Closest(c.ctx, c.ds, c.ds2, opts...))
	}},
	{VerbObstructedDistance, false, true, func(r readVerbs, c exitCase, opts []QueryOption) error {
		_, err := r.ObstructedDistance(c.ctx, c.q, arg(c, Pt(95, 95), Pt(nan, 1), Pt(95, 95)), opts...)
		return err
	}},
	{VerbObstructedPath, false, true, func(r readVerbs, c exitCase, opts []QueryOption) error {
		_, _, err := r.ObstructedPath(c.ctx, arg(c, c.q, Pt(5, -inf), c.q), Pt(95, 95), opts...)
		return err
	}},
	{VerbBatchDistances, false, true, func(r readVerbs, c exitCase, opts []QueryOption) error {
		_, err := r.ObstructedDistances(c.ctx, c.q, arg(c, nil, []Point{Pt(95, 95), Pt(nan, nan)}, []Point{Pt(95, 95), Pt(5, 95)}), opts...)
		return err
	}},
	{VerbDistanceMatrix, false, true, func(r readVerbs, c exitCase, opts []QueryOption) error {
		_, err := r.DistanceMatrix(c.ctx, arg(c, nil, []Point{c.q, Pt(inf, 95), Pt(5, 95)}, []Point{c.q, Pt(95, 95), Pt(5, 95)}), opts...)
		return err
	}},
	{VerbCluster, true, false, func(r readVerbs, c exitCase, opts []QueryOption) error {
		_, err := r.Cluster(c.ctx, c.ds, ClusterOptions{Algorithm: DBSCAN, Eps: arg(c, 0.0, nan, 12), MinPts: 2}, opts...)
		return err
	}},
}

// TestEveryVerbExitRecordsOnce drives every verb through every kind of exit,
// on both handles, with every query traced. Whatever the verb returns, a call
// that opened a session must have been recorded exactly once — its count
// moved by one, its WithStats written, its trace out of the in-flight
// registry behind /debug/active — and a call rejected before a session
// existed (an unknown dataset, a non-finite point, a NaN radius or
// distance, Cluster options no algorithm can run) must have left all three
// untouched.
func TestEveryVerbExitRecordsOnce(t *testing.T) {
	opts := DefaultOptions()
	opts.TraceSampleRate = 1
	db := cityDB(t, opts)
	defer db.Close()
	blocked := Pt(20, 20) // strictly inside the first block
	for name, pts := range map[string][]Point{
		"P": {Pt(5, 5), Pt(45, 5), Pt(95, 95), Pt(5, 95), Pt(35, 65)},
		"T": {Pt(5, 35), Pt(65, 5), Pt(95, 65)},
		"B": {blocked, Pt(5, 65), Pt(65, 95)}, // holds an entity sealed inside an obstacle
	} {
		if err := db.AddDataset(name, pts); err != nil {
			t.Fatal(err)
		}
	}
	snap := db.Snapshot()
	defer snap.Close()

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	nothing := []QueryOption{WithFilter(func(Neighbor) bool { return false }), WithPairFilter(func(Pair) bool { return false })}
	free := Pt(5, 50)
	cases := []exitCase{
		{name: "ok", ctx: ctx, ds: "P", ds2: "T", q: free},
		{name: "unknown dataset", ctx: ctx, ds: "nope", ds2: "T", q: free, datasetErr: ErrUnknownDataset},
		{name: "unknown second dataset", ctx: ctx, ds: "P", ds2: "nope", q: free},
		{name: "out-of-range argument", ctx: ctx, ds: "P", ds2: "T", q: free, args: argOutOfRange, clusterErr: ErrInvalidArgument},
		{name: "non-finite argument", ctx: ctx, ds: "P", ds2: "T", q: free, args: argNonFinite, argErr: ErrInvalidArgument, clusterErr: ErrInvalidArgument},
		{name: "inside an obstacle", ctx: ctx, ds: "B", ds2: "B", q: blocked},
		{name: "inside an obstacle, filtered", ctx: ctx, ds: "B", ds2: "B", q: blocked, opts: []QueryOption{WithFilter(func(Neighbor) bool { return true })}},
		{name: "cancelled", ctx: cancelled, ds: "P", ds2: "T", q: free, wantErr: context.Canceled},
		{name: "filter rejects everything", ctx: ctx, ds: "P", ds2: "T", q: free, opts: nothing},
		{name: "WithLimit(0)", ctx: ctx, ds: "P", ds2: "T", q: free, opts: []QueryOption{WithLimit(0)}},
	}
	twoDatasets := map[string]bool{VerbDistanceJoin: true, VerbClosestPairs: true, VerbClosestStream: true}
	for _, h := range []struct {
		name string
		r    readVerbs
	}{{"Database", db}, {"Snapshot", snap}} {
		for _, c := range cases {
			for _, v := range exitVerbs {
				wantErr := c.wantErr
				if v.datasets && c.datasetErr != nil {
					wantErr = c.datasetErr
				}
				if c.ds2 == "nope" && twoDatasets[v.verb] {
					wantErr = ErrUnknownDataset
				}
				if v.geometry && c.argErr != nil {
					wantErr = c.argErr
				}
				if v.verb == VerbCluster && c.clusterErr != nil {
					wantErr = c.clusterErr
				}
				opened := 1.0
				if errors.Is(wantErr, ErrUnknownDataset) || errors.Is(wantErr, ErrInvalidArgument) {
					opened = 0
				}
				untouched := QueryStats{Elapsed: -1}
				qs := untouched
				before := verbCounts(t, db, v.verb)
				err := v.call(h.r, c, append([]QueryOption{WithStats(&qs)}, c.opts...))
				after := verbCounts(t, db, v.verb)

				label := h.name + "." + v.verb + "/" + c.name
				if !errors.Is(err, wantErr) || (wantErr == nil && err != nil) {
					t.Errorf("%s: error %v, want %v", label, err, wantErr)
				}
				if got := after[0] - before[0]; got != opened {
					t.Errorf("%s: obstacles_queries_total moved by %v, want %v", label, got, opened)
				}
				wantErrors := 0.0
				if opened == 1 && wantErr != nil {
					wantErrors = 1
				}
				if got := after[1] - before[1]; got != wantErrors {
					t.Errorf("%s: obstacles_query_errors_total moved by %v, want %v", label, got, wantErrors)
				}
				if written := qs != untouched; written != (opened == 1) {
					t.Errorf("%s: WithStats written = %v with %v session(s) opened: %+v", label, written, opened, qs)
				}
				if active := db.TraceRecorder().Active(); len(active) != 0 {
					t.Fatalf("%s: %d trace(s) stranded in flight: %+v", label, len(active), active)
				}
			}
		}
	}

	// A blocked query point answers empty on both kNN paths, not an error and
	// not every entity at distance Unreachable.
	for _, o := range [][]QueryOption{nil, {WithFilter(func(Neighbor) bool { return true })}} {
		if nn, err := db.NearestNeighbors(ctx, "P", blocked, 2, o...); err != nil || len(nn) != 0 {
			t.Errorf("kNN from inside an obstacle (%d options) = %v, %v", len(o), nn, err)
		}
	}
	// InsideObstacle refuses a non-finite point as the verbs do.
	for _, h := range []readVerbs{db, snap} {
		if _, err := h.InsideObstacle(Pt(nan, 5)); !errors.Is(err, ErrInvalidArgument) {
			t.Errorf("InsideObstacle(NaN) = %v, want ErrInvalidArgument", err)
		}
	}
	// Every way Cluster's options can be unusable is the caller's mistake.
	for _, copts := range []ClusterOptions{
		{Algorithm: DBSCAN, Eps: 0},
		{Algorithm: KMedoids, K: 0},
		{Algorithm: ClusterAlgorithm(42)},
	} {
		if _, err := db.Cluster(ctx, "P", copts); !errors.Is(err, ErrInvalidArgument) {
			t.Errorf("Cluster(%+v) = %v, want ErrInvalidArgument", copts, err)
		}
	}
}

// TestBuriedQueryPointStreamsNothing: a query point strictly inside an
// obstacle reaches nothing, so the Nearest stream ends at once, filtered or
// not, as NearestNeighbors and Range answer — not with every entity at
// distance Unreachable.
func TestBuriedQueryPointStreamsNothing(t *testing.T) {
	db, err := NewDatabaseFromRects([]Rect{R(10, 10, 20, 20)}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.AddDataset("P", []Point{Pt(5, 5), Pt(30, 15), Pt(15, 40), Pt(60, 60)}); err != nil {
		t.Fatal(err)
	}
	q := Pt(15, 15)
	if inside, err := db.InsideObstacle(q); err != nil || !inside {
		t.Fatalf("InsideObstacle(%v) = %v, %v", q, inside, err)
	}
	for _, o := range [][]QueryOption{nil, {WithFilter(func(Neighbor) bool { return true })}} {
		for nb, err := range db.Nearest(ctx, "P", q, o...) {
			t.Errorf("Nearest from inside an obstacle (%d options) yielded %+v, %v", len(o), nb, err)
		}
		if nn, err := db.NearestNeighbors(ctx, "P", q, 2, o...); err != nil || len(nn) != 0 {
			t.Errorf("NearestNeighbors from inside an obstacle (%d options) = %v, %v", len(o), nn, err)
		}
	}
}
