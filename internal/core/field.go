package core

import (
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/visgraph"
)

// field is the one refinement step under every query verb: the obstructed
// distances from one source point to target points, over a local visibility
// graph that holds the obstacles a path to each target can meet and grows
// when a distance demands it (compute_obstructed_distance, Fig 8), or — when
// the verb only needs to know whether a distance is below a bound — just far
// enough to decide that (certify). It owns every graph node a query adds and
// removes; the verbs above it own the candidate streams and their stopping
// rules.
//
// What the graph holds is said per target, as an ellipse: a path of length d
// from the center to a target never leaves the ellipse with those two foci
// and sum d, so a target is covered up to sum s when every obstacle meeting
// that ellipse is in the graph (covered). The graph holds the disk of radius
// searched around hub (the center, or where a rerooted field opened), so the
// disk of radius r = searched - |hub center| around the center, which covers
// every target t up to 2r - dE(center, t). Most fields grow the disk, as the
// paper does; an ellipse field grows each target's own ellipse instead, which
// is sqrt(d^2 - dE^2) / 4d of the area of the disk of radius d: 0.13 on
// average over 800-1,600-unit routes of the default world, whose paths are
// 1.3 times their straight line.
//
// Each target is decided by the cheapest certificate that holds (decide):
// plain sight, then a detour round the obstacles in the way, then a
// graph search. A field is lazy: it scans its obstacles the first time an
// operation needs them, and builds its graph over them only when some target
// is left to search. It is per-call state, owned by one session, and its verb
// closes it when done, which hands its graph back for the next field to build
// in (visgraph.Graph.Release).
//
// Whether a point is buried — strictly inside an obstacle, so it reaches
// nothing — is decided from the obstacles the field already holds whenever
// the point lies in a range they were scanned over (buried, certify). The
// paper has no such check; here it reads only what the field lacks, so a
// buried source costs the opening scan, not an R-tree point query.
type field struct {
	s      *Session
	st     *Stats // the verb's counters: Fig 8 invocations, certificates and the graph-size high-water land here
	center geom.Point
	// hub is the center of the disk whose obstacles g holds, and searched its
	// radius; before the scan, the radius it will run with.
	hub      geom.Point
	searched float64
	// ellipse marks a field the verb opened for one target at a time with no
	// radius of its own (path, OCP's per-s field, a batch of one): it opens
	// on the obstacles meeting each target's segment and grows that target's
	// ellipse. Fields whose graph serves many candidates at once (ONN,
	// many-target batches) grow the disk, which every candidate shares.
	ellipse bool
	scanned bool
	obs     []visgraph.Obstacle // the obstacles scanned, until attach builds g over them
	g       *visgraph.Graph     // nil until attach
	src     visgraph.NodeID     // Invalid until attach
	// cover is the radius around hub that holds every obstacle: a search
	// that wide that still finds no path proves unreachability. Negative
	// until a target first comes back +Inf, which is the only time it is
	// needed.
	cover float64
	// win is the window of nodes that a join's run of seeds reads the
	// obstacle tree through (DistanceJoin), or nil.
	win *rtree.Window
	// routed marks the field of a point-to-point verb, which reports the route
	// of the final search from the source to its one target (path).
	routed bool
	// passTargets has every expansion pass its open targets first
	// (visgraph.Graph.PassFirst): a distance matrix's rows pass nearly all
	// of its near-global graph, where scattered targets cost fewer walks
	// from their own passes than from the vertices'.
	passTargets bool
	// blockers, set and detour are decide's scratch: the obstacles blocking
	// a segment, those a detour goes round, and its path.
	blockers, set []*geom.Polygon
	detour        []geom.Point
	targets       []target
	first         [1]target // backs targets while there is one: the per-candidate verbs never have more
	err           error     // the first error of any operation
}

// target is one point the field measures the distance to.
type target struct {
	pt    geom.Point
	n     visgraph.NodeID // Invalid until an operation attaches it
	dist  float64         // +Inf until settled; provisional until final
	final bool
	dE    float64 // the Euclidean distance from the center: dist's lower bound
	// cov is the sum up to which the field's scans of this target's own
	// ellipse cover it (an ellipse field's); covered adds the disk's.
	cov float64
}

// region is the part of the plane an obstacle range query reads: the ellipse
// of the points x with |xa| + |xb| <= sum. A disk of radius r around c is the
// ellipse with both foci at c and sum 2r.
type region struct {
	a, b geom.Point
	sum  float64
}

func disk(c geom.Point, r float64) region { return region{c, c, 2 * r} }

// meets is the refinement step of a range query over r, for a polygon whose
// MBR passed the R-tree's entry test: the exact polygon test for a disk, as
// in the paper. An ellipse keeps every polygon that passed, since the entry
// test is already a lower bound on |xa| + |xb| over the polygon: what it
// keeps beyond the ellipse lies near the ellipse's ends, where the next,
// longer provisional path reaches first. On 800-1,600-unit routes an exact
// per-edge test held 76 graph nodes per path but took 2.34 searches; keeping
// them, 85 nodes and 2.02 searches.
func (r region) meets(pg geom.Polygon) bool {
	return r.a != r.b || pg.IntersectsCircle(r.a, r.sum/2)
}

// newField prepares a field around center that will open on the obstacles
// within r of it.
func (s *Session) newField(center geom.Point, r float64, st *Stats) *field {
	f := &field{s: s, st: st, center: center, hub: center, searched: r, src: visgraph.Invalid, cover: -1}
	f.targets = f.first[:0]
	return f
}

// reserve makes room for n more targets in one allocation.
func (f *field) reserve(n int) { f.targets = slices.Grow(f.targets, n) }

// add registers a target and returns its index. It costs nothing until the
// next settle or certify.
func (f *field) add(pt geom.Point) int {
	f.targets = append(f.targets, target{pt: pt, n: visgraph.Invalid, dist: math.Inf(1), dE: f.center.Dist(pt)})
	return len(f.targets) - 1
}

// covered returns the largest sum s for which the field holds every obstacle
// meeting the ellipse with foci center and t.pt and sum s: the target's own
// scans', or the disk of radius r = searched - |hub center| around the
// center, whose far point on the ellipse's axis, (s + dE) / 2 from the
// center, bounds s by 2r - dE. With hub == center, r is searched exactly.
func (f *field) covered(t *target) float64 {
	return max(t.cov, 2*(f.searched-f.hub.Dist(f.center))-t.dE)
}

// fail returns err, remembering the first non-nil one for close.
func (f *field) fail(err error) error {
	if f.err == nil {
		f.err = err
	}
	return err
}

// scan is the one way a query opens on its obstacles: one obstacle range
// query over those within searched of center, a join seed's through its
// run's window, or for an ellipse field over those meeting its first open
// target's segment (scanSegment).
// Figs 5 and 9 issue that query first and unconditionally, which is what
// keeps their obstacle R-tree I/O independent of what is left to refine;
// attach builds the graph over its result only when something is.
func (f *field) scan() error {
	if f.scanned || f.err != nil {
		return f.err
	}
	f.scanned = true
	if f.ellipse {
		for i := range f.targets {
			if t := &f.targets[i]; !t.final {
				return f.scanSegment(t)
			}
		}
	}
	var err error
	f.obs, err = f.s.relevantObstacles(disk(f.hub, f.searched), f.win, obstScan)
	return f.fail(err)
}

// scanSegment brings in the obstacles meeting the segment from the center to
// t, the ellipse of sum dE: an ellipse field's opening range for t. t then
// lies in its covered ellipse, so its buried check reads the field alone.
func (f *field) scanSegment(t *target) error {
	obs, err := f.s.relevantObstacles(region{f.center, t.pt, t.dE * (1 + boundSlack)}, nil, obstScan)
	if err != nil {
		return f.fail(err)
	}
	t.cov = t.dE
	f.hold(obs)
	return nil
}

// hold adds to the field the obstacles of obs it does not hold yet, reporting
// whether there were any: into the graph once it is built, into the scan's
// result before.
func (f *field) hold(obs []visgraph.Obstacle) bool {
	if f.g != nil {
		return f.g.AddObstacles(obs) > 0
	}
	n := len(f.obs)
	for _, ob := range obs {
		if !slices.ContainsFunc(f.obs, func(o visgraph.Obstacle) bool { return o.ID == ob.ID }) {
			f.obs = append(f.obs, ob)
		}
	}
	return len(f.obs) > n
}

// addWithin brings into the field every obstacle meeting the region that it
// does not hold yet (Fig 8's enlargement), reporting whether there were any.
func (f *field) addWithin(r region) (bool, error) {
	obs, err := f.s.relevantObstacles(r, nil, obstEnlarge)
	if err != nil {
		return false, f.fail(err)
	}
	return f.hold(obs), nil
}

// attach makes the graph searchable: built over the scanned obstacles when it
// is query-local, the source its terminal, every waiting target an entity
// node.
func (f *field) attach() error {
	if err := f.scan(); err != nil {
		return err
	}
	if f.g == nil {
		f.g, f.obs = f.s.buildGraph(f.obs), nil
	}
	if f.src == visgraph.Invalid {
		f.src = f.g.AddTerminal(f.center)
	}
	for i := range f.targets {
		if t := &f.targets[i]; !t.final && t.n == visgraph.Invalid {
			t.n = f.g.AddEntity(t.pt)
		}
	}
	return nil
}

// search runs one graph search under the session's dijkstra span and
// records the graph-size high-water (read after the search: the search is
// what materialises edges).
func (f *field) search(run func()) error {
	f.s.dijkstra(run)
	if n := f.g.NumNodes(); n > f.st.GraphNodes {
		f.st.GraphNodes, f.st.GraphEdges = n, f.g.NumEdges()
	}
	// A cancellation mid-search leaves targets unsettled (+Inf); without this
	// check a reachable target would be reported as proven unreachable with
	// a nil error.
	return f.fail(f.s.err())
}

// expand runs one expansion from the source within bound, handing visit each
// open target as it settles and stopping after the last.
func (f *field) expand(bound float64, visit func(i int, d float64)) error {
	open := make(map[visgraph.NodeID]int, len(f.targets))
	for i := range f.targets {
		if t := &f.targets[i]; !t.final {
			open[t.n] = i
			if f.passTargets {
				f.g.PassFirst(t.n)
			}
		}
	}
	return f.search(func() {
		f.g.Expand(f.src, bound, func(n visgraph.NodeID, d float64) bool {
			if i, ok := open[n]; ok {
				visit(i, d)
				delete(open, n)
			}
			return len(open) > 0
		})
	})
}

// settle refines every target with one expansion around the source, bounded
// by bound — the refinement of OR and ODJ (Fig 5), which need no enlargement:
// the graph already holds every obstacle a path that short can touch. visit
// gets each target within bound once; the rest are false hits. A target that
// a certificate decides (decide) is visited first, and only the others get
// graph nodes: a field whose targets are all decided builds no graph. A
// target strictly inside an obstacle sees nothing and is never reached, so it
// needs no check of its own.
func (f *field) settle(bound float64, visit func(i int, d float64)) error {
	if err := f.scan(); err != nil {
		return err
	}
	f.st.DistComputations++
	open := 0
	for i := range f.targets {
		t := &f.targets[i]
		if t.final {
			continue
		}
		switch ok, err := f.decide(t, bound, false); {
		case err != nil:
			return err
		case !ok:
			open++
			continue
		}
		t.final = true
		if t.dist <= bound {
			visit(i, t.dist)
		}
	}
	if open == 0 {
		return nil
	}
	f.st.Decided.Graph += open
	if err := f.attach(); err != nil {
		return err
	}
	return f.expand(bound, visit)
}

// decide settles t without a graph search when a certificate holds, and
// reports whether one did. It needs the field to hold every obstacle that
// can meet t's segment from the center. Removing obstacles never lengthens
// a path, so the shortest path round any obstacles the field holds, taken
// alone (visgraph.Detour), is a lower bound LB on t's distance. decide
// starts from those that block the segment and decides t when
//   - there is none (plain sight): t is final at its Euclidean distance, no
//     path being shorter;
//   - LB exceeds bound by more than boundSlack: t is final at +Inf, read as
//     ">= bound", as a bounded search would have found it;
//   - the path that attains LB is clear of every obstacle the field holds,
//     and the field covers t up to LB: the path is feasible and lies where
//     the field holds every obstacle, so t's distance is LB exactly.
//
// While the path is blocked, the obstacles that block its first blocked leg
// join the set and LB is taken again, up to maxDetour obstacles; past that,
// or when the set leaves no path, a graph search decides t.
//
// An ellipse field that does not yet cover t up to LB grows t's ellipse to
// LB, but only once the path is clear of what the field held: a search over
// the field's obstacles would then have returned LB and led to this same
// Fig 8 enlargement, so the obstacle pages read are the same, round after
// round. A disk field takes the detour only where it covers LB already. A
// routed field reports its route from a search, so it takes plain sight
// alone. LB is summed along the path as the search it stands in for sums
// it: from the target when fromTarget is set (certify's goal-directed
// search for a lone target), else from the center.
func (f *field) decide(t *target, bound float64, fromTarget bool) (bool, error) {
	if f.covered(t) < t.dE {
		return false, nil
	}
	if len(f.blocking(f.center, t.pt)) == 0 {
		t.dist = t.dE
		f.st.Decided.Sight++
		return true, nil
	}
	if f.routed {
		return false, nil
	}
	f.set = f.set[:0]
	for {
		held := len(f.set)
		for _, pg := range f.blockers {
			if !slices.Contains(f.set, pg) {
				f.set = append(f.set, pg)
			}
		}
		if len(f.set) == held || len(f.set) > maxDetour {
			return false, nil
		}
		var lb float64
		if fromTarget {
			f.detour, lb = visgraph.Detour(f.set, t.pt, f.center, f.detour[:0])
		} else {
			f.detour, lb = visgraph.Detour(f.set, f.center, t.pt, f.detour[:0])
		}
		switch {
		case lb > bound*(1+boundSlack):
			t.dist = math.Inf(1)
		case math.IsInf(lb, 1):
			return false, nil
		case !f.passable(f.detour):
			continue
		case f.covered(t) < lb:
			if !f.ellipse {
				return false, nil
			}
			if _, err := f.addWithin(region{f.center, t.pt, lb * (1 + boundSlack)}); err != nil {
				return false, err
			}
			if t.cov = lb; !f.passable(f.detour) {
				continue
			}
			fallthrough
		default:
			t.dist = lb
		}
		f.st.Decided.Detour++
		return true, nil
	}
}

// maxDetour is the most obstacles decide takes a detour round before it
// leaves a target to a graph search. It keeps visgraph.Detour's queue-less
// Dijkstra, quadratic in its nodes, small: four rectangles are 18 nodes,
// which it holds on the stack.
const maxDetour = 4

// blocking sets blockers to every obstacle the field holds that blocks the
// segment ab, by the test a visibility pass makes, and counts the test as a
// pass counts its own (Walks).
func (f *field) blocking(a, b geom.Point) []*geom.Polygon {
	f.s.met.Walks++
	if f.g != nil {
		f.blockers = f.g.Blockers(a, b, f.blockers[:0])
	} else {
		f.blockers = visgraph.Blockers(f.obs, a, b, f.blockers[:0])
	}
	return f.blockers
}

// passable reports whether no obstacle the field holds blocks a leg of path;
// if one does, blockers holds those that block the first such leg.
func (f *field) passable(path []geom.Point) bool {
	for k := 1; k < len(path); k++ {
		if len(f.blocking(path[k-1], path[k])) > 0 {
			return false
		}
	}
	return true
}

// buried reports whether p lies strictly inside an obstacle. Once the field
// has scanned, and p is within searched of the hub, the field's own
// obstacles answer (inside): an obstacle that strictly contains such a p
// intersects the scanned disk, so the field holds it. Any other point costs
// an obstacle R-tree point query.
func (f *field) buried(p geom.Point) (bool, error) {
	if f.scanned && f.hub.Dist(p) <= f.searched {
		return f.inside(p), nil
	}
	inside, err := f.s.InsideObstacle(p)
	return inside, f.fail(err)
}

// sourceBuried runs the opening scan and reports whether the center is
// buried, which the scanned obstacles always answer.
func (f *field) sourceBuried() (bool, error) {
	if err := f.scan(); err != nil {
		return false, err
	}
	return f.buried(f.center)
}

// inside reports whether p lies strictly inside an obstacle the field holds:
// in its graph once attached, in the scan's result before.
func (f *field) inside(p geom.Point) bool {
	if f.g != nil {
		return f.g.Inside(p)
	}
	for _, ob := range f.obs {
		if ob.Poly.ContainsStrict(p) {
			return true
		}
	}
	return false
}

// boundSlack is the relative margin a bounded search gets over its bound. A
// key sums a path's edge weights and one more distance, each rounded, so a
// target whose distance is below the bound by less than that rounding could
// otherwise be dropped; 1e-9 is far above it for any path a query builds.
// The ranges Fig 8 scans and grows to get the same margin over the sum they
// must cover, so rounding in a range's arithmetic never leaves out an
// obstacle a path could meet, nor a distance its range was grown for
// uncertified.
const boundSlack = 1e-9

// certify makes the distance of every target added so far final
// (compute_obstructed_distance, Fig 8, for one target or many). A shortest
// path of length d from the center to a target stays inside the ellipse with
// those foci and sum d. So a provisional d is final once the target is
// covered up to d: the path found avoids every obstacle the graph holds and
// meets none it lacks. The paper asks for the disk of radius d instead, which
// holds that ellipse and far more. The range is enlarged round by round
// (enlarge) until an enlargement finds no new obstacle. Distances only grow
// across rounds. While a target is disconnected the range doubles
// instead; once it covers every obstacle and no path exists the target is
// sealed off and its distance is +Inf (a case the paper does not discuss but
// real data can produce).
//
// A finite bound asks less: only whether a target's distance is below it.
// The searches then drop every node no path within bound passes, and a
// target they cannot reach is final at +Inf, read as ">= bound", with no
// enlargement: the local graph lacks only obstacles, so its distance is a
// lower bound on the true one, and no enlargement could bring the target
// under the bound. A target found within bound runs the Fig 8 loop as above.
// This is how Figs 9 and 11 decide a candidate past the k seeds, where the
// paper measures it.
//
// Endpoints strictly inside an obstacle reach nothing and are answered +Inf
// before any search, instead of letting the doubling pull in the whole
// obstacle set to prove it. The check reads the obstacles the field holds: a
// disk field's opening scan is sized from every open target first (buried),
// and an ellipse field scans each target's segment, which holds the target.
// A bounded target beyond a disk field's scan is checked against what the
// field holds alone, with no point query: if an obstacle the field lacks
// buries it, the bounded search still rejects it, since a path found within
// bound is at least dE long, so Fig 8 enlarges the disk to at least dE, which
// brings in that obstacle and cuts the target off.
//
// A target that a certificate decides (decide) is final before any search,
// with no graph node, and a field whose open targets all are builds no
// graph. Under a finite bound a distance so found may be at or above the
// bound: it is exact all the same.
func (f *field) certify(bound float64) error {
	bounded := !math.IsInf(bound, 1)
	pending := 0
	for i := range f.targets {
		if t := &f.targets[i]; !t.final {
			pending++
			if !f.scanned && !f.ellipse {
				// A disk field opens on the Euclidean range of its farthest
				// target (Fig 7), unless the verb asked for more.
				f.searched = max(f.searched, t.dE)
			}
		}
	}
	if pending == 0 {
		return nil
	}
	alone := pending == 1 // a lone target's search runs from it to the source
	buriedSrc, err := f.sourceBuried()
	if err != nil {
		return err
	}
	measured := false // some target is not buried: Fig 8 runs, if only to see it
	for i := range f.targets {
		t := &f.targets[i]
		if t.final {
			continue
		}
		buried := buriedSrc
		switch {
		case buried:
		case f.ellipse:
			// A target after the first opens on its own segment.
			if f.covered(t) < t.dE {
				if err := f.scanSegment(t); err != nil {
					return err
				}
			}
			buried = f.inside(t.pt)
		case bounded:
			buried = f.inside(t.pt)
		default:
			if buried, err = f.buried(t.pt); err != nil {
				return err
			}
		}
		measured = measured || !buried
		if !buried {
			switch ok, err := f.decide(t, bound, alone); {
			case err != nil:
				return err
			case !ok:
				continue
			}
		}
		t.final = true
		pending--
	}
	if measured {
		f.st.DistComputations++
	}
	if pending == 0 {
		return nil
	}
	f.st.Decided.Graph += pending
	if err := f.attach(); err != nil {
		return err
	}
	reach := bound * (1 + boundSlack)
	for pending > 0 {
		// One search per round. With several targets open it is one expansion
		// that settles them all (Dijkstra settles in ascending order, so a
		// settled target's distance is exact in the current graph). With one
		// it is goal-directed and runs from the target to the source, as in
		// Fig 8: a sealed-off candidate then exhausts its own enclosure to
		// prove it, not the whole world outside. A routed field searches from
		// the source, the way its route is read.
		var one *target
		for i := range f.targets {
			if t := &f.targets[i]; !t.final {
				t.dist, one = math.Inf(1), t
			}
		}
		if pending > 1 {
			err = f.expand(reach, func(i int, d float64) { f.targets[i].dist = d })
		} else {
			from, to := one.n, f.src
			if f.routed {
				from, to = to, from
			}
			err = f.search(func() { one.dist = f.g.BoundedDist(from, to, reach) })
		}
		if err != nil {
			return err
		}
		// Finalize targets whose provisional distance their coverage already
		// certifies, and those a bounded search proved out of reach.
		for i := range f.targets {
			switch t := &f.targets[i]; {
			case t.final:
			case t.dist <= f.covered(t), bounded && math.IsInf(t.dist, 1):
				t.final = true
				pending--
			}
		}
		for pending > 0 {
			added, grew, err := f.enlarge()
			if err != nil {
				return f.fail(err)
			}
			if !grew {
				// Only unreachable targets remain and the graph already holds
				// every obstacle: provably sealed off (+Inf already in dist).
				for i := range f.targets {
					f.targets[i].final = true
				}
				return nil
			}
			if added {
				break // distances may have changed; search again
			}
			// Fig 8 termination: the enlargement found no new obstacle, so
			// finite provisional distances are final.
			for i := range f.targets {
				if t := &f.targets[i]; !t.final && !math.IsInf(t.dist, 1) {
					t.final = true
					pending--
				}
			}
		}
	}
	return nil
}

// enlarge runs one Fig 8 range enlargement for the open targets, reporting
// whether it brought in a new obstacle and whether its range grew at all. A
// finite provisional d asks for every obstacle a path that long can meet: an
// ellipse field grows the target's own ellipse to sum d, a disk field its
// disk to hold (d + dE) / 2 around the center, the smallest disk there
// holding that ellipse. A disconnected target (+Inf) doubles the disk
// enclosing its covered ellipse instead, up to the radius that covers every
// obstacle; past that nothing is left to bring in, and the range does not
// grow. The disk is the hub's, so a radius asked around the center grows by
// off = |hub center|.
func (f *field) enlarge() (added, grew bool, err error) {
	radius, off := f.searched, f.hub.Dist(f.center)
	for i := range f.targets {
		switch t := &f.targets[i]; {
		case t.final:
		case math.IsInf(t.dist, 1):
			cover, err := f.coverRadius()
			if err != nil {
				return false, false, err
			}
			radius = max(radius, min(off+f.covered(t)+t.dE, cover))
		case !f.ellipse:
			radius = max(radius, off+(t.dist+t.dE)/2*(1+boundSlack))
		}
	}
	if radius > f.searched {
		if added, err = f.addWithin(disk(f.hub, radius)); err != nil {
			return false, false, err
		}
		f.searched, grew = radius, true
	}
	if !f.ellipse {
		return added, grew, nil
	}
	for i := range f.targets {
		if t := &f.targets[i]; !t.final && !math.IsInf(t.dist, 1) && t.dist > f.covered(t) {
			more, err := f.addWithin(region{f.center, t.pt, t.dist * (1 + boundSlack)})
			if err != nil {
				return false, false, err
			}
			t.cov, added, grew = t.dist, added || more, true
		}
	}
	return added, grew, nil
}

// coverRadius returns the radius around hub that covers every obstacle,
// reading the obstacle tree's root the first time it is asked.
func (f *field) coverRadius() (float64, error) {
	if f.cover < 0 {
		b, err := f.s.obstTree[obstEnlarge].Bounds()
		if err != nil {
			return 0, err
		}
		f.cover = 0
		if !b.IsEmpty() {
			f.cover = b.MaxDist(f.hub)
		}
	}
	return f.cover, nil
}

// distance is the per-candidate step of Figs 9, 11 and 12: one target added,
// certified against bound and taken out again, so the graph the next
// candidate is measured on holds obstacles and the source only. A finite
// distance is exact; +Inf under a finite bound means only ">= bound".
func (f *field) distance(pt geom.Point, bound float64) (float64, error) {
	i := f.add(pt)
	err := f.certify(bound)
	d := f.targets[i].dist
	f.clear()
	return d, err
}

// path returns the route of a routed field's last search — of its single
// target, certified reachable, so goal-directed and ended there — as a point
// sequence from the source to that target, bending only at obstacle vertices
// [LW79]. A target in plain sight had no search: its route is the segment.
func (f *field) path() []geom.Point {
	t := &f.targets[0]
	if t.n == visgraph.Invalid {
		return []geom.Point{f.center, t.pt}
	}
	nodes := f.g.Path(t.n)
	pts := make([]geom.Point, len(nodes))
	for i, n := range nodes {
		pts[i] = f.g.Point(n)
	}
	return pts
}

// reroot makes the first target the source, for the next row of a distance
// matrix: its entity node and the old terminal go, and the hub, its disk,
// the obstacles and the other targets' entity nodes stay. The targets
// reopen, measured from the new center. One at the center is measured like
// any other: its node and the terminal see each other at distance 0.
func (f *field) reroot() {
	for _, n := range [2]visgraph.NodeID{f.targets[0].n, f.src} {
		if n != visgraph.Invalid {
			f.g.DeleteEntity(n)
		}
	}
	f.center, f.src = f.targets[0].pt, visgraph.Invalid
	f.targets = f.targets[1:]
	for i := range f.targets {
		t := &f.targets[i]
		t.dist, t.final, t.dE, t.cov = math.Inf(1), false, f.center.Dist(t.pt), 0
	}
}

// clear takes every target out of the field and its node out of the graph.
func (f *field) clear() {
	for i := range f.targets {
		if n := f.targets[i].n; n != visgraph.Invalid {
			f.g.DeleteEntity(n)
		}
	}
	f.targets = f.targets[:0]
}

// close releases the field's graph, for the next field's graph to be built
// in its storage. Nothing may read the field afterwards. Idempotent, and a
// no-op on nil.
func (f *field) close() {
	if f != nil && f.g != nil {
		f.g.Release()
		f.g = nil
	}
}
