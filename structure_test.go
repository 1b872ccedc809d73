package obstacles_test

import (
	"bytes"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The structural gates. Each deletion that left one of the paper's
// algorithms, or one mechanism of the system, written once holds because a
// row below counts what it deleted and fails when the count rises above its
// ceiling. A PR that deletes more lowers its row's ceiling, or adds a row, in
// the same commit; so does a PR that shrinks the non-test line count.

// nonTestLines is the ceiling on the non-test Go lines outside bench/ (the
// ROADMAP's size target is ≤ 17k).
const nonTestLines = 17425

// commands is the ceiling on cmd/'s directories: obsd serves, obsctl does
// the rest.
const commands = 2

// A scope picks the Go files a gate counts in, by slash path from the module
// root.
type scope func(p string) bool

func isTest(p string) bool { return strings.HasSuffix(p, "_test.go") }

var (
	// rootPackage is the root package's non-test files.
	rootPackage scope = func(p string) bool { return !strings.Contains(p, "/") && !isTest(p) }
	// outsideBench is every non-test file outside bench/.
	outsideBench scope = func(p string) bool { return !isTest(p) && !strings.HasPrefix(p, "bench/") }
	// nonTest is every non-test file, bench/ included.
	nonTest scope = func(p string) bool { return !isTest(p) }
	// everyFile is every Go file, tests and bench/ included.
	everyFile scope = func(string) bool { return true }
)

// nonTestIn is the non-test files of the package in dir.
func nonTestIn(dir string) scope {
	return func(p string) bool { return path.Dir(p) == dir && !isTest(p) }
}

// everyFileIn is every Go file of the package in dir, tests included.
func everyFileIn(dir string) scope {
	return func(p string) bool { return path.Dir(p) == dir }
}

// A gate counts the lines matching pattern in the files of its scope (or,
// with files set, the files with a matching line), and holds while the count
// is at most its ceiling.
type gate struct {
	what    string
	pattern string
	in      scope
	files   bool
	ceiling int
}

var gates = []gate{
	// The library has no listener of its own; obsd mounts
	// Database.DebugHandler, so the deleted option's name is 0 at its floor.
	{"DebugAddr", `DebugAddr`, outsideBench, false, 0},

	// Each read verb goes through reader.run, the one place a query session
	// is opened and recorded: both counts are 1 at their floor, and a
	// hand-rolled verb exit shows up here as a larger number.
	{"db.record( call sites", `db\.record\(`, rootPackage, false, 1},
	{"newSessionAt( call sites", `\.newSessionAt\(`, rootPackage, false, 1},

	// internal/core/field.go is the one place a query touches a visibility
	// graph (nodes, searches, the Fig 8 cover radius): the file count is 1
	// at its floor and the old per-verb loop's name 0; a verb that grows a
	// private refinement loop again shows up here. Buried checks come from
	// the obstacles a field holds; the R-tree point query is left to
	// field.buried's fallback, 1 at the floor (ONN decides its query point
	// from its opening scan), so a per-candidate point query that creeps
	// back in shows up here as a larger number.
	{"internal/core files touching a visibility graph", `AddEntity\(|AddTerminal\(|DeleteEntity\(|\.Expand\(|ObstructedDist\(|coverRadius\(`, nonTestIn("internal/core"), true, 1},
	{"obstructedDistance", `obstructedDistance`, everyFile, false, 0},
	{".InsideObstacle( call sites in internal/core", `\.InsideObstacle\(`, nonTestIn("internal/core"), false, 1},

	// There is one visibility pass (internal/visgraph/grid.go): the deleted
	// rotational sweep's names are 0 at their floor. The knob that chose
	// between two passes survives for the benchmark probe and the tests'
	// reference pass in two files, its floor until ROADMAP item 1 renames
	// it: internal/visgraph/graph.go declares it and internal/core/session.go
	// sets it, because its zero value is the reference pass. The bitangent
	// filter rides UseSweep: true (the reference pass stays unpruned, the
	// oracle); it adds no option, so the count stays 2. A pass decides each
	// vertex pair once (a candidate whose own pass covered the pair is
	// skipped), so the edge-set map that deduplicated edges is 0 at its
	// floor.
	{"the rotational sweep", `sweepVisible|rayCrossesEdge|lessWithDist`, everyFile, false, 0},
	{"files mentioning UseSweep or NaiveVisibility", `UseSweep|NaiveVisibility`, outsideBench, true, 2},
	{"the edge-set map in internal/visgraph", `edgeSet|edgeKey`, nonTestIn("internal/visgraph"), false, 0},

	// Clustering takes its metric as plain arguments: DBSCAN the
	// ε-neighborhood lists of one obstacle distance self-join (Fig 10 with
	// S = T), and k-medoids the distance matrix. The deleted oracle
	// interfaces and the Euclidean prefilter's range call are 0 at their
	// floor, and so are per-entity range calls in cluster.go and the
	// deleted seed-order knob; a clustering seam that creeps back in shows
	// up here.
	{"clustering oracle seams", `DistanceOracle|MatrixOracle|CandidateSource|EuclideanRange`, outsideBench, false, 0},
	{".Range( in cluster.go", `\.Range\(`, func(p string) bool { return p == "cluster.go" }, false, 0},
	{"NoHilbertSeeds", `NoHilbertSeeds`, outsideBench, false, 0},

	// Requests share no graph: the deleted request coalescer's name is 0 at
	// its floor, and so is the deleted graph cache's (below). Group commit
	// (persist.go) is the one leader/rider protocol left, so the files
	// electing a leader with a leaderTok are 1 at their floor.
	{"request coalescers", `(?i)coalesc`, outsideBench, false, 0},
	{"files electing a leader with a leaderTok", `leaderTok`, outsideBench, true, 1},

	// /metrics is the one process-lifetime view: the deleted second views
	// (Database.Metrics, the engine's work totals, the slow-query log), the
	// ErrNeedsReopen shim and the WAL test hooks are 0 at their floor.
	// Engine.GraphCacheStats stays as a stub bench/ calls, so the pattern
	// looks for the deleted Database method, db.GraphCacheStats(), and the
	// Engine declaration does not count.
	{"second ledgers, compatibility shims and test-only hooks", `\bMetrics\(\)|SlowQuery|workTotals|ErrNeedsReopen|openHooks|\bdb\.GraphCacheStats\(\)`, outsideBench, false, 0},

	// PointSet and ObstacleSet are one copy-on-write id table
	// (internal/core/core.go): the per-set clone helpers are 0 at their
	// floor. The R-tree packs by STR only, with R*'s fill and reinsert
	// shares as constants: the deleted method and options are 0 too.
	{"per-set clone helpers in internal/core", `ensurePts|ensurePolys|ensureDead|ensureFree`, nonTestIn("internal/core"), false, 0},
	{"unused R-tree knobs", `Hilbert|MinFillFraction|ReinsertFraction`, nonTestIn("internal/rtree"), false, 0},

	// A read-only R-tree traversal takes its per-depth scratch from a free
	// list instead of making it per call: 0 at its floor.
	{"per-call traversal scratch in internal/rtree", `make\(nodeStack`, nonTestIn("internal/rtree"), false, 0},

	// The R-tree descends by least area enlargement at every level, and
	// sorts use the standard library: R*'s leaf-level overlap loop and
	// hand-rolled insertion sorts are 0 at their floor.
	{"R*'s overlap loop in internal/rtree", `dOverlap`, everyFileIn("internal/rtree"), false, 0},
	{"hand-rolled insertion sorts", `for j := i; j > 0`, outsideBench, false, 0},

	// The obstacle trees are the obstacle store: the deleted obstacle blob's
	// codec, its dirty flag and re-encoder, the delta's vertex payload and
	// obsctl's quadratic verify subcommand are 0 at their floor.
	{"the obstacle blob", `EncodeObstacles|DecodeObstacles|obstDirty|encodeObstacleSet|ObstacleAdd`, outsideBench, false, 0},
	{`obsctl's "verify" subcommand`, `"verify"`, nonTestIn("cmd/obsctl"), false, 0},

	// No visibility graph outlives its query, so nothing invalidates one:
	// the deleted epoch ranges, region invalidation and stale-epoch fallback
	// are 0 at their floor, and so are invalidation calls outside
	// internal/core (the no-op Engine.InvalidateObstacleRegion stays for
	// bench/ only). The flight
	// recorder's retention policy is constants: its options struct is 0.
	{"graph-cache invalidation in internal/core", `epochLo|growTarget|InvalidateRegion|errStaleEpoch|deadNever`, nonTestIn("internal/core"), false, 0},
	{"InvalidateObstacleRegion( outside internal/core", `InvalidateObstacleRegion\(`, func(p string) bool {
		return outsideBench(p) && !strings.HasPrefix(p, "internal/core/")
	}, false, 0},
	{"RecorderOptions", `RecorderOptions`, nonTest, false, 0},

	// A distance matrix is one query-local field whose source walks its
	// points: the matrix's call-local cache, the batch helper that took a
	// cache, the test-only cache-size option and the two helpers that
	// translated growth between a source and an entry's center are 0 at
	// their floor.
	{"the matrix cache and the cache-taking batch helper", `newGraphCache|GraphCacheSize|batchDistances\(`, outsideBench, false, 0},
	{"coverage translation", `func \(en \*cacheEntry\) grow|func \(f \*field\) grow`, outsideBench, false, 0},

	// A field decides a target in plain sight or by a detour round the
	// obstacles in its way before it builds a graph, so short distances need
	// no graph kept across queries: the graph cache, its entries, their
	// growth cap and coverage, and the hook that lent a cached graph to each
	// query are 0 at their floor in every file outside bench/, tests
	// included. Only the no-op stubs bench/ calls stay
	// (internal/core/core.go).
	{"the graph cache", `\bGraphCache\b|cacheEntry|growLimit|setCoverage|Retarget`, func(p string) bool { return !strings.HasPrefix(p, "bench/") }, false, 0},

	// Every commit logs the whole catalog state that a checkpoint writes, so
	// nothing reconciles a commit with its checkpoint: the delta codec, the
	// page file's allocation journal and the per-commit dataset tracking are
	// 0 at their floor in every file outside bench/, tests included, and so
	// is the retry cap option that became a constant multiple of
	// RecoverBackoff.
	{"catalog deltas and their journals", `catalog\.Delta|EncodeDelta|DecodeDelta|AllocOp|DrainAllocLog|allocLog|dirtyDatasets|noteDatasetDirty|RecoverMaxBackoff`, func(p string) bool { return !strings.HasPrefix(p, "bench/") }, false, 0},
}

// goFiles reads every Go file under the module root except this one, which
// names what every gate forbids, keyed by slash path. It skips directories
// whose names begin with a dot.
func goFiles(t *testing.T) map[string][]byte {
	t.Helper()
	files := make(map[string][]byte)
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		p = filepath.ToSlash(p)
		if !strings.HasSuffix(p, ".go") || p == "structure_test.go" {
			return nil
		}
		b, err := os.ReadFile(p)
		files[p] = b
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestStructure holds every gate, the non-test line ceiling and the command
// ceiling.
func TestStructure(t *testing.T) {
	files := goFiles(t)
	for _, g := range gates {
		re := regexp.MustCompile(g.pattern)
		var where []string
		count := 0
		for p, b := range files {
			if !g.in(p) {
				continue
			}
			hits := 0
			for i, line := range strings.Split(string(b), "\n") {
				if re.MatchString(line) {
					hits++
					where = append(where, p+":"+strconv.Itoa(i+1))
				}
			}
			if g.files {
				hits = min(hits, 1)
			}
			count += hits
		}
		if count > g.ceiling {
			slices.Sort(where)
			t.Errorf("%s: %d, ceiling %d; matches at %s", g.what, count, g.ceiling, strings.Join(where, " "))
		}
	}

	lines := 0
	for p, b := range files {
		if outsideBench(p) {
			lines += bytes.Count(b, []byte("\n"))
		}
	}
	t.Logf("%d non-test Go lines outside bench/ (ceiling %d)", lines, nonTestLines)
	if lines > nonTestLines {
		t.Errorf("%d non-test Go lines outside bench/, ceiling %d: a PR that grows the code raises the ceiling and says why", lines, nonTestLines)
	}

	entries, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, e := range entries {
		if e.IsDir() {
			dirs = append(dirs, e.Name())
		}
	}
	if len(dirs) > commands {
		t.Errorf("cmd/ has %d directories %v, ceiling %d", len(dirs), dirs, commands)
	}
}
