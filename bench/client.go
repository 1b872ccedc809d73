package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	"repro/internal/geom"
	"repro/internal/server"
)

// answer is what the harness keeps of one reply: the result count and the
// returned distance, or the sum of the returned distances. It is what the
// golden files hold and what is compared between passes and with the oracle.
type answer struct {
	Count int
	Sum   float64
}

// same compares two answers with 1e-6 relative tolerance on the sum.
func (a answer) same(b answer) bool {
	if a.Count != b.Count {
		return false
	}
	return math.Abs(a.Sum-b.Sum) <= 1e-6*math.Max(1, math.Max(math.Abs(a.Sum), math.Abs(b.Sum)))
}

// opResult is one executed request. Err is empty for a success; a failed
// request has no latency.
type opResult struct {
	Ns    int64
	Bytes int
	Ans   answer
	Err   string
}

// passResult is one replay of the whole list by numClients closed-loop clients.
type passResult struct {
	Wall time.Duration
	Ops  []opResult // by list index
}

func (p *passResult) failed() int {
	n := 0
	for i := range p.Ops {
		if p.Ops[i].Err != "" {
			n++
		}
	}
	return n
}

// clientTimeout is the per-request client deadline; reaching it is a failure.
const clientTimeout = 30 * time.Second

// runner replays one request list against an obsd base URL. Client c owns list
// entries i = c (mod numClients) and its own keep-alive connection, and sends
// its next request only when the previous reply has been read: a closed loop,
// like obsload and like callers that wait for an answer.
type runner struct {
	base    string
	w       *world
	list    []request
	urls    []string
	bodies  [][]byte // nil where the body needs an id known only at run time
	clients [numClients]*http.Client
	// ids[i] is the id obsd returned for insert or add-obstacle entry i in the
	// current pass. Entry i and the entry that undoes it belong to the same
	// client, which runs them in order, so no lock is needed.
	ids []int64
}

func newRunner(base string, w *world, list []request) *runner {
	r := &runner{base: base, w: w, list: list, ids: make([]int64, len(list))}
	r.urls = make([]string, len(list))
	r.bodies = make([][]byte, len(list))
	for i, q := range list {
		r.urls[i], r.bodies[i] = encodeRequest(base, q)
	}
	for c := range r.clients {
		r.clients[c] = &http.Client{
			Timeout: clientTimeout,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		}
	}
	return r
}

func (r *runner) close() {
	for _, c := range r.clients {
		c.CloseIdleConnections()
	}
}

func pt(p geom.Point) server.Pt { return server.Pt{p.X, p.Y} }

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // wire types of finite floats and ints always marshal
	}
	return b
}

// encodeRequest returns the URL and, when it does not depend on run-time ids,
// the body of a request.
func encodeRequest(base string, q request) (string, []byte) {
	switch q.Verb {
	case vRange:
		return base + "/v1/datasets/P/range", mustJSON(server.RangeRequest{Q: pt(q.A), Radius: q.R})
	case vNearest:
		return base + "/v1/datasets/P/nearest", mustJSON(server.NearestRequest{Q: pt(q.A), K: q.K})
	case vDistance:
		return base + "/v1/distance", mustJSON(server.DistanceRequest{A: pt(q.A), B: pt(q.B)})
	case vPath:
		return base + "/v1/path", mustJSON(server.PathRequest{A: pt(q.A), B: pt(q.B)})
	case vJoin:
		return base + "/v1/datasets/P/join", mustJSON(server.JoinRequest{With: "Q", Dist: q.R})
	case vClosest:
		return base + "/v1/datasets/P/closest-pairs", mustJSON(server.ClosestPairsRequest{With: "Q", K: q.K})
	case vInsert:
		return base + "/v1/datasets/P/points", mustJSON(server.InsertPointsRequest{Points: []server.Pt{pt(q.A)}})
	case vDelete:
		return base + "/v1/datasets/P/points/delete", nil
	case vAddObstacle:
		return base + "/v1/obstacles", mustJSON(server.AddObstaclesRequest{
			Rects: [][4]float64{{q.A.X, q.A.Y, q.A.X + obstacleSide, q.A.Y + obstacleSide}}})
	case vRemoveObstacle:
		return base + "/v1/obstacles/remove", nil
	}
	panic(fmt.Sprintf("encodeRequest: verb %d", q.Verb))
}

// pass replays the list once.
func (r *runner) pass() passResult {
	res := passResult{Ops: make([]opResult, len(r.list))}
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < numClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(r.list); i += numClients {
				res.Ops[i] = r.do(c, i)
			}
		}()
	}
	wg.Wait()
	res.Wall = time.Since(start)
	return res
}

// do sends entry i on client c's connection, times it until the reply body has
// been read, and then (untimed) decodes and checks the reply.
func (r *runner) do(c, i int) opResult {
	q := r.list[i]
	body := r.bodies[i]
	switch q.Verb {
	case vDelete:
		body = mustJSON(server.DeletePointsRequest{IDs: []int64{r.ids[q.Ref]}})
	case vRemoveObstacle:
		body = mustJSON(server.RemoveObstaclesRequest{IDs: []int64{r.ids[q.Ref]}})
	}
	start := time.Now()
	resp, err := r.clients[c].Post(r.urls[i], "application/json", bytes.NewReader(body))
	if err != nil {
		return opResult{Err: err.Error()}
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ns := time.Since(start).Nanoseconds()
	if err != nil {
		return opResult{Err: err.Error()}
	}
	if resp.StatusCode != http.StatusOK {
		return opResult{Err: fmt.Sprintf("status %d: %s", resp.StatusCode, truncate(reply, 200))}
	}
	ans, id, err := checkReply(r.w, q, reply)
	if err != nil {
		return opResult{Err: err.Error()}
	}
	r.ids[i] = id
	return opResult{Ns: ns, Bytes: len(reply), Ans: ans}
}

func truncate(b []byte, n int) string {
	if len(b) > n {
		b = b[:n]
	}
	return string(bytes.TrimSpace(b))
}

// slack is the absolute tolerance of the "obstructed >= Euclidean" check.
const slack = 1e-9

// checkReply decodes a 200 reply, checks what can be checked without knowing
// the right answer (every obstructed distance is at least the Euclidean one, a
// path starts and ends where asked and is as long as it says, a mutation
// acknowledges exactly one object) and returns the answer digest plus, for
// insert and add-obstacle, the assigned id.
func checkReply(w *world, q request, reply []byte) (answer, int64, error) {
	lower := func(d, euclid float64, what string) error {
		if math.IsNaN(d) || math.IsInf(d, 0) {
			return fmt.Errorf("%s: distance %v is not finite", what, d)
		}
		if d < euclid-slack {
			return fmt.Errorf("%s: obstructed distance %.12g below Euclidean %.12g", what, d, euclid)
		}
		return nil
	}
	switch q.Verb {
	case vRange, vNearest:
		var r server.NeighborsResponse
		if err := json.Unmarshal(reply, &r); err != nil {
			return answer{}, 0, err
		}
		a := answer{Count: len(r.Neighbors)}
		for _, nb := range r.Neighbors {
			if err := lower(nb.Dist, q.A.Dist(nb.Point.Point()), q.Verb.String()); err != nil {
				return a, 0, err
			}
			if q.Verb == vRange && nb.Dist > q.R+slack {
				return a, 0, fmt.Errorf("range: neighbour at %.12g beyond radius %g", nb.Dist, q.R)
			}
			a.Sum += nb.Dist
		}
		if q.Verb == vNearest && len(r.Neighbors) != q.K {
			return a, 0, fmt.Errorf("nearest: %d neighbours, want %d", len(r.Neighbors), q.K)
		}
		return a, 0, nil
	case vDistance:
		var r server.DistanceResponse
		if err := json.Unmarshal(reply, &r); err != nil {
			return answer{}, 0, err
		}
		a := answer{Count: 1, Sum: float64(r.Dist)}
		return a, 0, lower(a.Sum, q.A.Dist(q.B), "distance")
	case vPath:
		var r server.PathResponse
		if err := json.Unmarshal(reply, &r); err != nil {
			return answer{}, 0, err
		}
		a := answer{Count: len(r.Path), Sum: float64(r.Dist)}
		if err := lower(a.Sum, q.A.Dist(q.B), "path"); err != nil {
			return a, 0, err
		}
		if len(r.Path) < 2 || r.Path[0].Point() != q.A || r.Path[len(r.Path)-1].Point() != q.B {
			return a, 0, fmt.Errorf("path: does not run from a to b")
		}
		legs := 0.0
		for i := 1; i < len(r.Path); i++ {
			legs += r.Path[i-1].Point().Dist(r.Path[i].Point())
		}
		if math.Abs(legs-a.Sum) > 1e-6*math.Max(1, a.Sum) {
			return a, 0, fmt.Errorf("path: legs sum to %.12g, reported %.12g", legs, a.Sum)
		}
		return a, 0, nil
	case vJoin, vClosest:
		var r server.PairsResponse
		if err := json.Unmarshal(reply, &r); err != nil {
			return answer{}, 0, err
		}
		a := answer{Count: len(r.Pairs)}
		for _, p := range r.Pairs {
			if p.ID1 < 0 || p.ID1 >= int64(len(w.P)) || p.ID2 < 0 || p.ID2 >= int64(len(w.Q)) {
				return a, 0, fmt.Errorf("%s: pair (%d, %d) out of range", q.Verb, p.ID1, p.ID2)
			}
			if err := lower(p.Dist, w.P[p.ID1].Dist(w.Q[p.ID2]), q.Verb.String()); err != nil {
				return a, 0, err
			}
			if q.Verb == vJoin && p.Dist > q.R+slack {
				return a, 0, fmt.Errorf("join: pair at %.12g beyond %g", p.Dist, q.R)
			}
			a.Sum += p.Dist
		}
		if q.Verb == vClosest && len(r.Pairs) != q.K {
			return a, 0, fmt.Errorf("closest: %d pairs, want %d", len(r.Pairs), q.K)
		}
		return a, 0, nil
	case vInsert:
		var r server.InsertPointsResponse
		if err := json.Unmarshal(reply, &r); err != nil {
			return answer{}, 0, err
		}
		if len(r.IDs) != 1 {
			return answer{}, 0, fmt.Errorf("insert: %d ids", len(r.IDs))
		}
		return answer{Count: 1}, r.IDs[0], nil
	case vAddObstacle:
		var r server.AddObstaclesResponse
		if err := json.Unmarshal(reply, &r); err != nil {
			return answer{}, 0, err
		}
		if len(r.IDs) != 1 {
			return answer{}, 0, fmt.Errorf("add_obstacle: %d ids", len(r.IDs))
		}
		return answer{Count: 1}, r.IDs[0], nil
	case vDelete:
		var r server.DeletePointsResponse
		if err := json.Unmarshal(reply, &r); err != nil {
			return answer{}, 0, err
		}
		if r.Deleted != 1 {
			return answer{}, 0, fmt.Errorf("delete: %d deleted", r.Deleted)
		}
		return answer{Count: 1}, 0, nil
	case vRemoveObstacle:
		var r server.RemoveObstaclesResponse
		if err := json.Unmarshal(reply, &r); err != nil {
			return answer{}, 0, err
		}
		if r.Removed != 1 {
			return answer{}, 0, fmt.Errorf("remove_obstacle: %d removed", r.Removed)
		}
		return answer{Count: 1}, 0, nil
	}
	return answer{}, 0, fmt.Errorf("checkReply: verb %d", q.Verb)
}
