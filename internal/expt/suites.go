package expt

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/geom"
)

// Paper parameter grids (Section 7).
var (
	// RatioGrid is |P|/|O| for the OR/ONN experiments (Figs 13, 15a, 16, 18a).
	RatioGrid = []float64{0.1, 0.5, 1, 2, 10}
	// ORRangeGrid is e as %% of the universe side (Figs 14, 15b).
	ORRangeGrid = []float64{0.01, 0.05, 0.1, 0.5, 1}
	// KGrid is k for ONN and OCP (Figs 17, 18b, 22).
	KGrid = []int{1, 4, 16, 64, 256}
	// JoinRatioGrid is |S|/|O| for ODJ/OCP (Figs 19, 21).
	JoinRatioGrid = []float64{0.01, 0.05, 0.1, 0.5, 1}
	// JoinRangeGrid is e as %% of the universe side for ODJ (Fig 20).
	JoinRangeGrid = []float64{0.001, 0.005, 0.01, 0.05, 0.1}
)

// Fixed parameters from the paper.
const (
	ORFixedE   = 0.1  // %% of universe side (Figs 13, 15a)
	ONNFixedK  = 16   // Figs 16, 18a
	ODJFixedE  = 0.01 // %% (Fig 19)
	OCPFixedK  = 16   // Fig 21
	JoinTFrac  = 0.1  // |T| = 0.1|O| (Figs 19-22)
	JoinSTFrac = 0.1  // |S| = |T| = 0.1|O| (Figs 20, 22)
)

// Suite memoizes the underlying parameter sweeps so figures sharing data
// (e.g. Figs 13 and 15a) run their workloads once. The grid fields default
// to the paper's parameter grids and may be shrunk for quick runs before
// the first RunFig call.
type Suite struct {
	Lab  *Lab
	memo map[string][]Row

	Ratios     []float64 // |P|/|O| grid (Figs 13, 15a, 16, 18a)
	ORRanges   []float64 // e grid in %% (Figs 14, 15b)
	Ks         []int     // k grid (Figs 17, 18b, 22)
	JoinRatios []float64 // |S|/|O| grid (Figs 19, 21)
	JoinRanges []float64 // e grid in %% (Fig 20)
}

// NewSuite builds the lab for cfg.
func NewSuite(cfg Config) (*Suite, error) {
	lab, err := NewLab(cfg)
	if err != nil {
		return nil, err
	}
	return &Suite{
		Lab:        lab,
		memo:       make(map[string][]Row),
		Ratios:     RatioGrid,
		ORRanges:   ORRangeGrid,
		Ks:         KGrid,
		JoinRatios: JoinRatioGrid,
		JoinRanges: JoinRangeGrid,
	}, nil
}

// distinctCard nudges a requested cardinality so the S dataset never
// aliases the cached T dataset of the same size (the lab caches entity sets
// by cardinality; an aliased set would degenerate the join into a
// self-join of coincident points).
func distinctCard(card, taken int) int {
	if card == taken {
		return card + 1
	}
	return card
}

func (s *Suite) memoized(key string, run func() ([]Row, error)) ([]Row, error) {
	if rows, ok := s.memo[key]; ok {
		return rows, nil
	}
	rows, err := run()
	if err != nil {
		return nil, err
	}
	s.memo[key] = rows
	return rows, nil
}

// orByRatio sweeps |P|/|O| for the OR workload at e = 0.1%.
func (s *Suite) orByRatio() ([]Row, error) {
	return s.memoized("or-ratio", func() ([]Row, error) {
		radius := s.Lab.ERadius(ORFixedE)
		var rows []Row
		for _, ratio := range s.Ratios {
			P, err := s.Lab.EntitySet(int(ratio * float64(s.Lab.cfg.ObstacleCount)))
			if err != nil {
				return nil, err
			}
			row, err := s.Lab.measureWorkload([]*core.PointSet{P}, func(sess *core.Session, q geom.Point) (core.Stats, error) {
				_, st, err := sess.Range(P, q, radius)
				return st, err
			})
			if err != nil {
				return nil, err
			}
			row.X = fmt.Sprintf("%g", ratio)
			rows = append(rows, row)
		}
		return rows, nil
	})
}

// orByRange sweeps e for the OR workload at |P| = |O|.
func (s *Suite) orByRange() ([]Row, error) {
	return s.memoized("or-range", func() ([]Row, error) {
		P, err := s.Lab.EntitySet(s.Lab.cfg.ObstacleCount)
		if err != nil {
			return nil, err
		}
		var rows []Row
		for _, pct := range s.ORRanges {
			radius := s.Lab.ERadius(pct)
			row, err := s.Lab.measureWorkload([]*core.PointSet{P}, func(sess *core.Session, q geom.Point) (core.Stats, error) {
				_, st, err := sess.Range(P, q, radius)
				return st, err
			})
			if err != nil {
				return nil, err
			}
			row.X = fmt.Sprintf("%g%%", pct)
			rows = append(rows, row)
		}
		return rows, nil
	})
}

// onnByRatio sweeps |P|/|O| for the ONN workload at k = 16.
func (s *Suite) onnByRatio() ([]Row, error) {
	return s.memoized("onn-ratio", func() ([]Row, error) {
		var rows []Row
		for _, ratio := range s.Ratios {
			P, err := s.Lab.EntitySet(int(ratio * float64(s.Lab.cfg.ObstacleCount)))
			if err != nil {
				return nil, err
			}
			row, err := s.Lab.measureWorkload([]*core.PointSet{P}, func(sess *core.Session, q geom.Point) (core.Stats, error) {
				_, st, err := sess.NearestNeighbors(P, q, ONNFixedK)
				return st, err
			})
			if err != nil {
				return nil, err
			}
			row.X = fmt.Sprintf("%g", ratio)
			rows = append(rows, row)
		}
		return rows, nil
	})
}

// onnByK sweeps k for the ONN workload at |P| = |O|.
func (s *Suite) onnByK() ([]Row, error) {
	return s.memoized("onn-k", func() ([]Row, error) {
		P, err := s.Lab.EntitySet(s.Lab.cfg.ObstacleCount)
		if err != nil {
			return nil, err
		}
		var rows []Row
		for _, k := range s.Ks {
			k := k
			row, err := s.Lab.measureWorkload([]*core.PointSet{P}, func(sess *core.Session, q geom.Point) (core.Stats, error) {
				_, st, err := sess.NearestNeighbors(P, q, k)
				return st, err
			})
			if err != nil {
				return nil, err
			}
			row.X = fmt.Sprintf("%d", k)
			rows = append(rows, row)
		}
		return rows, nil
	})
}

// odjByRatio sweeps |S|/|O| for ODJ at e = 0.01%, |T| = 0.1|O|.
func (s *Suite) odjByRatio() ([]Row, error) {
	return s.memoized("odj-ratio", func() ([]Row, error) {
		dist := s.Lab.ERadius(ODJFixedE)
		tCard := int(JoinTFrac * float64(s.Lab.cfg.ObstacleCount))
		T, err := s.Lab.EntitySet(tCard)
		if err != nil {
			return nil, err
		}
		var rows []Row
		for _, ratio := range s.JoinRatios {
			S, err := s.Lab.EntitySet(distinctCard(int(ratio*float64(s.Lab.cfg.ObstacleCount)), tCard))
			if err != nil {
				return nil, err
			}
			row, err := s.Lab.measureOnce([]*core.PointSet{S, T}, func(sess *core.Session) (core.Stats, error) {
				_, st, err := sess.DistanceJoin(S, T, dist)
				return st, err
			})
			if err != nil {
				return nil, err
			}
			row.X = fmt.Sprintf("%g", ratio)
			rows = append(rows, row)
		}
		return rows, nil
	})
}

// odjByRange sweeps e for ODJ at |S| = |T| = 0.1|O|.
func (s *Suite) odjByRange() ([]Row, error) {
	return s.memoized("odj-range", func() ([]Row, error) {
		card := int(JoinSTFrac * float64(s.Lab.cfg.ObstacleCount))
		S, err := s.Lab.EntitySet(card)
		if err != nil {
			return nil, err
		}
		T, err := s.Lab.EntitySet(card + 1) // distinct cardinality => distinct dataset
		if err != nil {
			return nil, err
		}
		var rows []Row
		for _, pct := range s.JoinRanges {
			dist := s.Lab.ERadius(pct)
			row, err := s.Lab.measureOnce([]*core.PointSet{S, T}, func(sess *core.Session) (core.Stats, error) {
				_, st, err := sess.DistanceJoin(S, T, dist)
				return st, err
			})
			if err != nil {
				return nil, err
			}
			row.X = fmt.Sprintf("%g%%", pct)
			rows = append(rows, row)
		}
		return rows, nil
	})
}

// ocpByRatio sweeps |S|/|O| for OCP at k = 16, |T| = 0.1|O|.
func (s *Suite) ocpByRatio() ([]Row, error) {
	return s.memoized("ocp-ratio", func() ([]Row, error) {
		tCard := int(JoinTFrac * float64(s.Lab.cfg.ObstacleCount))
		T, err := s.Lab.EntitySet(tCard)
		if err != nil {
			return nil, err
		}
		var rows []Row
		for _, ratio := range s.JoinRatios {
			S, err := s.Lab.EntitySet(distinctCard(int(ratio*float64(s.Lab.cfg.ObstacleCount)), tCard))
			if err != nil {
				return nil, err
			}
			row, err := s.Lab.measureOnce([]*core.PointSet{S, T}, func(sess *core.Session) (core.Stats, error) {
				_, st, err := sess.ClosestPairs(S, T, OCPFixedK)
				return st, err
			})
			if err != nil {
				return nil, err
			}
			row.X = fmt.Sprintf("%g", ratio)
			rows = append(rows, row)
		}
		return rows, nil
	})
}

// ocpByK sweeps k for OCP at |S| = |T| = 0.1|O|.
func (s *Suite) ocpByK() ([]Row, error) {
	return s.memoized("ocp-k", func() ([]Row, error) {
		card := int(JoinSTFrac * float64(s.Lab.cfg.ObstacleCount))
		S, err := s.Lab.EntitySet(card)
		if err != nil {
			return nil, err
		}
		T, err := s.Lab.EntitySet(card + 1)
		if err != nil {
			return nil, err
		}
		var rows []Row
		for _, k := range s.Ks {
			k := k
			row, err := s.Lab.measureOnce([]*core.PointSet{S, T}, func(sess *core.Session) (core.Stats, error) {
				_, st, err := sess.ClosestPairs(S, T, k)
				return st, err
			})
			if err != nil {
				return nil, err
			}
			row.X = fmt.Sprintf("%d", k)
			rows = append(rows, row)
		}
		return rows, nil
	})
}

// RunFig13 reproduces Fig 13: OR cost vs |P|/|O| at e = 0.1%.
func (s *Suite) RunFig13() (Table, error) {
	rows, err := s.orByRatio()
	if err != nil {
		return Table{}, err
	}
	return Table{
		ID: "Fig 13", Title: "OR cost vs |P|/|O| (e=0.1%)", XLabel: "|P|/|O|", Rows: rows,
		PaperShape: "data R-tree I/O grows with |P|/|O|; obstacle R-tree I/O stays flat; CPU grows rapidly (O(n^2 log n) graph construction)",
	}, nil
}

// RunFig14 reproduces Fig 14: OR cost vs e at |P| = |O|.
func (s *Suite) RunFig14() (Table, error) {
	rows, err := s.orByRange()
	if err != nil {
		return Table{}, err
	}
	return Table{
		ID: "Fig 14", Title: "OR cost vs e (|P|=|O|)", XLabel: "e", Rows: rows,
		PaperShape: "I/O grows quadratically with e (area of the range); CPU grows even faster",
	}, nil
}

// RunFig15 reproduces Fig 15: OR false-hit ratio vs |P|/|O| and vs e.
func (s *Suite) RunFig15() (Table, Table, error) {
	a, err := s.orByRatio()
	if err != nil {
		return Table{}, Table{}, err
	}
	b, err := s.orByRange()
	if err != nil {
		return Table{}, Table{}, err
	}
	ta := Table{
		ID: "Fig 15a", Title: "OR false-hit ratio vs |P|/|O| (e=0.1%)", XLabel: "|P|/|O|", Rows: a,
		PaperShape: "false-hit ratio roughly constant in |P|/|O| (absolute false hits grow linearly)",
	}
	tb := Table{
		ID: "Fig 15b", Title: "OR false-hit ratio vs e (|P|=|O|)", XLabel: "e", Rows: b,
		PaperShape: "false-hit ratio grows with e (more obstacles deflect more paths)",
	}
	return ta, tb, nil
}

// RunFig16 reproduces Fig 16: ONN cost vs |P|/|O| at k = 16.
func (s *Suite) RunFig16() (Table, error) {
	rows, err := s.onnByRatio()
	if err != nil {
		return Table{}, err
	}
	return Table{
		ID: "Fig 16", Title: "ONN cost vs |P|/|O| (k=16)", XLabel: "|P|/|O|", Rows: rows,
		PaperShape: "entity R-tree I/O grows slowly; CPU drops significantly with density (shrinking search radius)",
	}, nil
}

// RunFig17 reproduces Fig 17: ONN cost vs k at |P| = |O|.
func (s *Suite) RunFig17() (Table, error) {
	rows, err := s.onnByK()
	if err != nil {
		return Table{}, err
	}
	return Table{
		ID: "Fig 17", Title: "ONN cost vs k (|P|=|O|)", XLabel: "k", Rows: rows,
		PaperShape: "both I/O and CPU grow with k (larger search range, more distance computations)",
	}, nil
}

// RunFig18 reproduces Fig 18: ONN false-hit ratio vs |P|/|O| and vs k.
func (s *Suite) RunFig18() (Table, Table, error) {
	a, err := s.onnByRatio()
	if err != nil {
		return Table{}, Table{}, err
	}
	b, err := s.onnByK()
	if err != nil {
		return Table{}, Table{}, err
	}
	ta := Table{
		ID: "Fig 18a", Title: "ONN false-hit ratio vs |P|/|O| (k=16)", XLabel: "|P|/|O|", Rows: a,
		PaperShape: "high at low density (large Euclidean/obstructed deviation), alleviated as |P| grows",
	}
	tb := Table{
		ID: "Fig 18b", Title: "ONN false-hit ratio vs k (|P|=|O|)", XLabel: "k", Rows: b,
		PaperShape: "peaks near k=4 and decreases for larger k (Euclidean and obstructed kNN sets overlap more)",
	}
	return ta, tb, nil
}

// RunFig19 reproduces Fig 19: ODJ cost vs |S|/|O| at e = 0.01%, |T| = 0.1|O|.
func (s *Suite) RunFig19() (Table, error) {
	rows, err := s.odjByRatio()
	if err != nil {
		return Table{}, err
	}
	return Table{
		ID: "Fig 19", Title: "ODJ cost vs |S|/|O| (e=0.01%, |T|=0.1|O|)", XLabel: "|S|/|O|", Rows: rows,
		PaperShape: "entity R-tree I/O grows slowly; obstacle R-tree I/O and CPU grow fast with density (more Euclidean pairs, more obstructed evaluations)",
	}, nil
}

// RunFig20 reproduces Fig 20: ODJ cost vs e at |S| = |T| = 0.1|O|.
func (s *Suite) RunFig20() (Table, error) {
	rows, err := s.odjByRange()
	if err != nil {
		return Table{}, err
	}
	return Table{
		ID: "Fig 20", Title: "ODJ cost vs e (|S|=|T|=0.1|O|)", XLabel: "e", Rows: rows,
		PaperShape: "entity R-tree I/O nearly flat; obstacle R-tree I/O and CPU grow fast with e (Euclidean join output grows)",
	}, nil
}

// RunFig21 reproduces Fig 21: OCP cost vs |S|/|O| at k = 16, |T| = 0.1|O|.
func (s *Suite) RunFig21() (Table, error) {
	rows, err := s.ocpByRatio()
	if err != nil {
		return Table{}, err
	}
	return Table{
		ID: "Fig 21", Title: "OCP cost vs |S|/|O| (k=16, |T|=0.1|O|)", XLabel: "|S|/|O|", Rows: rows,
		PaperShape: "entity R-tree I/O grows with density (Euclidean CP cost); obstacle I/O mildly affected (closer pairs); CPU grows fast",
	}, nil
}

// RunFig22 reproduces Fig 22: OCP cost vs k at |S| = |T| = 0.1|O|.
func (s *Suite) RunFig22() (Table, error) {
	rows, err := s.ocpByK()
	if err != nil {
		return Table{}, err
	}
	return Table{
		ID: "Fig 22", Title: "OCP cost vs k (|S|=|T|=0.1|O|)", XLabel: "k", Rows: rows,
		PaperShape: "entity R-tree I/O nearly constant in k; obstacle R-tree I/O and CPU increase with k",
	}, nil
}

// RunAll executes every figure, in paper order.
func (s *Suite) RunAll() ([]Table, error) {
	var out []Table
	t13, err := s.RunFig13()
	if err != nil {
		return nil, err
	}
	t14, err := s.RunFig14()
	if err != nil {
		return nil, err
	}
	t15a, t15b, err := s.RunFig15()
	if err != nil {
		return nil, err
	}
	t16, err := s.RunFig16()
	if err != nil {
		return nil, err
	}
	t17, err := s.RunFig17()
	if err != nil {
		return nil, err
	}
	t18a, t18b, err := s.RunFig18()
	if err != nil {
		return nil, err
	}
	t19, err := s.RunFig19()
	if err != nil {
		return nil, err
	}
	t20, err := s.RunFig20()
	if err != nil {
		return nil, err
	}
	t21, err := s.RunFig21()
	if err != nil {
		return nil, err
	}
	t22, err := s.RunFig22()
	if err != nil {
		return nil, err
	}
	out = append(out, t13, t14, t15a, t15b, t16, t17, t18a, t18b, t19, t20, t21, t22)
	return out, nil
}
