package core

import (
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// sealedTable is what a seal answers, for either dataset kind.
type sealedTable interface {
	Len() int
	IDBound() int64
	Alive(id int64) bool
	Live(dst []int64) []int64
	Tree() *rtree.Tree
	Check() error
}

// tableKind drives one dataset kind through its exported mutators. Items
// travel as any so one model serves points and polygons.
type tableKind struct {
	name string
	// open builds a COW set of the given items.
	open func(items []any) error
	// newItem draws a random item.
	newItem func(rng *rand.Rand) any
	add     func(items []any) ([]int64, error)
	remove  func(id int64) error
	begin   func()
	seal    func() sealedTable
	// item reads one item back from a seal; box is an item's tree key.
	item func(s sealedTable, id int64) any
	box  func(item any) geom.Rect
}

func pointKind() *tableKind {
	var ps *PointSet
	pts := func(items []any) []geom.Point {
		out := make([]geom.Point, len(items))
		for i, it := range items {
			out[i] = it.(geom.Point)
		}
		return out
	}
	return &tableKind{
		name: "points",
		open: func(items []any) (err error) {
			if ps, err = NewPointSet(testTreeOpts(), pts(items), true); err == nil {
				ps.EnableCOW()
			}
			return err
		},
		newItem: func(rng *rand.Rand) any { return geom.Pt(rng.Float64()*1000, rng.Float64()*1000) },
		add:     func(items []any) ([]int64, error) { return ps.Insert(pts(items)) },
		remove:  func(id int64) error { return ps.Delete(id) },
		begin:   func() { ps.BeginEpoch() },
		seal:    func() sealedTable { return ps.Seal() },
		item:    func(s sealedTable, id int64) any { return s.(*PointSet).Point(id) },
		box:     func(item any) geom.Rect { return geom.PointRect(item.(geom.Point)) },
	}
}

func obstacleKind() *tableKind {
	var o *ObstacleSet
	polys := func(items []any) []geom.Polygon {
		out := make([]geom.Polygon, len(items))
		for i, it := range items {
			out[i] = it.(geom.Polygon)
		}
		return out
	}
	return &tableKind{
		name: "obstacles",
		open: func(items []any) (err error) {
			if o, err = NewObstacleSet(testTreeOpts(), polys(items), true); err == nil {
				o.EnableCOW()
			}
			return err
		},
		newItem: func(rng *rand.Rand) any {
			x, y := rng.Float64()*1000, rng.Float64()*1000
			w, h := 1+rng.Float64()*20, 1+rng.Float64()*20
			if rng.Intn(3) == 0 { // a triangle, stored by its vertices
				return geom.MustPolygon([]geom.Point{geom.Pt(x, y), geom.Pt(x+w, y), geom.Pt(x, y+h)})
			}
			return geom.RectPolygon(geom.R(x, y, x+w, y+h))
		},
		add: func(items []any) ([]int64, error) { return o.Add(polys(items)) },
		remove: func(id int64) error {
			_, err := o.Remove(id)
			return err
		},
		begin: func() { o.BeginEpoch() },
		seal:  func() sealedTable { return o.Seal() },
		item:  func(s sealedTable, id int64) any { return s.(*ObstacleSet).Polygon(id) },
		box:   func(item any) geom.Rect { return item.(geom.Polygon).Bounds() },
	}
}

// tableModel is what a seal must answer: the live items by id, the id
// bound, and how many mutator calls preceded it.
type tableModel struct {
	items map[int64]any
	bound int64
	calls uint64
}

// TestTableSealsSurviveEpochs drives both dataset kinds through epochs of
// random mutations under copy-on-write, sealing after each epoch, and then
// checks that every seal still answers exactly as the model did when it was
// taken. Deletes are frequent enough that inserts keep popping the free
// list, the path that rewrites published slots in place.
func TestTableSealsSurviveEpochs(t *testing.T) {
	const initial, epochs, opsPerEpoch = 40, 30, 6
	for _, k := range []*tableKind{pointKind(), obstacleKind()} {
		t.Run(k.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(36))
			m := tableModel{items: make(map[int64]any)}
			first := make([]any, initial)
			for i := range first {
				first[i] = k.newItem(rng)
				m.items[int64(i)] = first[i]
			}
			m.bound = initial
			if err := k.open(first); err != nil {
				t.Fatal(err)
			}
			seals := []sealedTable{k.seal()}
			models := []tableModel{{maps.Clone(m.items), m.bound, m.calls}}
			for e := 0; e < epochs; e++ {
				k.begin()
				for op := 0; op < opsPerEpoch; op++ {
					m.calls++
					if live := slices.Sorted(maps.Keys(m.items)); len(live) > 0 && rng.Intn(2) == 0 {
						id := live[rng.Intn(len(live))]
						if err := k.remove(id); err != nil {
							t.Fatalf("epoch %d: remove %d: %v", e, id, err)
						}
						delete(m.items, id)
						continue
					}
					batch := make([]any, 1+rng.Intn(3))
					for i := range batch {
						batch[i] = k.newItem(rng)
					}
					ids, err := k.add(batch)
					if err != nil || len(ids) != len(batch) {
						t.Fatalf("epoch %d: add returned %v, %v", e, ids, err)
					}
					for i, id := range ids {
						if _, taken := m.items[id]; taken {
							t.Fatalf("epoch %d: add reused live id %d", e, id)
						}
						m.items[id] = batch[i]
						m.bound = max(m.bound, id+1)
					}
				}
				seals = append(seals, k.seal())
				models = append(models, tableModel{maps.Clone(m.items), m.bound, m.calls})
			}
			for i, s := range seals {
				checkSeal(t, k, i, s, models[i])
			}
		})
	}
}

// checkSeal compares one seal's every answer with the model taken with it.
func checkSeal(t *testing.T, k *tableKind, i int, s sealedTable, m tableModel) {
	t.Helper()
	if s.Len() != len(m.items) || s.IDBound() != m.bound {
		t.Fatalf("seal %d: Len %d IDBound %d, model %d, %d", i, s.Len(), s.IDBound(), len(m.items), m.bound)
	}
	var live []int64
	for id := int64(0); id < s.IDBound(); id++ {
		_, want := m.items[id]
		if s.Alive(id) != want {
			t.Fatalf("seal %d: Alive(%d) = %v, model %v", i, id, !want, want)
		}
		if want {
			live = append(live, id)
			if got := k.item(s, id); !reflect.DeepEqual(got, m.items[id]) {
				t.Fatalf("seal %d: item %d = %v, model %v", i, id, got, m.items[id])
			}
		}
	}
	if got := s.Live(nil); !slices.Equal(got, live) {
		t.Fatalf("seal %d: Live = %v, model %v", i, got, live)
	}
	found := make(map[int64]geom.Rect)
	if err := s.Tree().SearchRect(geom.R(-1e9, -1e9, 1e9, 1e9), func(it rtree.Item) bool {
		found[it.Data] = it.Rect
		return true
	}); err != nil {
		t.Fatalf("seal %d: tree search: %v", i, err)
	}
	if len(found) != len(m.items) {
		t.Fatalf("seal %d: tree holds %d items, model %d", i, len(found), len(m.items))
	}
	for id, it := range m.items {
		if r, ok := found[id]; !ok || r != k.box(it) {
			t.Fatalf("seal %d: tree has %v for id %d, model %v", i, r, id, k.box(it))
		}
	}
	if err := s.Check(); err != nil {
		t.Fatalf("seal %d: %v", i, err)
	}
	if o, ok := s.(*ObstacleSet); ok && o.Generation() != m.calls {
		t.Fatalf("seal %d: Generation %d, want %d Add/Remove calls", i, o.Generation(), m.calls)
	}
}
