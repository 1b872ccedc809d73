package core

import (
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/pagefile"
	"repro/internal/rtree"
)

// storedOpts is a tree configuration over explicit storage, which Attach
// needs; tiny pages make multi-level trees.
func storedOpts() rtree.Options {
	return rtree.Options{PageSize: 244, BufferPages: 8, Storage: pagefile.NewMemStorage(244)}
}

// mixedPolygons is a set with every stored form: rectangles (their own leaf
// entry), a rectangle listed from another corner, triangles and an
// L-shape (stored by their vertices).
func mixedPolygons() []geom.Polygon {
	var polys []geom.Polygon
	for i := 0; i < 40; i++ {
		x, y := float64(i%8)*30, float64(i/8)*30
		switch i % 4 {
		case 0:
			polys = append(polys, geom.RectPolygon(geom.R(x, y, x+20, y+10)))
		case 1:
			polys = append(polys, geom.MustPolygon([]geom.Point{geom.Pt(x+20, y+10), geom.Pt(x+20, y), geom.Pt(x, y), geom.Pt(x, y+10)}))
		case 2:
			polys = append(polys, geom.MustPolygon([]geom.Point{geom.Pt(x, y), geom.Pt(x+20, y+1.5), geom.Pt(x+7.25, y+10)}))
		default:
			polys = append(polys, geom.MustPolygon([]geom.Point{
				geom.Pt(x, y), geom.Pt(x+20, y), geom.Pt(x+20, y+5), geom.Pt(x+5, y+5), geom.Pt(x+5, y+20), geom.Pt(x, y+20)}))
		}
	}
	return polys
}

// reattach re-opens o's two trees from their storage and rebuilds the set
// by scanning them.
func reattach(t *testing.T, opts rtree.Options, o *ObstacleSet) (*ObstacleSet, error) {
	t.Helper()
	var trees []*rtree.Tree
	for _, tr := range o.Trees() {
		if err := tr.PageFile().Flush(); err != nil {
			t.Fatal(err)
		}
		back, err := rtree.Attach(opts, tr.Root(), tr.Height(), tr.Len())
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, back)
	}
	return AttachObstacleSet(trees[0], trees[1], o.IDBound(), o.Generation())
}

// TestAttachObstacleSetRebuildsPolygons: a set rebuilt from its trees alone
// holds the same polygons, bit for bit, under the same ids, with the same
// free ids — built by bulk load and by insertion, and after removals that
// leave holes in the id space.
func TestAttachObstacleSetRebuildsPolygons(t *testing.T) {
	for _, bulk := range []bool{true, false} {
		opts := storedOpts()
		polys := mixedPolygons()
		o, err := NewObstacleSet(opts, polys, bulk)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []int64{1, 2, 8, 13, 39} {
			if _, err := o.Remove(id); err != nil {
				t.Fatal(err)
			}
		}
		if err := o.Check(); err != nil {
			t.Fatalf("bulk=%v: %v", bulk, err)
		}
		back, err := reattach(t, opts, o)
		if err != nil {
			t.Fatalf("bulk=%v: %v", bulk, err)
		}
		if back.IDBound() != o.IDBound() || back.Len() != o.Len() || back.Generation() != o.Generation() {
			t.Fatalf("bulk=%v: attached IDBound %d Len %d Generation %d, want %d %d %d", bulk,
				back.IDBound(), back.Len(), back.Generation(), o.IDBound(), o.Len(), o.Generation())
		}
		for id := int64(0); id < o.IDBound(); id++ {
			if back.Alive(id) != o.Alive(id) {
				t.Fatalf("bulk=%v: Alive(%d) = %v, want %v", bulk, id, back.Alive(id), o.Alive(id))
			}
			if o.Alive(id) && !sameVertices(back.Polygon(id).Vertices(), polys[id].Vertices()) {
				t.Fatalf("bulk=%v: obstacle %d = %v, want %v", bulk, id, back.Polygon(id).Vertices(), polys[id].Vertices())
			}
		}
		// A rebuilt set keeps working: freed ids are reused first.
		ids, err := back.Add([]geom.Polygon{polys[2]})
		if err != nil || len(ids) != 1 || o.Alive(ids[0]) {
			t.Fatalf("bulk=%v: add after attach = %v, %v", bulk, ids, err)
		}
		if err := back.Check(); err != nil {
			t.Fatalf("bulk=%v: after add: %v", bulk, err)
		}
	}
}

// TestAttachRejectsCorruption: a leaf scan that does not describe a
// consistent set is an error, never a set with holes or doubles.
func TestAttachRejectsCorruption(t *testing.T) {
	square := geom.R(0, 0, 10, 10)
	tri := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(0, 10)}
	cases := []struct {
		name, want string
		// build fills the two trees and returns the id bound and the size
		// the catalog claims for the obstacle tree (-1: its real size).
		build func(t, verts *rtree.Tree) (idBound int64, size int)
	}{
		{"duplicate id", "duplicate id 1", func(t, _ *rtree.Tree) (int64, int) {
			_ = t.Insert(square, 1)
			_ = t.Insert(geom.R(20, 20, 30, 30), 1)
			return 2, -1
		}},
		{"id out of range", "outside [0, 2)", func(t, _ *rtree.Tree) (int64, int) {
			_ = t.Insert(square, 0)
			_ = t.Insert(geom.R(20, 20, 30, 30), 7)
			return 2, -1
		}},
		{"count mismatch", "scan found 2 items, tree says 3", func(t, _ *rtree.Tree) (int64, int) {
			_ = t.Insert(square, 0)
			_ = t.Insert(geom.R(20, 20, 30, 30), 1)
			return 3, 3
		}},
		{"vertex of a dead obstacle", "which has no leaf", func(t, verts *rtree.Tree) (int64, int) {
			_ = t.Insert(square, 0)
			for i, v := range tri {
				_ = verts.InsertPoint(v, vertexKey(1, i))
			}
			return 2, -1
		}},
		{"vertex missing", "vertex 1 belongs", func(t, verts *rtree.Tree) (int64, int) {
			_ = t.Insert(square, 0)
			_ = verts.InsertPoint(tri[0], vertexKey(0, 0))
			_ = verts.InsertPoint(tri[2], vertexKey(0, 2))
			return 1, -1
		}},
		{"vertices off the leaf", "its vertices span", func(t, verts *rtree.Tree) (int64, int) {
			_ = t.Insert(geom.R(0, 0, 10, 20), 0)
			for i, v := range tri {
				_ = verts.InsertPoint(v, vertexKey(0, i))
			}
			return 1, -1
		}},
		{"rectangle stored by its vertices", "rectangle obstacle 0", func(t, verts *rtree.Tree) (int64, int) {
			_ = t.Insert(square, 0)
			for i, v := range square.Vertices() {
				_ = verts.InsertPoint(v, vertexKey(0, i))
			}
			return 1, -1
		}},
	}
	for _, c := range cases {
		opts := storedOpts()
		tr, err := rtree.New(opts)
		if err != nil {
			t.Fatal(err)
		}
		verts, err := rtree.New(opts)
		if err != nil {
			t.Fatal(err)
		}
		idBound, size := c.build(tr, verts)
		if size < 0 {
			size = tr.Len()
		}
		for _, x := range []*rtree.Tree{tr, verts} {
			if err := x.PageFile().Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if tr, err = rtree.Attach(opts, tr.Root(), tr.Height(), size); err != nil {
			t.Fatal(err)
		}
		_, err = AttachObstacleSet(tr, verts, idBound, 0)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: attach = %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

// TestCheckFindsDamage: Check passes on a consistent set and names each kind
// of damage a bug could leave in the trees.
func TestCheckFindsDamage(t *testing.T) {
	polys := mixedPolygons()
	cases := []struct {
		name, want string
		damage     func(o *ObstacleSet) error
	}{
		{"dropped leaf", "live in the table: true, in the tree: false", func(o *ObstacleSet) error {
			_, err := o.Tree().Delete(polys[4].Bounds(), 4)
			return err
		}},
		{"extra leaf", "id bound 40 does not fit the tree's 41 items", func(o *ObstacleSet) error {
			return o.Tree().Insert(polys[4].Bounds(), 4)
		}},
		{"leaf under other bounds", "is indexed under", func(o *ObstacleSet) error {
			if _, err := o.Tree().Delete(polys[4].Bounds(), 4); err != nil {
				return err
			}
			return o.Tree().Insert(polys[5].Bounds(), 4)
		}},
		{"dropped vertex", "vertex 1 belongs", func(o *ObstacleSet) error {
			_, err := o.verts.Delete(geom.PointRect(polys[2].Vertex(1)), vertexKey(2, 1))
			return err
		}},
		{"moved vertex", "the trees give obstacle 2", func(o *ObstacleSet) error {
			v := polys[2].Vertex(1)
			if _, err := o.verts.Delete(geom.PointRect(v), vertexKey(2, 1)); err != nil {
				return err
			}
			return o.verts.InsertPoint(geom.Pt(v.X, v.Y-0.5), vertexKey(2, 1))
		}},
		{"vertex of no obstacle", "which has no leaf", func(o *ObstacleSet) error {
			return o.verts.InsertPoint(polys[0].Vertex(0), vertexKey(41, 0))
		}},
		{"vertex of a rectangle", "obstacle 0:", func(o *ObstacleSet) error {
			return o.verts.InsertPoint(polys[0].Vertex(0), vertexKey(0, 0))
		}},
	}
	for _, c := range cases {
		o, err := NewObstacleSet(testTreeOpts(), polys, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := o.Check(); err != nil {
			t.Fatalf("%s: before damage: %v", c.name, err)
		}
		if err := c.damage(o); err != nil {
			t.Fatal(err)
		}
		if err := o.Check(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Check = %v, want an error containing %q", c.name, err, c.want)
		}
	}
}
