package catalog

import (
	"errors"
	"reflect"
	"sort"
	"testing"

	"repro/internal/pagefile"
)

func TestDeltaRoundTrip(t *testing.T) {
	d := &Delta{
		Generation: 41,
		Next:       907,
		FreeOps: []pagefile.AllocOp{
			{ID: 12},             // free
			{Take: true, ID: 12}, // immediately reused
			{Take: true, ID: 4},
			{ID: 88},
		},
		Datasets: []DatasetMeta{
			{Name: "P", Tree: TreeMeta{Root: 7, Height: 2, Size: 120}, IDBound: 130},
		},
		Obst: &ObstacleMeta{
			Tree:       TreeMeta{Root: 3, Height: 1, Size: 9},
			Verts:      TreeMeta{Root: 6, Height: 1, Size: 3},
			IDBound:    10,
			Generation: 6,
		},
	}
	back, err := DecodeDelta(EncodeDelta(d))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d, back) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", d, back)
	}

	// A pure point-commit delta (no obstacle part) round-trips too.
	small := &Delta{Generation: 1, Next: 5, Datasets: d.Datasets}
	back, err = DecodeDelta(EncodeDelta(small))
	if err != nil {
		t.Fatal(err)
	}
	if back.Obst != nil || !reflect.DeepEqual(small, back) {
		t.Fatalf("small delta mismatch: %+v", back)
	}
}

func TestDeltaApply(t *testing.T) {
	st := &State{
		Generation: 10,
		PageFree:   []pagefile.PageID{4, 9},
		Datasets: []DatasetMeta{
			{Name: "P", Tree: TreeMeta{Root: 7, Height: 2, Size: 100}, IDBound: 100},
		},
	}
	d := &Delta{
		Generation: 11,
		Next:       50,
		FreeOps: []pagefile.AllocOp{
			{Take: true, ID: 4},
			{ID: 20},
			{Take: true, ID: 20}, // freed then reused within the commit
		},
		Datasets: []DatasetMeta{
			{Name: "P", Tree: TreeMeta{Root: 8, Height: 2, Size: 101}, IDBound: 101},
			{Name: "Q", Tree: TreeMeta{Root: 30, Height: 1, Size: 5}, IDBound: 5},
		},
		Obst: &ObstacleMeta{
			Tree:       TreeMeta{Root: 3, Height: 1, Size: 2},
			Verts:      TreeMeta{Root: 5, Height: 1, Size: 0},
			IDBound:    3,
			Generation: 3,
		},
	}
	if err := d.Apply(st); err != nil {
		t.Fatal(err)
	}
	if st.Generation != 11 {
		t.Fatalf("generation = %d", st.Generation)
	}
	gotFree := append([]pagefile.PageID(nil), st.PageFree...)
	sort.Slice(gotFree, func(i, j int) bool { return gotFree[i] < gotFree[j] })
	if !reflect.DeepEqual(gotFree, []pagefile.PageID{9}) {
		t.Fatalf("free list = %v, want [9]", gotFree)
	}
	if len(st.Datasets) != 2 || st.Datasets[0].Tree.Root != 8 || st.Datasets[1].Name != "Q" {
		t.Fatalf("datasets = %+v", st.Datasets)
	}
	if st.Obstacles != d.Obst {
		t.Fatalf("obstacle record = %+v, want the delta's", st.Obstacles)
	}
	// A delta that changed no obstacles keeps the record.
	if err := (&Delta{Generation: 12}).Apply(st); err != nil || st.Obstacles != d.Obst {
		t.Fatalf("obstacle-free delta: err %v, record %+v", err, st.Obstacles)
	}

	// A delta against a state it does not match is corrupt, not absorbed.
	bad := &Delta{FreeOps: []pagefile.AllocOp{{Take: true, ID: 777}}}
	if err := bad.Apply(st); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("taking a non-free page: %v", err)
	}
}
