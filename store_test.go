package obstacles

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"path/filepath"
	"testing"

	"repro/internal/pagefile"
)

// mixedWorld adds one obstacle of every stored form per cell of a 4×4 grid
// (see cellObstacle), removes a few so that ids are reused, and adds a P
// dataset in the free space between them. It returns the live obstacles by
// id.
func mixedWorld(t *testing.T, db *Database) map[int64]Polygon {
	t.Helper()
	live := make(map[int64]Polygon)
	var polys []Polygon
	for cell := 0; cell < 16; cell++ {
		polys = append(polys, cellObstacle(cell, float64(cell%4)*100+25, float64(cell/4)*100+25))
	}
	ids, err := db.AddObstacles(polys...)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		live[id] = polys[i]
	}
	// One of each form goes; a triangle and an L-shape refill two of the
	// freed ids.
	if err := db.RemoveObstacles(ids[4], ids[5], ids[6], ids[7]); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids[4:8] {
		delete(live, id)
	}
	refill := []Polygon{cellObstacle(1, 425, 25), cellObstacle(2, 425, 125)}
	ids, err = db.AddObstacles(refill...)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		live[id] = refill[i]
	}
	var pts []Point
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			pts = append(pts, Pt(float64(i)*100+10, float64(j)*100+10))
		}
	}
	if err := db.AddDataset("P", pts); err != nil {
		t.Fatal(err)
	}
	return live
}

// TestMixedObstaclesDurable: rectangles, triangles, L-shapes and a
// rectangle listed from another corner come back from the obstacle trees
// with bit-identical vertices under unchanged ids — through a reopen, an
// in-place Recover and a Backup.
func TestMixedObstaclesDurable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "mixed.obs")
	inj := pagefile.NewInjector()
	opts := DefaultOptions()
	opts.Chaos = inj
	db, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := mixedWorld(t, db)
	assertObstacles(t, "live", db, want)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	assertObstacles(t, "reopened", db, want)

	// In-place recovery rebuilds the obstacle set from the file while the
	// handle stays open. One more triangle commits first, so the WAL holds
	// a vertex-tree page image for recovery to replay.
	tri := cellObstacle(1, 525, 325)
	ids, err := db.AddObstacles(tri)
	if err != nil {
		t.Fatal(err)
	}
	want[ids[0]] = tri
	inj.Add(pagefile.FaultRule{Op: pagefile.OpWALWrite, Count: 1})
	if _, err := db.InsertPoints("P", Pt(905, 905)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("insert during a WAL fault: %v, want ErrDegraded", err)
	}
	if err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	assertObstacles(t, "recovered", db, want)
	if rep, err := db.Scrub(ctx); err != nil || !rep.Clean() {
		t.Fatalf("scrub after recovery: %+v, %v", rep, err)
	}

	copyPath := filepath.Join(dir, "copy.obs")
	if err := db.Backup(ctx, copyPath); err != nil {
		t.Fatal(err)
	}
	cp, err := Open(copyPath, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	assertObstacles(t, "backup", cp, want)
	if rep, err := cp.Scrub(ctx); err != nil || !rep.Clean() {
		t.Fatalf("scrub of the backup: %+v, %v", rep, err)
	}
}

// TestScrubReportsIndexDamage damages a live database's trees in ways every
// page checksum still passes. The first two are what a nearest-neighbour
// query over a whole dataset notices, as it returns fewer entities than the
// dataset holds: a leaf entry dropped from its page (the tree still counts
// it), and a table/tree count mismatch (the tree deleted an entry the table
// still calls live). The last two are obstacle damage no query over the
// entities notices: a dropped obstacle leaf entry and a dropped vertex of a
// non-rectangle. Scrub reports each.
func TestScrubReportsIndexDamage(t *testing.T) {
	cases := []struct {
		name string
		// nnShort: the damage hides an entity from a nearest-neighbour query
		// over the whole dataset.
		nnShort bool
		damage  func(t *testing.T, db *Database)
	}{
		{"dropped leaf entry", true, func(t *testing.T, db *Database) {
			pf := db.datasets["P"].Tree().PageFile()
			ids, err := db.datasets["P"].Tree().Pages(nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range ids {
				page, err := pf.Read(id)
				if err != nil {
					t.Fatal(err)
				}
				if binary.LittleEndian.Uint16(page[0:2]) != 0 { // not a leaf
					continue
				}
				img := append([]byte(nil), page...)
				binary.LittleEndian.PutUint16(img[2:4], binary.LittleEndian.Uint16(img[2:4])-1)
				if err := pf.Write(id, img); err != nil {
					t.Fatal(err)
				}
				return
			}
			t.Fatal("no leaf page")
		}},
		{"table/tree count mismatch", true, func(t *testing.T, db *Database) {
			ps := db.datasets["P"]
			if found, err := ps.Tree().Delete(ps.Point(3).Bounds(), 3); err != nil || !found {
				t.Fatalf("delete: %v, %v", found, err)
			}
		}},
		{"dropped obstacle leaf entry", false, func(t *testing.T, db *Database) {
			o := db.obstSet
			id := o.Live(nil)[0]
			if found, err := o.Tree().Delete(o.Polygon(id).Bounds(), id); err != nil || !found {
				t.Fatalf("delete: %v, %v", found, err)
			}
		}},
		{"dropped vertex", false, func(t *testing.T, db *Database) {
			verts := db.obstSet.Trees()[1]
			entries, err := verts.All()
			if err != nil || len(entries) == 0 {
				t.Fatalf("vertex tree: %d entries, %v", len(entries), err)
			}
			if found, err := verts.Delete(entries[0].Rect, entries[0].Data); err != nil || !found {
				t.Fatalf("delete: %v, %v", found, err)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db, err := Open(filepath.Join(t.TempDir(), "damage.obs"), DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			mixedWorld(t, db)
			if rep, err := db.Scrub(ctx); err != nil || !rep.Clean() {
				t.Fatalf("baseline scrub: %+v, %v", rep, err)
			}
			n, err := db.DatasetLen("P")
			if err != nil {
				t.Fatal(err)
			}

			// Damage the live sets the way a bug would, and publish it as a
			// mutation does.
			db.updateMu.Lock()
			c.damage(t, db)
			db.publishVersion()
			db.updateMu.Unlock()

			nn, err := db.NearestNeighbors(ctx, "P", Pt(0, 0), n)
			if err != nil {
				t.Fatal(err)
			}
			if short := len(nn) < n; short != c.nnShort {
				t.Fatalf("nearest neighbours returned %d of %d entities", len(nn), n)
			}
			rep, err := db.Scrub(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Clean() || len(rep.Inconsistent) != 1 || len(rep.CorruptLive) != 0 {
				t.Fatalf("scrub after damage: %+v", rep)
			}
			t.Logf("reported: %s", rep.Inconsistent[0])
		})
	}
}

// TestObstacleStoreSurvivesCheckpointChurn alternates obstacle adds and
// removes of every stored form with checkpoints, so that obstacle trees are
// copied on write across many checkpoints, and checks the file after each
// round by a reopen.
func TestObstacleStoreSurvivesCheckpointChurn(t *testing.T) {
	path := filepath.Join(t.TempDir(), "churn.obs")
	want := make(map[int64]Polygon)
	for round := 0; round < 6; round++ {
		db, err := Open(path, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		assertObstacles(t, fmt.Sprintf("round %d reopened", round), db, want)
		for i := 0; i < 8; i++ {
			pg := cellObstacle(round+i, float64(i)*100+25, float64(round)*100+25)
			ids, err := db.AddObstacles(pg)
			if err != nil {
				t.Fatal(err)
			}
			want[ids[0]] = pg
			if i%3 == 2 {
				if err := db.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
		for id := range maps.Keys(want) {
			if id%3 == int64(round%3) {
				if err := db.RemoveObstacles(id); err != nil {
					t.Fatal(err)
				}
				delete(want, id)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
