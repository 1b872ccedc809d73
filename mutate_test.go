package obstacles

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/pagefile"
)

// mutationFootprint is everything a mutation may legitimately move. A
// rejected mutation must leave all of it exactly as it was.
type mutationFootprint struct {
	Generation uint64
	WALBytes   int64
	Seq        uint64
	Commits    float64
	Mutations  map[string]float64
	Obstacles  int
	Entities   int
}

func footprint(t *testing.T, db *Database) mutationFootprint {
	t.Helper()
	s := db.Snapshot()
	defer s.Close()
	n, err := db.DatasetLen("P")
	if err != nil {
		t.Fatal(err)
	}
	ps, m := db.PersistStats(), scrape(t, db)
	muts := make(map[string]float64, len(mutationOps))
	for _, op := range mutationOps {
		muts[op] = m[fmt.Sprintf("obstacles_mutations_total{op=%q}", op)]
	}
	return mutationFootprint{
		Generation: s.Generation(),
		WALBytes:   ps.WALBytes,
		Seq:        ps.Seq,
		Commits:    m["obstacles_commits_total"],
		Mutations:  muts,
		Obstacles:  db.NumObstacles(),
		Entities:   n,
	}
}

// TestRejectedMutationChangesNothing pins the one property the shared commit
// protocol (Database.mutate) can silently break: a mutation rejected by
// validation — or by a degraded handle — must not bump the generation,
// publish a version, stage a commit or count as a mutation; an unmoved
// generation also leaves every cached graph serving. Every mutator is driven
// through every rejection that applies to it.
func TestRejectedMutationChangesNothing(t *testing.T) {
	inj := pagefile.NewInjector()
	opts := DefaultOptions()
	opts.WALCheckpointBytes = -1 // WALBytes only moves when a commit lands
	opts.Chaos = inj
	db, err := Open(filepath.Join(t.TempDir(), "reject.obs"), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	obstIDs, err := db.AddObstacleRects(R(20, -10, 30, 10), R(60, -10, 70, 10))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddDataset("P", []Point{Pt(0, 0), Pt(50, 0), Pt(100, 0)}); err != nil {
		t.Fatal(err)
	}
	sliver, err := NewPolygon([]Point{Pt(0, 50), Pt(5, 50), Pt(10, 50)})
	if err != nil {
		t.Fatal(err)
	}
	infVertex, err := NewPolygon([]Point{Pt(0, 50), Pt(math.Inf(-1), 60), Pt(10, 60)})
	if err != nil {
		t.Fatal(err)
	}

	rejections := []struct {
		name string
		do   func() error
	}{
		{"InsertPoints/unknown dataset", func() error { _, err := db.InsertPoints("nope", Pt(1, 1)); return err }},
		{"DeletePoints/unknown dataset", func() error { return db.DeletePoints("nope", 0) }},
		{"DeletePoints/unknown id", func() error { return db.DeletePoints("P", 0, 99) }},
		{"DeletePoints/duplicate id", func() error { return db.DeletePoints("P", 1, 1) }},
		{"AddObstacles/invalid polygon", func() error { _, err := db.AddObstacles(RectPolygon(R(200, 200, 210, 210)), sliver); return err }},
		{"AddObstacles/zero polygon", func() error { _, err := db.AddObstacles(Polygon{}); return err }},
		{"AddObstacleRects/empty rect", func() error { _, err := db.AddObstacleRects(R(200, 200, 210, 210), Rect{MinX: 1, MaxX: 0}); return err }},
		{"RemoveObstacles/unknown id", func() error { return db.RemoveObstacles(obstIDs[0], 99) }},
		{"RemoveObstacles/duplicate id", func() error { return db.RemoveObstacles(obstIDs[1], obstIDs[1]) }},
		{"AddDataset/duplicate name", func() error { return db.AddDataset("P", []Point{Pt(7, 7)}) }},
		// Non-finite coordinates: a stored NaN would rank first in every
		// nearest-neighbour answer and could never be deleted.
		{"InsertPoints/NaN point", func() error { _, err := db.InsertPoints("P", Pt(1, 1), Pt(math.NaN(), 3)); return err }},
		{"InsertPoints/+Inf point", func() error { _, err := db.InsertPoints("P", Pt(math.Inf(1), 3)); return err }},
		{"AddDataset/NaN point", func() error { return db.AddDataset("N", []Point{Pt(7, 7), Pt(7, math.NaN())}) }},
		{"AddDataset/-Inf point", func() error { return db.AddDataset("N", []Point{Pt(math.Inf(-1), 7)}) }},
		{"AddObstacleRects/NaN rect", func() error { _, err := db.AddObstacleRects(R(math.NaN(), 0, 10, 10)); return err }},
		{"AddObstacleRects/+Inf rect", func() error { _, err := db.AddObstacleRects(R(200, 200, math.Inf(1), 210)); return err }},
		{"AddObstacles/-Inf vertex", func() error { _, err := db.AddObstacles(infVertex); return err }},
	}
	for _, tc := range rejections {
		before := footprint(t, db)
		if err := tc.do(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if errors.Is(err, ErrDegraded) {
			t.Fatalf("%s: handle degraded: %v", tc.name, err)
		}
		if after := footprint(t, db); !reflect.DeepEqual(before, after) {
			t.Errorf("%s: rejected mutation left a trace:\n before %+v\n after  %+v", tc.name, before, after)
		}
	}

	// Poison the handle: the next WAL fsync fails, and the insert riding it
	// reports the degraded error.
	inj.Add(pagefile.FaultRule{Op: pagefile.OpWALSync})
	if _, err := db.InsertPoints("P", Pt(2, 2)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("insert over a failing fsync = %v, want ErrDegraded", err)
	}
	degraded := []struct {
		name string
		do   func() error
	}{
		{"InsertPoints", func() error { _, err := db.InsertPoints("P", Pt(3, 3)); return err }},
		{"DeletePoints", func() error { return db.DeletePoints("P", 0) }},
		{"AddObstacles", func() error { _, err := db.AddObstacleRects(R(200, 200, 210, 210)); return err }},
		{"RemoveObstacles", func() error { return db.RemoveObstacles(obstIDs[0]) }},
		{"AddDataset", func() error { return db.AddDataset("Q", []Point{Pt(7, 7)}) }},
	}
	for _, tc := range degraded {
		before := footprint(t, db)
		if err := tc.do(); !errors.Is(err, ErrDegraded) {
			t.Errorf("%s on a degraded handle = %v, want ErrDegraded", tc.name, err)
		}
		if after := footprint(t, db); !reflect.DeepEqual(before, after) {
			t.Errorf("%s on a degraded handle left a trace:\n before %+v\n after  %+v", tc.name, before, after)
		}
	}
	if db.HasDataset("Q") || db.HasDataset("N") {
		t.Error("rejected AddDataset installed its dataset")
	}
	inj.Clear() // let Close release the files without tripping the rule again
}

// TestOpenRefusesVersion1File: a data file in a retired layout — version 1
// (no page checksums), version 2 (a catalog blob of every obstacle polygon
// beside the obstacle tree) or version 3 (catalog deltas in the WAL and the
// allocation frontier in the superblock) — must be refused with the typed
// error rather than misread, and the refusal must leave its bytes alone.
func TestOpenRefusesVersion1File(t *testing.T) {
	for _, version := range []uint32{1, 2, 3} {
		path := filepath.Join(t.TempDir(), fmt.Sprintf("v%d.obs", version))
		db, err := Open(path, Options{PageSize: 512})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		img := stampSuperblockVersion(t, path, version)
		if _, err := Open(path, Options{}); !errors.Is(err, pagefile.ErrUnsupportedVersion) {
			t.Fatalf("Open of a version-%d file = %v, want pagefile.ErrUnsupportedVersion", version, err)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, img) {
			t.Fatalf("refused Open modified the version-%d file", version)
		}
	}
}

// stampSuperblockVersion rewrites the format-version field of the data
// file's superblock (magic 8 bytes, then the version; CRC over the first 60
// bytes at offset 60) and returns the resulting file image.
func stampSuperblockVersion(t *testing.T, path string, version uint32) []byte {
	t.Helper()
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(img[8:12], version)
	binary.LittleEndian.PutUint32(img[60:64], crc32.Checksum(img[:60], crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	return img
}
