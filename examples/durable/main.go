// Example durable: a database that survives restarts.
//
// A dispatch service keeps its map — road obstacles and a fleet of service
// vans — in one durable file. The first run creates the file, indexes the
// world and records a road closure; every later run reopens the committed
// state in milliseconds (no bulk-loading) and keeps mutating it durably.
// Deleting the file starts over.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	obstacles "repro"
)

func main() {
	dir, err := os.MkdirTemp("", "obstacles-durable-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "dispatch.obs")
	ctx := context.Background()

	// --- first run: create the file and commit a world into it ---------
	db, err := obstacles.Open(path, obstacles.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	if _, err := db.AddObstacleRects(
		obstacles.R(20, 0, 30, 60), // a river (bridgeless, for now)
		obstacles.R(50, 40, 90, 50),
		obstacles.R(60, 70, 70, 100),
	); err != nil {
		log.Fatal(err)
	}
	vans := []obstacles.Point{
		obstacles.Pt(10, 10), obstacles.Pt(40, 80), obstacles.Pt(95, 20), obstacles.Pt(75, 60),
	}
	if err := db.AddDataset("vans", vans); err != nil {
		log.Fatal(err)
	}
	// A road closure comes in mid-shift; the commit is durable when
	// AddObstacleRects returns — a crash after this point cannot lose it.
	closure, err := db.AddObstacleRects(obstacles.R(0, 30, 15, 35))
	if err != nil {
		log.Fatal(err)
	}
	st := db.PersistStats()
	fmt.Printf("first run:  %d obstacles, %d vans, commit seq %d, WAL %d bytes\n",
		db.NumObstacles(), len(vans), st.Seq, st.WALBytes)
	incident := obstacles.Pt(35, 25)
	report(ctx, db, incident, "before restart")
	if err := db.Close(); err != nil { // checkpoint + release
		log.Fatal(err)
	}

	// --- second run: reopen the committed state -------------------------
	db, err = obstacles.Open(path, obstacles.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	fmt.Printf("reopened:   %d obstacles, datasets %v (no bulk-load)\n",
		db.NumObstacles(), db.Datasets())
	report(ctx, db, incident, "after restart")

	// The reopened handle mutates durably too: the closure clears and a van
	// redeploys closer to the incident.
	if err := db.RemoveObstacles(closure...); err != nil {
		log.Fatal(err)
	}
	if _, err := db.InsertPoints("vans", obstacles.Pt(38, 40)); err != nil {
		log.Fatal(err)
	}
	report(ctx, db, incident, "after clearing the closure")
}

func report(ctx context.Context, db *obstacles.Database, q obstacles.Point, when string) {
	nn, err := db.NearestNeighbors(ctx, "vans", q, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-27s nearest vans to incident %v:\n", when+":", q)
	for _, nb := range nn {
		fmt.Printf("  van %d at %v, obstructed distance %.1f\n", nb.ID, nb.Point, nb.Distance)
	}
}
