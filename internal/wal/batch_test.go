package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestAppendGroupRoundTrip writes one group of three commits (pages, two
// deltas, one bare member) and replays it: the group must come back as a single
// transaction carrying the deduplicated pages, the deltas in commit order,
// the last member's sequence number, and a correct End offset — and the
// whole group must have cost exactly one fsync.
func TestAppendGroupRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "group.wal")
	f, size, err := OpenOSFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sf := &syncCounter{File: f}
	l := NewLog(sf, size)
	defer l.Close()

	v1 := bytes.Repeat([]byte{1}, 32)
	v2 := bytes.Repeat([]byte{2}, 32)
	v9 := bytes.Repeat([]byte{9}, 32)
	group := []BatchTx{
		{Seq: 1, Pages: []Page{{ID: 4, Data: v1}}, Delta: []byte("delta-1")},
		{Seq: 2, Pages: []Page{{ID: 4, Data: v2}, {ID: 9, Data: v9}}, Delta: []byte("delta-2")},
		{Seq: 3},
	}
	if err := l.AppendGroup(group); err != nil {
		t.Fatal(err)
	}
	if sf.syncs != 1 {
		t.Fatalf("group of 3 cost %d fsyncs, want 1", sf.syncs)
	}
	var txs []Tx
	if err := l.Replay(func(tx Tx) error {
		cp := tx
		cp.Deltas = nil
		for _, d := range tx.Deltas {
			cp.Deltas = append(cp.Deltas, append([]byte(nil), d...))
		}
		txs = append(txs, cp)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(txs) != 1 {
		t.Fatalf("replayed %d transactions, want 1 group", len(txs))
	}
	g := txs[0]
	if g.Seq != 3 {
		t.Fatalf("group seq = %d, want last member's 3", g.Seq)
	}
	// Page 4 was written by members 1 and 2: only the last image survives.
	if len(g.Pages) != 2 {
		t.Fatalf("group carries %d pages, want 2 deduplicated", len(g.Pages))
	}
	byID := map[uint32][]byte{}
	for _, p := range g.Pages {
		byID[p.ID] = p.Data
	}
	if !bytes.Equal(byID[4], v2) || !bytes.Equal(byID[9], v9) {
		t.Fatalf("deduplicated pages wrong: %v", byID)
	}
	if len(g.Deltas) != 2 || string(g.Deltas[0]) != "delta-1" || string(g.Deltas[1]) != "delta-2" {
		t.Fatalf("deltas = %q", g.Deltas)
	}
	if g.End != l.Size() {
		t.Fatalf("End = %d, size %d", g.End, l.Size())
	}
}

// TestGroupCutRecoversWholeGroups cuts a log of several groups at every
// group boundary and at torn mid-group offsets: replay must recover whole
// groups only — a prefix of acknowledgment boundaries, never part of an
// unacknowledged group.
func TestGroupCutRecoversWholeGroups(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cut.wal")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	seq := uint64(0)
	for g := 0; g < 4; g++ {
		var group []BatchTx
		for m := 0; m < 3; m++ {
			seq++
			group = append(group, BatchTx{
				Seq:   seq,
				Pages: []Page{{ID: uint32(seq), Data: bytes.Repeat([]byte{byte(seq)}, 24)}},
				Delta: []byte{byte(seq)},
			})
		}
		if err := l.AppendGroup(group); err != nil {
			t.Fatal(err)
		}
	}
	var ends []int64
	if err := l.Replay(func(tx Tx) error { ends = append(ends, tx.End); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(ends) != 4 {
		t.Fatalf("%d groups replayed, want 4", len(ends))
	}
	l.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cuts := []int64{0}
	for _, e := range ends {
		cuts = append(cuts, e-3, e) // torn mid-commit-record, and exact boundary
	}
	for _, cut := range cuts {
		if cut < 0 {
			continue
		}
		want := 0
		for _, e := range ends {
			if e <= cut {
				want++
			}
		}
		cpath := filepath.Join(t.TempDir(), "c.wal")
		if err := os.WriteFile(cpath, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		cl, err := Open(cpath)
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		if err := cl.Replay(func(tx Tx) error {
			if len(tx.Deltas) != 3 {
				return fmt.Errorf("group with %d deltas recovered, want whole groups of 3", len(tx.Deltas))
			}
			got++
			return nil
		}); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if got != want {
			t.Fatalf("cut %d: recovered %d groups, want %d", cut, got, want)
		}
		cl.Close()
	}
}

// TestAppendGroupConcurrent hammers the log from several goroutines, each
// appending single-commit groups, and verifies every acknowledged commit
// replays (run under -race to check the locking).
func TestAppendGroupConcurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "conc.wal")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 4, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				seq := uint64(w*per + i + 1) // unique, not ordered across goroutines
				err := l.AppendGroup([]BatchTx{{
					Seq:   seq,
					Pages: []Page{{ID: uint32(seq), Data: bytes.Repeat([]byte{byte(w)}, 16)}},
				}})
				if err != nil {
					errs <- err
					return
				}
				_ = l.Size() // concurrent Size reads must be safe too
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]bool)
	if err := l.Replay(func(tx Tx) error {
		if seen[tx.Seq] {
			return fmt.Errorf("seq %d replayed twice", tx.Seq)
		}
		seen[tx.Seq] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != workers*per {
		t.Fatalf("replayed %d commits, want %d", len(seen), workers*per)
	}
	l.Close()
}

// TestAppendGroupFaultDoesNotAcknowledge kills the backing file mid-group:
// AppendGroup must fail without advancing Size — nothing in the group is
// acknowledged — and recovery must never surface the failed group's
// members (one commit record guards them all).
func TestAppendGroupFaultDoesNotAcknowledge(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fault.wal")
	f, size, err := OpenOSFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ff := &flakyFile{File: f, failAfter: 4}
	l := NewLog(ff, size)
	if err := l.AppendGroup([]BatchTx{{Seq: 1, Pages: []Page{{ID: 1, Data: make([]byte, 16)}}}}); err != nil {
		t.Fatal(err)
	}
	good := l.Size()
	big := []BatchTx{}
	for seq := uint64(2); seq < 40; seq++ {
		big = append(big, BatchTx{Seq: seq, Pages: []Page{{ID: uint32(seq), Data: make([]byte, 64*1024)}}})
	}
	if err := l.AppendGroup(big); !errors.Is(err, errFlaky) {
		t.Fatalf("faulted group = %v, want injected fault", err)
	}
	if l.Size() != good {
		t.Fatalf("failed group advanced Size %d -> %d", good, l.Size())
	}
	l.Close()
	back, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	var last uint64
	if err := back.Replay(func(tx Tx) error { last = tx.Seq; return nil }); err != nil {
		t.Fatal(err)
	}
	if last != 1 {
		t.Fatalf("recovered through seq %d after failed group, want only 1", last)
	}
}

// syncCounter counts fsyncs on the backing file.
type syncCounter struct {
	File
	syncs int
}

func (s *syncCounter) Sync() error {
	s.syncs++
	return s.File.Sync()
}
