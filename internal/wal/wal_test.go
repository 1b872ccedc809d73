package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func replayAll(t *testing.T, l *Log) []Tx {
	t.Helper()
	var txs []Tx
	if err := l.Replay(func(tx Tx) error {
		// Deep-copy: Replay reuses nothing today, but the contract only
		// promises validity during the callback.
		cp := Tx{Seq: tx.Seq}
		for _, p := range tx.Pages {
			cp.Pages = append(cp.Pages, Page{ID: p.ID, Data: append([]byte(nil), p.Data...)})
		}
		txs = append(txs, cp)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return txs
}

// commitTx appends one single-member group: the pages as one transaction
// with sequence number seq, flushed and fsynced.
func commitTx(l *Log, seq uint64, pages ...Page) error {
	return l.AppendGroup([]BatchTx{{Seq: seq, Pages: pages}})
}

func TestCommitReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	pageA := bytes.Repeat([]byte{0xaa}, 64)
	pageB := bytes.Repeat([]byte{0xbb}, 64)
	if err := commitTx(l, 1, Page{ID: 3, Data: pageA}, Page{ID: 7, Data: pageB}); err != nil {
		t.Fatal(err)
	}
	if err := commitTx(l, 2, Page{ID: 3, Data: pageB}); err != nil {
		t.Fatal(err)
	}
	size := l.Size()
	if size == 0 {
		t.Fatal("Size is 0 after commits")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Size() != size {
		t.Fatalf("reopened Size = %d, want %d", l.Size(), size)
	}
	txs := replayAll(t, l)
	if len(txs) != 2 {
		t.Fatalf("replayed %d transactions, want 2", len(txs))
	}
	if txs[0].Seq != 1 || txs[1].Seq != 2 {
		t.Fatalf("seqs = %d, %d", txs[0].Seq, txs[1].Seq)
	}
	if len(txs[0].Pages) != 2 || txs[0].Pages[0].ID != 3 || !bytes.Equal(txs[0].Pages[0].Data, pageA) {
		t.Fatalf("tx0 pages wrong: %+v", txs[0].Pages)
	}
	if len(txs[1].Pages) != 1 || !bytes.Equal(txs[1].Pages[0].Data, pageB) {
		t.Fatalf("tx1 pages wrong")
	}
}

func TestTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := commitTx(l, 1, Page{ID: 1, Data: make([]byte, 32)}); err != nil {
		t.Fatal(err)
	}
	good := l.Size()
	// A committed transaction followed by an uncommitted append that reaches
	// the file: flush without commit by appending a second transaction and
	// cutting the file mid-way through it.
	if err := commitTx(l, 2, Page{ID: 2, Data: make([]byte, 32)}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Cut at every byte boundary inside the second transaction: replay must
	// always recover exactly transaction 1.
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := good; cut < int64(len(full)); cut += 7 {
		cutPath := filepath.Join(t.TempDir(), "cut.wal")
		if err := os.WriteFile(cutPath, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		cl, err := Open(cutPath)
		if err != nil {
			t.Fatal(err)
		}
		txs := replayAll(t, cl)
		if len(txs) != 1 || txs[0].Seq != 1 {
			t.Fatalf("cut at %d: replayed %d txs", cut, len(txs))
		}
		if cl.Size() != good {
			t.Fatalf("cut at %d: size after replay = %d, want %d (torn tail not truncated)", cut, cl.Size(), good)
		}
		st, err := os.Stat(cutPath)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() != good {
			t.Fatalf("cut at %d: file size %d, want %d", cut, st.Size(), good)
		}
		cl.Close()
	}
}

// TestOutOfOrderTornTailTruncates pins the other side of the corruption
// heuristic: garbage followed by a valid NON-commit record is an in-flight
// tail whose blocks persisted out of order (no fsync ever acknowledged it),
// so replay must truncate to the last commit, not refuse with ErrCorrupt.
func TestOutOfOrderTornTailTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := commitTx(l, 1, Page{ID: 1, Data: make([]byte, 32)}); err != nil {
		t.Fatal(err)
	}
	good := l.Size()
	// Two page records of an uncommitted transaction reach the file...
	if err := commitTx(l, 2, Page{ID: 2, Data: make([]byte, 32)}, Page{ID: 3, Data: make([]byte, 32)}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// ...but the earlier record's block was lost (zeroed) and the commit
	// record's block never made it: valid page record after garbage, no
	// commit record anywhere past the damage.
	recLen := int64(recHeaderSize + 4 + 32)
	for i := good; i < good+recLen; i++ {
		raw[i] = 0
	}
	raw = raw[:good+2*recLen] // drop the commit record
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	txs := replayAll(t, l)
	if len(txs) != 1 || txs[0].Seq != 1 {
		t.Fatalf("replayed %d txs, want only committed tx 1", len(txs))
	}
	if l.Size() != good {
		t.Fatalf("size after out-of-order tail = %d, want %d", l.Size(), good)
	}
}

func TestMidLogCorruptionRefusesReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := commitTx(l, 1, Page{ID: 1, Data: make([]byte, 32)}); err != nil {
		t.Fatal(err)
	}
	good := l.Size()
	if err := commitTx(l, 2, Page{ID: 2, Data: make([]byte, 32)}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Flip a payload byte inside the second transaction's page record. Its
	// commit record is still intact after it, so this is bit rot inside
	// acknowledged data, not a torn tail: replay must refuse with
	// ErrCorrupt rather than silently truncate committed transaction 2.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[good+recHeaderSize+10] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Replay(func(Tx) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay over mid-log corruption = %v, want ErrCorrupt", err)
	}
	// Nothing was truncated: the damaged evidence is preserved.
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != int64(len(raw)) {
		t.Fatalf("refusing replay still truncated the log: %d -> %d bytes", len(raw), st.Size())
	}
}

func TestResetEmptiesLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.AppendGroup([]BatchTx{{Seq: 1, Delta: []byte("x")}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if l.Size() != 0 {
		t.Fatalf("Size after Reset = %d", l.Size())
	}
	if txs := replayAll(t, l); len(txs) != 0 {
		t.Fatalf("replayed %d txs from a reset log", len(txs))
	}
	// The log keeps working after a reset.
	if err := commitTx(l, 5, Page{ID: 9, Data: make([]byte, 8)}); err != nil {
		t.Fatal(err)
	}
	txs := replayAll(t, l)
	if len(txs) != 1 || txs[0].Seq != 5 {
		t.Fatalf("post-reset replay: %+v", txs)
	}
}

type flakyFile struct {
	File
	writes    int
	failAfter int
}

var errFlaky = errors.New("injected wal fault")

func (f *flakyFile) Write(p []byte) (int, error) {
	f.writes++
	if f.writes > f.failAfter {
		return 0, errFlaky
	}
	return f.File.Write(p)
}

func TestWriteFaultSurfacesOnCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	f, size, err := OpenOSFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ff := &flakyFile{File: f, failAfter: 2}
	l := NewLog(ff, size)
	defer l.Close()
	// Appends are buffered, so the fault surfaces part-way through the group
	// (the third write the buffer passes down).
	pages := make([]Page, 50)
	for i := range pages {
		pages[i] = Page{ID: uint32(i + 1), Data: make([]byte, 4096)}
	}
	if err := commitTx(l, 1, pages...); !errors.Is(err, errFlaky) {
		t.Fatalf("AppendGroup = %v, want injected fault", err)
	}
	if l.Size() != 0 {
		t.Fatalf("failed commit advanced Size to %d", l.Size())
	}
}

// TestRetiredMetaRecordIsCorruptTail pins how the retired type-2 (superblock
// image) record is handled: a final transaction laid out the way the old
// writer did — pages, one type-2 record, commit — is not decoded. Replay
// delivers exactly the transactions before it and truncates the rest, as for
// any other unreadable tail.
func TestRetiredMetaRecordIsCorruptTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := commitTx(l, 1, Page{ID: 1, Data: make([]byte, 32)}); err != nil {
		t.Fatal(err)
	}
	if err := commitTx(l, 2, Page{ID: 2, Data: make([]byte, 32)}); err != nil {
		t.Fatal(err)
	}
	good := l.Size()
	// No exported call writes a type-2 record any more; drive the record
	// encoder directly.
	var seq [8]byte
	binary.LittleEndian.PutUint64(seq[:], 3)
	for _, err := range []error{
		l.appendPageRecord(3, make([]byte, 32)),
		l.appendRecord(2, []byte("superblock image")),
		l.appendRecord(recCommit, seq[:]),
		l.sync(),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if l.Size() == good {
		t.Fatal("hand-built tail did not reach the file")
	}
	l.Close()

	l, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	txs := replayAll(t, l)
	if len(txs) != 2 || txs[0].Seq != 1 || txs[1].Seq != 2 {
		t.Fatalf("replayed %+v, want exactly transactions 1 and 2", txs)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if l.Size() != good || st.Size() != good {
		t.Fatalf("after replay: log size %d, file size %d, want both %d", l.Size(), st.Size(), good)
	}
}
