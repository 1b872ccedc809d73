package pagefile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

func TestInjectorWindows(t *testing.T) {
	j := NewInjector(FaultRule{Op: OpWALSync, After: 2, Count: 2})
	var failed []int
	for i := 1; i <= 6; i++ {
		if inj := j.Check(OpWALSync); inj != nil {
			failed = append(failed, i)
			if !errors.Is(inj.Err, ErrInjectedFault) {
				t.Fatalf("op %d: err = %v", i, inj.Err)
			}
		}
	}
	if len(failed) != 2 || failed[0] != 3 || failed[1] != 4 {
		t.Fatalf("failed ops = %v, want [3 4]", failed)
	}
	// Other op classes are untouched.
	if inj := j.Check(OpPageWrite); inj != nil {
		t.Fatalf("unmatched op injected: %v", inj.Err)
	}
	if j.Ops(OpWALSync) != 6 || j.Injected(OpWALSync) != 2 {
		t.Fatalf("counters: ops=%d injected=%d", j.Ops(OpWALSync), j.Injected(OpWALSync))
	}
}

func TestInjectorPermanentAndClear(t *testing.T) {
	j := NewInjector(FaultRule{Op: OpDataSync, Err: syscall.ENOSPC})
	for i := 0; i < 3; i++ {
		inj := j.Check(OpDataSync)
		if inj == nil || !errors.Is(inj.Err, syscall.ENOSPC) {
			t.Fatalf("op %d: %+v", i, inj)
		}
	}
	j.Clear()
	if inj := j.Check(OpDataSync); inj != nil {
		t.Fatalf("cleared injector still fires: %v", inj.Err)
	}
}

func TestInjectorLatency(t *testing.T) {
	j := NewInjector(FaultRule{Op: OpPageRead, After: 1 << 30, Latency: 20 * time.Millisecond})
	start := time.Now()
	if inj := j.Check(OpPageRead); inj != nil {
		t.Fatalf("latency-only rule injected: %v", inj.Err)
	}
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("latency not applied: %v", d)
	}
}

func TestParseFaultSpec(t *testing.T) {
	rules, err := ParseFaultSpec("wal-sync:after=20:count=1,page-write:err=enospc:torn=100,data-sync:latency=5ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 3 {
		t.Fatalf("rules = %d", len(rules))
	}
	if r := rules[0]; r.Op != OpWALSync || r.After != 20 || r.Count != 1 {
		t.Fatalf("rule 0 = %+v", r)
	}
	if r := rules[1]; r.Op != OpPageWrite || !errors.Is(r.Err, syscall.ENOSPC) || r.Torn != 100 {
		t.Fatalf("rule 1 = %+v", r)
	}
	if r := rules[2]; r.Op != OpDataSync || r.Latency != 5*time.Millisecond {
		t.Fatalf("rule 2 = %+v", r)
	}
	for _, bad := range []string{"", "frobnicate:after=1", "wal-sync:after=x", "wal-sync:after", "wal-sync:wat=1", "wal-sync:err=eio"} {
		if _, err := ParseFaultSpec(bad); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
}

func openTestStorage(t *testing.T) *FileStorage {
	t.Helper()
	fs, _, created, err := OpenFileStorage(filepath.Join(t.TempDir(), "t.obs"), 128)
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Fatal("expected fresh file")
	}
	t.Cleanup(func() { fs.Close() })
	return fs
}

func TestChecksumRoundTripAndCorruption(t *testing.T) {
	fs := openTestStorage(t)
	id, _ := fs.Allocate()
	data := bytes.Repeat([]byte{0xab}, 128)
	if err := fs.WritePage(id, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 128)
	if err := fs.ReadPage(id, got); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("round trip: %v", err)
	}
	if err := fs.VerifyPage(id); err != nil {
		t.Fatalf("verify clean page: %v", err)
	}
	// An unwritten page reads as zeros and verifies clean (lazy growth).
	id2, _ := fs.Allocate()
	if err := fs.ReadPage(id2, got); err != nil || !bytes.Equal(got, make([]byte, 128)) {
		t.Fatalf("unwritten page: %v", err)
	}
	if err := fs.VerifyPage(id2); err != nil {
		t.Fatalf("verify unwritten page: %v", err)
	}
	// Flipped bits under the checksum are caught, with the page id attached.
	if err := fs.CorruptPage(id); err != nil {
		t.Fatal(err)
	}
	err := fs.ReadPage(id, got)
	var corrupt ErrCorruptPage
	if !errors.As(err, &corrupt) || corrupt.ID != id {
		t.Fatalf("read of corrupt page: %v", err)
	}
	if err := fs.VerifyPage(id); !errors.As(err, &corrupt) {
		t.Fatalf("verify of corrupt page: %v", err)
	}
	if fs.IO().CorruptPages == 0 {
		t.Fatal("corrupt reads not counted")
	}
	// A full rewrite heals the page.
	if err := fs.WritePage(id, data); err != nil {
		t.Fatal(err)
	}
	if err := fs.ReadPage(id, got); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after rewrite: %v", err)
	}
}

func TestTornWriteCaughtByChecksum(t *testing.T) {
	fs := openTestStorage(t)
	id, _ := fs.Allocate()
	data := bytes.Repeat([]byte{0x77}, 128)
	if err := fs.WritePage(id, data); err != nil {
		t.Fatal(err)
	}
	// Tear the next write halfway through: the old content is partially
	// overwritten, and the stale trailer no longer matches.
	j := NewInjector(FaultRule{Op: OpPageWrite, Torn: 64})
	fs.SetInjector(j)
	if err := fs.WritePage(id, bytes.Repeat([]byte{0x11}, 128)); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("torn write: %v", err)
	}
	fs.SetInjector(nil)
	var corrupt ErrCorruptPage
	if err := fs.VerifyPage(id); !errors.As(err, &corrupt) || corrupt.ID != id {
		t.Fatalf("verify after torn write: %v", err)
	}
}

func TestInjectedReadAndSyncFaults(t *testing.T) {
	fs := openTestStorage(t)
	id, _ := fs.Allocate()
	if err := fs.WritePage(id, make([]byte, 128)); err != nil {
		t.Fatal(err)
	}
	j := NewInjector(
		FaultRule{Op: OpPageRead, Count: 1},
		FaultRule{Op: OpDataSync, Count: 1, Err: syscall.ENOSPC},
	)
	fs.SetInjector(j)
	defer fs.SetInjector(nil)
	buf := make([]byte, 128)
	if err := fs.ReadPage(id, buf); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("read fault: %v", err)
	}
	if err := fs.Sync(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("sync fault: %v", err)
	}
	// Transient: both heal after their Count is spent.
	if err := fs.ReadPage(id, buf); err != nil {
		t.Fatalf("read after heal: %v", err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatalf("sync after heal: %v", err)
	}
}

// TestVersion1FilesRefused: the retired packed-page format (version 1, no
// CRC trailers) must be refused with the typed error, never misread as the
// current layout — and refusing must not write a byte to the file.
func TestVersion1FilesRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v1.obs")
	// A version-1 file as the pre-checksum code laid it out: superblock at
	// offset 0, one page packed at PageSize stride right behind it.
	img := make([]byte, 2*128)
	copy(img, v1Superblock(Superblock{PageSize: 128}))
	copy(img[128:], bytes.Repeat([]byte{0x42}, 128))
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	fs, _, _, err := OpenFileStorage(path, 0)
	if !errors.Is(err, ErrUnsupportedVersion) {
		if err == nil {
			fs.Close()
		}
		t.Fatalf("open of a v1 file = %v, want ErrUnsupportedVersion", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, img) {
		t.Fatal("refused open modified the v1 file")
	}
	// The refusal released the flock: the file can be opened again.
	if _, _, _, err := OpenFileStorage(path, 0); !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("second open = %v, want ErrUnsupportedVersion again", err)
	}
}

func TestQuarantine(t *testing.T) {
	fs := openTestStorage(t)
	var ids []PageID
	for i := 0; i < 4; i++ {
		id, _ := fs.Allocate()
		ids = append(ids, id)
	}
	if err := fs.Free(ids[1]); err != nil {
		t.Fatal(err)
	}
	if !fs.Quarantine(ids[1]) {
		t.Fatal("quarantine of free page reported not-free")
	}
	if fs.Quarantine(ids[0]) {
		t.Fatal("quarantine of live page reported free")
	}
	if fs.Quarantined() != 1 {
		t.Fatalf("Quarantined = %d", fs.Quarantined())
	}
	// The page is never allocated again; the frontier grows instead.
	id, _ := fs.Allocate()
	if id == ids[1] {
		t.Fatal("quarantined page reallocated")
	}
	// A recovered free list cannot resurrect it either.
	fs.SetAllocState(10, []PageID{ids[1], 7})
	_, free := fs.AllocState()
	if len(free) != 1 || free[0] != 7 {
		t.Fatalf("free after SetAllocState = %v", free)
	}
	// Freeing it again is swallowed.
	if err := fs.Free(ids[1]); err != nil {
		t.Fatal(err)
	}
	_, free = fs.AllocState()
	if len(free) != 1 {
		t.Fatalf("quarantined page rejoined free list: %v", free)
	}
}

func TestTxStorageDetach(t *testing.T) {
	mem := NewMemStorage(64)
	tx := NewTxStorage(mem)
	// Three pages: one applied to the store, one pending in the overlay,
	// one written directly to the store (bypassing the overlay).
	a, _ := tx.Allocate()
	b, _ := tx.Allocate()
	c, _ := mem.Allocate()
	pa := bytes.Repeat([]byte{0xaa}, 64)
	pb := bytes.Repeat([]byte{0xbb}, 64)
	pc := bytes.Repeat([]byte{0xcc}, 64)
	if err := tx.WritePage(a, pa); err != nil {
		t.Fatal(err)
	}
	if err := tx.Apply(); err != nil {
		t.Fatal(err)
	}
	if err := tx.WritePage(b, pb); err != nil {
		t.Fatal(err)
	}
	if err := mem.WritePage(c, pc); err != nil {
		t.Fatal(err)
	}

	tx.Detach(4)
	if !tx.Detached() {
		t.Fatal("not detached")
	}
	// All three pages answer from the frozen copy...
	for _, tc := range []struct {
		id   PageID
		want []byte
	}{{a, pa}, {b, pb}, {c, pc}} {
		got := make([]byte, 64)
		if err := tx.ReadPage(tc.id, got); err != nil || !bytes.Equal(got, tc.want) {
			t.Fatalf("detached read %d: %v", tc.id, err)
		}
	}
	// ...even after the backing store is rewritten underneath.
	if err := mem.WritePage(a, bytes.Repeat([]byte{0xee}, 64)); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 64)
	if err := tx.ReadPage(a, got); err != nil || !bytes.Equal(got, pa) {
		t.Fatalf("detached read after store rewrite: %v", err)
	}
	// Frees stay local: the store's allocation state is untouched.
	before := mem.NumPages()
	if err := tx.Free(a); err != nil {
		t.Fatal(err)
	}
	if mem.NumPages() != before {
		t.Fatal("detached free reached the store")
	}
	// Past-frontier reads are zero pages; allocation and apply refuse.
	if err := tx.ReadPage(99, got); err != nil || !bytes.Equal(got, make([]byte, 64)) {
		t.Fatalf("past-frontier read: %v", err)
	}
	if _, err := tx.Allocate(); err == nil {
		t.Fatal("detached allocate succeeded")
	}
	if err := tx.Apply(); err == nil {
		t.Fatal("detached apply succeeded")
	}
}

// v1Superblock encodes sb the way the pre-checksum format did: the current
// layout with the version field set to 1 (and the CRC recomputed over it).
func v1Superblock(sb Superblock) []byte {
	b := EncodeSuperblock(sb)
	binary.LittleEndian.PutUint32(b[8:12], 1)
	binary.LittleEndian.PutUint32(b[60:64], crc32.Checksum(b[:60], crcTable))
	return b
}
