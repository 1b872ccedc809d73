package pagefile

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
)

func TestFileStorageCreateReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db")
	fs, sb, created, err := OpenFileStorage(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	if !created || sb.PageSize != 128 {
		t.Fatalf("create: created=%v sb=%+v", created, sb)
	}
	a, _ := fs.Allocate()
	b, _ := fs.Allocate()
	if a != 1 || b != 2 {
		t.Fatalf("Allocate = %d, %d", a, b)
	}
	pa := bytes.Repeat([]byte{0x11}, 128)
	if err := fs.WritePage(a, pa); err != nil {
		t.Fatal(err)
	}
	sb.Seq = 7
	if err := fs.WriteSuperblock(sb); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	fs2, sb2, created, err := OpenFileStorage(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	if created {
		t.Fatal("reopen reported created")
	}
	if sb2.PageSize != 128 || sb2.Seq != 7 {
		t.Fatalf("reopened superblock %+v", sb2)
	}
	// The frontier is the catalog state's (State.Next), not the superblock's:
	// a reopened file allocates from page 1 until SetAllocState installs it.
	if next := fs2.Frontier(); next != 1 {
		t.Fatalf("reopened frontier = %d, want 1 before SetAllocState", next)
	}
	fs2.SetAllocState(3, nil)
	if id, _ := fs2.Allocate(); id != 3 {
		t.Fatalf("Allocate after SetAllocState(3) = %d, want 3", id)
	}
	got := make([]byte, 128)
	if err := fs2.ReadPage(a, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pa) {
		t.Fatal("page content lost across reopen")
	}
	// Page b was allocated but never written: reads as zeros.
	if err := fs2.ReadPage(b, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 128)) {
		t.Fatal("unwritten page not zeroed")
	}

	// Page-size mismatch is rejected.
	if _, _, _, err := OpenFileStorage(path, 256); err == nil {
		t.Fatal("page size mismatch accepted")
	}
}

func TestFileStorageAllocState(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db")
	fs, _, _, err := OpenFileStorage(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	for i := 0; i < 5; i++ {
		if _, err := fs.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Free(2); err != nil {
		t.Fatal(err)
	}
	if err := fs.Free(4); err != nil {
		t.Fatal(err)
	}
	if err := fs.Free(4); err == nil {
		t.Fatal("double free accepted")
	}
	if fs.NumPages() != 3 {
		t.Fatalf("NumPages = %d", fs.NumPages())
	}
	// Freed pages are reused LIFO before the file grows.
	id, _ := fs.Allocate()
	if id != 4 {
		t.Fatalf("Allocate after free = %d, want 4", id)
	}
	// SetAllocState (the recovery path) replaces everything.
	fs.SetAllocState(10, []PageID{3, 7})
	next, free := fs.AllocState()
	if next != 10 || len(free) != 2 || free[0] != 3 || free[1] != 7 {
		t.Fatalf("AllocState = %d, %v", next, free)
	}
	if fs.NumPages() != 7 {
		t.Fatalf("NumPages after SetAllocState = %d", fs.NumPages())
	}
}

func TestSuperblockRejectsDamage(t *testing.T) {
	sb := Superblock{PageSize: 4096, Seq: 3, State: BlobRef{Root: 5, Len: 100, CRC: 1}}
	b := EncodeSuperblock(sb)
	if got, err := DecodeSuperblock(b); err != nil || got != sb {
		t.Fatalf("round trip: %+v, %v", got, err)
	}
	b[20] ^= 0xff
	if _, err := DecodeSuperblock(b); !errors.Is(err, ErrBadSuperblock) {
		t.Fatalf("damaged superblock: %v", err)
	}
	if _, err := DecodeSuperblock(b[:10]); !errors.Is(err, ErrBadSuperblock) {
		t.Fatalf("short superblock: %v", err)
	}
}

// FuzzDecodeSuperblock: Open decodes whatever sits at offset 0, so
// DecodeSuperblock must survive any bytes. The result is a superblock or an
// error wrapping ErrBadSuperblock or ErrUnsupportedVersion, never a panic,
// and a decoded superblock re-encodes to one that decodes to itself.
func FuzzDecodeSuperblock(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeSuperblock(Superblock{PageSize: 4096, Seq: 3, State: BlobRef{Root: 5, Len: 100, CRC: 1}}))
	f.Add(v1Superblock(Superblock{PageSize: 128}))
	f.Fuzz(func(t *testing.T, b []byte) {
		sb, err := DecodeSuperblock(b)
		if err != nil {
			if !errors.Is(err, ErrBadSuperblock) && !errors.Is(err, ErrUnsupportedVersion) {
				t.Fatalf("error %v wraps neither ErrBadSuperblock nor ErrUnsupportedVersion", err)
			}
			return
		}
		again, err := DecodeSuperblock(EncodeSuperblock(sb))
		if err != nil || again != sb {
			t.Fatalf("%+v re-decodes to %+v, %v", sb, again, err)
		}
	})
}

func TestTxStorageOverlay(t *testing.T) {
	mem := NewMemStorage(64)
	tx := NewTxStorage(mem)
	id, err := tx.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x5a}, 64)
	if err := tx.WritePage(id, data); err != nil {
		t.Fatal(err)
	}
	// The write stays in the overlay: reads see it, the backing store does
	// not (MemStorage zeroed the page at allocation).
	got := make([]byte, 64)
	if err := tx.ReadPage(id, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("overlay read mismatch")
	}
	if err := mem.ReadPage(id, got); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, data) {
		t.Fatal("write reached the backing store before Apply")
	}

	w := tx.CaptureDirty()
	if len(w) != 1 || w[0].ID != id || !bytes.Equal(w[0].Data, data) {
		t.Fatalf("CaptureDirty = %+v", w)
	}
	if len(tx.CaptureDirty()) != 0 {
		t.Fatal("second capture not empty")
	}
	if tx.PendingPages() != 1 {
		t.Fatalf("PendingPages = %d", tx.PendingPages())
	}
	if err := tx.Apply(); err != nil {
		t.Fatal(err)
	}
	if tx.PendingPages() != 0 {
		t.Fatal("Apply left pending pages")
	}
	if err := mem.ReadPage(id, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("Apply did not reach the backing store")
	}
	// Reads now fall through to the backing store.
	if err := tx.ReadPage(id, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("fall-through read mismatch")
	}
}

func TestTxStorageFreeDropsDirty(t *testing.T) {
	mem := NewMemStorage(64)
	tx := NewTxStorage(mem)
	id, _ := tx.Allocate()
	if err := tx.WritePage(id, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Free(id); err != nil {
		t.Fatal(err)
	}
	if w := tx.CaptureDirty(); len(w) != 0 {
		t.Fatalf("freed page still dirty: %+v", w)
	}
	if tx.PendingPages() != 0 {
		t.Fatal("freed page still pending")
	}
	// Re-allocating the freed id starts from a zero image again.
	id2, _ := tx.Allocate()
	if id2 != id {
		t.Fatalf("free list not reused: %d vs %d", id2, id)
	}
	got := make([]byte, 64)
	if err := tx.ReadPage(id2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 64)) {
		t.Fatal("re-allocated page not zeroed")
	}
}

func TestInjectorKillsPageWritesAfterN(t *testing.T) {
	fs, _, _, err := OpenFileStorage(filepath.Join(t.TempDir(), "kill.obs"), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	inj := NewInjector(FaultRule{Op: OpPageWrite, After: 3})
	fs.SetInjector(inj)
	ids := make([]PageID, 5)
	for i := range ids {
		ids[i], _ = fs.Allocate()
	}
	data := make([]byte, 64)
	for i := 0; i < 3; i++ {
		if err := fs.WritePage(ids[i], data); err != nil {
			t.Fatalf("write %d failed early: %v", i, err)
		}
	}
	if err := fs.WritePage(ids[3], data); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("write 4 = %v, want ErrInjectedFault", err)
	}
	if err := fs.WritePage(ids[4], data); !errors.Is(err, ErrInjectedFault) {
		t.Fatal("fault did not persist")
	}
	if err := fs.ReadPage(ids[0], data); err != nil {
		t.Fatalf("reads must survive the fault: %v", err)
	}
	if inj.Ops(OpPageWrite) != 5 || inj.Injected(OpPageWrite) != 2 {
		t.Fatalf("page writes seen/failed = %d/%d, want 5/2", inj.Ops(OpPageWrite), inj.Injected(OpPageWrite))
	}
}
