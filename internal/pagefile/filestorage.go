package pagefile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"
)

// Superblock is the fixed-size header at offset 0 of a durable page file.
// It records the page size, the commit sequence number, and the root of the
// catalog's state blob chain; the encoding adds the format version (always
// superVersion). The allocation state — the frontier and the free list —
// lives inside the state blob (the free list is unbounded), so the
// superblock always fits well within one page.
type Superblock struct {
	PageSize int
	Seq      uint64 // commit sequence number
	State    BlobRef
}

// BlobRef locates a catalog blob: the first page of its chain, its exact
// byte length, and a CRC over its content.
type BlobRef struct {
	Root PageID
	Len  uint64
	CRC  uint32
}

const (
	superMagic = "OBSDBF1\n"
	// superVersion is the one supported on-disk format: every page slot is
	// PageSize+pageTrailerSize bytes, the trailer storing a CRC over the
	// page's content, and the obstacle polygons live in the obstacle R-tree
	// (and its vertex tree) rather than in a catalog blob, and the
	// allocation frontier is in the catalog's state. The older formats are
	// refused at open, see ErrUnsupportedVersion: version 1 packed pages at
	// PageSize stride with no checksums, version 2 kept a second blob of
	// every obstacle polygon, and version 3 logged catalog deltas and kept
	// the frontier here.
	superVersion = 4
	// superblockSize is the encoded size: magic(8) + version(4) + pageSize(4)
	// + reserved(4) + seq(8) + blobRef(16) + reserved(16) + crc(4). The
	// reserved bytes held version 3's allocation frontier and version 2's
	// obstacle blob reference; they stay zero, so the CRC sits where every
	// version put it and an older file is recognised intact and refused by
	// its version.
	superblockSize = 8 + 4 + 4 + 4 + 8 + 2*16 + 4
	// pageTrailerSize is the per-page trailer: content CRC (4),
	// a written flag (1), and 3 reserved zero bytes.
	pageTrailerSize = 8
	pageFlagWritten = 1
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrBadSuperblock reports a missing or corrupt superblock on open.
var ErrBadSuperblock = errors.New("pagefile: bad superblock")

// ErrUnsupportedVersion reports a structurally valid superblock whose format
// version this build cannot read. The file is left untouched.
var ErrUnsupportedVersion = errors.New("pagefile: unsupported file format version")

// ErrFileLocked reports that another process (or another handle in this
// process) already has the database file open. Two live handles would both
// replay and append to the WAL, corrupting the database, so every open
// takes an exclusive flock for the lifetime of the handle.
var ErrFileLocked = errors.New("pagefile: database file is locked by another handle")

// ErrCorruptPage reports a page whose on-disk bytes fail checksum
// verification — bit rot, a torn write outside the WAL's protection, or
// overwritten data. Match with errors.As to recover the page id:
//
//	var corrupt pagefile.ErrCorruptPage
//	if errors.As(err, &corrupt) { quarantine(corrupt.ID) }
type ErrCorruptPage struct {
	ID PageID
}

func (e ErrCorruptPage) Error() string {
	return fmt.Sprintf("pagefile: page %d is corrupt (checksum mismatch)", e.ID)
}

func putBlobRef(b []byte, r BlobRef) {
	binary.LittleEndian.PutUint32(b[0:4], uint32(r.Root))
	binary.LittleEndian.PutUint64(b[4:12], r.Len)
	binary.LittleEndian.PutUint32(b[12:16], r.CRC)
}

func getBlobRef(b []byte) BlobRef {
	return BlobRef{
		Root: PageID(binary.LittleEndian.Uint32(b[0:4])),
		Len:  binary.LittleEndian.Uint64(b[4:12]),
		CRC:  binary.LittleEndian.Uint32(b[12:16]),
	}
}

// EncodeSuperblock serializes sb with a trailing CRC.
func EncodeSuperblock(sb Superblock) []byte {
	b := make([]byte, superblockSize)
	copy(b[0:8], superMagic)
	binary.LittleEndian.PutUint32(b[8:12], superVersion)
	binary.LittleEndian.PutUint32(b[12:16], uint32(sb.PageSize))
	binary.LittleEndian.PutUint64(b[20:28], sb.Seq)
	putBlobRef(b[28:44], sb.State)
	binary.LittleEndian.PutUint32(b[60:64], crc32.Checksum(b[:60], crcTable))
	return b
}

// DecodeSuperblock parses and validates a superblock image: damage is
// ErrBadSuperblock, an intact image of any other format version is
// ErrUnsupportedVersion.
func DecodeSuperblock(b []byte) (Superblock, error) {
	if len(b) < superblockSize {
		return Superblock{}, fmt.Errorf("%w: %d bytes", ErrBadSuperblock, len(b))
	}
	if string(b[0:8]) != superMagic {
		return Superblock{}, fmt.Errorf("%w: bad magic %q", ErrBadSuperblock, b[0:8])
	}
	if got, want := crc32.Checksum(b[:60], crcTable), binary.LittleEndian.Uint32(b[60:64]); got != want {
		return Superblock{}, fmt.Errorf("%w: checksum mismatch", ErrBadSuperblock)
	}
	if v := binary.LittleEndian.Uint32(b[8:12]); v != superVersion {
		return Superblock{}, fmt.Errorf("%w: file is version %d, this build reads version %d", ErrUnsupportedVersion, v, superVersion)
	}
	return Superblock{
		PageSize: int(binary.LittleEndian.Uint32(b[12:16])),
		Seq:      binary.LittleEndian.Uint64(b[20:28]),
		State:    getBlobRef(b[28:44]),
	}, nil
}

// FileStorage is a Storage over a real file: page id N lives at byte offset
// N*stride (the superblock occupies the page-0 slot), read and written with
// pread/pwrite. The stride is PageSize plus an 8-byte trailer holding a CRC
// over the page content, computed on every write and verified on every read
// (a mismatch returns ErrCorruptPage).
// Allocation state — the frontier and the free list — is kept in memory and
// persisted by the durability layer inside the catalog's state, which every
// commit logs and every checkpoint writes; until SetAllocState installs the
// recovered state, an opened file allocates from page 1. FileStorage alone
// is therefore crash-unsafe; the WAL-coordinated layer above it (TxStorage
// plus the database commit protocol) provides atomicity.
//
// Unlike MemStorage, FileStorage does not validate that a read or written
// page was allocated — WAL replay writes committed page images into a file
// whose in-memory allocation state is still the checkpointed one.
type FileStorage struct {
	mu          sync.Mutex
	f           *os.File
	path        string
	pageSize    int
	stride      int64
	next        PageID
	free        []PageID
	freeSet     map[PageID]struct{}
	quarantined map[PageID]struct{}
	// inj, when set, injects programmed faults into page reads, page writes
	// and data-file fsyncs (see Injector); nil in production.
	inj atomic.Pointer[Injector]
	// bufs pools stride-sized scratch buffers for page IO.
	bufs sync.Pool
	// io counts physical operations on the data file; updated with atomics
	// so ReadPage/WritePage stay lock-free with respect to allocation.
	io struct {
		reads, writes, syncs atomic.Uint64
		corrupt              atomic.Uint64
	}
}

// FileIO reports physical operations performed on the data file since open.
type FileIO struct {
	// Reads and Writes count page-granularity pread/pwrite calls
	// (superblock traffic included in Writes via WriteSuperblock); Syncs
	// counts data-file fsyncs (checkpoint write-back and superblock).
	Reads, Writes, Syncs uint64
	// CorruptPages counts reads that failed checksum verification.
	CorruptPages uint64
}

// IO returns the file's physical operation counters.
func (fs *FileStorage) IO() FileIO {
	return FileIO{
		Reads:        fs.io.reads.Load(),
		Writes:       fs.io.writes.Load(),
		Syncs:        fs.io.syncs.Load(),
		CorruptPages: fs.io.corrupt.Load(),
	}
}

// OpenFileStorage opens (creating if needed) the page file at path and
// returns it with its superblock and whether the file was freshly created.
// For an existing file the superblock's page size wins; pageSize (when
// non-zero) must then agree, and a file of another format version is refused
// with ErrUnsupportedVersion. For a new file pageSize selects the page size
// (0 means DefaultPageSize) and a fresh superblock is written and synced.
func OpenFileStorage(path string, pageSize int) (*FileStorage, Superblock, bool, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, Superblock{}, false, err
	}
	if err := lockFile(f); err != nil {
		f.Close()
		return nil, Superblock{}, false, fmt.Errorf("%s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, Superblock{}, false, err
	}
	fs := &FileStorage{f: f, path: path, next: 1, freeSet: make(map[PageID]struct{})}
	if st.Size() == 0 {
		if pageSize == 0 {
			pageSize = DefaultPageSize
		}
		if pageSize < superblockSize {
			f.Close()
			return nil, Superblock{}, false, fmt.Errorf("pagefile: page size %d smaller than superblock", pageSize)
		}
		fs.setPageSize(pageSize)
		sb := Superblock{PageSize: pageSize}
		if err := fs.WriteSuperblock(sb); err != nil {
			f.Close()
			return nil, Superblock{}, false, err
		}
		if err := fs.Sync(); err != nil {
			f.Close()
			return nil, Superblock{}, false, err
		}
		return fs, sb, true, nil
	}
	buf := make([]byte, superblockSize)
	if _, err := f.ReadAt(buf, 0); err != nil {
		f.Close()
		return nil, Superblock{}, false, fmt.Errorf("pagefile: reading superblock: %w", err)
	}
	sb, err := DecodeSuperblock(buf)
	if err != nil {
		f.Close()
		return nil, Superblock{}, false, err
	}
	if pageSize != 0 && pageSize != sb.PageSize {
		f.Close()
		return nil, Superblock{}, false, fmt.Errorf("pagefile: file %s has page size %d, options ask for %d", path, sb.PageSize, pageSize)
	}
	fs.setPageSize(sb.PageSize)
	return fs, sb, false, nil
}

func (fs *FileStorage) setPageSize(pageSize int) {
	fs.pageSize = pageSize
	fs.stride = int64(pageSize) + pageTrailerSize
	fs.bufs.New = func() any {
		b := make([]byte, fs.stride)
		return &b
	}
}

// SetInjector installs (or, with nil, removes) a fault injector on the
// file's page reads, page writes and fsyncs. Chaos-testing hook.
func (fs *FileStorage) SetInjector(j *Injector) { fs.inj.Store(j) }

// WriteSuperblock overwrites the on-disk superblock (no fsync; callers sync
// explicitly at checkpoint boundaries). The file's page size is stamped on,
// so callers cannot accidentally flip it.
func (fs *FileStorage) WriteSuperblock(sb Superblock) error {
	sb.PageSize = fs.pageSize
	fs.io.writes.Add(1)
	_, err := fs.f.WriteAt(EncodeSuperblock(sb), 0)
	return err
}

// ReadSuperblock re-reads and validates the on-disk superblock — the
// durable checkpoint state, as recovery must trust it rather than any
// in-memory copy.
func (fs *FileStorage) ReadSuperblock() (Superblock, error) {
	buf := make([]byte, superblockSize)
	fs.io.reads.Add(1)
	if _, err := fs.f.ReadAt(buf, 0); err != nil {
		return Superblock{}, fmt.Errorf("pagefile: reading superblock: %w", err)
	}
	return DecodeSuperblock(buf)
}

// Sync fsyncs the data file.
func (fs *FileStorage) Sync() error {
	if inj := fs.inj.Load().Check(OpDataSync); inj != nil {
		return fmt.Errorf("%w: data-file fsync", inj.Err)
	}
	fs.io.syncs.Add(1)
	return fs.f.Sync()
}

// Close closes the data file.
func (fs *FileStorage) Close() error { return fs.f.Close() }

// SetAllocState installs the recovered allocation state, the frontier and
// free list of the catalog state recovery took (the last replayed commit's,
// or the checkpoint blob's). Quarantined pages are filtered out of the
// installed free list, so a recovery never resurrects a page the scrubber
// found corrupt.
func (fs *FileStorage) SetAllocState(next PageID, free []PageID) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if next < 1 {
		next = 1
	}
	fs.next = next
	fs.free = fs.free[:0]
	fs.freeSet = make(map[PageID]struct{}, len(free))
	for _, id := range free {
		if _, bad := fs.quarantined[id]; bad {
			continue
		}
		if _, dup := fs.freeSet[id]; dup {
			continue
		}
		fs.free = append(fs.free, id)
		fs.freeSet[id] = struct{}{}
	}
}

// AllocState returns a snapshot of the allocation state for serialization
// into a catalog state.
func (fs *FileStorage) AllocState() (next PageID, free []PageID) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.next, append([]PageID(nil), fs.free...)
}

// Frontier returns the lowest never-allocated page id.
func (fs *FileStorage) Frontier() PageID {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.next
}

// Quarantine takes a page out of allocation circulation: it is removed from
// the free list (if present) and never handed out by Allocate again for the
// life of this handle. The next commit or checkpoint records the free list
// without it, making the quarantine durable. The scrubber quarantines free
// pages whose bytes fail checksum verification, so fresh data is never
// written over a disk region known to corrupt it. Reports whether the page
// was on the free list.
func (fs *FileStorage) Quarantine(id PageID) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, onFree := fs.freeSet[id]; !onFree {
		// A live page stays where it is (its data is what it is); if a later
		// mutation frees and reallocates it, the full-page rewrite re-checksums
		// it anyway.
		return false
	}
	if fs.quarantined == nil {
		fs.quarantined = make(map[PageID]struct{})
	}
	fs.quarantined[id] = struct{}{}
	delete(fs.freeSet, id)
	for i, f := range fs.free {
		if f == id {
			fs.free = append(fs.free[:i], fs.free[i+1:]...)
			break
		}
	}
	return true
}

// Quarantined returns the quarantined page count.
func (fs *FileStorage) Quarantined() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return len(fs.quarantined)
}

// PageSize implements Storage.
func (fs *FileStorage) PageSize() int { return fs.pageSize }

// NumPages implements Storage: allocated pages, i.e. the frontier minus the
// free list.
func (fs *FileStorage) NumPages() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return int(fs.next) - 1 - len(fs.free) - len(fs.quarantined)
}

// Allocate implements Storage. The file itself grows lazily on first write.
func (fs *FileStorage) Allocate() (PageID, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if n := len(fs.free); n > 0 {
		id := fs.free[n-1]
		fs.free = fs.free[:n-1]
		delete(fs.freeSet, id)
		return id, nil
	}
	id := fs.next
	fs.next++
	return id, nil
}

// Free implements Storage. Only the in-memory free list changes; the freed
// page's bytes stay in the file until reuse.
func (fs *FileStorage) Free(id PageID) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if id == InvalidPage || id >= fs.next {
		return fmt.Errorf("%w: free %d", ErrPageNotFound, id)
	}
	if _, dup := fs.freeSet[id]; dup {
		return fmt.Errorf("pagefile: double free of page %d", id)
	}
	if _, bad := fs.quarantined[id]; bad {
		return nil // quarantined pages never rejoin the free list
	}
	fs.free = append(fs.free, id)
	fs.freeSet[id] = struct{}{}
	return nil
}

// ReadPage implements Storage with pread. Reads past the end of the file
// return zeroed pages: allocation grows the file lazily, so a page can be
// allocated (and its zero image sit in the transactional overlay) before
// any byte of it reaches disk. The page's CRC trailer is verified and a
// mismatch — or a half-written (torn) page — returns ErrCorruptPage.
func (fs *FileStorage) ReadPage(id PageID, dst []byte) error {
	if id == InvalidPage {
		return fmt.Errorf("%w: read %d", ErrPageNotFound, id)
	}
	if inj := fs.inj.Load().Check(OpPageRead); inj != nil {
		return fmt.Errorf("%w: read of page %d", inj.Err, id)
	}
	bufp := fs.bufs.Get().(*[]byte)
	defer fs.bufs.Put(bufp)
	buf := *bufp
	if err := fs.readVerified(id, buf); err != nil {
		return err
	}
	if buf[fs.pageSize+4] == 0 {
		for i := range dst[:fs.pageSize] {
			dst[i] = 0
		}
		return nil
	}
	copy(dst, buf[:fs.pageSize])
	return nil
}

// verifyBuf checks one stride-sized on-disk image: either the page was
// never written (flag 0, every byte zero — lazy growth reads as a zero
// page) or it carries a valid CRC over its content.
func (fs *FileStorage) verifyBuf(id PageID, buf []byte) error {
	flags := buf[fs.pageSize+4]
	switch flags {
	case 0:
		for _, b := range buf {
			if b != 0 {
				fs.io.corrupt.Add(1)
				return ErrCorruptPage{ID: id}
			}
		}
		return nil
	case pageFlagWritten:
		want := binary.LittleEndian.Uint32(buf[fs.pageSize : fs.pageSize+4])
		if crc32.Checksum(buf[:fs.pageSize], crcTable) != want {
			fs.io.corrupt.Add(1)
			return ErrCorruptPage{ID: id}
		}
		return nil
	default:
		fs.io.corrupt.Add(1)
		return ErrCorruptPage{ID: id}
	}
}

// VerifyPage checks a page's on-disk checksum without copying it out,
// returning ErrCorruptPage on a mismatch. Unwritten (all-zero) pages
// verify clean.
func (fs *FileStorage) VerifyPage(id PageID) error {
	if id == InvalidPage {
		return fmt.Errorf("%w: verify %d", ErrPageNotFound, id)
	}
	bufp := fs.bufs.Get().(*[]byte)
	defer fs.bufs.Put(bufp)
	return fs.readVerified(id, *bufp)
}

// readVerified preads page id's on-disk image (content plus trailer) into the
// stride-sized buf, zero-filling past the end of the file, and verifies it.
func (fs *FileStorage) readVerified(id PageID, buf []byte) error {
	fs.io.reads.Add(1)
	n, err := fs.f.ReadAt(buf, int64(id)*fs.stride)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		for i := n; i < len(buf); i++ {
			buf[i] = 0
		}
	} else if err != nil {
		return err
	}
	return fs.verifyBuf(id, buf)
}

// WritePage implements Storage with pwrite, growing the file as needed. The
// content CRC is computed and written with the page in one pwrite.
func (fs *FileStorage) WritePage(id PageID, data []byte) error {
	if id == InvalidPage {
		return fmt.Errorf("%w: write %d", ErrPageNotFound, id)
	}
	if len(data) != fs.pageSize {
		return fmt.Errorf("pagefile: write of %d bytes to page of %d bytes", len(data), fs.pageSize)
	}
	inj := fs.inj.Load().Check(OpPageWrite)
	if inj != nil && inj.Torn == 0 {
		return fmt.Errorf("%w: write of page %d", inj.Err, id)
	}
	fs.io.writes.Add(1)
	bufp := fs.bufs.Get().(*[]byte)
	defer fs.bufs.Put(bufp)
	buf := *bufp
	copy(buf, data)
	binary.LittleEndian.PutUint32(buf[fs.pageSize:fs.pageSize+4], crc32.Checksum(data, crcTable))
	buf[fs.pageSize+4] = pageFlagWritten
	buf[fs.pageSize+5], buf[fs.pageSize+6], buf[fs.pageSize+7] = 0, 0, 0
	if inj != nil {
		// A torn write reaches the disk only in part; the trailer (or even
		// the content) is cut off, which a later checksum verify reports.
		torn := min(inj.Torn, len(buf))
		_, _ = fs.f.WriteAt(buf[:torn], int64(id)*fs.stride)
		return fmt.Errorf("%w: torn write of page %d (%d of %d bytes)", inj.Err, id, torn, len(buf))
	}
	_, err := fs.f.WriteAt(buf, int64(id)*fs.stride)
	return err
}

// CorruptPage flips bits of a page's stored content on disk without
// updating its checksum trailer — simulated bit rot for scrub and
// checksum-verification tests.
func (fs *FileStorage) CorruptPage(id PageID) error {
	if id == InvalidPage || id >= fs.Frontier() {
		return fmt.Errorf("%w: corrupt %d", ErrPageNotFound, id)
	}
	var b [1]byte
	off := int64(id) * fs.stride
	if _, err := fs.f.ReadAt(b[:], off); err != nil && err != io.EOF {
		return err
	}
	b[0] ^= 0xA5
	_, err := fs.f.WriteAt(b[:], off)
	return err
}
