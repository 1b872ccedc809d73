// Package catalog serializes database metadata into one record, the State,
// so the whole Database state lives in one page file. The state holds the
// commit generation, the page allocator's frontier and free list, the
// obstacle record (the obstacle R-tree and vertex tree root/height/size, the
// obstacle id space and mutation counter) and one record per dataset (name,
// R-tree root/height/size, id-space bound). A checkpoint writes it as the
// blob that hangs off the superblock, and every commit logs the same record
// in the WAL; recovery takes the last replayed one.
//
// No coordinates are stored here: the trees are the store. A dataset's
// points are recovered on open by scanning its tree's leaves (every leaf
// entry is a degenerate rectangle plus the entity id), and the obstacle
// polygons the same way from the obstacle tree, whose leaf is a rectangle's
// whole polygon, plus the vertex tree that holds any other polygon's
// vertices. The id free lists are the complements of the scanned ids in
// [0, IDBound).
//
// A blob is stored as a chain of pages, each holding a next-page pointer in
// its first four bytes; the superblock's BlobRef records the chain root,
// exact byte length, and content CRC.
package catalog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/pagefile"
)

// ErrCorrupt reports a blob that fails structural validation or its CRC.
var ErrCorrupt = errors.New("catalog: corrupt blob")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// TreeMeta locates one R-tree inside the shared page file.
type TreeMeta struct {
	Root   pagefile.PageID
	Height int
	Size   int
}

// DatasetMeta describes one named point dataset.
type DatasetMeta struct {
	Name    string
	Tree    TreeMeta
	IDBound int64 // exclusive upper bound of ids ever assigned
}

// ObstacleMeta locates the obstacle set: its R-tree, whose leaves are the
// obstacles, and the vertex tree of its non-rectangle polygons.
type ObstacleMeta struct {
	Tree, Verts TreeMeta
	IDBound     int64  // exclusive upper bound of ids ever assigned
	Generation  uint64 // the obstacle set's mutation counter
}

// State is the catalog record.
type State struct {
	Generation uint64          // the database's committed-mutation counter
	Next       pagefile.PageID // the allocation frontier: lowest never-allocated page
	PageFree   []pagefile.PageID
	Obstacles  *ObstacleMeta // nil in a file that never checkpointed
	Datasets   []DatasetMeta
}

const (
	stateMagic  = uint32(0x4f425354) // "OBST"
	blobVersion = 3
)

type encoder struct{ buf bytes.Buffer }

func (e *encoder) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	e.buf.Write(b[:])
}
func (e *encoder) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	e.buf.Write(b[:])
}
func (e *encoder) str(s string) { e.u32(uint32(len(s))); e.buf.WriteString(s) }

type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: truncated %s at offset %d", ErrCorrupt, what, d.off)
	}
}

func (d *decoder) u32(what string) uint32 {
	if d.err != nil || d.off+4 > len(d.b) {
		d.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *decoder) u64(what string) uint64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *decoder) str(what string) string {
	n := int(d.u32(what))
	if d.err != nil || n < 0 || d.off+n > len(d.b) {
		d.fail(what)
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

func (e *encoder) tree(t TreeMeta) {
	e.u32(uint32(t.Root))
	e.u32(uint32(t.Height))
	e.u64(uint64(t.Size))
}

func (d *decoder) tree(what string) TreeMeta {
	return TreeMeta{
		Root:   pagefile.PageID(d.u32(what)),
		Height: int(d.u32(what)),
		Size:   int(d.u64(what)),
	}
}

// EncodeState serializes s. The obstacle record sits behind a presence flag.
func EncodeState(s *State) []byte {
	var e encoder
	e.u32(stateMagic)
	e.u32(blobVersion)
	e.u64(s.Generation)
	e.u32(uint32(s.Next))
	e.u32(uint32(len(s.PageFree)))
	for _, id := range s.PageFree {
		e.u32(uint32(id))
	}
	if o := s.Obstacles; o == nil {
		e.u32(0)
	} else {
		e.u32(1)
		e.tree(o.Tree)
		e.tree(o.Verts)
		e.u64(uint64(o.IDBound))
		e.u64(o.Generation)
	}
	e.u32(uint32(len(s.Datasets)))
	for _, m := range s.Datasets {
		e.str(m.Name)
		e.tree(m.Tree)
		e.u64(uint64(m.IDBound))
	}
	return e.buf.Bytes()
}

// DecodeState parses a state record; any malformed input is an error
// wrapping ErrCorrupt.
func DecodeState(b []byte) (*State, error) {
	d := &decoder{b: b}
	if m := d.u32("magic"); d.err == nil && m != stateMagic {
		return nil, fmt.Errorf("%w: state magic %#x", ErrCorrupt, m)
	}
	if v := d.u32("version"); d.err == nil && v != blobVersion {
		return nil, fmt.Errorf("%w: state version %d", ErrCorrupt, v)
	}
	s := &State{Generation: d.u64("generation"), Next: pagefile.PageID(d.u32("next"))}
	nFree := int(d.u32("free count"))
	if d.err == nil && nFree > len(b) { // cheap sanity bound: each entry is 4 bytes
		return nil, fmt.Errorf("%w: free list count %d", ErrCorrupt, nFree)
	}
	for i := 0; i < nFree && d.err == nil; i++ {
		s.PageFree = append(s.PageFree, pagefile.PageID(d.u32("free entry")))
	}
	switch flag := d.u32("obstacle flag"); {
	case d.err != nil || flag == 0:
	case flag > 1:
		return nil, fmt.Errorf("%w: obstacle flag %d", ErrCorrupt, flag)
	default:
		s.Obstacles = &ObstacleMeta{
			Tree:       d.tree("obstacle tree"),
			Verts:      d.tree("vertex tree"),
			IDBound:    int64(d.u64("obstacle id bound")),
			Generation: d.u64("obstacle generation"),
		}
	}
	nSets := int(d.u32("dataset count"))
	for i := 0; i < nSets && d.err == nil; i++ {
		s.Datasets = append(s.Datasets, DatasetMeta{
			Name:    d.str("dataset name"),
			Tree:    d.tree("dataset tree"),
			IDBound: int64(d.u64("dataset id bound")),
		})
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(b) {
		return nil, fmt.Errorf("%w: %d trailing bytes in state record", ErrCorrupt, len(b)-d.off)
	}
	return s, nil
}

// chainPayload is the per-page payload capacity: the first four bytes of a
// chain page hold the next page id.
func chainPayload(pageSize int) int { return pageSize - 4 }

// BlobPages returns the number of chain pages a blob of n bytes occupies.
func BlobPages(pageSize, n int) int {
	if n == 0 {
		return 0
	}
	per := chainPayload(pageSize)
	return (n + per - 1) / per
}

// WriteBlob writes data as a chain across the given pre-allocated pages
// (len(pages) must be at least BlobPages; extra pages are chained in and
// zero-padded, letting callers over-allocate when sizing interacts with the
// free list). It returns the BlobRef for the superblock.
func WriteBlob(st pagefile.Storage, pages []pagefile.PageID, data []byte) (pagefile.BlobRef, error) {
	if len(data) == 0 || len(pages) == 0 {
		return pagefile.BlobRef{}, nil
	}
	ps := st.PageSize()
	if need := BlobPages(ps, len(data)); len(pages) < need {
		return pagefile.BlobRef{}, fmt.Errorf("catalog: blob of %d bytes needs %d pages, got %d", len(data), need, len(pages))
	}
	buf := make([]byte, ps)
	rest := data
	for i, id := range pages {
		next := pagefile.InvalidPage
		if i+1 < len(pages) {
			next = pages[i+1]
		}
		binary.LittleEndian.PutUint32(buf[:4], uint32(next))
		n := copy(buf[4:], rest)
		rest = rest[n:]
		for j := 4 + n; j < ps; j++ {
			buf[j] = 0
		}
		if err := st.WritePage(id, buf); err != nil {
			return pagefile.BlobRef{}, err
		}
	}
	return pagefile.BlobRef{
		Root: pages[0],
		Len:  uint64(len(data)),
		CRC:  crc32.Checksum(data, crcTable),
	}, nil
}

// ReadBlob reads the chain at ref and verifies its CRC.
func ReadBlob(st pagefile.Storage, ref pagefile.BlobRef) ([]byte, error) {
	if ref.Root == pagefile.InvalidPage || ref.Len == 0 {
		return nil, nil
	}
	ps := st.PageSize()
	per := chainPayload(ps)
	data := make([]byte, 0, ref.Len)
	buf := make([]byte, ps)
	id := ref.Root
	for remaining := int(ref.Len); remaining > 0; {
		if id == pagefile.InvalidPage {
			return nil, fmt.Errorf("%w: blob chain ends %d bytes early", ErrCorrupt, remaining)
		}
		if err := st.ReadPage(id, buf); err != nil {
			return nil, err
		}
		n := per
		if n > remaining {
			n = remaining
		}
		data = append(data, buf[4:4+n]...)
		remaining -= n
		id = pagefile.PageID(binary.LittleEndian.Uint32(buf[:4]))
	}
	if got := crc32.Checksum(data, crcTable); got != ref.CRC {
		return nil, fmt.Errorf("%w: blob checksum %#x, want %#x", ErrCorrupt, got, ref.CRC)
	}
	return data, nil
}

// BlobChain returns the page ids of the chain at ref, for freeing an old
// blob before writing its replacement.
func BlobChain(st pagefile.Storage, ref pagefile.BlobRef) ([]pagefile.PageID, error) {
	if ref.Root == pagefile.InvalidPage || ref.Len == 0 {
		return nil, nil
	}
	buf := make([]byte, st.PageSize())
	var pages []pagefile.PageID
	id := ref.Root
	for id != pagefile.InvalidPage {
		pages = append(pages, id)
		if len(pages) > 1<<22 {
			return nil, fmt.Errorf("%w: blob chain cycle at page %d", ErrCorrupt, id)
		}
		if err := st.ReadPage(id, buf); err != nil {
			return nil, err
		}
		id = pagefile.PageID(binary.LittleEndian.Uint32(buf[:4]))
	}
	return pages, nil
}
