package catalog

import (
	"fmt"

	"repro/internal/pagefile"
)

// Delta is the incremental catalog record one commit appends to the WAL in
// place of rewriting the state blob. It carries only what the commit
// changed: the new generation and allocation frontier always (they are a few
// bytes), the ordered free-list ops of the commit, the metadata of just the
// datasets the commit touched, and — only when obstacles changed — the
// obstacle record. The obstacles themselves are tree pages, logged as page
// images like every other page, so the encoded size is independent of the
// obstacle and dataset populations.
//
// Recovery starts from the checkpoint state blob referenced by the data
// file's superblock and applies, in commit order, the deltas of every WAL
// transaction whose sequence number exceeds the superblock's — deltas at or
// below it are already folded into the blob (a crash can land between the
// checkpoint's superblock write and its WAL truncation, so Apply must be
// guarded by that sequence check to stay idempotent).
type Delta struct {
	Generation uint64             // database mutation counter after the commit
	Next       pagefile.PageID    // allocation frontier after the commit
	FreeOps    []pagefile.AllocOp // ordered free-list mutations of the commit
	Datasets   []DatasetMeta      // upserts for datasets the commit touched
	Obst       *ObstacleMeta      // nil when the commit changed no obstacles
}

const deltaMagic = uint32(0x4f42444c) // "OBDL"

// EncodeDelta serializes d.
func EncodeDelta(d *Delta) []byte {
	var e encoder
	e.u32(deltaMagic)
	e.u32(blobVersion)
	e.u64(d.Generation)
	e.u32(uint32(d.Next))
	e.u32(uint32(len(d.FreeOps)))
	for _, op := range d.FreeOps {
		kind := uint32(0)
		if op.Take {
			kind = 1
		}
		e.u32(kind)
		e.u32(uint32(op.ID))
	}
	e.datasets(d.Datasets)
	e.obst(d.Obst)
	return e.buf.Bytes()
}

// DecodeDelta parses a delta record.
func DecodeDelta(b []byte) (*Delta, error) {
	d := &decoder{b: b}
	if m := d.u32("magic"); d.err == nil && m != deltaMagic {
		return nil, fmt.Errorf("%w: delta magic %#x", ErrCorrupt, m)
	}
	if v := d.u32("version"); d.err == nil && v != blobVersion {
		return nil, fmt.Errorf("%w: delta version %d", ErrCorrupt, v)
	}
	out := &Delta{Generation: d.u64("generation"), Next: pagefile.PageID(d.u32("next"))}
	nOps := int(d.u32("free op count"))
	if d.err == nil && nOps > len(b) { // each op is 8 bytes
		return nil, fmt.Errorf("%w: free op count %d", ErrCorrupt, nOps)
	}
	for i := 0; i < nOps && d.err == nil; i++ {
		kind := d.u32("free op kind")
		if d.err == nil && kind > 1 {
			return nil, fmt.Errorf("%w: free op kind %d", ErrCorrupt, kind)
		}
		out.FreeOps = append(out.FreeOps, pagefile.AllocOp{
			Take: kind == 1,
			ID:   pagefile.PageID(d.u32("free op id")),
		})
	}
	out.Datasets = d.datasets()
	out.Obst = d.obst()
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(b) {
		return nil, fmt.Errorf("%w: %d trailing bytes in delta", ErrCorrupt, len(b)-d.off)
	}
	return out, nil
}

// Apply folds the delta into a recovered catalog state, mutating st in
// place. Apply validates the free-list ops against the running state —
// taking a page that is not free, freeing one twice — and reports
// ErrCorrupt, because a delta that does not match the state it claims to
// follow means the log and the checkpoint disagree.
func (d *Delta) Apply(st *State) error {
	st.Generation = d.Generation
	if len(d.FreeOps) > 0 {
		free := st.PageFree
		inFree := make(map[pagefile.PageID]int, len(free))
		for i, id := range free {
			inFree[id] = i
		}
		for _, op := range d.FreeOps {
			if op.Take {
				i, ok := inFree[op.ID]
				if !ok {
					return fmt.Errorf("%w: delta takes page %d, which is not free", ErrCorrupt, op.ID)
				}
				last := len(free) - 1
				free[i] = free[last]
				inFree[free[i]] = i
				free = free[:last]
				delete(inFree, op.ID)
			} else {
				if _, dup := inFree[op.ID]; dup {
					return fmt.Errorf("%w: delta frees page %d twice", ErrCorrupt, op.ID)
				}
				inFree[op.ID] = len(free)
				free = append(free, op.ID)
			}
		}
		st.PageFree = free
	}
	for _, ds := range d.Datasets {
		found := false
		for i := range st.Datasets {
			if st.Datasets[i].Name == ds.Name {
				st.Datasets[i] = ds
				found = true
				break
			}
		}
		if !found {
			st.Datasets = append(st.Datasets, ds)
		}
	}
	if d.Obst != nil {
		st.Obstacles = d.Obst
	}
	return nil
}
