package pagefile

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// filledFile returns a file of n pages of size bytes, page id filled with
// byte(id), written back to storage, behind a buffer of bufferPages.
func filledFile(t *testing.T, n, size, bufferPages int) (*File, []PageID) {
	t.Helper()
	f := New(size, bufferPages)
	ids := make([]PageID, n)
	for i := range ids {
		id, err := f.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Write(id, bytes.Repeat([]byte{byte(id)}, size)); err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	return f, ids
}

// TestReadCountedRecyclesFramesUnderConcurrentEviction: behind a one-page
// buffer every miss evicts the frame the previous read was lent and recycles
// it for the next page. Readers check, from inside their callbacks, that the
// frame holds their page from first byte to last while evictors keep
// admitting other pages; a callback run after the lock is dropped sees
// another page's bytes (and is a data race).
func TestReadCountedRecyclesFramesUnderConcurrentEviction(t *testing.T) {
	const pages, size, readers, evictors, rounds = 6, 512, 3, 2, 1500
	f, ids := filledFile(t, pages, size, 1)
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				id := ids[(r+i)%pages]
				bad := -1
				err := f.ReadCounted(id, nil, func(p []byte) {
					first := p[0]
					runtime.Gosched() // let an evictor in, if it can get in
					for j, b := range p {
						if b != byte(id) || b != first {
							bad = j
							return
						}
					}
				})
				if err == nil && bad >= 0 {
					err = fmt.Errorf("page %d: byte %d of the lent frame is another page's", id, bad)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(r)
	}
	for e := 0; e < evictors; e++ {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := f.ReadCounted(ids[(e*3+i*5)%pages], nil, func([]byte) {}); err != nil {
					t.Error(err)
					return
				}
			}
		}(e)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := f.Stats(); st.PhysicalReads < rounds {
		t.Errorf("%d physical reads over %d reads: the one-page buffer was not churned", st.PhysicalReads, st.LogicalReads)
	}
}

// TestReadSliceSurvivesEviction: the slice Read returns is the frame itself,
// and Read marks it never to be recycled, so it keeps its page's bytes after
// the frame is evicted and its buffer slot goes to other pages.
func TestReadSliceSurvivesEviction(t *testing.T) {
	f, ids := filledFile(t, 3, 256, 1)
	got, err := f.Read(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Clone(got)
	for _, id := range []PageID{ids[1], ids[2], ids[1]} {
		if err := f.ReadCounted(id, nil, func([]byte) {}); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the slice Read returned for page %d changed after eviction: now starts %v", ids[0], got[:4])
	}
}

// TestReadCountedMissAllocatesNothing: a miss recycles the frame it evicts,
// so alternating two pages through a one-page buffer allocates no frames.
func TestReadCountedMissAllocatesNothing(t *testing.T) {
	f, ids := filledFile(t, 2, DefaultPageSize, 1)
	i := 1 // ids[1] is the buffered page: start on the other one
	allocs := testing.AllocsPerRun(200, func() {
		i++
		if err := f.ReadCounted(ids[i%2], nil, func([]byte) {}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ReadCounted miss: %v allocations per read, want 0", allocs)
	}
	if st := f.Stats(); st.BufferHits != 0 {
		t.Errorf("%d buffer hits: the reads did not miss", st.BufferHits)
	}
}
