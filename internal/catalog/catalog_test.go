package catalog

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/pagefile"
)

func TestStateRoundTrip(t *testing.T) {
	in := &State{
		Generation: 42,
		Next:       90,
		PageFree:   []pagefile.PageID{9, 3, 17},
		Obstacles: &ObstacleMeta{
			Tree:       TreeMeta{Root: 2, Height: 3, Size: 2},
			Verts:      TreeMeta{Root: 4, Height: 1, Size: 3},
			IDBound:    7,
			Generation: 5,
		},
		Datasets: []DatasetMeta{
			{Name: "P", Tree: TreeMeta{Root: 5, Height: 2, Size: 1000}, IDBound: 1024},
			{Name: "towers", Tree: TreeMeta{Root: 88, Height: 1, Size: 0}, IDBound: 0},
		},
	}
	out, err := DecodeState(EncodeState(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip:\n in  %+v\n out %+v", in, out)
	}
	// Empty state round-trips too (a freshly created database).
	empty, err := DecodeState(EncodeState(&State{}))
	if err != nil {
		t.Fatal(err)
	}
	if empty.Generation != 0 || empty.Next != 0 || len(empty.PageFree) != 0 || empty.Obstacles != nil || len(empty.Datasets) != 0 {
		t.Fatalf("empty state decoded to %+v", empty)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	state := EncodeState(&State{Generation: 1, Datasets: []DatasetMeta{{Name: "P"}}})
	wrongMagic := append([]byte{}, state...)
	wrongMagic[0] ^= 0xff
	badFlag := EncodeState(&State{Obstacles: &ObstacleMeta{}})
	badFlag[24] = 2 // magic, version, generation, next, free count, then the obstacle flag
	cases := []struct {
		name string
		blob []byte
		dec  func([]byte) error
	}{
		{"state truncated", state[:len(state)-3], func(b []byte) error { _, err := DecodeState(b); return err }},
		{"state trailing", append(append([]byte{}, state...), 0), func(b []byte) error { _, err := DecodeState(b); return err }},
		{"state wrong magic", wrongMagic, func(b []byte) error { _, err := DecodeState(b); return err }},
		{"state obstacle flag", badFlag, func(b []byte) error { _, err := DecodeState(b); return err }},
		{"empty", nil, func(b []byte) error { _, err := DecodeState(b); return err }},
	}
	for _, c := range cases {
		if err := c.dec(c.blob); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", c.name, err)
		}
	}
}

// FuzzDecodeState: recovery decodes the checkpoint blob and every replayed
// commit's record, so DecodeState must survive any bytes. The result is a
// State or an error wrapping ErrCorrupt, never a panic, and a State that
// decodes re-encodes to the bytes it came from.
func FuzzDecodeState(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeState(&State{}))
	f.Add(EncodeState(&State{
		Generation: 3,
		Next:       40,
		PageFree:   []pagefile.PageID{7, 9},
		Obstacles:  &ObstacleMeta{Tree: TreeMeta{Root: 2, Height: 1, Size: 4}, IDBound: 4, Generation: 2},
		Datasets:   []DatasetMeta{{Name: "P", Tree: TreeMeta{Root: 5, Height: 2, Size: 100}, IDBound: 100}},
	}))
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := DecodeState(b)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		if again := EncodeState(s); !bytes.Equal(again, b) {
			t.Fatalf("decoded %+v re-encodes to %x, want %x", s, again, b)
		}
	})
}

func TestBlobChainRoundTrip(t *testing.T) {
	st := pagefile.NewMemStorage(64) // payload 60 bytes per page
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 59, 60, 61, 300, 4096} {
		data := make([]byte, n)
		rng.Read(data)
		pages := make([]pagefile.PageID, BlobPages(64, n))
		for i := range pages {
			var err error
			if pages[i], err = st.Allocate(); err != nil {
				t.Fatal(err)
			}
		}
		ref, err := WriteBlob(st, pages, data)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ReadBlob(st, ref)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("n=%d: blob mismatch", n)
		}
		chain, err := BlobChain(st, ref)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(chain, pages) {
			t.Fatalf("n=%d: chain %v, wrote %v", n, chain, pages)
		}
		for _, id := range chain {
			if err := st.Free(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st.NumPages() != 0 {
		t.Fatalf("leaked %d pages", st.NumPages())
	}
}

func TestBlobOverAllocatedChain(t *testing.T) {
	// The state-blob sizing loop may over-allocate; extra pages are chained
	// in as padding and must read back and free cleanly.
	st := pagefile.NewMemStorage(64)
	data := []byte("short blob")
	pages := make([]pagefile.PageID, 3)
	for i := range pages {
		pages[i], _ = st.Allocate()
	}
	ref, err := WriteBlob(st, pages, data)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReadBlob(st, ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("padded blob mismatch")
	}
	chain, err := BlobChain(st, ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 3 {
		t.Fatalf("chain has %d pages, want all 3 (padding pages must stay linked for freeing)", len(chain))
	}
}

func TestReadBlobDetectsDamage(t *testing.T) {
	st := pagefile.NewMemStorage(64)
	data := bytes.Repeat([]byte("x"), 200)
	pages := make([]pagefile.PageID, BlobPages(64, len(data)))
	for i := range pages {
		pages[i], _ = st.Allocate()
	}
	ref, err := WriteBlob(st, pages, data)
	if err != nil {
		t.Fatal(err)
	}
	// Damage a middle page's payload.
	buf := make([]byte, 64)
	if err := st.ReadPage(pages[1], buf); err != nil {
		t.Fatal(err)
	}
	buf[10] ^= 0xff
	if err := st.WritePage(pages[1], buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBlob(st, ref); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("damaged blob read: %v, want ErrCorrupt", err)
	}
}
