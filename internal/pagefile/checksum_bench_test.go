package pagefile

import (
	"path/filepath"
	"testing"
)

// BenchmarkPageIO measures the raw per-page cost of the checksummed page
// format: a write computes a CRC32-Castagnoli over the page and issues one
// pwrite of page+trailer; a read verifies it.
func BenchmarkPageIO(b *testing.B) {
	const pageSize = 4096
	fs, _, _, err := OpenFileStorage(filepath.Join(b.TempDir(), "bench.pf"), pageSize)
	if err != nil {
		b.Fatal(err)
	}
	defer fs.Close()
	const pages = 256
	data := make([]byte, pageSize)
	for i := range data {
		data[i] = byte(i * 31)
	}
	for id := PageID(1); id <= pages; id++ {
		if err := fs.WritePage(id, data); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("op=write", func(b *testing.B) {
		b.SetBytes(pageSize)
		for i := 0; i < b.N; i++ {
			if err := fs.WritePage(PageID(1+i%pages), data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("op=read", func(b *testing.B) {
		b.SetBytes(pageSize)
		dst := make([]byte, pageSize)
		for i := 0; i < b.N; i++ {
			if err := fs.ReadPage(PageID(1+i%pages), dst); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The realistic unit: a checkpoint-style burst of page writes
	// followed by one fsync, which dominates — per-page CRC is CPU noise
	// next to the device flush.
	b.Run("op=writeback64", func(b *testing.B) {
		b.SetBytes(64 * pageSize)
		for i := 0; i < b.N; i++ {
			for j := 0; j < 64; j++ {
				if err := fs.WritePage(PageID(1+(i*64+j)%pages), data); err != nil {
					b.Fatal(err)
				}
			}
			if err := fs.Sync(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
