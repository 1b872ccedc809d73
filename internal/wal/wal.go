// Package wal implements the write-ahead log of the durable storage
// backend. A Log is an append-only file of CRC-protected records grouped
// into transactions: any number of page-image and catalog records followed
// by one commit record. A catalog record is opaque here; the database logs
// its whole catalog state with every commit. BatchTx.Delta and Tx.Deltas
// carry it.
//
// Commits reach the disk in groups: AppendGroup writes a whole batch of
// member commits as one WAL transaction — deduplicated page images, every
// member's catalog record in order, one shared commit record — then flushes
// and fsyncs once. This is the group-commit primitive that lets N
// concurrent mutators share one fsync (and one image per hot page). A
// commit is durable exactly when the AppendGroup call that covered it
// returns. The Log is safe for concurrent use: every method serializes on
// an internal mutex, so a committer goroutine can append groups while other
// goroutines read Size.
//
// Recovery is redo-only: Replay scans the log from the start and hands each
// fully committed transaction to the caller, which re-applies the page
// images to the data file and takes the catalog from the last record.
// A torn tail (a partial record, a record whose CRC does not match, or
// records not followed by a commit) is discarded and truncated away.
// Because a group shares one commit record, cutting anywhere inside it
// discards the group whole: recovery always lands on an acknowledgment
// boundary — a prefix of acknowledged groups, never part of an
// unacknowledged one.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"
)

// Record types. Type 2 carried a full superblock image in a retired format;
// Replay treats it like any other unknown type.
const (
	recPage   = 1 // payload: page id (u32) + page image
	recCommit = 3 // payload: transaction sequence number (u64)
	recDelta  = 4 // payload: opaque catalog record
)

// recHeaderSize is type (u8) + payload length (u32) + payload CRC (u32).
const recHeaderSize = 9

// crcTable is the Castagnoli polynomial, hardware-accelerated on amd64/arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a structurally invalid record encountered before the
// last commit; torn tails after the last commit are silently truncated and
// do not produce it.
var ErrCorrupt = errors.New("wal: corrupt record")

// File is the backing file of a Log. *os.File satisfies it; tests inject
// fault-wrapped implementations to kill writes after N operations.
type File interface {
	io.Writer
	io.ReaderAt
	Sync() error
	Truncate(size int64) error
	Close() error
}

// Page is one page image carried by a transaction.
type Page struct {
	ID   uint32
	Data []byte
}

// Tx is one committed transaction — a whole fsync group — as seen by
// Replay. A group written by AppendGroup carries the page images of all its
// member commits (deduplicated: one image per page) and their catalog
// records in commit order; Seq is the sequence number of the group's last
// member.
type Tx struct {
	Seq    uint64
	Pages  []Page
	Deltas [][]byte // the catalog records of the group's commits, in order
	// End is the byte offset just past this transaction's commit record —
	// the crash-cut boundary at which replaying a prefix of the log
	// recovers exactly the transactions up to and including this one.
	End int64
}

// BatchTx is one member commit of a group append: its commit sequence
// number plus the records it carries. Delta, the commit's catalog record, is
// optional.
type BatchTx struct {
	Seq   uint64
	Pages []Page
	Delta []byte
}

// Log is an append-only write-ahead log. Appends are buffered; AppendGroup
// flushes and fsyncs. All methods are safe for concurrent use.
type Log struct {
	mu   sync.Mutex
	f    File
	w    *bufio.Writer
	size int64 // bytes durably part of the log (after last successful commit)
	tail int64 // bytes appended past size but not yet committed
	// onSync, when set, observes the latency of each commit-path fsync
	// syscall (the f.Sync inside sync; Reset's truncation sync is not a
	// commit and is not reported).
	onSync func(time.Duration)
}

// SetSyncHook installs a callback observing each commit fsync's syscall
// latency. Call before any append; the hook runs with the log's mutex held
// and must be fast and non-blocking (a histogram observation).
func (l *Log) SetSyncHook(fn func(time.Duration)) {
	l.mu.Lock()
	l.onSync = fn
	l.mu.Unlock()
}

// Open opens (creating if missing) the log file at path. The file is opened
// in append mode, positioned after any existing content; call Replay before
// appending to recover and drop a torn tail.
func Open(path string) (*Log, error) {
	f, size, err := OpenOSFile(path)
	if err != nil {
		return nil, err
	}
	return NewLog(f, size), nil
}

// OpenOSFile opens the log's backing *os.File and returns it with its
// current size, for callers that wrap the file before handing it to NewLog.
func OpenOSFile(path string) (File, int64, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, st.Size(), nil
}

// NewLog wraps an already-open backing file whose current length is size.
func NewLog(f File, size int64) *Log {
	return &Log{f: f, w: bufio.NewWriterSize(f, 64*1024), size: size}
}

// Size returns the durable length of the log in bytes — the write position
// after the last successful commit. Checkpoints reset it to zero.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// appendRecord buffers one record. Callers hold l.mu.
func (l *Log) appendRecord(typ byte, payload []byte) error {
	var hdr [recHeaderSize]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[5:9], crc32.Checksum(payload, crcTable))
	if _, err := l.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := l.w.Write(payload); err != nil {
		return err
	}
	l.tail += int64(recHeaderSize + len(payload))
	return nil
}

// appendPageRecord buffers a page record without assembling the id+image
// payload in a temporary buffer: the CRC is computed incrementally over the
// id prefix and the page image. Callers hold l.mu.
func (l *Log) appendPageRecord(id uint32, data []byte) error {
	var idb [4]byte
	binary.LittleEndian.PutUint32(idb[:], id)
	crc := crc32.Update(crc32.Checksum(idb[:], crcTable), crcTable, data)
	var hdr [recHeaderSize]byte
	hdr[0] = recPage
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(4+len(data)))
	binary.LittleEndian.PutUint32(hdr[5:9], crc)
	if _, err := l.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := l.w.Write(idb[:]); err != nil {
		return err
	}
	if _, err := l.w.Write(data); err != nil {
		return err
	}
	l.tail += int64(recHeaderSize + 4 + len(data))
	return nil
}

// sync flushes the buffered records and fsyncs; on success every buffered
// transaction becomes durable at once. Callers hold l.mu.
func (l *Log) sync() error {
	if err := l.w.Flush(); err != nil {
		return err
	}
	start := time.Now()
	err := l.f.Sync()
	if l.onSync != nil {
		l.onSync(time.Since(start))
	}
	if err != nil {
		return err
	}
	l.size += l.tail
	l.tail = 0
	return nil
}

// AppendGroup writes a batch of commits as one WAL transaction — the
// group-commit primitive — then flushes and fsyncs once. The group shares
// a single commit record (carrying the last member's sequence number), so
// recovery treats it as all-or-nothing: a torn group is discarded whole,
// which is exactly the acknowledgment boundary, since no member commit is
// acknowledged before the shared fsync returns.
//
// Sharing one commit record is also what makes page deduplication sound:
// when several member commits write the same page — adjacent R-tree
// inserts hitting the same leaf and root — only the last image needs to be
// logged, because no recovery can stop between members. Under contended
// churn this cuts the WAL write volume several-fold, on top of sharing
// the fsync.
//
// When AppendGroup returns nil, every member commit is durable; on error
// none of them is acknowledged and the log must be considered broken (the
// tail past the last good commit is dropped by Replay on the next open).
func (l *Log) AppendGroup(txs []BatchTx) error {
	if len(txs) == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	// Deduplicate page images across the group, keeping the last version
	// of each page and writing them in first-touched order (stable and
	// deterministic for a given group).
	type slot struct {
		order int
		data  []byte
	}
	last := make(map[uint32]slot)
	order := 0
	for _, tx := range txs {
		for _, p := range tx.Pages {
			if s, ok := last[p.ID]; ok {
				s.data = p.Data
				last[p.ID] = s
				continue
			}
			last[p.ID] = slot{order: order, data: p.Data}
			order++
		}
	}
	pages := make([]Page, order)
	for id, s := range last {
		pages[s.order] = Page{ID: id, Data: s.data}
	}
	for _, p := range pages {
		if err := l.appendPageRecord(p.ID, p.Data); err != nil {
			return err
		}
	}
	for _, tx := range txs {
		if tx.Delta != nil {
			if err := l.appendRecord(recDelta, tx.Delta); err != nil {
				return err
			}
		}
	}
	var seq [8]byte
	binary.LittleEndian.PutUint64(seq[:], txs[len(txs)-1].Seq)
	if err := l.appendRecord(recCommit, seq[:]); err != nil {
		return err
	}
	return l.sync()
}

// Replay scans the log from the beginning, invoking fn once per fully
// committed transaction in commit order. It then truncates any torn tail
// (partial or CRC-damaged records, or appended records never committed), so
// the log ends exactly at the last durable commit. An error from fn aborts
// the replay. A multi-commit group is one transaction here: its members
// recover together or not at all, matching their shared acknowledgment.
//
// A torn tail and mid-log corruption are distinguished by what follows the
// damage. A CRC-valid commit record after the break point means the bytes
// before it were durable when that commit's fsync returned — garbage there
// is bit rot inside acknowledged data, and Replay refuses with ErrCorrupt
// rather than silently truncating committed transactions away. Valid
// non-commit records after the break prove nothing: without an intervening
// fsync the kernel may persist later blocks of the in-flight (never
// acknowledged) tail while earlier ones are lost, so that pattern is
// treated as a torn tail and truncated. The residual false positive — the
// in-flight transaction's own commit record persisting out of order while
// an earlier block of it is lost, without fsync having returned — trades a
// conservative refusal for never dropping acknowledged data silently.
func (l *Log) Replay(fn func(Tx) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	end := l.size + l.tail
	r := bufio.NewReaderSize(io.NewSectionReader(l.f, 0, end), 64*1024)
	var (
		off      int64 // bytes consumed so far
		lastGood int64 // end offset of the last commit record
		tx       Tx
	)
	hdr := make([]byte, recHeaderSize)
scan:
	for {
		if _, err := io.ReadFull(r, hdr); err != nil {
			break // clean EOF or torn header: stop at lastGood
		}
		typ := hdr[0]
		n := binary.LittleEndian.Uint32(hdr[1:5])
		crc := binary.LittleEndian.Uint32(hdr[5:9])
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			break
		}
		if crc32.Checksum(payload, crcTable) != crc {
			break
		}
		off += int64(recHeaderSize) + int64(n)
		switch typ {
		case recPage:
			if len(payload) < 4 {
				break scan
			}
			tx.Pages = append(tx.Pages, Page{
				ID:   binary.LittleEndian.Uint32(payload[:4]),
				Data: payload[4:],
			})
		case recDelta:
			tx.Deltas = append(tx.Deltas, payload)
		case recCommit:
			if len(payload) != 8 {
				break scan
			}
			tx.Seq = binary.LittleEndian.Uint64(payload)
			tx.End = off
			if err := fn(tx); err != nil {
				return err
			}
			lastGood = off
			tx = Tx{}
		default:
			break scan
		}
	}
	if lastGood != end {
		if resync, ok := l.findCommitRecordAfter(off, end); ok {
			return fmt.Errorf("%w: unreadable bytes at offset %d but a valid commit record at %d — damage inside committed data, not a torn tail", ErrCorrupt, off, resync)
		}
		if err := l.f.Truncate(lastGood); err != nil {
			return fmt.Errorf("wal: truncating torn tail: %w", err)
		}
		if err := l.f.Sync(); err != nil {
			return err
		}
	}
	l.size, l.tail = lastGood, 0
	return nil
}

// findCommitRecordAfter scans [from+1, end) for an offset at which a
// structurally valid, CRC-valid commit record parses — the only record
// type whose presence proves the bytes before it were once durable (see
// Replay). The type-byte and length screens reject almost every candidate
// before a CRC is computed; a random 4-byte CRC collision (2^-32 per
// plausible candidate) is the only false positive.
func (l *Log) findCommitRecordAfter(from, end int64) (int64, bool) {
	const chunk = 64 * 1024
	buf := make([]byte, chunk+recHeaderSize)
	for base := from + 1; base < end; base += chunk {
		n, err := l.f.ReadAt(buf[:min(int64(len(buf)), end-base)], base)
		if n == 0 && err != nil {
			return 0, false
		}
		for i := 0; i < n && i < chunk; i++ {
			pos := base + int64(i)
			if pos+recHeaderSize > end || i+recHeaderSize > n {
				return 0, false
			}
			if buf[i] != recCommit {
				continue
			}
			plen := int64(binary.LittleEndian.Uint32(buf[i+1 : i+5]))
			if plen != 8 || pos+recHeaderSize+plen > end {
				continue
			}
			want := binary.LittleEndian.Uint32(buf[i+5 : i+9])
			payload := make([]byte, plen)
			if _, err := io.ReadFull(io.NewSectionReader(l.f, pos+recHeaderSize, plen), payload); err != nil {
				continue
			}
			if crc32.Checksum(payload, crcTable) == want {
				return pos, true
			}
		}
	}
	return 0, false
}

// Reset truncates the log to empty and fsyncs — the checkpoint step that
// declares every logged transaction applied to the data file.
func (l *Log) Reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.w.Reset(l.f) // drop any uncommitted buffered bytes
	if err := l.f.Truncate(0); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.size, l.tail = 0, 0
	return nil
}

// Close flushes nothing (uncommitted appends are meant to die) and closes
// the backing file.
func (l *Log) Close() error { return l.f.Close() }
