// Package eventlog is the durable detection event log: a partitioned,
// segmented, append-only on-disk log for detection events and window
// boundaries, with Kafka-style semantics scaled to one node.
//
//   - Records are framed with a fixed-width length + CRC32C header
//     (record.go) and addressed by a dense logical offset (0, 1, 2, …).
//   - The log is a directory of segment files named by the offset of
//     their first record (00000000000000000000.seg, …); appends go to
//     the last ("active") segment, which rotates by size and age.
//   - Retention deletes whole oldest segments once the log exceeds a
//     byte or age budget; readers observe the purge as an advanced
//     OldestOffset, never as a half-deleted segment.
//   - Open recovers from a crash by scanning the active segment and
//     truncating at the first invalid frame — a torn append or a
//     flipped bit costs the tail of the log, never a panic and never a
//     silent skip past corruption.
//   - Fsync policy is the caller's durability/throughput dial: per
//     record, per window marker, or on a timer.
//
// The root package wires a Log under haystack.Server (a log writer
// subscribing to the detection event stream), replays it to rebuild
// detector window state after a crash, and serves offset-addressed
// tails over HTTP. See DESIGN.md "Durability & replay".
package eventlog

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// FsyncPolicy selects when appended records are forced to stable
// storage.
type FsyncPolicy int

const (
	// FsyncWindow syncs at every window marker (and at rotation and
	// Close): a crash can lose events of the current window only —
	// exactly the window replay rebuilds. The default.
	FsyncWindow FsyncPolicy = iota
	// FsyncEvent syncs after every record: maximum durability, one
	// fsync per detection event.
	FsyncEvent
	// FsyncTimer syncs on a timer (Options.FsyncInterval): bounded
	// data loss at bounded fsync cost, independent of event rate.
	FsyncTimer
)

// String returns the policy's CLI spelling.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncEvent:
		return "event"
	case FsyncTimer:
		return "timer"
	default:
		return "window"
	}
}

// ParseFsyncPolicy parses the CLI spelling of a policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "window":
		return FsyncWindow, nil
	case "event":
		return FsyncEvent, nil
	case "timer":
		return FsyncTimer, nil
	}
	return 0, fmt.Errorf("eventlog: unknown fsync policy %q (want window, event, or timer)", s)
}

// Options configures a Log. The zero value of every field is a usable
// default except Dir, which is required.
type Options struct {
	// Dir is the log directory, created if needed.
	Dir string
	// SegmentBytes rotates the active segment when it would exceed
	// this size (default 64 MiB). Retention granularity is one
	// segment, so smaller segments mean tighter retention enforcement
	// at the cost of more files.
	SegmentBytes int64
	// SegmentAge rotates the active segment when its first record is
	// older than this (0 = size-based rotation only).
	SegmentAge time.Duration
	// RetainBytes deletes oldest closed segments while the log's total
	// size exceeds this (0 = unlimited). The active segment is never
	// deleted.
	RetainBytes int64
	// RetainAge deletes oldest closed segments whose newest record is
	// older than this (0 = unlimited).
	RetainAge time.Duration
	// Fsync is the durability policy; FsyncInterval is the FsyncTimer
	// period (default 1s).
	Fsync         FsyncPolicy
	FsyncInterval time.Duration
}

// DefaultSegmentBytes is the segment rotation size when
// Options.SegmentBytes is zero.
const DefaultSegmentBytes = 64 << 20

// defaultFsyncInterval is the FsyncTimer period when unset.
const defaultFsyncInterval = time.Second

// ErrClosed is returned by operations on a closed Log.
var ErrClosed = errors.New("eventlog: log closed")

// segment is one on-disk segment file. Offsets are dense, so segment
// i holds records [base_i, base_{i+1}).
type segment struct {
	base uint64
	path string
	size int64 // bytes of complete frames (the active segment grows)
}

// Log is an open event log. All methods are safe for concurrent use;
// reads proceed concurrently with appends.
type Log struct {
	opts Options

	mu      sync.Mutex
	segs    []segment // ascending by base; the last is active
	active  *os.File
	actBorn time.Time // active segment creation (age rotation)
	next    uint64    // offset of the next appended record
	dirty   bool      // unsynced appends on the active segment
	closed  bool
	waiters int
	notify  chan struct{} // haystack:unbounded close-only append signal, replaced per append
	buf     []byte        // append scratch

	done        chan struct{} // haystack:unbounded close-only FsyncTimer stop signal
	timerExited chan struct{} // haystack:unbounded close-only FsyncTimer exit acknowledgement

	appended      atomic.Uint64
	syncs         atomic.Uint64
	truncatedByte atomic.Int64
	retainSegs    atomic.Uint64
	retainRecs    atomic.Uint64
}

// segName formats a segment file name: the 20-digit zero-padded base
// offset (20 digits hold any uint64, so lexicographic order is offset
// order), extension .seg.
func segName(base uint64) string { return fmt.Sprintf("%020d.seg", base) }

// parseSegName inverts segName.
func parseSegName(name string) (uint64, bool) {
	s, ok := strings.CutSuffix(name, ".seg")
	if !ok || len(s) != 20 {
		return 0, false
	}
	base, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, false
	}
	return base, true
}

// Open opens (creating if needed) the log in opts.Dir and recovers it
// to a consistent state: the active segment is scanned and truncated
// at the first torn or corrupt frame, so the next append lands on a
// valid record boundary. Recovered losses are reported in
// Stats.RecoveryTruncatedBytes, never as an error — a torn tail is
// the expected crash artifact, not a failure.
func Open(opts Options) (*Log, error) {
	if opts.Dir == "" {
		return nil, errors.New("eventlog: Options.Dir is required")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.FsyncInterval <= 0 {
		opts.FsyncInterval = defaultFsyncInterval
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("eventlog: %w", err)
	}
	l := &Log{opts: opts, notify: make(chan struct{})} // haystack:unbounded close-only append-notification edge; never carries data

	segs, err := listSegments(opts.Dir)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		segs = []segment{{base: 0, path: filepath.Join(opts.Dir, segName(0))}}
		f, err := os.OpenFile(segs[0].path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err != nil {
			return nil, fmt.Errorf("eventlog: %w", err)
		}
		if err := syncDir(opts.Dir); err != nil {
			f.Close()
			return nil, fmt.Errorf("eventlog: %w", err)
		}
		l.segs, l.active, l.next = segs, f, 0
		l.actBorn = time.Now()
	} else {
		last := &segs[len(segs)-1]
		count, valid, err := recoverSegment(last.path)
		if err != nil {
			return nil, err
		}
		f, err := os.OpenFile(last.path, os.O_RDWR, 0)
		if err != nil {
			return nil, fmt.Errorf("eventlog: %w", err)
		}
		if lost := last.size - valid; lost > 0 {
			if err := f.Truncate(valid); err != nil {
				f.Close()
				return nil, fmt.Errorf("eventlog: truncating torn tail: %w", err)
			}
			if err := f.Sync(); err != nil {
				f.Close()
				return nil, fmt.Errorf("eventlog: %w", err)
			}
			l.truncatedByte.Store(lost)
			last.size = valid
		}
		if _, err := f.Seek(valid, io.SeekStart); err != nil {
			f.Close()
			return nil, fmt.Errorf("eventlog: %w", err)
		}
		l.segs, l.active, l.next = segs, f, last.base+count
		if st, err := f.Stat(); err == nil {
			l.actBorn = st.ModTime()
		} else {
			l.actBorn = time.Now()
		}
	}

	if opts.Fsync == FsyncTimer {
		l.done = make(chan struct{})        // haystack:unbounded close-only shutdown signal for the sync timer
		l.timerExited = make(chan struct{}) // haystack:unbounded close-only timer-exit acknowledgement
		go l.syncLoop()
	}
	return l, nil
}

// listSegments returns the directory's segment files ascending by
// base offset, sizes from stat.
func listSegments(dir string) ([]segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("eventlog: %w", err)
	}
	var segs []segment
	for _, e := range entries {
		base, ok := parseSegName(e.Name())
		if !ok {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return nil, fmt.Errorf("eventlog: %w", err)
		}
		segs = append(segs, segment{base: base, path: filepath.Join(dir, e.Name()), size: info.Size()})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].base < segs[j].base })
	return segs, nil
}

// recoverSegment scans a segment from the front, fully decoding every
// frame, and returns the number of valid records and the byte size of
// the valid prefix. The scan stops cleanly at the first torn or
// corrupt frame; everything after it is unreachable (frames are
// length-prefixed, so there is no resynchronization point) and will
// be truncated by the caller.
func recoverSegment(path string) (count uint64, valid int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, fmt.Errorf("eventlog: %w", err)
	}
	defer f.Close()
	sc := newFrameScanner(f, -1)
	var rec Record
	for {
		payload, err := sc.next()
		if err != nil {
			// io.EOF is the clean end; anything else (torn frame, CRC
			// mismatch, oversized length) ends the valid prefix here.
			return count, valid, nil
		}
		if decodeRecord(payload, &rec) != nil {
			return count, valid, nil
		}
		count++
		valid = sc.consumed
	}
}

// frameScanner reads frames off a segment file. limit bounds the
// bytes it may consume (-1 = to EOF); the Log passes the active
// segment's complete-frame size so concurrent reads never see a
// half-written frame.
type frameScanner struct {
	r        *bufio.Reader
	limit    int64
	consumed int64
	buf      []byte
	// hdr is reused per frame: a local array would escape through
	// io.ReadFull and cost an allocation per frame.
	hdr [frameHeaderLen]byte
}

func newFrameScanner(r io.Reader, limit int64) *frameScanner {
	return &frameScanner{r: bufio.NewReaderSize(r, 64<<10), limit: limit}
}

// next returns the next frame's CRC-verified payload, valid until the
// following call. io.EOF marks the clean end of the scan;
// errTruncated a frame cut short; ErrCorrupt a checksum or length
// failure.
func (s *frameScanner) next() ([]byte, error) {
	if s.limit >= 0 && s.consumed >= s.limit {
		return nil, io.EOF
	}
	hdr := &s.hdr
	if _, err := io.ReadFull(s.r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, errTruncated
	}
	ln := binary.BigEndian.Uint32(hdr[0:4])
	if ln > MaxRecordLen {
		return nil, errOversize(ln)
	}
	total := int64(frameHeaderLen) + int64(ln)
	if s.limit >= 0 && s.consumed+total > s.limit {
		return nil, errTruncated
	}
	if cap(s.buf) < int(ln) {
		s.buf = make([]byte, int(ln))
	}
	p := s.buf[:ln]
	if _, err := io.ReadFull(s.r, p); err != nil {
		return nil, errTruncated
	}
	if crc32.Checksum(p, castagnoli) != binary.BigEndian.Uint32(hdr[4:8]) {
		return nil, errChecksum
	}
	s.consumed += total
	return p, nil
}

var errChecksum = fmt.Errorf("%w: checksum mismatch", ErrCorrupt)

func errOversize(ln uint32) error {
	return fmt.Errorf("%w: frame declares %d bytes (max %d)", ErrCorrupt, ln, MaxRecordLen)
}

// Append writes one record and returns its offset. Durability follows
// the fsync policy; ordering and visibility to readers are immediate.
// Safe for concurrent use.
func (l *Log) Append(rec *Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	buf, err := encodeRecord(l.buf[:0], rec)
	if err != nil {
		return 0, err
	}
	l.buf = buf
	if err := l.maybeRotateLocked(); err != nil {
		return 0, err
	}
	act := &l.segs[len(l.segs)-1]
	if _, err := l.active.Write(buf); err != nil {
		// A partial frame may be on disk. Cut back to the last record
		// boundary so a later append cannot bury garbage mid-segment;
		// if even that fails, recovery at next Open does the same.
		l.active.Truncate(act.size)
		l.active.Seek(act.size, io.SeekStart)
		return 0, fmt.Errorf("eventlog: append: %w", err)
	}
	off := l.next
	l.next++
	act.size += int64(len(buf))
	l.dirty = true
	l.appended.Add(1)
	if l.opts.Fsync == FsyncEvent || (l.opts.Fsync == FsyncWindow && rec.Type == TypeWindow) {
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	}
	if l.waiters > 0 {
		close(l.notify)
		l.notify = make(chan struct{}) // haystack:unbounded close-only append-notification edge; never carries data
	}
	return off, nil
}

// maybeRotateLocked closes the active segment and opens a fresh one
// when the active segment is non-empty and over the size or age
// budget, then applies retention. Caller holds l.mu.
func (l *Log) maybeRotateLocked() error {
	act := &l.segs[len(l.segs)-1]
	if act.size == 0 {
		return nil
	}
	over := act.size >= l.opts.SegmentBytes ||
		(l.opts.SegmentAge > 0 && time.Since(l.actBorn) >= l.opts.SegmentAge)
	if !over {
		return nil
	}
	// The closing segment must be durable before it becomes immutable
	// history: rotation is the FsyncWindow/FsyncTimer backstop.
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.active.Close(); err != nil {
		return fmt.Errorf("eventlog: closing segment: %w", err)
	}
	path := filepath.Join(l.opts.Dir, segName(l.next))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("eventlog: new segment: %w", err)
	}
	if err := syncDir(l.opts.Dir); err != nil {
		f.Close()
		return fmt.Errorf("eventlog: %w", err)
	}
	l.active = f
	l.actBorn = time.Now()
	l.segs = append(l.segs, segment{base: l.next, path: path})
	l.applyRetentionLocked()
	return nil
}

// applyRetentionLocked deletes oldest closed segments past the byte
// or age budget. Deletion failures are swallowed (the segment is
// retried at the next rotation); an undeletable file must not stop
// ingest. Caller holds l.mu.
func (l *Log) applyRetentionLocked() {
	for len(l.segs) > 1 {
		var total int64
		for _, s := range l.segs {
			total += s.size
		}
		victim := l.segs[0]
		drop := l.opts.RetainBytes > 0 && total > l.opts.RetainBytes
		if !drop && l.opts.RetainAge > 0 {
			// A closed segment's mtime is its last append — the age of
			// its newest record.
			if st, err := os.Stat(victim.path); err == nil && time.Since(st.ModTime()) > l.opts.RetainAge {
				drop = true
			}
		}
		if !drop {
			return
		}
		if err := os.Remove(victim.path); err != nil {
			return
		}
		l.retainSegs.Add(1)
		l.retainRecs.Add(l.segs[1].base - victim.base)
		l.segs = l.segs[1:]
	}
}

// syncLocked flushes unsynced appends to stable storage. Caller holds
// l.mu.
func (l *Log) syncLocked() error {
	if !l.dirty {
		return nil
	}
	if err := l.active.Sync(); err != nil {
		return fmt.Errorf("eventlog: fsync: %w", err)
	}
	l.dirty = false
	l.syncs.Add(1)
	return nil
}

// Sync forces all appended records to stable storage, regardless of
// policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

// syncLoop is the FsyncTimer goroutine: sync every FsyncInterval
// until Close.
func (l *Log) syncLoop() {
	defer close(l.timerExited)
	t := time.NewTicker(l.opts.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-l.done:
			return
		case <-t.C:
			l.mu.Lock()
			if !l.closed {
				l.syncLocked() // an I/O error here resurfaces on the next Append's sync or at Close
			}
			l.mu.Unlock()
		}
	}
}

// Close syncs and closes the log. Blocked WaitAppend calls return
// ErrClosed; further appends fail.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	close(l.notify)
	l.mu.Unlock()
	if l.done != nil {
		close(l.done)
		<-l.timerExited
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.syncLocked()
	if cerr := l.active.Close(); err == nil {
		err = cerr
	}
	return err
}

// NextOffset returns the offset the next appended record will get —
// one past the newest record.
func (l *Log) NextOffset() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// OldestOffset returns the offset of the oldest retained record.
// Offsets below it were purged by retention.
func (l *Log) OldestOffset() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.segs[0].base
}

// WaitAppend blocks until the log holds a record at offset off (i.e.
// NextOffset > off), the context is done, or the log closes.
func (l *Log) WaitAppend(ctx context.Context, off uint64) error {
	for {
		l.mu.Lock()
		if l.next > off {
			l.mu.Unlock()
			return nil
		}
		if l.closed {
			l.mu.Unlock()
			return ErrClosed
		}
		ch := l.notify
		l.waiters++
		l.mu.Unlock()
		select {
		case <-ctx.Done():
			l.mu.Lock()
			l.waiters--
			l.mu.Unlock()
			return ctx.Err()
		case <-ch:
			l.mu.Lock()
			l.waiters--
			l.mu.Unlock()
		}
	}
}

// ReadAt invokes fn for every record from offset `from` (clamped into
// the retained range) to the newest, in offset order, until fn
// returns false. It returns the offset the next read should start
// from: one past the last record visited, or the clamped start if
// nothing was visited. Reads run concurrently with appends and only
// ever see complete records; a mid-log integrity failure (a bad frame
// anywhere in the scanned segments, or an undecodable record at or
// after from) returns an error wrapping ErrCorrupt, and a segment
// deleted by retention mid-read returns an error wrapping
// os.ErrNotExist (re-read from the new OldestOffset).
func (l *Log) ReadAt(from uint64, fn func(off uint64, rec Record) bool) (uint64, error) {
	l.mu.Lock()
	segs := append([]segment(nil), l.segs...)
	next := l.next
	l.mu.Unlock()
	if from < segs[0].base {
		from = segs[0].base
	}
	if from >= next {
		return from, nil
	}
	// Start at the segment containing `from`: the last one whose base
	// offset does not exceed it.
	i := sort.Search(len(segs), func(i int) bool { return segs[i].base > from }) - 1
	off := segs[i].base
	var rec Record
	for ; i < len(segs); i++ {
		seg := segs[i]
		f, err := os.Open(seg.path)
		if err != nil {
			return off, fmt.Errorf("eventlog: segment purged under reader: %w", err)
		}
		sc := newFrameScanner(f, seg.size)
		for {
			payload, err := sc.next()
			if err == io.EOF {
				break
			}
			// Records before from are only framed and checksummed: a
			// tail consumer polls from near the head, and decoding the
			// whole segment on every poll dominated its cost.
			if err == nil && off >= from {
				err = decodeRecord(payload, &rec)
			}
			if err != nil {
				f.Close()
				return off, fmt.Errorf("eventlog: %s record %d: %w", filepath.Base(seg.path), off-seg.base, err)
			}
			if off >= from && !fn(off, rec) {
				f.Close()
				return off + 1, nil
			}
			off++
		}
		f.Close()
	}
	return off, nil
}

// Stats is the log's slice of the operator metrics surface.
//
// haystack:metrics-struct — every exported field must be filled by a
// haystack:metrics-export function (enforced by haystacklint).
type Stats struct {
	// Segments and Bytes describe the on-disk footprint right now.
	Segments int   `json:"segments"`
	Bytes    int64 `json:"bytes"`
	// OldestOffset and NextOffset bound the retained record range
	// [oldest, next).
	OldestOffset uint64 `json:"oldest_offset"`
	NextOffset   uint64 `json:"next_offset"`
	// AppendedRecords and Syncs count appends and fsyncs since Open.
	AppendedRecords uint64 `json:"appended_records"`
	Syncs           uint64 `json:"syncs"`
	// RecoveryTruncatedBytes is how many torn-tail bytes Open cut off
	// — nonzero exactly when the previous process died mid-append.
	RecoveryTruncatedBytes int64 `json:"recovery_truncated_bytes"`
	// RetentionSegments and RetentionRecords count what retention has
	// deleted since Open.
	RetentionSegments uint64 `json:"retention_segments"`
	RetentionRecords  uint64 `json:"retention_records"`
}

// Stats snapshots the log's health counters. Safe to call at any
// time.
//
// haystack:metrics-export
func (l *Log) Stats() Stats {
	l.mu.Lock()
	st := Stats{
		Segments:     len(l.segs),
		OldestOffset: l.segs[0].base,
		NextOffset:   l.next,
	}
	for _, s := range l.segs {
		st.Bytes += s.size
	}
	l.mu.Unlock()
	st.AppendedRecords = l.appended.Load()
	st.Syncs = l.syncs.Load()
	st.RecoveryTruncatedBytes = l.truncatedByte.Load()
	st.RetentionSegments = l.retainSegs.Load()
	st.RetentionRecords = l.retainRecs.Load()
	return st
}

// syncDir fsyncs a directory so created or deleted segment entries
// survive a crash. Filesystems that cannot sync a directory handle
// are tolerated, exactly as in the export path — the entry operation
// itself has already happened.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	if cerr := d.Close(); serr == nil {
		serr = cerr
	}
	if errors.Is(serr, syscall.EINVAL) || errors.Is(serr, syscall.ENOTSUP) ||
		errors.Is(serr, syscall.EOPNOTSUPP) || errors.Is(serr, syscall.ENOTTY) {
		return nil
	}
	return serr
}
