package eventlog

// Append-throughput benchmarks for the durable log — the numbers the
// fsync-policy guidance in docs/OPERATIONS.md is based on, and a
// BENCH_*.json trajectory point. The event record is the hot path
// (one per first-fire); markers are one per window and amortize away.
//
// Run: go test -run '^$' -bench BenchmarkAppend -benchmem ./internal/eventlog

import (
	"fmt"
	"testing"
	"time"
)

func BenchmarkAppend(b *testing.B) {
	for _, pol := range []FsyncPolicy{FsyncWindow, FsyncTimer, FsyncEvent} {
		b.Run("fsync_"+pol.String(), func(b *testing.B) {
			l, err := Open(Options{Dir: b.TempDir(), Fsync: pol})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			rec := Record{Type: TypeEvent, Event: Event{
				Subscriber: 0x0123456789abcdef,
				Rule:       "Meross Dooropener",
				Level:      "Man.",
				First:      time.Date(2019, time.November, 15, 9, 0, 0, 0, time.UTC),
				Window:     3,
			}}
			var bytes int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec.Event.Subscriber = uint64(i)
				off, err := l.Append(&rec)
				if err != nil {
					b.Fatal(err)
				}
				_ = off
			}
			b.StopTimer()
			bytes = l.Stats().Bytes
			b.SetBytes(bytes / int64(b.N))
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
}

// BenchmarkReadAt measures sequential replay speed over a populated
// log — the startup-cost side of the crash-replay tradeoff.
func BenchmarkReadAt(b *testing.B) {
	const records = 100_000
	l, err := Open(Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	rec := Record{Type: TypeEvent, Event: Event{
		Rule: "Meross Dooropener", Level: "Man.",
		First: time.Date(2019, time.November, 15, 9, 0, 0, 0, time.UTC),
	}}
	for i := 0; i < records; i++ {
		rec.Event.Subscriber = uint64(i)
		if _, err := l.Append(&rec); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if _, err := l.ReadAt(0, func(_ uint64, _ Record) bool { n++; return true }); err != nil {
			b.Fatal(err)
		}
		if n != records {
			b.Fatal(fmt.Errorf("read %d records, want %d", n, records))
		}
	}
	b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkReadAtTail prices one poll of a tail consumer that is
// nearly caught up: the newest 8 records, most of them at the end of a
// full 256 KiB segment. The poll scans that segment from its start, so
// what it costs beyond the 8 records is skipping the rest.
func BenchmarkReadAtTail(b *testing.B) {
	l, err := Open(Options{Dir: b.TempDir(), SegmentBytes: 256 << 10})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	rec := Record{Type: TypeEvent, Event: Event{
		Rule: "Meross Dooropener", Level: "Man.",
		First: time.Date(2019, time.November, 15, 9, 0, 0, 0, time.UTC),
	}}
	for i := 0; l.Stats().Segments < 2; i++ {
		rec.Event.Subscriber = uint64(i)
		if _, err := l.Append(&rec); err != nil {
			b.Fatal(err)
		}
	}
	from := l.NextOffset() - 8
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.ReadAt(from, func(uint64, Record) bool { return true }); err != nil {
			b.Fatal(err)
		}
	}
}
