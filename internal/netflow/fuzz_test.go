package netflow

import (
	"testing"
	"testing/quick"

	"repro/internal/flow"
	"repro/internal/flowwire/wireref"
	"repro/internal/simrand"
)

// Collectors parse attacker-controlled bytes (exporters can be spoofed
// over UDP); whatever the input, Feed must return — never panic, never
// over-read — and the template cache must stay consistent.

func TestFeedNeverPanicsOnRandomBytes(t *testing.T) {
	col := NewCollector()
	f := func(data []byte) bool {
		_, _ = col.Feed(data) // errors are fine; panics are not
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestFeedNeverPanicsOnMutatedMessages(t *testing.T) {
	// Start from valid messages and flip bytes: the hard corpus.
	exp := NewExporter(1)
	exp.TemplateEvery = 1
	msgs, err := exp.Export(mkRecords(12, 1000), 30)
	if err != nil {
		t.Fatal(err)
	}
	base := msgs[0]
	rng := simrand.New(99)
	for i := 0; i < 5000; i++ {
		m := append([]byte(nil), base...)
		flips := 1 + rng.Intn(4)
		for j := 0; j < flips; j++ {
			m[rng.Intn(len(m))] ^= byte(1 + rng.Intn(255))
		}
		col := NewCollector()
		recs, _ := col.Feed(m)
		for _, r := range recs {
			// Whatever decodes must still be structurally plausible.
			_ = r.Key.Src
		}
	}
}

// FuzzFeed is the native fuzz target behind the two quick-check tests
// above: whatever bytes arrive, FeedInto must return without
// panicking, decoded records must carry only addresses the Detector
// feed path can handle (4-byte or invalid — never a mis-sized Addr),
// and the codec, decoding into a reused arena, must agree with the
// naive reference decoder in wireref record for record, with the same
// error disposition.
func FuzzFeed(f *testing.F) {
	exp := NewExporter(1)
	exp.TemplateEvery = 1
	msgs, err := exp.Export(mkRecords(12, 1000), 30)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(msgs[0])
	f.Add([]byte{})
	f.Add([]byte{0, 9, 0, 1})
	// A template whose source-address field is 2 bytes wide, followed
	// by a matching data FlowSet: decodes to records with an invalid
	// Src, the case that used to panic the Detector.
	short := make([]byte, 0, 64)
	short = append(short, 0, 9, 0, 2)                                     // version 9, count 2
	short = append(short, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 7) // uptime, secs, seq, source
	short = append(short, 0, 0, 0, 12, 1, 0, 0, 1, 0, 8, 0, 2)            // template 256: srcaddr len 2
	short = append(short, 1, 0, 0, 6, 10, 1)                              // data set, one 2-byte record
	f.Add(short)
	ref := wireref.Format{Version: 9, HeaderLen: 20, TimeAt: 8, TemplateSet: 0}
	arena := flow.NewBatch(64) // reused across inputs: stale state must never leak
	f.Fuzz(func(t *testing.T, data []byte) {
		arena.Reset()
		err := NewCollector().FeedInto(data, arena)
		got := arena.Records()
		for i := range got {
			if a := got[i].Key.Src; a.IsValid() && !a.Is4() {
				t.Fatalf("decoded non-IPv4 source %v", a)
			}
		}
		want, ok := wireref.Decode(ref, data)
		if ok != (err == nil) {
			t.Fatalf("FeedInto err=%v, reference well-formed=%v", err, ok)
		}
		if len(got) != len(want) {
			t.Fatalf("FeedInto decoded %d records, reference %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("record %d: FeedInto %+v, reference %+v", i, got[i], want[i])
			}
		}
	})
}

func TestTemplateWithHugeFieldCount(t *testing.T) {
	// A malicious template claiming 65535 fields must be rejected, not
	// allocate unbounded memory.
	msg := make([]byte, 20+8)
	msg[1] = 9 // version
	msg[20+1] = 0
	msg[20+2], msg[20+3] = 0, 8 // flowset length 8
	// template id 256, field count 65535
	msg[24], msg[25] = 1, 0
	msg[26], msg[27] = 0xff, 0xff
	if _, err := NewCollector().Feed(msg); err == nil {
		t.Log("truncated-template message accepted as no-op (records dropped)")
	}
}
