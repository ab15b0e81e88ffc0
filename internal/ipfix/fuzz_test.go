package ipfix

import (
	"testing"
	"testing/quick"

	"repro/internal/flow"
	"repro/internal/flowwire/wireref"
	"repro/internal/simrand"
)

func TestFeedNeverPanicsOnRandomBytes(t *testing.T) {
	col := NewCollector()
	f := func(data []byte) bool {
		_, _ = col.Feed(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// FuzzFeed is the native fuzz target behind the quick-check tests:
// whatever bytes arrive, FeedInto must return without panicking,
// decoded records must carry only addresses the Detector feed path can
// handle (4-byte or invalid — never a mis-sized Addr), and the codec,
// decoding into a reused arena, must agree with the naive reference
// decoder in wireref record for record, with the same error
// disposition.
func FuzzFeed(f *testing.F) {
	exp := NewExporter(1)
	exp.TemplateEvery = 1
	msgs, err := exp.Export(mkRecords(12, 1000), 30)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(msgs[0])
	f.Add([]byte{})
	f.Add([]byte{0, 10, 0, 16})
	ref := wireref.Format{Version: 10, HeaderLen: 16, TimeAt: 4, HasLength: true, TemplateSet: 2}
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

func TestFeedNeverPanicsOnMutatedMessages(t *testing.T) {
	exp := NewExporter(1)
	exp.TemplateEvery = 1
	msgs, err := exp.Export(mkRecords(12, 1000), 30)
	if err != nil {
		t.Fatal(err)
	}
	base := msgs[0]
	rng := simrand.New(123)
	for i := 0; i < 5000; i++ {
		m := append([]byte(nil), base...)
		flips := 1 + rng.Intn(4)
		for j := 0; j < flips; j++ {
			m[rng.Intn(len(m))] ^= byte(1 + rng.Intn(255))
		}
		col := NewCollector()
		_, _ = col.Feed(m)
	}
}
