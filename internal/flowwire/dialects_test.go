package flowwire_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"net/netip"
	"reflect"
	"testing"

	"repro/internal/flow"
	"repro/internal/flowwire"
	"repro/internal/ipfix"
	"repro/internal/netflow"
	"repro/internal/simtime"
)

func records(n int) []flow.Record {
	recs := make([]flow.Record, n)
	for i := range recs {
		recs[i] = flow.Record{
			Key: flow.Key{
				Src:     netip.AddrFrom4([4]byte{100, 64, byte(i >> 8), byte(i)}),
				Dst:     netip.AddrFrom4([4]byte{185, byte(i * 7), 2, byte(i >> 3)}),
				SrcPort: uint16(40000 + i),
				DstPort: uint16(443 + i%3),
				Proto:   flow.ProtoTCP + flow.Proto(i%2)*11,
			},
			Packets:  uint64(i)*0x10001 + 1,
			Bytes:    uint64(i+1) << (i % 40), // some exceed 32 bits: the wire saturates
			TCPFlags: uint8(i),
			Hour:     simtime.Hour(437000 + i/100),
		}
	}
	return recs
}

// TestGoldenWireBytes pins the exporters' output bit for bit, across
// the default template refresh at message 20. The digests were taken
// from the two separate exporters this package replaced; bench/
// patches sequence numbers into pre-encoded messages at fixed offsets
// and counts on a template in every 20th message, so a byte that
// moves here breaks the benchmark's oracle.
func TestGoldenWireBytes(t *testing.T) {
	for _, tc := range []struct {
		name           string
		exp            func() *flowwire.Exporter
		export, append string
	}{
		{"netflow", func() *flowwire.Exporter { return netflow.NewExporter(7) },
			"963a2f4959cca17929b85511dc7b3a6b0108ada97d19278f005db2c1f32a3fd3", "290913ed55451f55ffa2eff4a8f56ad2f2f70900b8385c29d22dae974c26117b"},
		{"ipfix", func() *flowwire.Exporter { return ipfix.NewExporter(7) },
			"f3b27d7ec4586c2a5db994cdce794b013a5a36b5c17664e05d194769443cb716", "ec0ae6d9c3a365dc32ef82f1e7661fbdad2d778df5e604bab3bf9ed1992ced0d"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			recs := records(700)

			msgs, err := tc.exp().Export(recs, 30)
			if err != nil {
				t.Fatal(err)
			}
			if len(msgs) != 24 {
				t.Fatalf("Export produced %d messages, want 24", len(msgs))
			}
			h := sha256.New()
			for _, m := range msgs {
				h.Write(m)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.export {
				t.Errorf("Export digest %s, want %s", got, tc.export)
			}

			// One growing slab, never reset, as bench's ring encoder
			// drives it: per-message fields are relative to the append
			// offset, not to the start of the buffer.
			e := tc.exp()
			var slab []byte
			for i := 0; len(recs) > 0; i++ {
				var n int
				if slab, n, err = e.AppendMessage(slab, recs, 4+i%27); err != nil {
					t.Fatal(err)
				}
				recs = recs[n:]
			}
			sum := sha256.Sum256(slab)
			if got := hex.EncodeToString(sum[:]); got != tc.append {
				t.Errorf("AppendMessage digest %s, want %s", got, tc.append)
			}
		})
	}
}

// TestDialectsDecodeAlike sends the same records through both
// exporters and both decoders under the same loss pattern: the decoded
// records, the template drops and the sequence gaps must be identical.
// Only the framing differs between the dialects, never the outcome.
func TestDialectsDecodeAlike(t *testing.T) {
	type outcome struct {
		Recs          []flow.Record
		Dropped, Gaps uint64
	}
	run := func(exp *flowwire.Exporter, col *flowwire.Collector) outcome {
		var out outcome
		msgs, err := exp.Export(records(700), 13)
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range msgs {
			// Lose the first template (messages 0-2), a data-only run,
			// and the refresh at 40; a collector that anchors or counts
			// differently per dialect shows up in Dropped or Gaps.
			if i < 3 || i == 9 || i == 10 || i == 40 || i == 47 {
				continue
			}
			recs, err := col.Feed(m)
			if err != nil {
				t.Fatalf("message %d: %v", i, err)
			}
			out.Recs = append(out.Recs, recs...)
		}
		out.Dropped, out.Gaps = col.Dropped.Load(), col.Gaps.Load()
		return out
	}
	nf := run(netflow.NewExporter(7), netflow.NewCollector())
	ix := run(ipfix.NewExporter(7), ipfix.NewCollector())
	if nf.Dropped == 0 || nf.Gaps == 0 || len(nf.Recs) == 0 {
		t.Fatalf("loss pattern exercised nothing: %d records, %d dropped, %d gaps", len(nf.Recs), nf.Dropped, nf.Gaps)
	}
	if nf.Dropped != ix.Dropped || nf.Gaps != ix.Gaps {
		t.Errorf("netflow dropped %d / gaps %d, ipfix dropped %d / gaps %d", nf.Dropped, nf.Gaps, ix.Dropped, ix.Gaps)
	}
	if !reflect.DeepEqual(nf.Recs, ix.Recs) {
		t.Errorf("decoded records differ: netflow %d records, ipfix %d", len(nf.Recs), len(ix.Recs))
	}
}

// TestZeroLengthTemplateRejected pins the one behaviour the two
// decoders used to disagree on. A template whose fields sum to zero
// bytes cannot cut a data set into records: it is rejected when it
// arrives and counted in Dropped, it withdraws any layout cached under
// its ID, its data sets are then dropped for lack of a template like
// any other, and — as for any untemplated set — the message does not
// anchor sequence tracking. It is never an error.
func TestZeroLengthTemplateRejected(t *testing.T) {
	for _, d := range []*flowwire.Dialect{&netflow.Dialect, &ipfix.Dialect} {
		t.Run(d.Name, func(t *testing.T) {
			exp := flowwire.NewExporter(d, 9)
			exp.TemplateEvery = 0
			first, err := exp.Export(records(5), 30) // seq 0, announces the canonical template
			if err != nil {
				t.Fatal(err)
			}
			dataOnly, err := exp.Export(records(5), 30)
			if err != nil {
				t.Fatal(err)
			}

			// From the same source, far ahead in sequence: the canonical
			// template's ID re-announced as one zero-length field, then a
			// data set that uses it.
			be16 := binary.BigEndian.AppendUint16
			zero := make([]byte, d.HeaderLen)
			for _, v := range []uint16{d.TemplateSetID, 12, d.Template.ID, 1, flowwire.FieldInPkts, 0} {
				zero = be16(zero, v)
			}
			zero = append(be16(be16(zero, d.Template.ID), 8), 1, 2, 3, 4)
			d.PutHeader(zero, flowwire.Header{ExportTime: 7200, Seq: 5000, Source: 9}, 2)

			col := flowwire.NewCollector(d)
			if _, err := col.Feed(first[0]); err != nil {
				t.Fatal(err)
			}
			recs, err := col.Feed(zero)
			if err != nil || len(recs) != 0 {
				t.Fatalf("zero-length template: %d records, err %v; want none, nil", len(recs), err)
			}
			if got := col.Dropped.Load(); got != 2 {
				t.Fatalf("Dropped = %d, want 2 (the template and its data set)", got)
			}
			// The cached layout is gone, and the sequence jump was not
			// trusted: the in-order message after it is no gap.
			recs, err = col.Feed(dataOnly[0])
			if err != nil || len(recs) != 0 || col.Dropped.Load() != 3 {
				t.Fatalf("after withdrawal: %d records, err %v, Dropped %d; want 0, nil, 3", len(recs), err, col.Dropped.Load())
			}
			if got := col.Gaps.Load(); got != 0 {
				t.Fatalf("Gaps = %d, want 0", got)
			}
		})
	}
}
