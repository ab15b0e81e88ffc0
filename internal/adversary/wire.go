package adversary

import (
	"encoding/binary"
	"fmt"
	"net/netip"

	"repro/internal/detect"
	"repro/internal/flow"
	"repro/internal/flowwire"
	"repro/internal/ipfix"
	"repro/internal/isp"
	"repro/internal/netflow"
	"repro/internal/pipeline"
	"repro/internal/sampling"
	"repro/internal/simrand"
	"repro/internal/simtime"
)

// ScenarioExporter's wire trial: the population's (sampled) emissions
// become real flow records, the records are encoded as NetFlow v9 and
// IPFIX messages by misbehaving exporters, and detections come from
// decoding those bytes through the collector codecs into the sharded
// pipeline — the same decode path `haystack listen` runs behind its
// sockets.
//
// Two kinds of misbehavior are injected:
//
//   - template churn: the exporter "restarts" every RestartEveryHours,
//     switching to a fresh source/domain ID whose first message — the
//     template announcement — is lost. Every data set until the new
//     exporter's next template refresh is undecodable and counted by
//     the collectors' Dropped counters; its records are gone.
//   - sequence lies: every SeqLieEvery-th delivered message has its
//     header sequence number rewritten. The collectors count the
//     mismatches (Gaps) but still decode the records — detection
//     quality must not depend on exporter sequence honesty.

// wireMaxRecords is the per-message record cap for wire trials: small
// enough that a lost template costs several messages of evidence.
const wireMaxRecords = 25

// wireStream is one misbehaving export stream (one protocol): an
// exporter and a collector of the same dialect.
type wireStream struct {
	d             *flowwire.Dialect
	coll          *flowwire.Collector
	templateEvery int

	exp          *flowwire.Exporter
	srcID        uint32
	buf          []flow.Record
	delivered    int  // messages actually fed to the collector
	withholdNext bool // lose the next message (template announcement)
}

func newWireStream(d *flowwire.Dialect, srcID uint32, templateEvery int) *wireStream {
	s := &wireStream{d: d, coll: flowwire.NewCollector(d), templateEvery: templateEvery, srcID: srcID}
	s.exp = s.newExporter()
	return s
}

func (s *wireStream) newExporter() *flowwire.Exporter {
	e := flowwire.NewExporter(s.d, s.srcID)
	e.TemplateEvery = s.templateEvery
	return e
}

// restart simulates an exporter crash/upgrade: fresh ID, fresh
// sequence space, and a lost template announcement.
func (s *wireStream) restart() {
	s.srcID++
	s.exp = s.newExporter()
	s.withholdNext = true
}

// flush encodes and delivers the hour's buffered records, applying the
// stream's misbehavior, and returns the decoded records.
func (s *wireStream) flush(cfg *ExperimentConfig, out []flow.Record) ([]flow.Record, error) {
	if len(s.buf) == 0 {
		return out, nil
	}
	msgs, err := s.exp.Export(s.buf, wireMaxRecords)
	if err != nil {
		return out, fmt.Errorf("adversary: wire export: %w", err)
	}
	s.buf = s.buf[:0]
	for _, msg := range msgs {
		if s.withholdNext {
			// The restart's first message carries the template; losing
			// it orphans every data set until the next refresh.
			s.withholdNext = false
			continue
		}
		s.delivered++
		if s.delivered%cfg.SeqLieEvery == 0 {
			lieSequence(msg, s.d.SeqOffset)
		}
		recs, err := s.coll.Feed(msg)
		if err != nil {
			return out, fmt.Errorf("adversary: wire decode: %w", err)
		}
		out = append(out, recs...)
	}
	return out, nil
}

// lieSequence rewrites the header sequence field in place.
func lieSequence(msg []byte, offset int) {
	seq := binary.BigEndian.Uint32(msg[offset : offset+4])
	binary.BigEndian.PutUint32(msg[offset:offset+4], seq+1009)
}

// runWireTrial drives one ScenarioExporter trial.
func (r *Runner) runWireTrial(cfg ExperimentConfig, rng *simrand.RNG, pop *isp.Population,
	pipe *pipeline.Pipeline, window simtime.Window) (*trialDrive, error) {

	drive := &trialDrive{subLine: map[detect.SubID]int32{}}
	prod := pipe.NewProducer()
	salt := rng.Fork("wire-salt").Uint64()
	thinRng := rng.Fork("thin")

	// Subscriber lines are partitioned across the two protocol streams
	// by parity, like a deployment splitting its exporter fleet.
	nf := newWireStream(&netflow.Dialect, 100, cfg.TemplateEvery)
	ix := newWireStream(&ipfix.Dialect, 200, cfg.TemplateEvery)

	hourIdx := 0
	var decoded []flow.Record
	var wireErr error
	window.Each(func(h simtime.Hour) {
		if wireErr != nil {
			return
		}
		resolver := r.lab.W.ResolverOn(h.Day())
		pop.SimulateHour(h, resolver, func(line int32, _ detect.SubID, h simtime.Hour, ip netip.Addr, port uint16, pkts uint64) {
			// The border router samples before export; the record is
			// what the wire carries.
			pkts = sampling.Thin(thinRng, pkts, cfg.Sampling)
			if pkts == 0 {
				return
			}
			rec := flow.Record{
				Key: flow.Key{
					Src:     lineAddr(line),
					Dst:     ip,
					SrcPort: uint16(49152 + uint32(line)%16000),
					DstPort: port,
					Proto:   flow.ProtoTCP,
				},
				Packets: pkts,
				Bytes:   pkts * 512,
				Hour:    h,
			}
			s := nf
			if line%2 == 1 {
				s = ix
			}
			s.buf = append(s.buf, rec)
		})
		// Hour boundary: restart misbehavior fires first, then both
		// streams flush. Messages never mix hours, so decoded record
		// hours are exact.
		if hourIdx > 0 && hourIdx%cfg.RestartEveryHours == 0 {
			nf.restart()
			ix.restart()
		}
		hourIdx++
		decoded = decoded[:0]
		for _, s := range []*wireStream{nf, ix} {
			if decoded, wireErr = s.flush(&cfg, decoded); wireErr != nil {
				return
			}
		}
		for i := range decoded {
			rec := &decoded[i]
			line, ok := lineFromAddr(rec.Key.Src)
			if !ok {
				continue
			}
			sub := detect.SubID(simrand.Mix64(salt ^ uint64(line)<<20))
			drive.subLine[sub] = line
			prod.Observe(sub, rec.Hour, rec.Key.Dst, rec.Key.DstPort, rec.Packets)
		}
	})
	prod.Close()
	if wireErr != nil {
		return nil, wireErr
	}
	drive.templateDrops = nf.coll.Dropped.Load() + ix.coll.Dropped.Load()
	drive.sequenceGaps = nf.coll.Gaps.Load() + ix.coll.Gaps.Load()
	return drive, nil
}

// lineAddr maps a subscriber line to its 10.0.0.0/8 source address.
func lineAddr(line int32) netip.Addr {
	return netip.AddrFrom4([4]byte{10, byte(line >> 16), byte(line >> 8), byte(line)})
}

// lineFromAddr inverts lineAddr.
func lineFromAddr(a netip.Addr) (int32, bool) {
	if !a.Is4() {
		return 0, false
	}
	b := a.As4()
	if b[0] != 10 {
		return 0, false
	}
	return int32(b[1])<<16 | int32(b[2])<<8 | int32(b[3]), true
}
