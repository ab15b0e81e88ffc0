package main

// Workload definitions, the seeded record generator, the pre-encoded
// ring, and the reference oracle: a single-goroutine detect.Engine fed
// the same observation sequence the wire carries.

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"time"

	"repro/internal/detect"
	"repro/internal/flow"
	"repro/internal/ipfix"
	"repro/internal/netflow"
	"repro/internal/simrand"
	"repro/internal/simtime"
)

// Open-loop schedules send a micro-burst of spec.burst messages every
// microGap: 16 × 30 records every 480 µs is 1,000,000 records/s. A
// micro-burst, not one datagram every 30 µs, because no generator on a
// shared box hits 30 µs. bursty-fresh-log is on for microPerBurst
// micro-bursts (49.92 ms) of every burstPeriod and silent for the
// rest; the ring workloads' latency laps are paced evenly.
const (
	microGap      = 480 * time.Microsecond
	microPerBurst = 104
	burstPeriod   = 100 * time.Millisecond
	freshEvery    = 20 // 5 % of datagrams carry a never-seen subscriber
	rotateEvery   = time.Second
	// pacedWarmup is the untimed paced run before the first paced
	// trial: two ticks of the fan-in controller and the batch tuner,
	// so the dispatch threshold has settled on the paced rate.
	pacedWarmup = 2200 * time.Millisecond
)

type spec struct {
	name, why string
	ipfix     bool // IPFIX over one TCP connection; otherwise NetFlow v9 over UDP
	exporters int  // disjoint subscriber slices, one sender socket each
	perMsg    int  // records per message
	// ringMsgs is the pre-encoded ring a closed loop replays; for the
	// fresh workload it is how much of the schedule the traced run
	// replays.
	ringMsgs int
	subs     int
	hitShare float64 // share of records aimed at the hitlist
	burst    int     // open loop: messages per micro-burst
	gaps     int     // open loop: a micro-burst every gaps × microGap
	// fresh marks bursty-fresh-log: open loop only, on/off, every
	// datagram encoded on the fly on a schedule that never repeats,
	// event log and export on.
	fresh bool
}

var specs = []spec{
	{
		name:      "isp-haystack-udp",
		why:       "the paper's real mix, 2% of records hit the hitlist: socket read, lane handoff, decode, staging and partition do the work, the engine stays on its miss path",
		exporters: 2, perMsg: 30, ringMsgs: 16384, subs: 200_000, hitShare: 0.02, burst: 4, gaps: 1,
	},
	{
		name:      "needle-dense-udp",
		why:       "100% hits over 500k subscribers: engine hit path and per-subscriber state dominate, so an engine change shows here and a socket or decoder change should not",
		exporters: 2, perMsg: 30, ringMsgs: 32768, subs: 500_000, hitShare: 1, burst: 1, gaps: 4,
	},
	{
		name:  "ixp-small-tcp",
		why:   "IPFIX over one TCP stream at 4 records/message: framing, per-message handoff and decode set-up dominate, so a UDP-only change must not move it",
		ipfix: true, exporters: 1, perMsg: 4, ringMsgs: 65536, subs: 200_000, hitShare: 0.10, burst: 16, gaps: 1,
	},
	{
		name:      "bursty-fresh-log",
		why:       "open loop at 10% of capacity, 50 ms on/off, first-fire events, log appends and 1 s window cuts: batch dwell, stranded batches, fan-out and log lag show, throughput does not",
		exporters: 1, perMsg: 30, ringMsgs: 8192, subs: 200_000, burst: 16, gaps: 1, fresh: true,
	},
}

func findSpec(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// due is when message q of an open-loop run is due, from the run's
// start.
func (sp spec) due(q int) time.Duration {
	m := q / sp.burst
	if !sp.fresh {
		return time.Duration(m*sp.gaps) * microGap
	}
	return time.Duration(m/microPerBurst)*burstPeriod + time.Duration(m%microPerBurst)*microGap
}

// pacedPlan is how many messages the open-loop warm-up and each
// open-loop trial send when the workload measures for the given
// seconds: whole bursts of the fresh workload's schedule for all of
// that time, or a prefix of a ring for probeShare of it.
func (sp spec) pacedPlan(seconds float64) (warm, trial int) {
	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	if sp.fresh {
		perBurst := microPerBurst * sp.burst
		return int(pacedWarmup/burstPeriod) * perBurst, max(1, int(sec(seconds/trials)/burstPeriod)) * perBurst
	}
	gap := time.Duration(sp.gaps) * microGap
	lap := int(sec(seconds*probeShare/probeLaps)/gap) * sp.burst
	return int(pacedWarmup/gap) * sp.burst, min(max(sp.burst, lap), sp.ringMsgs)
}

// evKey identifies one expected detection: the anonymized subscriber
// and the rule's index in the reference dictionary.
type evKey struct {
	sub  uint64
	rule uint16
}

const unknownRule = ^uint16(0)

// ring is a run of pre-encoded messages, replayed again and again:
// message i is slab[off[i]:off[i+1]]. seq holds each exporter's next
// sequence number, shared by every copy of the ring.
type ring struct {
	slab      []byte
	off       []int
	seq       []uint32
	ipfix     bool
	exporters int
	perMsg    int
}

type workload struct {
	spec
	w    *world
	seed uint64
	// ring is pre-encoded; the fresh workload encodes on the fly and
	// its ring holds only the wire format.
	ring ring

	// The oracle. expect maps every (subscriber, rule) the reference
	// engine fired to an index into tips, the message that tipped it.
	// Tips are nondecreasing: OnFire runs in message order.
	expect map[evKey]int32
	tips   []int32
	hits   uint64 // reference observations that matched the hitlist
	obs    uint64
}

// buildWorkload makes the workload's inputs from the seed and computes
// the reference over the ring or, for the fresh workload, over the
// whole schedule a run of the given length sends.
func buildWorkload(w *world, sp spec, seed uint64, seconds float64) (*workload, error) {
	wl := &workload{spec: sp, w: w, seed: seed, expect: map[evKey]int32{},
		ring: ring{ipfix: sp.ipfix, exporters: sp.exporters, perMsg: sp.perMsg}}
	warm, trial := sp.pacedPlan(seconds)
	total := warm + trials*trial
	if !sp.fresh {
		total = sp.ringMsgs
		var err error
		if wl.ring, err = encodeRing(wl, sp.ipfix, sp.ringMsgs); err != nil {
			return nil, err
		}
	}
	eng := detect.New(w.lab.Dict, threshold)
	cur := int32(0)
	eng.OnFire = func(sub detect.SubID, rule int, _ simtime.Hour) {
		wl.expect[evKey{uint64(sub), uint16(rule)}] = int32(len(wl.tips))
		wl.tips = append(wl.tips, cur)
	}
	day := w.hour.Day()
	recs := make([]flow.Record, sp.perMsg)
	var obs []detect.Obs
	for i := 0; i < total; i++ {
		cur = int32(i)
		obs = stage(wl.fill(i, recs), obs)
		for j := range obs {
			if len(w.lab.Dict.Lookup(day, obs[j].IP, obs[j].Port)) > 0 {
				wl.hits++
			}
		}
		wl.obs += uint64(len(obs))
		eng.ObserveBatch(obs)
	}
	if len(wl.tips) == 0 {
		return nil, fmt.Errorf("%s: the reference fires no detection; nothing to check", sp.name)
	}
	return wl, nil
}

// fill writes message i's records into recs: a pure function of
// (seed, i), so the ring, the reference, the on-the-fly paced encoder
// and the traced replay all see the same flows.
func (wl *workload) fill(i int, recs []flow.Record) []flow.Record {
	rng := simrand.NewFrom(wl.seed*0x9e3779b97f4a7c15 + uint64(i))
	slice := wl.subs / wl.exporters
	base := i % wl.exporters * slice
	recs = recs[:wl.perMsg]
	for j := range recs {
		var dst endpoint
		if rng.Float64() < wl.hitShare {
			dst = wl.w.needles[rng.Intn(len(wl.w.needles))]
		} else {
			// 198.18.0.0/15, the benchmarking range: never in the hitlist.
			h := rng.Uint64()
			dst = endpoint{netip.AddrFrom4([4]byte{198, 18 + byte(h>>16&1), byte(h >> 8), byte(h)}), 443}
		}
		pk := 1 + rng.Uint64n(3)
		recs[j] = flow.Record{
			Key: flow.Key{
				Src: subAddr(base + rng.Intn(slice)), Dst: dst.ip,
				SrcPort: uint16(1024 + rng.Intn(60000)), DstPort: dst.port, Proto: flow.ProtoTCP,
			},
			Packets: pk, Bytes: pk * 600, Hour: wl.w.hour,
		}
	}
	if wl.fresh && i%freshEvery == int(wl.seed%freshEvery) {
		// A never-seen subscriber whose complete evidence is this one
		// record, so a window cut under load cannot split it.
		n := i / freshEvery
		ep := wl.w.needles[wl.w.solo[(n+int(wl.seed%1024))%len(wl.w.solo)]]
		recs[0].Key.Src = subAddr(wl.subs + n)
		recs[0].Key.Dst, recs[0].Key.DstPort = ep.ip, ep.port
	}
	return recs
}

// stage turns records into observations the way haystack.Feed does,
// with the bench's own subscriber hash.
func stage(recs []flow.Record, obs []detect.Obs) []detect.Obs {
	obs = obs[:0]
	for i := range recs {
		r := &recs[i]
		obs = append(obs, detect.Obs{Sub: subKey(r.Key.Src), Hour: r.Hour, IP: r.Key.Dst, Port: r.Key.DstPort, Pkts: r.Packets})
	}
	return obs
}

// encoder is the common shape of the two wire exporters.
type encoder interface {
	AppendMessage(buf []byte, records []flow.Record, maxRecords int) ([]byte, int, error)
}

func newEncoder(ipfixWire bool, id uint32) encoder {
	if ipfixWire {
		return ipfix.NewExporter(id)
	}
	return netflow.NewExporter(id)
}

// encodeRing encodes the workload's first n messages in either wire
// format, exporter e taking every exporters-th message with a template
// in every 20th of its messages. The traced run uses the other format
// to price both decoders on the same flows.
func encodeRing(wl *workload, ipfixWire bool, n int) (ring, error) {
	r := ring{ipfix: ipfixWire, exporters: wl.exporters, perMsg: wl.perMsg, off: make([]int, 0, n+1), seq: make([]uint32, wl.exporters)}
	encs := make([]encoder, wl.exporters)
	for e := range encs {
		encs[e] = newEncoder(ipfixWire, uint32(e+1))
	}
	recs := make([]flow.Record, wl.perMsg)
	for i := 0; i < n; i++ {
		r.off = append(r.off, len(r.slab))
		var err error
		if r.slab, _, err = encs[i%wl.exporters].AppendMessage(r.slab, wl.fill(i, recs), wl.perMsg); err != nil {
			return ring{}, fmt.Errorf("%s: encode message %d: %w", wl.name, i, err)
		}
	}
	r.off = append(r.off, len(r.slab))
	return r, nil
}

// patch stamps message j with its exporter's next sequence number, so
// a replayed ring shows the decoders no sequence gap. NetFlow v9 counts
// an exporter's messages, IPFIX its records.
func (r *ring) patch(j int) {
	e := j % r.exporters
	if r.ipfix {
		binary.BigEndian.PutUint32(r.slab[r.off[j]+8:], r.seq[e])
		r.seq[e] += uint32(r.perMsg)
		return
	}
	binary.BigEndian.PutUint32(r.slab[r.off[j]+12:], r.seq[e])
	r.seq[e]++
}

func (wl *workload) ruleIndex(name string) uint16 {
	if i := wl.w.lab.Dict.RuleIndex(name); i >= 0 {
		return uint16(i)
	}
	return unknownRule
}
