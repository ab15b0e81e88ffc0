package main

// The world every workload runs against: the system under test built
// through the public API, and an independently built reference lab
// whose dictionary backs the oracle and the layers the traced run
// drives by hand.

import (
	"fmt"
	"net/netip"

	haystack "repro"
	"repro/internal/detect"
	"repro/internal/experiments"
	"repro/internal/flow"
	"repro/internal/netflow"
	"repro/internal/simtime"
)

// The fixed deployment of every workload. These are constants, not
// flags: a number measured under another deployment is not comparable
// with the recorded ones.
const (
	worldSeed  = 1
	threshold  = 0.4 // detection threshold D
	shards     = 4
	maxFeeds   = 2
	queueLen   = 8192
	readBuffer = 4 << 20
	// maxDatagram sizes the collector's receive buffers. The default is
	// 64 KiB, which the server keeps for good once a backlog has needed
	// them, so live_heap_mb would report 64 KiB × the deepest queue a
	// run happened to reach instead of detector state.
	maxDatagram = 2048
	// logSegmentBytes keeps event-log segments small: a tail ReadAt
	// rescans its segment from the base offset, so the default 64 MiB
	// would make the bench's tail reader the dominant CPU consumer.
	logSegmentBytes = 256 << 10
)

type endpoint struct {
	ip   netip.Addr
	port uint16
}

type world struct {
	sys *haystack.System
	lab *experiments.Lab
	// needles is every hitlist endpoint reachable through the public
	// API: Rules × ServiceIPs × catalog port. solo indexes the needles
	// that fire at least one rule from a single observation.
	needles []endpoint
	solo    []int
	hour    simtime.Hour
}

func buildWorld() (*world, error) {
	sys, err := haystack.New(haystack.DefaultConfig(worldSeed))
	if err != nil {
		return nil, fmt.Errorf("build system: %w", err)
	}
	lab, err := experiments.NewLab(experiments.DefaultConfig(worldSeed))
	if err != nil {
		return nil, fmt.Errorf("build reference lab: %w", err)
	}
	w := &world{sys: sys, lab: lab, hour: simtime.HourOf(sys.StudyStart())}
	cat := sys.Catalog()
	seen := map[endpoint]bool{}
	for _, r := range sys.Rules() {
		for _, d := range r.Domains {
			port := uint16(443)
			if dom, ok := cat.Domains[d]; ok {
				port = dom.Port
			}
			for _, ip := range sys.ServiceIPs(d) {
				ep := endpoint{ip, port}
				if seen[ep] || !ip.Is4() {
					continue
				}
				seen[ep] = true
				if len(lab.Dict.Lookup(w.hour.Day(), ip, port)) == 0 {
					return nil, fmt.Errorf("needle %v:%d (%s) misses the reference hitlist", ip, port, d)
				}
				w.needles = append(w.needles, ep)
			}
		}
	}
	eng := detect.New(lab.Dict, threshold)
	for i, ep := range w.needles {
		if len(eng.Observe(detect.SubID(i), w.hour, ep.ip, ep.port, 1)) > 0 {
			w.solo = append(w.solo, i)
		}
	}
	if len(w.solo) == 0 {
		return nil, fmt.Errorf("no needle fires a rule alone; bursty-fresh-log has nothing to send")
	}
	return w, w.verifySubscriberHash()
}

// subKey is the bench's own copy of the §2.1 IPv4 subscriber hash (the
// root package's subscriberKey is unexported and pinned byte-identical
// by its tests). verifySubscriberHash checks it against the system
// under test at every set-up.
func subKey(a netip.Addr) detect.SubID {
	b := a.As4()
	x := uint64(b[0])<<24 | uint64(b[1])<<16 | uint64(b[2])<<8 | uint64(b[3])
	x ^= 0x9e3779b97f4a7c15
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return detect.SubID(x)
}

// subAddr is subscriber n's address in 100.64.0.0/10.
func subAddr(n int) netip.Addr {
	return netip.AddrFrom4([4]byte{100, 64 + byte(n>>16), byte(n >> 8), byte(n)})
}

// verifySubscriberHash feeds one solo needle per subscriber through a
// scratch 1-shard detector and requires Detections() to name exactly
// the subscribers subKey predicts.
func (w *world) verifySubscriberHash() error {
	det := w.sys.NewShardedDetector(threshold, 1)
	defer det.Close()
	ep := w.needles[w.solo[0]]
	want := map[uint64]bool{}
	recs := make([]flow.Record, 16)
	for i := range recs {
		src := subAddr(i * 65537 % (1 << 22))
		want[uint64(subKey(src))] = true
		recs[i] = flow.Record{
			Key:     flow.Key{Src: src, Dst: ep.ip, SrcPort: 40000, DstPort: ep.port, Proto: flow.ProtoTCP},
			Packets: 1, Bytes: 600, Hour: w.hour,
		}
	}
	msgs, err := netflow.NewExporter(1).Export(recs, len(recs))
	if err != nil {
		return err
	}
	for _, m := range msgs {
		if err := det.FeedNetFlow(m); err != nil {
			return err
		}
	}
	got := map[uint64]bool{}
	for _, d := range det.Detections() {
		got[d.Subscriber] = true
	}
	if len(got) != len(want) {
		return fmt.Errorf("subscriber hash check: %d subscribers detected, want %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			return fmt.Errorf("subscriber hash check: bench copy of the §2.1 hash disagrees with the detector (%016x missing)", k)
		}
	}
	return nil
}
