package haystack

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (one Benchmark per experiment ID), plus
// throughput benches for the operational pieces (wire codecs, the
// detection engine) and ablations over the design parameters the paper
// discusses: sampling rate, detection threshold D, and aggregation
// window.
//
// Run everything:  go test -bench=. -benchmem
// One figure:      go test -bench=BenchmarkF11 -benchmem

import (
	"fmt"
	"net/netip"
	"sync"
	"testing"

	"repro/internal/detect"
	"repro/internal/experiments"
	"repro/internal/flow"
	"repro/internal/isp"
	"repro/internal/netflow"
	"repro/internal/pipeline"
	"repro/internal/sampling"
	"repro/internal/simrand"
	"repro/internal/simtime"
)

// benchLab shares one small-scale lab across figure benches so each
// iteration measures the driver, not world assembly. The heavyweight
// sweeps (ground truth, wild ISP, wild IXP) are primed once.
var (
	benchOnce sync.Once
	benchSys  *System
)

func benchSystem(b *testing.B) *System {
	b.Helper()
	benchOnce.Do(func() {
		cfg := experiments.DefaultConfig(1)
		cfg.ISP.Lines = 10_000
		cfg.ISP.Scale = 1500
		cfg.IXP.TotalClients = 8_000
		cfg.IXP.Members = 200
		benchSys = MustNew(cfg)
		// Prime the lazy sweeps so per-figure benches measure table
		// generation over cached simulations.
		for _, id := range []string{"F5a", "F11", "F15"} {
			if _, err := benchSys.Run(id); err != nil {
				panic(err)
			}
		}
	})
	return benchSys
}

func benchExperiment(b *testing.B, id string) {
	s := benchSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl, err := s.Run(id)
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// One benchmark per table/figure of the evaluation.

func BenchmarkTable1Catalog(b *testing.B)     { benchExperiment(b, "T1") }
func BenchmarkSec41(b *testing.B)             { benchExperiment(b, "S41") }
func BenchmarkSec42(b *testing.B)             { benchExperiment(b, "S42") }
func BenchmarkSec43(b *testing.B)             { benchExperiment(b, "S43") }
func BenchmarkFig5a(b *testing.B)             { benchExperiment(b, "F5a") }
func BenchmarkFig5b(b *testing.B)             { benchExperiment(b, "F5b") }
func BenchmarkFig5c(b *testing.B)             { benchExperiment(b, "F5c") }
func BenchmarkFig5d(b *testing.B)             { benchExperiment(b, "F5d") }
func BenchmarkFig6(b *testing.B)              { benchExperiment(b, "F6") }
func BenchmarkFig8(b *testing.B)              { benchExperiment(b, "F8") }
func BenchmarkFig9(b *testing.B)              { benchExperiment(b, "F9") }
func BenchmarkFig10(b *testing.B)             { benchExperiment(b, "F10") }
func BenchmarkFig11(b *testing.B)             { benchExperiment(b, "F11") }
func BenchmarkFig12(b *testing.B)             { benchExperiment(b, "F12") }
func BenchmarkFig13(b *testing.B)             { benchExperiment(b, "F13") }
func BenchmarkFig14(b *testing.B)             { benchExperiment(b, "F14") }
func BenchmarkFig15(b *testing.B)             { benchExperiment(b, "F15") }
func BenchmarkFig16(b *testing.B)             { benchExperiment(b, "F16") }
func BenchmarkFig17(b *testing.B)             { benchExperiment(b, "F17") }
func BenchmarkFig18(b *testing.B)             { benchExperiment(b, "F18") }
func BenchmarkSec5FalsePositive(b *testing.B) { benchExperiment(b, "S5FP") }

// BenchmarkWorldBuild measures full world assembly (catalog, hosting,
// two-week churn, passive DNS and scan sweeps, §4 pipeline, dictionary
// compilation).
func BenchmarkWorldBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultConfig(uint64(i + 1))
		if _, err := experiments.NewLab(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetectorNetFlow measures the operational path: NetFlow v9
// messages through collector and engine.
func BenchmarkDetectorNetFlow(b *testing.B) {
	s := benchSystem(b)
	det := s.NewDetector(0.4)
	ips := s.ServiceIPs("avs-alexa.simamazon.example")
	h := simtime.HourOf(s.StudyStart())

	recs := make([]flow.Record, 30)
	for i := range recs {
		recs[i] = flow.Record{
			Key: flow.Key{
				Src:     netip.AddrFrom4([4]byte{100, 64, byte(i >> 8), byte(i)}),
				Dst:     ips[i%len(ips)],
				SrcPort: uint16(40000 + i), DstPort: 443, Proto: flow.ProtoTCP,
			},
			Packets: 2, Bytes: 1200, Hour: h,
		}
	}
	exp := netflow.NewExporter(1)
	exp.TemplateEvery = 1
	msgs, err := exp.Export(recs, 30)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(msgs[0])))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := det.FeedNetFlow(msgs[0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetectorFeedParallel measures multi-producer wire-fed
// throughput: N feed goroutines, each with its own exporter stream
// over a disjoint subscriber range, against one 8-shard detector.
// Compare feeds_1 (the single-producer baseline) with feeds_4/feeds_8
// for producer-side scaling.
func BenchmarkDetectorFeedParallel(b *testing.B) {
	s := benchSystem(b)
	ips := s.ServiceIPs("avs-alexa.simamazon.example")
	h := simtime.HourOf(s.StudyStart())

	// Pre-encode one NetFlow message stream per feed, subscribers
	// partitioned by feed so per-subscriber ordering is preserved.
	stream := func(feed int) []byte {
		recs := make([]flow.Record, 30)
		for i := range recs {
			recs[i] = flow.Record{
				Key: flow.Key{
					Src:     netip.AddrFrom4([4]byte{100, 64 + byte(feed), byte(i >> 8), byte(i)}),
					Dst:     ips[i%len(ips)],
					SrcPort: uint16(40000 + i), DstPort: 443, Proto: flow.ProtoTCP,
				},
				Packets: 2, Bytes: 1200, Hour: h,
			}
		}
		exp := netflow.NewExporter(uint32(feed + 1))
		exp.TemplateEvery = 1
		msgs, err := exp.Export(recs, 30)
		if err != nil {
			b.Fatal(err)
		}
		return msgs[0]
	}

	for _, feeds := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("feeds_%d", feeds), func(b *testing.B) {
			det := s.NewShardedDetector(0.4, 8)
			defer det.Close()
			msgs := make([][]byte, feeds)
			for g := range msgs {
				msgs[g] = stream(g)
			}
			per := (b.N + feeds - 1) / feeds
			b.SetBytes(int64(len(msgs[0])))
			b.ResetTimer()
			var wg sync.WaitGroup
			for g := 0; g < feeds; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					f := det.NewFeed()
					defer f.Close()
					for i := 0; i < per; i++ {
						if err := f.FeedNetFlow(msgs[g]); err != nil {
							b.Error(err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			if len(det.Detections()) == 0 {
				b.Fatal("no detections")
			}
		})
	}
}

// BenchmarkFeedInto measures arena decode throughput: one 30-record
// NetFlow v9 message (template re-announced every message, as the
// high-rate exporters do) decoded into a reused flow.Batch. Steady
// state is allocation-free — run with -benchmem to confirm.
func BenchmarkFeedInto(b *testing.B) {
	s := benchSystem(b)
	ips := s.ServiceIPs("avs-alexa.simamazon.example")
	h := simtime.HourOf(s.StudyStart())
	recs := make([]flow.Record, 30)
	for i := range recs {
		recs[i] = flow.Record{
			Key: flow.Key{
				Src:     netip.AddrFrom4([4]byte{100, 64, byte(i >> 8), byte(i)}),
				Dst:     ips[i%len(ips)],
				SrcPort: uint16(40000 + i), DstPort: 443, Proto: flow.ProtoTCP,
			},
			Packets: 2, Bytes: 1200, Hour: h,
		}
	}
	exp := netflow.NewExporter(1)
	exp.TemplateEvery = 1
	msgs, err := exp.Export(recs, 30)
	if err != nil {
		b.Fatal(err)
	}
	msg := msgs[0]

	col := netflow.NewCollector()
	arena := flow.NewBatch(64)
	b.SetBytes(int64(len(msg)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arena.Reset()
		if err := col.FeedInto(msg, arena); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(recs))*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkObserveBatch measures the producer-side batch path: 30-obs
// hitlist-match batches partitioned across 8 shards under one lock
// acquisition per batch. Compare with BenchmarkPipelineObserve for the
// per-record producer path.
func BenchmarkObserveBatch(b *testing.B) {
	s := benchSystem(b)
	ips := s.ServiceIPs("avs-alexa.simamazon.example")
	h := simtime.HourOf(s.StudyStart())
	obs := make([]pipeline.Obs, 30)
	for i := range obs {
		obs[i] = pipeline.Obs{
			Sub:  detect.SubID(i * 2654435761),
			Hour: h,
			IP:   ips[i%len(ips)],
			Port: 443,
			Pkts: 1,
		}
	}
	p := pipeline.New(s.lab.Dict, 0.4, 8)
	defer p.Close()
	prod := p.NewProducer()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prod.ObserveBatch(obs)
	}
	p.Sync()
	b.ReportMetric(float64(len(obs))*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkEngineObserve measures raw engine throughput on hitlist
// matches (flows/second an ISP deployment could sustain per core).
func BenchmarkEngineObserve(b *testing.B) {
	s := benchSystem(b)
	eng := detect.New(s.lab.Dict, 0.4)
	ips := s.ServiceIPs("avs-alexa.simamazon.example")
	h := simtime.HourOf(s.StudyStart())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Observe(detect.SubID(i&0xfffff), h, ips[i%len(ips)], 443, 1)
	}
}

// BenchmarkPipelineObserve measures sharded pipeline throughput on the
// same hitlist-match workload as BenchmarkEngineObserve. The producer
// only hashes and batches; engine work runs on the shard workers, so
// throughput scales with the shard count until the producer saturates.
func BenchmarkPipelineObserve(b *testing.B) {
	s := benchSystem(b)
	ips := s.ServiceIPs("avs-alexa.simamazon.example")
	h := simtime.HourOf(s.StudyStart())
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards_%d", n), func(b *testing.B) {
			p := pipeline.New(s.lab.Dict, 0.4, n)
			defer p.Close()
			prod := p.NewProducer()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				prod.Observe(detect.SubID(i&0xfffff), h, ips[i%len(ips)], 443, 1)
			}
			p.Sync()
		})
	}
}

// BenchmarkPipelineWildHour is the shard-scaling benchmark for the §6.2
// inner loop: one simulated wild-ISP hour (population draw + sampling)
// fed through the sharded pipeline, comparable to BenchmarkWildHour.
func BenchmarkPipelineWildHour(b *testing.B) {
	s := benchSystem(b)
	cfg := isp.DefaultConfig()
	cfg.Lines = 10_000
	pop := isp.NewPopulation(simrand.New(9), s.Catalog(), cfg, s.lab.W.Window)
	h := s.lab.W.Window.Start + 19
	r := s.lab.W.ResolverOn(h.Day())
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards_%d", n), func(b *testing.B) {
			p := pipeline.New(s.lab.Dict, 0.4, n)
			defer p.Close()
			prod := p.NewProducer()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pop.SimulateHour(h, r, func(_ int32, sub detect.SubID, hh simtime.Hour, ip netip.Addr, port uint16, pkts uint64) {
					prod.Observe(sub, hh, ip, port, pkts)
				})
				p.Sync()
			}
		})
	}
}

// BenchmarkWildHour measures one simulated hour of the wild ISP
// (population draw + sampling), the inner loop of Figs 11–14.
func BenchmarkWildHour(b *testing.B) {
	s := benchSystem(b)
	cfg := isp.DefaultConfig()
	cfg.Lines = 10_000
	pop := isp.NewPopulation(simrand.New(9), s.Catalog(), cfg, s.lab.W.Window)
	h := s.lab.W.Window.Start + 19
	r := s.lab.W.ResolverOn(h.Day())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		pop.SimulateHour(h, r, func(int32, detect.SubID, simtime.Hour, netip.Addr, uint16, uint64) {
			n++
		})
	}
}

// Ablation: sampling rate. The paper's detectability hinges on the
// 1:1024 ISP rate; this sweep shows visibility of a 700-pkt/h service
// (the Alexa keepalive) across rates.
func BenchmarkAblationSamplingRate(b *testing.B) {
	for _, rate := range []uint64{64, 256, 1024, 4096, 10240} {
		b.Run(fmt.Sprintf("rate_1in%d", rate), func(b *testing.B) {
			rng := simrand.New(1)
			visible := 0
			for i := 0; i < b.N; i++ {
				if sampling.Thin(rng, 700, rate) > 0 {
					visible++
				}
			}
			b.ReportMetric(float64(visible)/float64(b.N), "visible/hour")
		})
	}
}

// Ablation: detection threshold D. Replays the active ground truth at
// each threshold and reports mean hours-to-detect across rules — the
// Fig 10 tradeoff as a single number.
func BenchmarkAblationThresholdD(b *testing.B) {
	s := benchSystem(b)
	if _, err := s.Run("F10"); err != nil { // primes the ground-truth capture
		b.Fatal(err)
	}
	for _, d := range []float64{0.1, 0.4, 0.7, 1.0} {
		b.Run(fmt.Sprintf("D_%.1f", d), func(b *testing.B) {
			var detected, hours int
			for i := 0; i < b.N; i++ {
				detected, hours = 0, 0
				delays := s.lab.DetectionDelays(d)
				for _, v := range delays {
					if v >= 0 {
						detected++
						hours += v
					}
				}
			}
			if detected > 0 {
				b.ReportMetric(float64(detected), "rules_detected")
				b.ReportMetric(float64(hours)/float64(detected), "mean_hours")
			}
		})
	}
}

// Ablation: dictionary lookup scaling with hitlist size (per-day maps).
func BenchmarkAblationHitlistLookup(b *testing.B) {
	s := benchSystem(b)
	day := s.lab.W.Window.Days()[0]
	ip := s.ServiceIPs("ota.simsamsung.example")[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.lab.Dict.Lookup(day, ip, 443)
	}
}
