package main

// The traced run: the same job driven by hand from one goroutine — the
// single-threaded baseline — with a span around every call into a
// layer's public functions, plus separate passes that price the layers
// a serial replay cannot isolate. Spans are recorded from here, outside
// the program; spans inside it are a later change. End-to-end metrics
// are never taken from this run.

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	haystack "repro"
	"repro/internal/collector"
	"repro/internal/detect"
	"repro/internal/eventlog"
	"repro/internal/flow"
	"repro/internal/ipfix"
	"repro/internal/netflow"
	"repro/internal/pipeline"
	"repro/internal/simrand"
)

const (
	spanMessage = iota // root: one wire message through decode, stage, observe
	spanDecode
	spanStage
	spanObserve
	spanSync
	spanApplyCold
	spanApplyWarm
	spanFeed
	spanCollector
	spanLogAppend
	spanLogSync
	spanExport
)

var spanNames = []string{"message", "decode", "stage", "observe", "sync", "apply_cold", "apply_warm",
	"feed", "collector", "log_append", "log_sync", "export_jsonl"}

// span is one timed call: which layer, when, under which root span,
// and for which message (lap × ring length + index; -1 when the call
// is not per message).
type span struct {
	name       uint8
	parent     int32
	msg        int32
	start, end int64
}

type tracer struct {
	spans []span
	clock float64 // calibrated cost of one now() call, ns
}

func (t *tracer) add(name uint8, parent, msg int32, start, end int64) int32 {
	t.spans = append(t.spans, span{name, parent, msg, start, end})
	return int32(len(t.spans) - 1)
}

// total is the summed duration of a layer's spans, less the clock
// reads the spans themselves cost.
func (t *tracer) total(name uint8) (ns float64) {
	count := 0
	for i := range t.spans {
		if t.spans[i].name == name {
			ns += float64(t.spans[i].end - t.spans[i].start)
			count++
		}
	}
	return max(0, ns-float64(count)*t.clock)
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"names\":[")
	for i, n := range spanNames {
		if i > 0 {
			w.WriteByte(',')
		}
		w.WriteString(strconv.Quote(n))
	}
	w.WriteString("],\n\"columns\":[\"id\",\"name\",\"parent\",\"message\",\"start_ns\",\"end_ns\"],\n\"spans\":[\n")
	var b []byte
	for i, s := range t.spans {
		b = b[:0]
		if i > 0 {
			b = append(b, ",\n"...)
		}
		b = append(b, '[')
		for j, v := range [...]int64{int64(i), int64(s.name), int64(s.parent), int64(s.msg), s.start, s.end} {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, v, 10)
		}
		w.Write(append(b, ']'))
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// decoder is the common shape of the two wire decoders.
type decoder interface {
	FeedInto(msg []byte, b *flow.Batch) error
}

func newDecoder(ipfixWire bool) decoder {
	if ipfixWire {
		return ipfix.NewCollector()
	}
	return netflow.NewCollector()
}

// replay drives two laps of the ring through decode → stage →
// Producer.ObserveBatch by hand, synchronizing the pipeline every few
// thousand records so the producer seldom blocks on a full shard queue
// and shard time shows up as sync wait. With tr nil it is the untraced
// twin whose time gives trace.overhead_ratio.
func replay(wl *workload, r *ring, tr *tracer) (time.Duration, error) {
	pipe := pipeline.New(wl.w.lab.Dict, threshold, shards)
	defer pipe.Close()
	prod := pipe.NewProducer()
	defer prod.Close()
	dec := newDecoder(r.ipfix)
	arena := flow.NewBatch(64)
	var obs []detect.Obs
	n := len(r.off) - 1
	syncEvery := max(1, 4096/r.perMsg)
	var a, b, c, e int64
	start := now()
	for lap := 0; lap < 2; lap++ {
		for j := 0; j < n; j++ {
			r.patch(j)
			msg := r.slab[r.off[j]:r.off[j+1]]
			arena.Reset()
			if tr != nil {
				a = now()
			}
			if err := dec.FeedInto(msg, arena); err != nil {
				return 0, fmt.Errorf("replay decode message %d: %w", j, err)
			}
			if tr != nil {
				b = now()
			}
			obs = stage(arena.Records(), obs)
			if tr != nil {
				c = now()
			}
			prod.ObserveBatch(obs)
			if tr != nil {
				e = now()
			}
			sync := (j+1)%syncEvery == 0
			if sync {
				pipe.Sync()
			}
			if tr != nil {
				id := int32(lap*n + j)
				end := e
				if sync {
					end = now()
				}
				root := tr.add(spanMessage, -1, id, a, end)
				tr.add(spanDecode, root, id, a, b)
				tr.add(spanStage, root, id, b, c)
				tr.add(spanObserve, root, id, c, e)
				if sync {
					tr.add(spanSync, root, id, e, end)
				}
			}
		}
	}
	pipe.Sync()
	return time.Duration(now() - start), nil
}

// applyPass prices detect.Engine.ObserveBatch alone: the ring's
// observations partitioned the way the pipeline partitions them, each
// shard's engine fed in batches of the default size. Lap one meets
// empty engines (cold), lap two the state lap one left (warm).
func applyPass(wl *workload, r *ring, tr *tracer) (coldNs, warmNs float64, err error) {
	engines := make([]*detect.Engine, shards)
	pending := make([][]detect.Obs, shards)
	for i := range engines {
		engines[i] = detect.New(wl.w.lab.Dict, threshold)
	}
	dec := newDecoder(r.ipfix)
	arena := flow.NewBatch(64)
	var obs []detect.Obs
	n := len(r.off) - 1
	for _, name := range [...]uint8{spanApplyCold, spanApplyWarm} {
		apply := func(i int) {
			t0 := now()
			engines[i].ObserveBatch(pending[i])
			tr.add(name, -1, -1, t0, now())
			pending[i] = pending[i][:0]
		}
		for j := 0; j < n; j++ {
			r.patch(j)
			arena.Reset()
			if err := dec.FeedInto(r.slab[r.off[j]:r.off[j+1]], arena); err != nil {
				return 0, 0, fmt.Errorf("apply pass decode message %d: %w", j, err)
			}
			obs = stage(arena.Records(), obs)
			for k := range obs {
				i := int(simrand.Mix64(uint64(obs[k].Sub)) % shards)
				if pending[i] = append(pending[i], obs[k]); len(pending[i]) >= pipeline.DefaultBatchSize {
					apply(i)
				}
			}
		}
		for i := range pending {
			if len(pending[i]) > 0 {
				apply(i)
			}
		}
	}
	per := float64(n * r.perMsg)
	return tr.total(spanApplyCold) / per, tr.total(spanApplyWarm) / per, nil
}

// feedPass prices haystack.Feed whole — decode, staging and observe in
// one call — over two laps, and returns the resulting window.
func feedPass(wl *workload, r *ring, tr *tracer) (nsPerRecord float64, win haystack.WindowResult, err error) {
	det := wl.w.sys.NewShardedDetector(threshold, shards)
	defer det.Close()
	f := det.NewFeed()
	arena := flow.NewBatch(64)
	n := len(r.off) - 1
	t0 := now()
	for lap := 0; lap < 2; lap++ {
		for j := 0; j < n; j++ {
			r.patch(j)
			arena.Reset()
			msg := r.slab[r.off[j]:r.off[j+1]]
			if r.ipfix {
				err = f.FeedIPFIXBatch(msg, arena)
			} else {
				err = f.FeedNetFlowBatch(msg, arena)
			}
			if err != nil {
				return 0, win, fmt.Errorf("feed pass message %d: %w", j, err)
			}
		}
	}
	t1 := now()
	tr.add(spanFeed, -1, -1, t0, t1)
	f.Close()
	return float64(t1-t0) / float64(2*n*r.perMsg), det.Rotate(), nil
}

// decodePass prices one decoder's FeedInto into a reused flow.Batch:
// one untimed lap to learn templates and grow the arena, one timed.
func decodePass(r *ring) (nsPerRecord, allocsPerMsg float64, err error) {
	dec := newDecoder(r.ipfix)
	arena := flow.NewBatch(64)
	n := len(r.off) - 1
	var ms0, ms1 runtime.MemStats
	var t0 int64
	for lap := 0; lap < 2; lap++ {
		if lap == 1 {
			runtime.ReadMemStats(&ms0)
			t0 = now()
		}
		for j := 0; j < n; j++ {
			r.patch(j)
			arena.Reset()
			if err := dec.FeedInto(r.slab[r.off[j]:r.off[j+1]], arena); err != nil {
				return 0, 0, fmt.Errorf("decode pass message %d: %w", j, err)
			}
		}
	}
	t1 := now()
	runtime.ReadMemStats(&ms1)
	return float64(t1-t0) / float64(n*r.perMsg), float64(ms1.Mallocs-ms0.Mallocs) / float64(n), nil
}

// nullFeed is the counting no-op feed behind collector.Listen in the
// collector pass: everything after the lane handoff is absent.
type nullFeed struct{ msgs atomic.Uint64 }

func (f *nullFeed) FeedNetFlow([]byte) error { f.msgs.Add(1); return nil }
func (f *nullFeed) FeedIPFIX([]byte) error   { f.msgs.Add(1); return nil }
func (f *nullFeed) Stats() collector.FeedStats {
	return collector.FeedStats{Records: f.msgs.Load()}
}
func (f *nullFeed) Close() {}

// collectorPass prices the socket layer alone: the ring over loopback,
// closed loop, into collector.Listen with null feeds, for at least
// half a second. The cost is process CPU per message — sender, kernel,
// read loop and lane handoff — so it is comparable with the
// end-to-end budget, which is in core-nanoseconds too.
func collectorPass(r *ring, window int, tr *tracer) (cpuNsPerMsg float64, err error) {
	srv, err := collector.Listen(collectorConfig(r.ipfix), func() collector.Feed { return new(nullFeed) })
	if err != nil {
		return 0, err
	}
	g := &generator{srv: srv, ring: *r, window: window}
	defer srv.Close()
	defer g.hangUp()
	if err := g.dial(); err != nil {
		return 0, err
	}
	if err := g.lap(); err != nil {
		return 0, err
	}
	g.drain()
	sent0, cpu0, t0 := g.sentMsgs, cpuSeconds(), now()
	for now()-t0 < int64(500*time.Millisecond) {
		if err := g.lap(); err != nil {
			return 0, err
		}
	}
	g.drain()
	cpu := cpuSeconds() - cpu0
	tr.add(spanCollector, -1, -1, t0, now())
	if st := srv.Stats(); g.kernelLost > 0 || st.DroppedDatagrams > 0 {
		return 0, fmt.Errorf("collector pass lost messages: %d kernel, %d queue", g.kernelLost, st.DroppedDatagrams)
	}
	return cpu * 1e9 / float64(g.sentMsgs-sent0), nil
}

// logPass prices Log.Append and Log.Sync driven serially.
func logPass(dir string, tr *tracer) (appendNs, syncMs float64, err error) {
	log, err := eventlog.Open(eventlog.Options{Dir: dir, Fsync: eventlog.FsyncWindow, SegmentBytes: logSegmentBytes})
	if err != nil {
		return 0, 0, err
	}
	defer log.Close()
	const n = 20000
	rec := eventlog.Record{Type: eventlog.TypeEvent, Event: eventlog.Event{Rule: "Alexa Enabled", Level: "Pl.", First: time.Unix(1573776000, 0).UTC()}}
	for i := 0; i < n; i++ {
		rec.Event.Subscriber = simrand.Mix64(uint64(i))
		t0 := now()
		if _, err := log.Append(&rec); err != nil {
			return 0, 0, err
		}
		tr.add(spanLogAppend, -1, -1, t0, now())
	}
	t0 := now()
	if err := log.Sync(); err != nil {
		return 0, 0, err
	}
	t1 := now()
	tr.add(spanLogSync, -1, -1, t0, t1)
	return tr.total(spanLogAppend) / n, float64(t1-t0) / 1e6, nil
}

// traceWorkload makes the traced run for one workload and returns the
// per-layer values it measured. rate is the live run's records_per_s,
// the base of the budget; spans go to out/trace-<workload>.json.
func traceWorkload(wl *workload, live *result, rate float64, window int, out string) (map[string]float64, error) {
	native := &wl.ring
	if wl.fresh {
		r, err := encodeRing(wl, wl.ipfix, wl.ringMsgs)
		if err != nil {
			return nil, err
		}
		native = &r
	}
	other, err := encodeRing(wl, !wl.ipfix, min(wl.ringMsgs, 8192))
	if err != nil {
		return nil, err
	}
	nf, ix := native, &other
	if wl.ipfix {
		nf, ix = ix, nf
	}
	tr := &tracer{}
	t0 := now()
	for i := 0; i < 100000; i++ {
		now()
	}
	tr.clock = float64(now()-t0) / 100000

	v := map[string]float64{}
	if _, err := replay(wl, native, nil); err != nil { // untimed: first touch of the ring and the allocator
		return nil, err
	}
	untraced, err := replay(wl, native, nil)
	if err != nil {
		return nil, err
	}
	traced, err := replay(wl, native, tr)
	if err != nil {
		return nil, err
	}
	records := float64(2 * (len(native.off) - 1) * native.perMsg)
	decode, stageNs, observe := tr.total(spanDecode)/records, tr.total(spanStage)/records, tr.total(spanObserve)/records
	var syncs []float64
	for _, s := range tr.spans {
		if s.name == spanSync {
			syncs = append(syncs, float64(s.end-s.start)/1e6)
		}
	}
	v["trace.overhead_ratio"] = float64(traced) / float64(untraced)
	v["pipeline.observe_ns_per_obs"] = observe
	v["pipeline.sync_ms"] = median(syncs)

	if v["detect.apply_ns_per_obs_cold"], v["detect.apply_ns_per_obs_warm"], err = applyPass(wl, native, tr); err != nil {
		return nil, err
	}
	whole, win, err := feedPass(wl, native, tr)
	if err != nil {
		return nil, err
	}
	v["feed.ns_per_record"] = whole
	v["feed.stage_ns_per_record"] = whole - decode - observe
	if v["netflow.decode_ns_per_record"], v["netflow.decode_allocs_per_msg"], err = decodePass(nf); err != nil {
		return nil, err
	}
	if v["ipfix.decode_ns_per_record"], v["ipfix.decode_allocs_per_msg"], err = decodePass(ix); err != nil {
		return nil, err
	}
	if v["collector.ns_per_datagram"], err = collectorPass(nf, window, tr); err != nil {
		return nil, err
	}
	if v["collector.ns_per_stream_msg"], err = collectorPass(ix, 4*window, tr); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(out, "log-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if v["eventlog.append_ns"], v["eventlog.sync_ms"], err = logPass(dir, tr); err != nil {
		return nil, err
	}
	if len(live.lastWindow.Detections) > 0 {
		win = live.lastWindow
	}
	if k := float64(len(win.Detections)) / 1000; k > 0 {
		t0 := now()
		if err := haystack.WriteWindowJSONL(io.Discard, &win); err != nil {
			return nil, err
		}
		t1 := now()
		tr.add(spanExport, -1, -1, t0, t1)
		v["export.jsonl_ms_per_kdet"] = float64(t1-t0) / 1e6 / k
	}

	// The budget, in core-nanoseconds per record: the machine spends
	// nproc × 1e9 ÷ records_per_s on each record end to end; what the
	// layers account for is attributed, the rest has a number too.
	collectorNs := v["collector.ns_per_datagram"]
	if wl.ipfix {
		collectorNs = v["collector.ns_per_stream_msg"]
	}
	total := float64(runtime.NumCPU()) * 1e9 / rate
	layers := map[string]float64{
		"collector": collectorNs / float64(wl.perMsg), "decode": decode, "stage": stageNs,
		"observe": observe, "apply": v["detect.apply_ns_per_obs_warm"],
	}
	rest := total
	for name, ns := range layers {
		v["share."+name] = 100 * ns / total
		rest -= ns
	}
	v["trace.unattributed_ns_per_record"] = rest
	v["share.unattributed"] = 100 * rest / total
	return v, tr.write(filepath.Join(out, "trace-"+wl.name+".json"))
}
