package main

// The live run: one workload against the real deployable stack over
// loopback, from one generator goroutine, with loss accounting and the
// oracle check after every trial.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	haystack "repro"
	"repro/internal/collector"
	"repro/internal/eventlog"
	"repro/internal/flow"
)

const (
	trials = 3
	// probeShare is the part of a ring workload's measured time spent
	// in its probeLaps paced latency laps; the rest is the closed-loop
	// trials. Five laps, because one stall of 10 ms in a lap lifts that
	// lap's p99 and the median of three gave way to two such laps in
	// one run out of ten.
	probeShare = 0.4
	probeLaps  = 5
	// tcpChunk is how many stream messages one closed-loop Write
	// carries, as a buffered exporter would; the in-flight cap on TCP
	// is in messages.
	tcpChunk = 16
	// throttleEvery is how many messages go out between looks at the
	// server's progress counters.
	throttleEvery = 32
)

var epoch = time.Now()

// now is nanoseconds on the process's monotonic clock.
func now() int64 { return int64(time.Since(epoch)) }

// sighting is one event as seen by the bench: on its Subscribe channel
// or read back from the event log.
type sighting struct {
	key    evKey
	window uint64
	at     int64
}

type sink struct {
	mu   sync.Mutex
	seen []sighting
	n    atomic.Int64
}

func (s *sink) add(k evKey, window uint64) {
	at := now()
	s.mu.Lock()
	s.seen = append(s.seen, sighting{k, window, at})
	s.mu.Unlock()
	s.n.Add(1)
}

func (s *sink) take() []sighting {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.seen
	s.seen = make([]sighting, 0, cap(out))
	return out
}

// counters is a cumulative snapshot of everything loss accounting
// reads; trials report differences of two snapshots.
type counters struct {
	sentRecs, records, skipped, kernelLost          uint64
	queueDropped, decodeErrors, templateDrops, gaps uint64
	emitted, eventsDropped, subscriberDrops         uint64
	benchDrops, appendErrors                        uint64
}

// generator is the one load-generating goroutine's state: the sender
// sockets, the ring it replays, and counters cumulative since start.
type generator struct {
	srv      *collector.Server
	inflight func() int // shard batches dispatched but not applied; nil without a pipeline
	conns    []net.Conn
	ring
	window               int // closed loop: in-flight cap, messages
	sentMsgs, sentRecs   uint64
	lostCredit           uint64 // in-flight messages written off after a stall
	kernelLost           uint64
	depthMax, inflightMx int
	spun                 time.Duration // open loop: time spent spinning up to a due time
}

// dial opens one sender socket per exporter.
func (g *generator) dial() error {
	network := "udp"
	if g.ipfix {
		network = "tcp"
	}
	for e := 0; e < g.exporters; e++ {
		c, err := net.Dial(network, g.srv.Addrs()[0].String())
		if err != nil {
			return err
		}
		g.conns = append(g.conns, c)
	}
	return nil
}

func (g *generator) hangUp() {
	for _, c := range g.conns {
		c.Close()
	}
}

// sendRun writes messages [i, end) of the endlessly repeated ring, one
// Write per run that is contiguous in the ring.
func (g *generator) sendRun(i, end int) error {
	n := len(g.off) - 1
	for i < end {
		a := i % n
		b := min(a+end-i, n)
		if err := g.send(a, b); err != nil {
			return err
		}
		i += b - a
	}
	return nil
}

// send writes ring messages [i, end) in one Write on exporter i's
// socket, sequence numbers patched.
func (g *generator) send(i, end int) error {
	for j := i; j < end; j++ {
		g.patch(j)
	}
	if _, err := g.conns[i%len(g.conns)].Write(g.slab[g.off[i]:g.off[end]]); err != nil {
		return fmt.Errorf("send: %w", err)
	}
	g.sentMsgs += uint64(end - i)
	g.sentRecs += uint64((end - i) * g.perMsg)
	return nil
}

// progress sums what the lanes have finished with — decoded, rejected
// or dropped at a full queue — and tracks the deepest lane queue seen.
func (g *generator) progress(st *collector.Stats) uint64 {
	done := st.DroppedDatagrams
	for i := range st.Feeds {
		done += st.Feeds[i].Datagrams
		g.depthMax = max(g.depthMax, st.Feeds[i].QueueDepth)
	}
	return done
}

// throttle holds the closed loop until at most window messages are in
// flight. A stall of 250 ms means the in-flight messages are gone
// (the kernel dropped them): they are written off so the run ends, and
// drain counts them as lost.
func (g *generator) throttle() {
	var last uint64
	stalled := time.Time{}
	for {
		st := g.srv.Stats()
		done := g.progress(&st)
		// Signed: a message written off as lost may still turn up.
		if int64(g.sentMsgs-done-g.lostCredit) <= int64(g.window) {
			return
		}
		if done != last || stalled.IsZero() {
			last, stalled = done, time.Now()
		} else if time.Since(stalled) > 250*time.Millisecond {
			g.lostCredit = g.sentMsgs - done
			return
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// lap sends the whole ring once, closed loop.
func (g *generator) lap() error {
	n := len(g.off) - 1
	step := 1
	if g.ipfix {
		step = tcpChunk
	}
	for i := 0; i < n; i += step {
		if err := g.send(i, min(i+step, n)); err != nil {
			return err
		}
		if i/step%(throttleEvery/step) == 0 {
			g.throttle()
			if g.inflight != nil && i/step%(16*throttleEvery/step) == 0 {
				g.inflightMx = max(g.inflightMx, g.inflight())
			}
		}
	}
	return nil
}

// waitUntil returns at due and reports how long it spun. A gap of
// more than 2 ms is slept through with nanosleep — not time.Sleep: an
// idle Go runtime parks in epoll_wait, whose timeout is in whole
// milliseconds — and the rest is spun, holding the P. A generator that
// gives its P up inside a burst re-enters through the global run
// queue, which busy Ps look at once in 61 scheduling rounds: measured
// here as stalls of 5 to 100 ms. The 1 ns Sleep is a pass through the
// scheduler that comes straight back (the timer has expired, the
// goroutine is next on this P); it restarts the 10 ms time slice so
// sysmon does not preempt the spin.
func waitUntil(due time.Time) (spun time.Duration) {
	if wait := time.Until(due); wait > 2*time.Millisecond {
		ts := syscall.NsecToTimespec(int64(wait - time.Millisecond))
		_ = syscall.Nanosleep(&ts, nil) // an early wake only lengthens the spin
	}
	time.Sleep(time.Nanosecond)
	t0 := time.Now()
	for time.Now().Before(due) {
	}
	return time.Since(t0)
}

// drain waits until everything sent has left the collector's queues
// and the shard queues. The sockets get 2 s to read what was sent
// before Server.Sync is called — Sync does not cover datagrams still in
// the kernel buffer — and whatever has not arrived by then is
// kernel-lost.
func (g *generator) drain() {
	received := func(st *collector.Stats) uint64 { return st.Datagrams + st.StreamMessages }
	st := g.srv.Stats()
	for deadline := time.Now().Add(2 * time.Second); received(&st) < g.sentMsgs && time.Now().Before(deadline); {
		time.Sleep(100 * time.Microsecond)
		st = g.srv.Stats()
	}
	g.kernelLost = g.sentMsgs - received(&st)
	// The receive counter runs a few instructions ahead of the enqueue,
	// so wait for the lanes to account for every received message
	// before trusting Sync's snapshot.
	for deadline := time.Now().Add(5 * time.Second); g.progress(&st) < received(&st) && time.Now().Before(deadline); {
		time.Sleep(100 * time.Microsecond)
		st = g.srv.Stats()
	}
	g.srv.Sync()
	for g.inflight != nil && g.inflight() > 0 {
		time.Sleep(50 * time.Microsecond)
	}
}

// collectorConfig is the fixed socket-layer deployment for a wire format.
func collectorConfig(ipfixWire bool) collector.Config {
	l := collector.Listener{Addr: "127.0.0.1:0", Proto: collector.ProtoNetFlow}
	if ipfixWire {
		l = collector.Listener{Addr: "127.0.0.1:0", Proto: collector.ProtoIPFIX, Net: "tcp"}
	}
	return collector.Config{Listeners: []collector.Listener{l}, MaxFeeds: maxFeeds, QueueLen: queueLen,
		ReadBuffer: readBuffer, MaxDatagram: maxDatagram}
}

type deployment struct {
	wl   *workload
	det  *haystack.Detector
	srv  *haystack.Server
	enc  encoder // fresh workload: encodes on the fly into buf
	buf  []byte
	recs []flow.Record
	*generator

	events, logged sink
	cancelEvents   func()
	stopTail       context.CancelFunc
	tailNext       atomic.Uint64
	tailErr        atomic.Value
	wg             sync.WaitGroup

	winMu      sync.Mutex
	windows    []haystack.WindowResult // every window OnRotate delivered since the trial began
	export     *haystack.ExportDir
	exportErrs int
	lastWindow haystack.WindowResult // a window with detections, for the traced run's export timing

	// Oracle scratch, one slot per expected detection.
	detMark, evMark, logMark []int32
	winOf                    []uint64
	evAt                     []int64
}

// deploy starts the system under test for one workload: detector,
// listener, event subscription and, on the fresh workload, the event
// log with a tail reader and a JSONL export directory under dir.
func deploy(wl *workload, dir string, window int) (*deployment, error) {
	if wl.ipfix {
		window *= 4 // the cap is in datagrams of 30 records; stream messages carry 4
	}
	n := len(wl.tips)
	d := &deployment{
		wl: wl, det: wl.w.sys.NewShardedDetector(threshold, shards),
		generator: &generator{ring: wl.ring, window: window},
		recs:      make([]flow.Record, wl.perMsg),
		detMark:   make([]int32, n), evMark: make([]int32, n), logMark: make([]int32, n),
		winOf: make([]uint64, n), evAt: make([]int64, n),
	}
	// Room for a whole trial's events, so the consumers never grow a
	// slice (and owe the collector an assist) while events are arriving.
	d.events.seen, d.logged.seen = make([]sighting, 0, n), make([]sighting, 0, n)
	cfg := haystack.ListenConfig{Config: collectorConfig(wl.ipfix)}
	cfg.Window.OnRotate = d.onRotate
	if wl.fresh {
		exp, err := haystack.NewExportDir(filepath.Join(dir, "export"), "jsonl")
		if err != nil {
			d.det.Close()
			return nil, err
		}
		d.export = exp
		d.enc = newEncoder(wl.ipfix, 1)
		cfg.Log = haystack.EventLogConfig{Dir: filepath.Join(dir, "log"), Fsync: "window", SegmentBytes: logSegmentBytes}
	}
	ch, cancel := d.det.SubscribeNamed("bench")
	d.cancelEvents = cancel
	d.wg.Add(1)
	go d.consume(ch)
	srv, err := d.det.Listen(cfg)
	if err != nil {
		cancel()
		d.wg.Wait()
		d.det.Close()
		return nil, err
	}
	d.srv, d.generator.srv = srv, srv.Server
	d.inflight = func() int { return d.det.Stats().InflightBatches }
	if log := srv.EventLog(); log != nil {
		ctx, stop := context.WithCancel(context.Background())
		d.stopTail = stop
		d.wg.Add(1)
		go d.tail(ctx, log)
	}
	if err := d.dial(); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// close tears the deployment down and waits for every goroutine the
// bench started.
func (d *deployment) close() error {
	d.hangUp()
	err := d.srv.Close()
	d.cancelEvents()
	if d.stopTail != nil {
		d.stopTail()
	}
	d.wg.Wait()
	d.det.Close()
	return err
}

func (d *deployment) consume(ch <-chan haystack.DetectionEvent) {
	defer d.wg.Done()
	for ev := range ch {
		d.events.add(evKey{ev.Subscriber, d.wl.ruleIndex(ev.Rule)}, ev.Window)
	}
}

// tail follows the server's event log the way a remote consumer does:
// WaitAppend, then ReadAt from the last offset.
func (d *deployment) tail(ctx context.Context, log *eventlog.Log) {
	defer d.wg.Done()
	next := uint64(0)
	for log.WaitAppend(ctx, next) == nil {
		n, err := log.ReadAt(next, func(_ uint64, rec eventlog.Record) bool {
			if rec.Type == eventlog.TypeEvent {
				d.logged.add(evKey{rec.Event.Subscriber, d.wl.ruleIndex(rec.Event.Rule)}, rec.Event.Window)
			}
			return true
		})
		if err != nil {
			d.tailErr.Store(err)
			return
		}
		next = n
		d.tailNext.Store(n)
		// ReadAt opens and rescans the segment on every call, and its
		// garbage drives the collector; a short pause lets appends that
		// arrive together be read together, as a consumer polling at
		// 2 kHz would.
		time.Sleep(500 * time.Microsecond)
	}
}

func (d *deployment) onRotate(res haystack.WindowResult) {
	var err error
	if d.export != nil {
		_, err = d.export.Export(&res)
	}
	d.winMu.Lock()
	d.windows = append(d.windows, res)
	if err != nil {
		d.exportErrs++
	}
	d.winMu.Unlock()
}

// paced sends messages [first, first+n) open loop: a micro-burst of
// wl.burst messages whenever one is due, message first+q due at
// start+due(q). The fresh workload encodes each datagram on the fly;
// the others send their ring. It returns how late each micro-burst
// started; its messages leave back to back.
func (d *deployment) paced(first, n int, start time.Time, late []float64) ([]float64, error) {
	wl := d.wl
	for q := 0; q < n; q += wl.burst {
		due := start.Add(wl.due(q))
		d.spun += waitUntil(due)
		late = append(late, float64(time.Since(due))/1e6)
		hi := min(q+wl.burst, n)
		switch {
		case wl.fresh:
			for k := q; k < hi; k++ {
				var err error
				if d.buf, _, err = d.enc.AppendMessage(d.buf[:0], wl.fill(first+k, d.recs), wl.perMsg); err != nil {
					return late, err
				}
				if _, err := d.conns[0].Write(d.buf); err != nil {
					return late, fmt.Errorf("send: %w", err)
				}
				d.sentMsgs++
				d.sentRecs += uint64(wl.perMsg)
			}
		case wl.ipfix:
			// One Write per micro-burst, as a buffered exporter would.
			if err := d.sendRun(first+q, first+hi); err != nil {
				return late, err
			}
		default:
			for k := q; k < hi; k++ {
				if err := d.sendRun(first+k, first+k+1); err != nil {
					return late, err
				}
			}
		}
		if (q/wl.burst+1)%microPerBurst == 0 {
			st := d.srv.Server.Stats()
			d.progress(&st)
			d.inflightMx = max(d.inflightMx, d.inflight())
		}
	}
	return late, nil
}

func (d *deployment) snapshot() counters {
	st := d.srv.Server.Stats()
	ds := d.det.Stats()
	c := counters{
		sentRecs: d.sentRecs, kernelLost: d.kernelLost, queueDropped: st.DroppedDatagrams,
		decodeErrors: st.DecodeErrors, records: st.Records, skipped: ds.SkippedRecords,
		emitted: ds.EventsEmitted, eventsDropped: ds.EventsDropped, subscriberDrops: ds.SubscriberDrops,
		appendErrors: d.srv.LogWriterStats().AppendErrors,
	}
	for i := range st.Feeds {
		c.templateDrops += st.Feeds[i].TemplateDrops
		c.gaps += st.Feeds[i].SequenceGaps
	}
	for _, q := range ds.EventQueues {
		if q.Name == "bench" {
			c.benchDrops = q.Drops
		}
	}
	return c
}

// settle waits, with the pipeline already synchronized by a window
// cut, until every event emitted so far has reached the bench's
// Subscribe channel and, when the log is on, the log and its tail
// reader.
func (d *deployment) settle() error {
	log := d.srv.EventLog()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(200 * time.Microsecond) {
		st := d.det.Stats()
		drops := map[string]uint64{}
		for _, q := range st.EventQueues {
			drops[q.Name] = q.Drops
		}
		ok := st.EventsDelivered+st.EventsDropped >= st.EventsEmitted &&
			uint64(d.events.n.Load())+drops["bench"] >= st.EventsDelivered
		if ok && log != nil {
			ws := d.srv.LogWriterStats()
			ok = ws.EventsAppended+ws.AppendErrors+drops["eventlog"] >= st.EventsDelivered &&
				d.tailNext.Load() >= log.NextOffset()
		}
		if ok {
			return nil
		}
		if err, _ := d.tailErr.Load().(error); err != nil {
			return fmt.Errorf("log tail: %w", err)
		}
		if time.Now().After(deadline) {
			return errors.New("events did not settle within 5 s")
		}
	}
}

// trial is one measured trial's outcome.
type trial struct {
	vals      map[string]float64
	attempted uint64
	failed    uint64
	diffs     []string // oracle differences and losses, first few
}

// begin resets what a trial accumulates.
func (d *deployment) begin() (*trial, counters) {
	d.depthMax, d.inflightMx, d.spun = 0, 0, 0
	d.winMu.Lock()
	d.windows = d.windows[:0]
	d.winMu.Unlock()
	return &trial{vals: map[string]float64{}}, d.snapshot()
}

// cut ends the current window by hand and waits for its events.
func (d *deployment) cut(t *trial) error {
	t0 := time.Now()
	d.srv.RotateNow()
	t.vals["window.rotate_ms"] = float64(time.Since(t0)) / 1e6
	return d.settle()
}

// closedTrial replays the ring closed loop for at least dur and at
// least one lap, ending on a lap boundary so the trial's window holds
// exactly the reference detections. Events are only accounted for
// here, not required: a saturated box delays the bench's consumer
// past its 256-slot queue, and the broker sheds by design.
func (d *deployment) closedTrial(id int32, dur time.Duration) (*trial, error) {
	t, before := d.begin()
	cpu0, t0 := cpuSeconds(), time.Now()
	for lap := 0; lap == 0 || time.Since(t0) < dur; lap++ {
		if err := d.lap(); err != nil {
			return nil, err
		}
	}
	d.drain()
	wall, cpu := time.Since(t0).Seconds(), cpuSeconds()-cpu0
	after := d.snapshot()
	t.vals["live_heap_mb"] = liveHeapMB()
	if err := d.cut(t); err != nil {
		return nil, err
	}
	d.finish(t, id, before, after, wall, cpu, 0, int32(d.wl.ringMsgs), nil)
	for _, name := range []string{"detect_latency_p50_ms", "detect_latency_p99_ms", "logged_latency_p50_ms", "eventlog.append_lag_p50_ms"} {
		delete(t.vals, name)
	}
	return t, nil
}

// pacedTrial sends messages [first, first+n) of the schedule open
// loop and requires every expected event, timed from the moment its
// tipping message was due. The fresh workload also has its window cut
// every second from a second goroutine, as an operator's rotator
// would; the others are cut once, at the end.
func (d *deployment) pacedTrial(id int32, first, n int) (*trial, error) {
	t, before := d.begin()
	var rotMs []float64
	stop := make(chan struct{}) // haystack:unbounded close-only stop signal for the rotator
	var rot sync.WaitGroup
	if d.wl.fresh {
		rot.Add(1)
		go func() {
			defer rot.Done()
			tick := time.NewTicker(rotateEvery)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					t0 := time.Now()
					d.srv.RotateNow()
					rotMs = append(rotMs, float64(time.Since(t0))/1e6)
				}
			}
		}()
	}
	cpu0, start := cpuSeconds(), time.Now()
	late, err := d.paced(first, n, start, make([]float64, 0, n/d.wl.burst+1))
	close(stop)
	rot.Wait()
	if err != nil {
		return nil, err
	}
	d.drain()
	// The generator's spin is CPU the schedule costs, not the system.
	wall, cpu := time.Since(start).Seconds(), cpuSeconds()-cpu0-d.spun.Seconds()
	after := d.snapshot()
	t.vals["live_heap_mb"] = liveHeapMB()
	if err := d.cut(t); err != nil {
		return nil, err
	}
	if len(rotMs) > 0 {
		t.vals["window.rotate_ms"] = median(rotMs) // under load, not the final idle cut
	}
	sort.Float64s(late)
	t.vals["gen.late_p99_ms"] = percentile(late, 0.99)
	t.vals["gen.offered_records_per_s"] = float64(n*d.wl.perMsg) / d.wl.due(n).Seconds()
	base := start.Sub(epoch).Nanoseconds()
	d.finish(t, id, before, after, wall, cpu, int32(first), int32(first+n),
		func(tip int32) int64 { return base + int64(d.wl.due(int(tip)-first)) })
	if !d.wl.fresh {
		// A ring workload's throughput, CPU and heap come from its
		// closed-loop trials.
		for _, name := range []string{"records_per_s", "cpu_s_per_mrec", "live_heap_mb", "window.rotate_ms"} {
			delete(t.vals, name)
		}
	}
	return t, nil
}

// finish does a trial's loss accounting and oracle check and fills in
// its metric values. The trial expects exactly the reference
// detections whose tip lies in [lo, hi). With origin set — the time a
// tipping message was due — every expected event must have arrived;
// without it, an event may be missing if the system counted it dropped.
func (d *deployment) finish(t *trial, id int32, before, after counters, wall, cpu float64, lo, hi int32, origin func(int32) int64) {
	wl := d.wl
	sentRecs, records := after.sentRecs-before.sentRecs, after.records-before.records
	end := d.snapshot() // event counters move until the cut settles
	note := func(format string, a ...any) {
		if len(t.diffs) < 8 {
			t.diffs = append(t.diffs, fmt.Sprintf(format, a...))
		}
	}
	if records > sentRecs {
		note("%d records applied, only %d sent", records, sentRecs)
		t.failed += records - sentRecs
	} else if lost := sentRecs - records; lost > 0 {
		note("%d of %d records not applied: %d datagrams kernel-lost, %d queue-dropped, %d decode errors, %d template drops, %d records skipped",
			lost, sentRecs, after.kernelLost-before.kernelLost, after.queueDropped-before.queueDropped,
			after.decodeErrors-before.decodeErrors, after.templateDrops-before.templateDrops, after.skipped-before.skipped)
		t.failed += lost
	}
	d.winMu.Lock()
	windows := append([]haystack.WindowResult(nil), d.windows...)
	if d.exportErrs > 0 {
		note("%d window exports failed", d.exportErrs)
		t.failed += uint64(d.exportErrs)
		d.exportErrs = 0
	}
	d.winMu.Unlock()

	// Detections: the union of the trial's windows against the reference.
	want := uint64(0)
	for _, tip := range wl.tips {
		if tip >= lo && tip < hi {
			want++
		}
	}
	slot := func(k evKey) (int32, bool) {
		i, ok := wl.expect[k]
		return i, ok && wl.tips[i] >= lo && wl.tips[i] < hi
	}
	var detected, unexpected uint64
	for w := range windows {
		if len(windows[w].Detections) > 0 {
			d.lastWindow = windows[w]
		}
		for _, det := range windows[w].Detections {
			i, ok := slot(evKey{det.Subscriber, wl.ruleIndex(det.Rule)})
			if !ok || d.detMark[i] == id {
				unexpected++
				note("window %d: unexpected detection %016x %s", windows[w].Seq, det.Subscriber, det.Rule)
				continue
			}
			d.detMark[i], d.winOf[i] = id, windows[w].Seq
			detected++
		}
	}
	if detected < want {
		note("%d of %d reference detections missing from the windows", want-detected, want)
	}
	// Events: each at most once, stamped with the window that holds its
	// detection.
	match := func(seen []sighting, mark []int32, what string, each func(i int32, s sighting)) uint64 {
		var n uint64
		for _, s := range seen {
			i, ok := slot(s.key)
			if !ok || mark[i] == id || d.detMark[i] != id || d.winOf[i] != s.window {
				unexpected++
				note("unexpected %s event %016x rule %d window %d", what, s.key.sub, s.key.rule, s.window)
				continue
			}
			mark[i] = id
			each(i, s)
			n++
		}
		return n
	}
	var detectMs, loggedMs, lagMs []float64
	received := match(d.events.take(), d.evMark, "subscribe", func(i int32, s sighting) {
		d.evAt[i] = s.at
		if origin != nil {
			detectMs = append(detectMs, float64(s.at-origin(wl.tips[i]))/1e6)
		}
	})
	missing := want - detected
	t.attempted = sentRecs + want
	shed := (end.eventsDropped - before.eventsDropped) + (end.benchDrops - before.benchDrops)
	switch {
	case origin != nil && received < want:
		note("%d of %d expected events missing (%d counted dropped)", want-received, want, shed)
		missing += want - received
	case received+shed < want:
		note("%d of %d expected events neither received nor counted dropped", want-received-shed, want)
		missing += want - received - shed
	}
	if emitted := end.emitted - before.emitted; emitted != want {
		note("%d events emitted, %d expected", emitted, want)
	}
	if d.srv.EventLog() != nil {
		logged := match(d.logged.take(), d.logMark, "logged", func(i int32, s sighting) {
			loggedMs = append(loggedMs, float64(s.at-origin(wl.tips[i]))/1e6)
			if d.evMark[i] == id {
				lagMs = append(lagMs, float64(s.at-d.evAt[i])/1e6)
			}
		})
		if logged < want {
			note("%d of %d expected events missing from the log", want-logged, want)
			missing += want - logged
		}
		t.attempted += want
	}
	t.failed += missing + unexpected

	sort.Float64s(detectMs)
	sort.Float64s(loggedMs)
	sort.Float64s(lagMs)
	v := t.vals
	v["records_per_s"] = float64(records) / wall
	v["cpu_s_per_mrec"] = cpu / (float64(records) / 1e6)
	v["detect_latency_p50_ms"] = percentile(detectMs, 0.50)
	v["detect_latency_p99_ms"] = percentile(detectMs, 0.99)
	v["logged_latency_p50_ms"] = percentile(loggedMs, 0.50)
	v["eventlog.append_lag_p50_ms"] = percentile(lagMs, 0.50)
	v["eventlog.append_errors"] = float64(end.appendErrors - before.appendErrors)
	v["collector.queue_depth_max"] = float64(d.depthMax)
	v["collector.dropped_datagrams"] = float64(after.queueDropped - before.queueDropped)
	v["collector.kernel_lost_datagrams"] = float64(after.kernelLost - before.kernelLost)
	st := d.srv.Server.Stats()
	v["collector.active_feeds"] = float64(st.ActiveFeeds)
	v["collector.started_feeds"] = float64(st.StartedFeeds)
	v["feed.template_drops"] = float64(after.templateDrops - before.templateDrops)
	v["feed.sequence_gaps"] = float64(after.gaps - before.gaps)
	v["feed.skipped_records"] = float64(after.skipped - before.skipped)
	v["pipeline.batch_size"] = float64(d.det.Stats().BatchSize)
	v["pipeline.inflight_batches_max"] = float64(d.inflightMx)
	v["detect.hit_ratio"] = float64(wl.hits) / float64(wl.obs)
	v["detect.subscribers"], v["detect.detections"] = 0, 0
	for w := range windows {
		v["detect.subscribers"] += float64(windows[w].Subscribers)
		v["detect.detections"] += float64(len(windows[w].Detections))
	}
	v["events.emitted"] = float64(end.emitted - before.emitted)
	v["events.dropped"] = float64(end.eventsDropped - before.eventsDropped)
	v["events.subscriber_drops"] = float64(end.subscriberDrops - before.subscriberDrops)
}

// result is one workload's live run: its trials plus the failure share.
type result struct {
	trials     []*trial
	attempted  uint64
	failed     uint64
	diffs      []string
	lastWindow haystack.WindowResult
}

func (r *result) correct() bool { return r.failed == 0 && len(r.diffs) == 0 }

// runLive deploys the workload and makes its measured trials, each
// kind after an untimed warm-up that fills template caches, grows
// arenas and buffers, and lets the fan-in controller and the batch
// tuner see the rate. A ring workload gets paced latency laps over a
// prefix of its ring first — while the batch tuner still knows only
// the paced rate — and closed-loop trials after; the fresh workload is
// paced throughout, on a schedule that never repeats.
func runLive(wl *workload, seconds float64, window int, scratch string) (*result, error) {
	dir, err := os.MkdirTemp(scratch, wl.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	d, err := deploy(wl, dir, window)
	if err != nil {
		return nil, err
	}
	res := &result{}
	add := func(what string, i int32, t *trial, err error) error {
		if err != nil {
			return err
		}
		res.trials = append(res.trials, t)
		res.attempted += t.attempted
		res.failed += t.failed
		for _, s := range t.diffs {
			res.diffs = append(res.diffs, fmt.Sprintf("%s %d: %s", what, i, s))
		}
		return nil
	}
	warm := func(send func() error) error {
		if err := send(); err != nil {
			return err
		}
		d.drain()
		if err := d.cut(&trial{vals: map[string]float64{}}); err != nil {
			return err
		}
		d.events.take()
		d.logged.take()
		return nil
	}
	warmN, trialN := wl.pacedPlan(seconds)
	runErr := func() error {
		if err := warm(func() error { _, err := d.paced(0, warmN, time.Now(), nil); return err }); err != nil {
			return err
		}
		if wl.fresh {
			for i := int32(1); i <= trials; i++ {
				t, err := d.pacedTrial(i, warmN+int(i-1)*trialN, trialN)
				if err := add("paced trial", i, t, err); err != nil {
					return err
				}
			}
			return nil
		}
		for i := int32(1); i <= probeLaps; i++ {
			t, err := d.pacedTrial(i, 0, trialN)
			if err := add("latency lap", i, t, err); err != nil {
				return err
			}
		}
		dur := time.Duration(seconds * (1 - probeShare) / trials * float64(time.Second))
		warmup := min(pacedWarmup, dur)
		if err := warm(func() error {
			for t0 := time.Now(); time.Since(t0) < warmup; {
				if err := d.lap(); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
		for i := int32(1); i <= trials; i++ {
			t, err := d.closedTrial(probeLaps+i, dur)
			if err := add("closed trial", i, t, err); err != nil {
				return err
			}
		}
		return nil
	}()
	if err := d.close(); err != nil && runErr == nil {
		runErr = err
	}
	res.lastWindow = d.lastWindow
	return res, runErr
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// liveHeapMB is the heap still reachable after a forced collection, in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
