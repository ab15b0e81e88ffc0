// Package pipeline runs the detection engine sharded across worker
// goroutines — the scalability layer the paper's §6 wild deployments
// imply but a single detect.Engine (documented not safe for concurrent
// use) cannot provide.
//
// Observations are partitioned by a hash of the subscriber identifier,
// so every subscriber's stream lands on exactly one worker-owned
// engine and is processed in arrival order. The compiled
// rules.Dictionary is shared read-only across shards. Because all
// per-subscriber state is confined to its owning shard, every merged
// aggregate the pipeline exposes is independent of the shard count:
// running with 1 shard or 8 produces identical results, only faster.
//
// # Producers
//
// The write side is driven through Producer handles. Each Producer
// owns per-shard batch buffers and must be used from a single
// goroutine, but any number of Producers may observe concurrently —
// one per collector feed in an operational deployment. Within one
// Producer a subscriber's observations are applied in call order;
// across Producers the interleaving is unspecified, so feeds that must
// agree on per-subscriber ordering (first-detection hours) should
// partition subscribers between them, as distinct exporters naturally
// do.
//
// Full batches are handed to bounded per-shard channels; read
// accessors first drain all live producers and wait for the workers
// (Sync), so they always observe a quiescent, consistent state. Reads
// require that no Observe is concurrently in flight: quiesce the
// producer goroutines (or Close their handles) before reading.
//
// Batch size is a throughput policy only. A partial batch never waits
// for more observations to fill it: once it has sat for a full
// flushTick it is dispatched, by the producer's next ObserveBatch or
// by the pipeline's one flusher goroutine, so an observation reaches
// its shard within two ticks however quiet the feed goes after it.
//
// # Events and windows
//
// The read side is available in push form too: SetFireHook installs a
// first-fire hook that shard workers invoke the moment a rule crosses
// threshold (FireEvent), and Rotate cuts an aggregation window — an
// atomic snapshot-and-reset that advances the window sequence stamped
// on every event. Together they turn the pipeline from a pull-
// snapshot batch engine into the continuously reporting detector the
// paper's §6 longitudinal views presuppose.
package pipeline

import (
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/detect"
	"repro/internal/rules"
	"repro/internal/simrand"
	"repro/internal/simtime"
)

// Obs is one sampled flow observation, the unit of work handed to
// shard workers. It is an alias of detect.Obs so batches flow from
// producers to shard engines without per-record conversion.
type Obs = detect.Obs

// FireEvent is one first-fire notification from a shard worker: Rule
// crossed its evidence threshold for Sub during hour bin Hour, while
// aggregation window Window was current. Events are emitted exactly
// once per (subscriber, rule) per window — the push-side counterpart
// of EachDetected.
type FireEvent struct {
	Sub    detect.SubID
	Rule   int
	Hour   simtime.Hour
	Window uint64
}

// DefaultBatchSize is the number of observations buffered per shard
// before a batch is handed to its worker.
const DefaultBatchSize = 512

// MinBatchSize and MaxBatchSize bound SetBatchSize: below the floor
// per-batch dispatch overhead dominates, above the ceiling batches
// pin memory without amortizing anything further.
const (
	MinBatchSize = 64
	MaxBatchSize = 4096
)

// batchLatencyBudget sizes AdaptiveBatchSize's threshold at about this
// many seconds of pipeline-wide ingest, so the per-record dispatch cost
// falls as the rate grows. Dwell is bounded by the flusher, not by
// this budget.
const batchLatencyBudget = 0.002

// AdaptiveBatchSize maps an observed ingest rate in records/s — in a
// deployment, the fan-in controller's EWMA — to a dispatch threshold:
// about batchLatencyBudget worth of records, clamped to
// [MinBatchSize, MaxBatchSize]. It is a throughput policy: larger
// batches mean fewer handoffs per record, while the flusher bounds how
// long a partial batch waits. A rate of zero or below (controller not
// yet seeded) keeps DefaultBatchSize.
func AdaptiveBatchSize(rate float64) int {
	if rate <= 0 {
		return DefaultBatchSize
	}
	n := int(rate * batchLatencyBudget)
	if n < MinBatchSize {
		return MinBatchSize
	}
	if n > MaxBatchSize {
		return MaxBatchSize
	}
	return n
}

// shardBacklog bounds how many batches may queue per shard before a
// producer blocks (backpressure instead of unbounded memory).
const shardBacklog = 4

// flushTick is the flusher's period. A producer's partial batches are
// dispatched once they were stamped at least one full tick ago — by
// the flusher at a tick, or by the producer's own next ObserveBatch if
// that comes first — so an observation waits at most two ticks.
const flushTick = time.Millisecond

type shard struct {
	// mu guards eng between the worker (write-locked per batch) and
	// the read accessors (read-locked per shard visit), so reads
	// concurrent with live producers are safe, merely approximate.
	mu   sync.RWMutex
	eng  *detect.Engine
	ch   chan []Obs
	free chan []Obs // recycled batch buffers
	// window is the shard's current aggregation-window sequence. It is
	// read by the fire hook and advanced by Rotate/Reset inside the
	// same mu critical section as the engine reset, so an event's
	// stamp always matches the window whose snapshot holds its
	// detection — even when rotation races live ingest.
	window uint64 // guarded by mu
}

// Pipeline is a sharded, batched detection engine. Writes go through
// Producer handles (NewProducer); engine work proceeds concurrently on
// the shard workers; read accessors synchronize via Sync.
type Pipeline struct {
	dict   *rules.Dictionary
	shards []*shard
	// batchSize is the per-shard dispatch threshold. Atomic so the
	// fan-in controller can retune it (SetBatchSize) while producers
	// are live.
	batchSize atomic.Int32
	workers   sync.WaitGroup

	// inflight counts batches dispatched but not yet processed. A
	// plain counter under a mutex with a condition variable, not a
	// WaitGroup: producers may dispatch while a reader waits for
	// quiescence, and WaitGroup forbids Add concurrent with Wait.
	inflightMu sync.Mutex
	inflight   int
	quiet      *sync.Cond // signaled when inflight drops to zero

	// dirty is set by Producer.Observe and cleared by Sync, so
	// back-to-back reads (e.g. point queries inside an EachDetected
	// visit) skip the producer flush pass while the engines are
	// quiescent.
	dirty  atomic.Bool
	closed atomic.Bool

	// hook is the optional first-fire hook (SetFireHook); shard
	// workers load it per detection, so an unhooked pipeline pays one
	// nil check per fire and nothing per observation.
	hook atomic.Pointer[func(FireEvent)]
	// window is the aggregation-window sequence number: the count of
	// completed Rotate/Reset calls. FireEvents are stamped from the
	// per-shard copy of this counter (see shard.window), which stays
	// coherent with the shard's snapshot under live rotation.
	window atomic.Uint64

	rotateMu sync.Mutex // serializes Rotate/Reset window cuts

	mu        sync.Mutex // guards producers
	producers map[*Producer]struct{}

	syncMu sync.Mutex // serializes Sync flush passes between readers

	// The flusher (see flusher) advances epoch once per flushTick while
	// any producer holds a stamp. wake unparks it: a producer sends on
	// its 0→stamped transition, and capacity 1 means a pending wake
	// absorbs later ones. flushStop/flushDone stop it and confirm it
	// has exited.
	epoch     atomic.Uint64
	wake      chan struct{}
	flushStop chan struct{}
	flushDone chan struct{}

	// flushFull and flushTimed count dispatched batches by cause: filled
	// to the threshold, or dispatched because their stamp went stale (by
	// the flusher, or by the producer itself). Sync/Close flushes count
	// as neither.
	flushFull  atomic.Uint64
	flushTimed atomic.Uint64
}

// New starts a pipeline with n worker-owned engine shards at detection
// threshold d, plus its flusher. n < 1 is clamped to 1. Call Close to
// stop them.
func New(dict *rules.Dictionary, d float64, n int) *Pipeline {
	if n < 1 {
		n = 1
	}
	p := &Pipeline{
		dict:      dict,
		producers: make(map[*Producer]struct{}),
		wake:      make(chan struct{}, 1),
		flushStop: make(chan struct{}), // haystack:unbounded close-only shutdown signal for the flusher
		flushDone: make(chan struct{}), // haystack:unbounded close-only flusher-exit acknowledgement
	}
	p.batchSize.Store(DefaultBatchSize)
	p.quiet = sync.NewCond(&p.inflightMu)
	p.shards = make([]*shard, n)
	for i := range p.shards {
		s := &shard{
			eng:  detect.New(dict, d),
			ch:   make(chan []Obs, shardBacklog),
			free: make(chan []Obs, shardBacklog),
		}
		// Bridge the engine's first-fire hook to the pipeline hook,
		// stamping the shard's window sequence. The engine calls this
		// on the shard worker goroutine under the shard's lock — the
		// same lock Rotate advances s.window under, so the stamp is
		// coherent with the snapshot the detection lands in.
		s.eng.OnFire = func(sub detect.SubID, rule int, h simtime.Hour) {
			if fn := p.hook.Load(); fn != nil {
				(*fn)(FireEvent{Sub: sub, Rule: rule, Hour: h, Window: s.window})
			}
		}
		p.shards[i] = s
		p.workers.Add(1)
		go p.run(s)
	}
	go p.flusher()
	return p
}

// SetFireHook installs fn as the pipeline's first-fire hook: shard
// workers call it the moment a rule crosses threshold for a
// subscriber, once per (subscriber, rule) per window. fn runs on the
// worker goroutine while it holds the shard's engine lock, so it must
// be fast and must never block or call back into the pipeline's read
// accessors — hand the event to a bounded queue and return. Pass nil
// to uninstall. Safe to call at any time; fires already in flight may
// still use the previous hook.
func (p *Pipeline) SetFireHook(fn func(FireEvent)) {
	if fn == nil {
		p.hook.Store(nil)
		return
	}
	p.hook.Store(&fn)
}

// Window returns the current aggregation-window sequence number: the
// number of completed Rotate/Reset cuts so far.
func (p *Pipeline) Window() uint64 { return p.window.Load() }

// run is a shard worker's loop: apply each batch to the shard engine
// under the shard lock. The whole batch goes through the engine's
// batch entry point, so the per-record engine costs (subscriber map
// lookup) are amortized there rather than paid per Observe call.
//
// haystack:hotpath — runs once per dispatched batch.
func (p *Pipeline) run(s *shard) {
	defer p.workers.Done()
	for batch := range s.ch {
		s.mu.Lock()
		s.eng.ObserveBatch(batch)
		s.mu.Unlock()
		select {
		case s.free <- batch[:0]:
		default: // recycle ring full; let the buffer be collected
		}
		p.inflightMu.Lock()
		p.inflight--
		if p.inflight == 0 {
			p.quiet.Broadcast()
		}
		p.inflightMu.Unlock()
	}
}

// waitQuiesced blocks until no dispatched batch remains unprocessed.
// Engine writes by the workers happen-before its return. Under
// sustained producer saturation inflight may never reach zero, so a
// racing reader waits for a lull; quiescent producers drain promptly.
func (p *Pipeline) waitQuiesced() {
	p.inflightMu.Lock()
	for p.inflight > 0 {
		p.quiet.Wait()
	}
	p.inflightMu.Unlock()
}

// flusher bounds how long an observation waits in a partial batch. It
// parks on wake until a producer stamps, then ticks every flushTick:
// each tick advances the epoch and, under each producer's own mutex —
// the flush Sync performs, without waiting for the workers — dispatches
// the partial batches of every producer stamped before the previous
// tick; a producer still observing has usually flushed itself by then.
// Once no producer holds a stamp it parks again, so an idle pipeline
// costs nothing. It exits on flushStop.
func (p *Pipeline) flusher() {
	defer close(p.flushDone)
	t := time.NewTicker(flushTick)
	defer t.Stop()
	var prs []*Producer // reused across ticks: a tick allocates nothing
	for {
		t.Stop()
		select {
		case <-p.flushStop:
			return
		case <-p.wake:
		}
		// Open a fresh epoch, so stamps taken while parked are flushed
		// at the first tick rather than the second.
		p.epoch.Add(1)
		t.Reset(flushTick)
		for stamped := true; stamped; {
			select {
			case <-p.flushStop:
				return
			case <-t.C:
			}
			e := p.epoch.Add(1)
			prs = p.liveProducers(prs[:0])
			stamped = false
			for _, pr := range prs {
				if s := pr.stamp.Load(); s != 0 && s < e {
					pr.mu.Lock()
					if s := pr.stamp.Load(); s != 0 && s < e {
						pr.flushLocked(true)
					}
					pr.mu.Unlock()
				}
				// A producer that stamps after this load also sends a
				// wake, which unparks the flusher at once.
				if pr.stamp.Load() != 0 {
					stamped = true
				}
			}
		}
	}
}

// liveProducers appends the open producers to dst, copied under p.mu
// so their flushes run without holding it.
func (p *Pipeline) liveProducers(dst []*Producer) []*Producer {
	p.mu.Lock()
	defer p.mu.Unlock()
	for pr := range p.producers {
		dst = append(dst, pr)
	}
	return dst
}

// shardOf maps a subscriber to its owning shard. SubIDs are often
// sequential (line indices) or biased hashes, so mix before reducing.
//
// haystack:hotpath — runs once per observation.
func (p *Pipeline) shardOf(sub detect.SubID) int {
	return int(simrand.Mix64(uint64(sub)) % uint64(len(p.shards)))
}

// dispatch hands one full or flushed batch to its shard worker.
//
// haystack:hotpath — runs once per full batch.
func (p *Pipeline) dispatch(s *shard, batch []Obs) {
	p.inflightMu.Lock()
	p.inflight++
	p.inflightMu.Unlock()
	s.ch <- batch
}

// Producer is a write handle onto the pipeline with its own per-shard
// batch buffers. Each Producer must be driven from a single goroutine;
// distinct Producers may observe concurrently. A subscriber's
// observations keep their order within one Producer (they ride the
// same per-shard buffer and channel); ordering across Producers is
// unspecified.
type Producer struct {
	p *Pipeline
	// mu guards the buffers against the flushes Sync and the flusher
	// perform. Lightly contended: besides the owner, only Sync/Close
	// and the flusher (at most once per flushTick) take it.
	mu     sync.Mutex
	batch  [][]Obs // one buffer per shard, nil until first use
	closed bool
	// stamp is 0 from a flushLocked until the next ObserveBatch, which
	// sets it to the flusher's epoch + 1. Written under mu, read by the
	// flusher without it.
	stamp atomic.Uint64
}

// NewProducer registers a new write handle. Producers left open are
// flushed and closed by Pipeline.Close.
func (p *Pipeline) NewProducer() *Producer {
	if p.closed.Load() {
		panic("pipeline: NewProducer after Close")
	}
	pr := &Producer{p: p, batch: make([][]Obs, len(p.shards))}
	p.mu.Lock()
	p.producers[pr] = struct{}{}
	p.mu.Unlock()
	return pr
}

// Observe enqueues one sampled flow observation: ObserveBatch of one.
// Unlike detect.Engine.Observe it does not report newly-fired rules:
// firing happens asynchronously on the owning shard. Use the
// pipeline's read accessors (which synchronize) to inspect detections.
//
// haystack:hotpath — runs once per sampled flow observation.
func (pr *Producer) Observe(sub detect.SubID, h simtime.Hour, ip netip.Addr, port uint16, pkts uint64) {
	pr.ObserveBatch([]Obs{{Sub: sub, Hour: h, IP: ip, Port: port, Pkts: pkts}})
}

// ObserveBatch enqueues a whole batch of observations, partitioning
// it across shards under one producer-mutex acquisition instead of
// one per record. A subscriber's observations keep their order. The
// obs slice is copied into per-shard buffers and may be reused by the
// caller immediately on return.
//
// haystack:hotpath — runs once per decoded flow batch.
func (pr *Producer) ObserveBatch(obs []Obs) {
	if len(obs) == 0 {
		return
	}
	p := pr.p
	if p.closed.Load() {
		panic("pipeline: ObserveBatch after Close")
	}
	size := int(p.batchSize.Load())
	pr.mu.Lock()
	if pr.closed {
		pr.mu.Unlock()
		panic("pipeline: ObserveBatch on closed Producer")
	}
	for j := range obs {
		i := p.shardOf(obs[j].Sub)
		s := p.shards[i]
		b := pr.batch[i]
		if b == nil {
			select {
			case b = <-s.free:
			default:
				b = make([]Obs, 0, size)
			}
		}
		b = append(b, obs[j])
		if len(b) >= size {
			p.flushFull.Add(1)
			p.dispatch(s, b)
			b = nil
		}
		pr.batch[i] = b
	}
	// Set dirty after buffering, still under pr.mu: a Sync that
	// cleared the flag before this point either takes pr.mu after us
	// and flushes these observations, or left them buffered — in which
	// case the store guarantees the next Sync flushes them. Setting
	// dirty first would let a racing Sync clear it over an empty
	// buffer and strand the observations invisible to later reads.
	p.dirty.Store(true)
	// Stamp on the first batch since the last flush, and only then
	// wake the flusher. The stamp is stored before the wake is sent, so
	// a flusher that read it as 0 and parked is woken by this send.
	// A producer that is still busy when its stamp goes stale flushes
	// itself, so the flusher seldom has to take a busy producer's mutex.
	if s := pr.stamp.Load(); s == 0 {
		pr.stamp.Store(p.epoch.Load() + 1)
		select {
		case p.wake <- struct{}{}:
		default: // a wake is already pending
		}
	} else if s < p.epoch.Load() {
		pr.flushLocked(true)
	}
	pr.mu.Unlock()
}

// Flush dispatches the producer's partial batches to their shard
// workers without waiting for them to be applied.
func (pr *Producer) Flush() {
	pr.mu.Lock()
	pr.flushLocked(false)
	pr.mu.Unlock()
}

// flushLocked dispatches every partial batch and clears the stamp;
// timed counts each batch in flushTimed before it is handed off. The
// caller holds pr.mu.
func (pr *Producer) flushLocked(timed bool) {
	for i, b := range pr.batch {
		if len(b) > 0 {
			if timed {
				pr.p.flushTimed.Add(1)
			}
			pr.p.dispatch(pr.p.shards[i], b)
			pr.batch[i] = nil
		}
	}
	pr.stamp.Store(0)
}

// Close flushes the producer's partial batches and unregisters the
// handle. Closing an already-closed producer is a no-op.
func (pr *Producer) Close() {
	pr.mu.Lock()
	if pr.closed {
		pr.mu.Unlock()
		return
	}
	pr.flushLocked(false)
	pr.closed = true
	pr.mu.Unlock()
	p := pr.p
	p.mu.Lock()
	delete(p.producers, pr)
	p.mu.Unlock()
}

// Producers returns the number of open producer handles.
func (p *Pipeline) Producers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.producers)
}

// Inflight returns the number of dispatched batches not yet applied
// to their shard engines — the pipeline-side queue depth a metrics
// surface reports alongside the socket-side backlog.
func (p *Pipeline) Inflight() int {
	p.inflightMu.Lock()
	defer p.inflightMu.Unlock()
	return p.inflight
}

// Flushes returns how many batches have been dispatched because they
// filled (full) and how many because they had waited a full flushTick
// (timed). Flushes by Sync and Close count as neither.
func (p *Pipeline) Flushes() (full, timed uint64) {
	return p.flushFull.Load(), p.flushTimed.Load()
}

// Sync flushes the partial batches of every live producer and blocks
// until every dispatched observation has been applied to its shard
// engine. All read accessors call it implicitly; between Sync and the
// next Observe the shard engines are quiescent and safe to read.
// Concurrent readers are safe (Sync serializes their flush passes),
// and a Sync racing an Observe is safe but may or may not include
// that observation — quiesce producers before reading for exact
// results.
func (p *Pipeline) Sync() {
	p.syncMu.Lock()
	defer p.syncMu.Unlock()
	if p.dirty.Swap(false) {
		for _, pr := range p.liveProducers(nil) {
			pr.Flush()
		}
	}
	// Wait even when the flush pass was skipped: it is what gives a
	// reader that lost the dirty race to another Sync a happens-after
	// edge with the workers' engine writes.
	p.waitQuiesced()
}

// Shards returns the number of engine shards.
func (p *Pipeline) Shards() int { return len(p.shards) }

// BatchSize returns the current per-shard dispatch threshold.
func (p *Pipeline) BatchSize() int { return int(p.batchSize.Load()) }

// SetBatchSize retunes the per-shard dispatch threshold, clamped to
// [MinBatchSize, MaxBatchSize]. Safe to call while producers are
// live: buffers already allocated keep their capacity and dispatch at
// whichever threshold their next append observes, so retuning never
// loses or reorders observations.
func (p *Pipeline) SetBatchSize(n int) {
	if n < MinBatchSize {
		n = MinBatchSize
	}
	if n > MaxBatchSize {
		n = MaxBatchSize
	}
	p.batchSize.Store(int32(n))
}

// Dictionary returns the shared compiled dictionary.
func (p *Pipeline) Dictionary() *rules.Dictionary { return p.dict }

// Reset clears all shard state and advances the window sequence —
// Rotate without materializing the closing window's snapshot.
// Producers stay registered and usable for the next bin, but must be
// quiescent across the call or observations straddle the bins.
func (p *Pipeline) Reset() {
	p.rotateMu.Lock()
	defer p.rotateMu.Unlock()
	p.Sync()
	for _, s := range p.shards {
		s.mu.Lock()
		s.eng.Reset()
		s.window++
		s.mu.Unlock()
	}
	p.window.Add(1)
}

// Rotate atomically ends the current aggregation window: it
// synchronizes the pipeline, captures a merged snapshot of every
// shard's detections, resets the shard engines, and advances the
// window sequence. It returns the snapshot together with the sequence
// number of the window just closed (the value FireEvents emitted
// during that window carry). Producers stay registered — feeds and
// their template caches survive rotation, as they would across
// windows in a deployment. Observations in flight across the call may
// land on either side of the boundary (quiesce producers for an exact
// cut, exactly as with Reset), but event stamps stay coherent either
// way: each shard's window sequence advances inside the same critical
// section as its snapshot+reset, so an event stamped with window n is
// always part of window n's snapshot.
func (p *Pipeline) Rotate() (*detect.Snapshot, uint64) {
	p.rotateMu.Lock()
	defer p.rotateMu.Unlock()
	p.Sync()
	parts := make([]*detect.Snapshot, len(p.shards))
	for i, s := range p.shards {
		s.mu.Lock()
		parts[i] = s.eng.Snapshot()
		s.eng.Reset()
		s.window++
		s.mu.Unlock()
	}
	seq := p.window.Add(1) - 1
	return detect.Merge(parts...), seq
}

// Restore marks (sub, rule) as already detected with first-detection
// hour first, on the subscriber's owning shard — the replay path
// rebuilding the current window from a durable event log (see
// detect.Engine.Restore). No FireEvent is emitted and restoring an
// already-detected pair is a no-op. Replay before starting producers;
// a Restore racing live ingest is safe (same lock) but the
// interleaving is unspecified.
func (p *Pipeline) Restore(sub detect.SubID, rule int, first simtime.Hour) {
	s := p.shards[p.shardOf(sub)]
	s.mu.Lock()
	s.eng.Restore(sub, rule, first)
	s.mu.Unlock()
}

// SetWindow forces the aggregation-window sequence to seq on every
// shard, without snapshotting or resetting anything — how a node
// restarting from a durable log resumes the window series where the
// crash interrupted it instead of restarting at zero. Call it while
// the pipeline is quiescent (before producers start), normally
// alongside the Restore pass.
func (p *Pipeline) SetWindow(seq uint64) {
	p.rotateMu.Lock()
	defer p.rotateMu.Unlock()
	p.Sync()
	for _, s := range p.shards {
		s.mu.Lock()
		s.window = seq
		s.mu.Unlock()
	}
	p.window.Store(seq)
}

// Close stops the flusher, flushes and closes all live producers,
// drains pending work and stops the shard workers. The pipeline
// remains readable after Close but must not Observe again.
func (p *Pipeline) Close() {
	if p.closed.Swap(true) {
		return
	}
	// The flusher dispatches onto shard channels: it must be gone
	// before they close.
	close(p.flushStop)
	<-p.flushDone
	for _, pr := range p.liveProducers(nil) {
		pr.Close()
	}
	p.waitQuiesced()
	p.dirty.Store(false)
	for _, s := range p.shards {
		close(s.ch)
	}
	p.workers.Wait()
}

// Detected reports whether the rule has fired for the subscriber.
func (p *Pipeline) Detected(sub detect.SubID, rule int) bool {
	p.Sync()
	s := p.shards[p.shardOf(sub)]
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.eng.Detected(sub, rule)
}

// FirstDetection returns the hour a rule first fired for a subscriber
// and whether it fired at all.
func (p *Pipeline) FirstDetection(sub detect.SubID, rule int) (simtime.Hour, bool) {
	p.Sync()
	s := p.shards[p.shardOf(sub)]
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.eng.FirstDetection(sub, rule)
}

// RulePackets returns the sampled packets attributed to (sub, rule) in
// this bin.
func (p *Pipeline) RulePackets(sub detect.SubID, rule int) uint64 {
	p.Sync()
	s := p.shards[p.shardOf(sub)]
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.eng.RulePackets(sub, rule)
}

// ActiveUse reports whether (sub, rule) meets the §7.1 usage threshold.
func (p *Pipeline) ActiveUse(sub detect.SubID, rule int) bool {
	p.Sync()
	s := p.shards[p.shardOf(sub)]
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.eng.ActiveUse(sub, rule)
}

// CountDetected returns how many subscribers the rule currently fires
// for, across all shards.
func (p *Pipeline) CountDetected(rule int) int {
	p.Sync()
	n := 0
	for _, s := range p.shards {
		s.mu.RLock()
		n += s.eng.CountDetected(rule)
		s.mu.RUnlock()
	}
	return n
}

// CountAnyDetected returns how many subscribers have at least one fired
// rule, across all shards.
func (p *Pipeline) CountAnyDetected() int {
	p.Sync()
	n := 0
	for _, s := range p.shards {
		s.mu.RLock()
		n += s.eng.CountAnyDetected()
		s.mu.RUnlock()
	}
	return n
}

// Subscribers returns the number of tracked subscribers across shards.
func (p *Pipeline) Subscribers() int {
	p.Sync()
	n := 0
	for _, s := range p.shards {
		s.mu.RLock()
		n += s.eng.Subscribers()
		s.mu.RUnlock()
	}
	return n
}

// EachDetected visits every (subscriber, rule) detection across shards.
// Visit order follows shard order, not subscriber order; use Snapshot
// for a globally ordered view. Each shard's detections are captured
// under its read lock before fn runs, so fn may itself call read
// accessors (point queries) without holding any shard lock.
func (p *Pipeline) EachDetected(fn func(sub detect.SubID, rule int, first simtime.Hour)) {
	p.Sync()
	type det struct {
		sub   detect.SubID
		rule  int
		first simtime.Hour
	}
	var items []det
	for _, s := range p.shards {
		items = items[:0]
		s.mu.RLock()
		s.eng.EachDetected(func(sub detect.SubID, rule int, first simtime.Hour) {
			items = append(items, det{sub, rule, first})
		})
		s.mu.RUnlock()
		for _, it := range items {
			fn(it.sub, it.rule, it.first)
		}
	}
}

// Snapshot captures a merged, immutable view of all shard detections.
func (p *Pipeline) Snapshot() *detect.Snapshot {
	p.Sync()
	parts := make([]*detect.Snapshot, len(p.shards))
	for i, s := range p.shards {
		s.mu.RLock()
		parts[i] = s.eng.Snapshot()
		s.mu.RUnlock()
	}
	return detect.Merge(parts...)
}
