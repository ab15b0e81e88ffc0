// Package haystack reproduces "A Haystack Full of Needles: Scalable
// Detection of IoT Devices in the Wild" (Saidi et al., IMC 2020): a
// methodology for detecting consumer IoT devices at subscriber lines
// from passive, sparsely-sampled flow data (NetFlow/IPFIX) at an ISP or
// IXP, without any payload.
//
// The package exposes three layers:
//
//   - System: the assembled simulated world (testbeds, hosting, passive
//     DNS, certificate scans) with the §4 pipeline already run, plus
//     one driver per table/figure of the paper's evaluation;
//   - Detector: the streaming detection engine applied to NetFlow v9 or
//     IPFIX messages, the operational artifact an ISP would deploy;
//   - the experiment registry, used by the CLI and the benchmarks.
//
// Everything is deterministic in the seed. See DESIGN.md for the
// substitution map (what the paper measured vs what is simulated here)
// and EXPERIMENTS.md for paper-vs-measured results.
package haystack

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/netip"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/collector"
	"repro/internal/detect"
	"repro/internal/eventlog"
	"repro/internal/experiments"
	"repro/internal/flow"
	"repro/internal/ipfix"
	"repro/internal/netflow"
	"repro/internal/pipeline"
	"repro/internal/simtime"
)

// Config sizes the simulation. The zero value is not usable; start from
// DefaultConfig.
type Config = experiments.Config

// Table is the uniform experiment result: printable rows plus the
// machine-readable statistics asserted in EXPERIMENTS.md.
type Table = experiments.Table

// DefaultConfig returns the test-scale configuration (1:500 of the
// paper's 15 M subscriber lines) for the given seed.
func DefaultConfig(seed uint64) Config { return experiments.DefaultConfig(seed) }

// PaperScaleConfig returns a 1:100 scale model (150k lines), the
// configuration used for the EXPERIMENTS.md headline numbers. Budget a
// few minutes of CPU for the full wild sweep.
func PaperScaleConfig(seed uint64) Config {
	cfg := experiments.DefaultConfig(seed)
	cfg.ISP.Lines = 150_000
	cfg.ISP.Scale = 100
	return cfg
}

// System is the assembled world with the detection dictionary compiled.
type System struct {
	lab *experiments.Lab
}

// New builds a system. The heavyweight simulations (ground truth, wild
// ISP, wild IXP) run lazily on first use.
func New(cfg Config) (*System, error) {
	lab, err := experiments.NewLab(cfg)
	if err != nil {
		return nil, err
	}
	return &System{lab: lab}, nil
}

// MustNew is New for static configurations.
func MustNew(cfg Config) *System {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Experiment identifies one reproducible table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(*System) *Table
}

// Registry returns every experiment in presentation order.
func Registry() []Experiment {
	return []Experiment{
		{"T1", "Table 1: device inventory", func(s *System) *Table { return s.lab.Table1() }},
		{"S41", "§4.1 domain classification census", func(s *System) *Table { return s.lab.Sec41() }},
		{"S42", "§4.2 dedicated vs shared infrastructure", func(s *System) *Table { return s.lab.Sec42() }},
		{"S43", "§4.3 detection-rule census", func(s *System) *Table { return s.lab.Sec43() }},
		{"F5a", "Fig 5(a) service IPs per hour", func(s *System) *Table { return s.lab.Fig5a() }},
		{"F5b", "Fig 5(b) domains per hour", func(s *System) *Table { return s.lab.Fig5b() }},
		{"F5c", "Fig 5(c) cumulative IPs per port class", func(s *System) *Table { return s.lab.Fig5c() }},
		{"F5d", "Fig 5(d) devices per hour", func(s *System) *Table { return s.lab.Fig5d() }},
		{"F6", "Fig 6 heavy-hitter visibility", func(s *System) *Table { return s.lab.Fig6() }},
		{"F8", "Fig 8 packets/hour per domain", func(s *System) *Table { return s.lab.Fig8() }},
		{"F9", "Fig 9 ECDF of packets/hour", func(s *System) *Table { return s.lab.Fig9() }},
		{"F10", "Fig 10 time to detection per threshold", func(s *System) *Table { return s.lab.Fig10() }},
		{"F11", "Fig 11 wild-ISP subscribers per hour/day", func(s *System) *Table { return s.lab.Fig11() }},
		{"F12", "Fig 12 Amazon/Samsung drill-down", func(s *System) *Table { return s.lab.Fig12() }},
		{"F13", "Fig 13 cumulative subscribers and /24s", func(s *System) *Table { return s.lab.Fig13() }},
		{"F14", "Fig 14 other 32 device types per day", func(s *System) *Table { return s.lab.Fig14() }},
		{"F15", "Fig 15 wild-IXP unique IPs per day", func(s *System) *Table { return s.lab.Fig15() }},
		{"F16", "Fig 16 per-AS distribution at the IXP", func(s *System) *Table { return s.lab.Fig16() }},
		{"F17", "Fig 17 single Alexa device at both VPs", func(s *System) *Table { return s.lab.Fig17() }},
		{"F18", "Fig 18 actively-used Alexa lines per hour", func(s *System) *Table { return s.lab.Fig18() }},
		{"S5FP", "§5 false-positive crosscheck", func(s *System) *Table { return s.lab.Sec5FalsePositive() }},
	}
}

// Run executes one experiment by ID.
func (s *System) Run(id string) (*Table, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e.Run(s), nil
		}
	}
	return nil, fmt.Errorf("haystack: unknown experiment %q (see Registry)", id)
}

// RunAll executes every experiment in registry order.
func (s *System) RunAll() []*Table {
	var out []*Table
	for _, e := range Registry() {
		out = append(out, e.Run(s))
	}
	return out
}

// RuleSummary describes one compiled detection rule.
type RuleSummary struct {
	Name     string
	Level    string
	Parent   string
	Domains  []string
	Products []string
}

// Rules returns the compiled IoT dictionary's rules, sorted by name.
func (s *System) Rules() []RuleSummary {
	dict := s.lab.Dict
	out := make([]RuleSummary, 0, len(dict.Rules))
	for i := range dict.Rules {
		r := &dict.Rules[i]
		parent := ""
		if r.Parent >= 0 {
			parent = dict.Rules[r.Parent].Name
		}
		out = append(out, RuleSummary{
			Name:     r.Name,
			Level:    r.Level.String(),
			Parent:   parent,
			Domains:  append([]string(nil), r.Domains...),
			Products: append([]string(nil), r.Products...),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Catalog returns the testbed inventory backing the system.
func (s *System) Catalog() *catalog.Catalog { return s.lab.W.Catalog }

// StudyStart returns the start of the simulated study window
// (Nov 15, 2019 — the paper's first measurement day).
func (s *System) StudyStart() time.Time { return s.lab.W.Window.Start.Time() }

// ServiceIPs returns the addresses a domain resolves to on the first
// study day — the view a device opening a connection would get. It
// returns nil for unhosted domains.
func (s *System) ServiceIPs(domain string) []netip.Addr {
	return s.lab.W.ResolverOn(s.lab.W.Window.Days()[0]).Resolve(domain)
}

// Detection is one (subscriber, rule) detection event. Its JSON form
// (MarshalJSON/UnmarshalJSON) uses the same snake_case keys
// WindowResult does, rendering the subscriber as the §2.1 export
// schema's 16-hex-digit hash string (SubscriberHex) — a raw uint64
// would silently corrupt in float64-based JSON consumers, since
// hashes exceed 2^53.
type Detection struct {
	// Subscriber is the opaque anonymized subscriber key (the hash of
	// the subscriber-side address for wire-fed detectors).
	Subscriber uint64
	Rule       string
	Level      string
	// First is the start of the hour bin in which the rule fired.
	First time.Time
}

// detectionJSON is the wire form of Detection; see the type comment.
type detectionJSON struct {
	Subscriber string    `json:"subscriber"`
	Rule       string    `json:"rule"`
	Level      string    `json:"level"`
	First      time.Time `json:"first"`
}

func (d Detection) MarshalJSON() ([]byte, error) {
	return json.Marshal(detectionJSON{SubscriberHex(d.Subscriber), d.Rule, d.Level, d.First})
}

func (d *Detection) UnmarshalJSON(b []byte) error {
	var raw detectionJSON
	if err := json.Unmarshal(b, &raw); err != nil {
		return err
	}
	sub, err := strconv.ParseUint(raw.Subscriber, 16, 64)
	if err != nil {
		return fmt.Errorf("haystack: detection subscriber %q: %w", raw.Subscriber, err)
	}
	*d = Detection{Subscriber: sub, Rule: raw.Rule, Level: raw.Level, First: raw.First}
	return nil
}

// Detector applies the compiled dictionary to NetFlow v9 / IPFIX
// messages — the operational deployment of the methodology. Detection
// runs on a sharded pipeline (see internal/pipeline): decoded records
// are partitioned by anonymized subscriber key across worker-owned
// engines, so results are independent of the shard count.
//
// For a live deployment, Listen / ListenAndDetect bind collector
// sockets — UDP for NetFlow v9 / IPFIX datagrams, TCP for RFC 7011
// IPFIX streams — and drive exporter messages through the full stack:
// sockets → feeds → sharded engines (the three layers DESIGN.md
// diagrams), with adaptive feed fan-in and per-feed transport metrics.
//
// # Windowed, event-driven reads
//
// Beyond the pull-everything Detections snapshot, the read side is
// windowed and event-driven — the shape of the paper's §6
// longitudinal results (detections per hour/day, Figs 10, 11, 15):
//
//   - Subscribe streams a DetectionEvent the moment a rule crosses
//     threshold for a subscriber, once per (subscriber, rule) per
//     window, to any number of subscribers;
//   - Rotate atomically cuts an aggregation window — a WindowResult
//     with the window's detections, per-rule counts, and stats deltas
//     — and resets detection state while feeds and template caches
//     survive;
//   - ListenConfig.Window drives Rotate on a period, delivering every
//     WindowResult (including the final partial window at shutdown)
//     to an OnRotate callback — see the haystack.Export writers for
//     the §2.1-anonymized JSONL/CSV schema.
//
// # Concurrency
//
// Wire messages enter through Feed handles (NewFeed). Each Feed owns
// its own wire-format decoders and pipeline producer and must be
// driven from a single goroutine, but any number of Feeds may run
// concurrently — one per collector socket in a deployment. Because
// detection state is keyed by subscriber, feeds should partition the
// subscriber space (as distinct exporters naturally do): a subscriber
// whose records interleave across feeds may see its multi-hour
// first-detection times vary with scheduling.
//
// The zero-setup methods FeedNetFlow/FeedIPFIX drive one implicit
// Feed and are therefore not safe to call concurrently with each
// other; use NewFeed handles for concurrent ingestion. Reading
// (Detections) while feeds are still running is safe but approximate
// — observations in flight may or may not be included, and under
// sustained ingest saturation the read blocks until the pipeline sees
// a momentary lull; quiesce or Close the feeds first for exact,
// prompt results. Reset requires quiescent feeds.
type Detector struct {
	pipe    *pipeline.Pipeline
	skipped atomic.Uint64
	// recordsV4/recordsV6 count records delivered to the pipeline by
	// subscriber address family, across all feeds (§2.1 hashes both).
	recordsV4 atomic.Uint64
	recordsV6 atomic.Uint64

	mu  sync.Mutex
	def *Feed // backs the Detector-level feed methods

	// Event fan-out (events.go): shard workers push FireEvents into
	// evCh via the pipeline hook; the broker goroutine translates and
	// fans them out to Subscribe channels.
	evMu            sync.Mutex
	evSubs          map[*eventSub]struct{}
	evCh            chan pipeline.FireEvent
	evDone          chan struct{}
	evClosed        bool
	evNextID        uint64 // guarded by evMu; names anonymous subscribers
	eventsEmitted   atomic.Uint64
	eventsDropped   atomic.Uint64
	eventsDelivered atomic.Uint64
	subscriberDrops atomic.Uint64

	// Window rotation (window.go): baseline counters for stats deltas
	// and the wall-clock start of the current window.
	rotateMu    sync.Mutex
	windowStart time.Time
	base        windowBaseline
}

// NewDetector returns a detector at detection threshold d (the paper's
// conservative default is 0.4), sharded per the system configuration.
// Call Close when done to stop the shard workers.
func (s *System) NewDetector(d float64) *Detector {
	return s.NewShardedDetector(d, s.lab.Cfg.Shards)
}

// NewShardedDetector returns a detector at detection threshold d with
// an explicit engine-shard count (outputs are shard-invariant).
func (s *System) NewShardedDetector(d float64, shards int) *Detector {
	return &Detector{
		pipe:        pipeline.New(s.lab.Dict, d, shards),
		windowStart: time.Now(),
	}
}

// Feed is one wire-format ingestion handle: a NetFlow v9 and IPFIX
// decoder pair bound to its own pipeline producer. Each Feed must be
// driven from a single goroutine; distinct Feeds may run concurrently.
// Feed satisfies collector.Feed, so the UDP socket layer (Listen,
// ListenAndDetect) drives these handles directly.
type Feed struct {
	d       *Detector
	prod    *pipeline.Producer
	nf      *netflow.Collector
	ix      *ipfix.Collector
	records atomic.Uint64
	// arena receives decoded records for FeedNetFlow/FeedIPFIX, the
	// entry points the socket layer drives; it is reset, not freed,
	// between messages. obs is the reusable record→observation staging
	// buffer. Single-goroutine, like the rest of Feed.
	arena flow.Batch
	obs   []pipeline.Obs
}

// NewFeed registers a new ingestion handle, one per collector
// goroutine.
func (d *Detector) NewFeed() *Feed {
	return &Feed{
		d:    d,
		prod: d.pipe.NewProducer(),
		nf:   netflow.NewCollector(),
		ix:   ipfix.NewCollector(),
	}
}

// Close flushes the feed's buffered observations and releases its
// producer. The detector stays readable; closing twice is a no-op.
func (f *Feed) Close() { f.prod.Close() }

// FeedStats are transport-health counters for one feed: records
// delivered to the pipeline, untemplated data sets dropped, and
// exporter sequence gaps. The type is shared with the socket layer
// (internal/collector), which snapshots it per feed for metrics.
type FeedStats = collector.FeedStats

// Stats returns the feed's transport-health counters, summed over its
// NetFlow and IPFIX decoders. All counters are atomics, so Stats is
// safe to call while another goroutine drives the feed — the reading
// is approximate under load, never racy.
func (f *Feed) Stats() FeedStats {
	return FeedStats{
		Records: f.records.Load(),
		Dropped: f.nf.Dropped.Load() + f.ix.Dropped.Load(),
		Gaps:    f.nf.Gaps.Load() + f.ix.Gaps.Load(),
	}
}

// subscriberKey anonymizes the subscriber-side address by hashing, as
// §2.1 requires ("anonymize by hashing all user IPs") — IPv4 and IPv6
// subscribers alike. The IPv4 hash is unchanged from earlier releases,
// so previously exported detections stay byte-identical; IPv6
// addresses avalanche both 64-bit halves so adjacent prefixes spread.
// ok is false only for addresses that cannot identify any subscriber
// line (the exporter's template omitted or mis-sized the
// source-address field), which callers must skip rather than observe;
// v6 reports the address family for the per-family record counters.
//
// haystack:hotpath — runs once per flow record.
func subscriberKey(a netip.Addr) (id detect.SubID, v6, ok bool) {
	a = a.Unmap()
	if a.Is4() {
		b := a.As4()
		x := uint64(b[0])<<24 | uint64(b[1])<<16 | uint64(b[2])<<8 | uint64(b[3])
		x ^= 0x9e3779b97f4a7c15
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		return detect.SubID(x), false, true
	}
	if !a.Is6() {
		return 0, false, false
	}
	b := a.As16()
	x := binary.BigEndian.Uint64(b[0:8])*0x9e3779b97f4a7c15 ^ binary.BigEndian.Uint64(b[8:16])
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return detect.SubID(x), true, true
}

// observeBatch stages one decoded record batch as pipeline
// observations in f.obs (reused across calls — steady state is
// append-into-capacity) and hands the whole batch to the producer
// under a single shard-map lock acquisition. Records whose
// subscriber-side address is unusable are skipped and counted.
//
// haystack:hotpath — runs once per decoded message, looping per record.
func (f *Feed) observeBatch(recs []flow.Record) {
	var v4, v6 uint64
	f.obs = f.obs[:0]
	for i := range recs {
		r := &recs[i]
		key, is6, ok := subscriberKey(r.Key.Src)
		if !ok {
			f.d.skipped.Add(1)
			continue
		}
		f.obs = append(f.obs, pipeline.Obs{
			Sub:  key,
			Hour: r.Hour,
			IP:   r.Key.Dst,
			Port: r.Key.DstPort,
			Pkts: r.Packets,
		})
		if is6 {
			v6++
		} else {
			v4++
		}
	}
	f.prod.ObserveBatch(f.obs)
	if v4 > 0 {
		f.d.recordsV4.Add(v4)
	}
	if v6 > 0 {
		f.d.recordsV6.Add(v6)
	}
	if n := v4 + v6; n > 0 {
		f.records.Add(n)
	}
}

// FeedNetFlow parses one NetFlow v9 message and feeds its records to
// the detection pipeline. The flow source is treated as the subscriber
// side.
func (f *Feed) FeedNetFlow(msg []byte) error {
	f.arena.Reset()
	return f.FeedNetFlowBatch(msg, &f.arena)
}

// FeedIPFIX parses one IPFIX message and feeds its records.
func (f *Feed) FeedIPFIX(msg []byte) error {
	f.arena.Reset()
	return f.FeedIPFIXBatch(msg, &f.arena)
}

// FeedNetFlowBatch parses one NetFlow v9 message into the caller's
// arena and feeds the decoded batch to the pipeline. The arena must
// arrive Reset; its backing storage is reused across messages, so the
// whole decode-to-dispatch path runs without steady-state allocation.
// FeedNetFlow is this call on the feed's own arena.
func (f *Feed) FeedNetFlowBatch(msg []byte, arena *flow.Batch) error {
	err := f.nf.FeedInto(msg, arena)
	f.observeBatch(arena.Records()) // records decoded before a mid-message error still count
	return err
}

// FeedIPFIXBatch parses one IPFIX message into the caller's arena and
// feeds the decoded batch; see FeedNetFlowBatch.
func (f *Feed) FeedIPFIXBatch(msg []byte, arena *flow.Batch) error {
	err := f.ix.FeedInto(msg, arena)
	f.observeBatch(arena.Records())
	return err
}

// defaultFeed lazily creates the feed behind the Detector-level
// convenience methods.
func (d *Detector) defaultFeed() *Feed {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.def == nil {
		d.def = d.NewFeed()
	}
	return d.def
}

// FeedNetFlow parses one NetFlow v9 message on the detector's implicit
// feed. For concurrent ingestion use NewFeed handles instead.
func (d *Detector) FeedNetFlow(msg []byte) error { return d.defaultFeed().FeedNetFlow(msg) }

// FeedIPFIX parses one IPFIX message on the detector's implicit feed.
func (d *Detector) FeedIPFIX(msg []byte) error { return d.defaultFeed().FeedIPFIX(msg) }

// SkippedRecords returns how many decoded records were skipped across
// all feeds because their subscriber-side address was invalid (e.g.
// the exporter's template omitted or mis-sized the source address
// field). IPv4 and IPv6 subscribers are both hashed and observed, per
// §2.1's "anonymize all user IPs". The counter survives Reset and
// Rotate: it describes transport health, not window state.
func (d *Detector) SkippedRecords() uint64 { return d.skipped.Load() }

// Detections returns every (subscriber, rule) detection so far, sorted
// for determinism. It synchronizes the pipeline: all observations fed
// before the call (on any quiescent feed) are reflected.
func (d *Detector) Detections() []Detection {
	dict := d.pipe.Dictionary()
	var out []Detection
	d.pipe.EachDetected(func(sub detect.SubID, rule int, first simtime.Hour) {
		out = append(out, Detection{
			Subscriber: uint64(sub),
			Rule:       dict.Rules[rule].Name,
			Level:      dict.Rules[rule].Level.String(),
			First:      first.Time(),
		})
	})
	sortDetections(out)
	return out
}

// sortDetections orders by subscriber then rule name — the canonical
// presentation order shared by Detections and WindowResult.
func sortDetections(list []Detection) {
	sort.Slice(list, func(i, j int) bool {
		if list[i].Subscriber != list[j].Subscriber {
			return list[i].Subscriber < list[j].Subscriber
		}
		return list[i].Rule < list[j].Rule
	})
}

// Shards returns the number of engine shards the detector runs on.
func (d *Detector) Shards() int { return d.pipe.Shards() }

// Reset clears detection state and starts the next aggregation window
// — Rotate, discarding the closing window's result. Feeds and their
// template caches survive, as they would across windows in a
// deployment.
func (d *Detector) Reset() {
	d.rotateMu.Lock()
	defer d.rotateMu.Unlock()
	d.pipe.Reset()
	d.cutBaselineLocked(time.Now())
}

// Close flushes all feeds — including the implicit feed behind the
// Detector-level FeedNetFlow/FeedIPFIX, so its buffered observations
// always reach the pipeline — stops the shard workers, and closes
// every Subscribe channel. Detections remain readable after Close;
// feeding afterwards panics.
func (d *Detector) Close() {
	d.mu.Lock()
	def := d.def
	d.mu.Unlock()
	if def != nil {
		def.Close()
	}
	d.pipe.Close()
	d.closeEvents()
}

// ListenConfig configures a listening deployment: the UDP socket
// layer (the embedded collector.Config; see it for field semantics
// and defaults) plus aggregation-window rotation. A zero MaxFeeds is
// defaulted to the detector's shard count — more feeds than shards
// cannot add engine parallelism.
type ListenConfig struct {
	collector.Config

	// Window, when Every > 0 or OnRotate is set, turns the deployment
	// into the paper's windowed, continuously reporting detector: the
	// server rotates the detector every Every (plus a final, partial
	// window when it shuts down) and hands each WindowResult to
	// OnRotate. With OnRotate set but Every zero, the whole run is one
	// window, rotated and delivered at Close.
	Window WindowConfig

	// Log, when Log.Dir is set, gives the deployment a durable event
	// log (internal/eventlog): before the sockets bind, the detector
	// replays the log to resume the interrupted window — sequence
	// number and fired set — and from then on a dedicated subscriber
	// appends every DetectionEvent plus a marker per rotated window.
	// See log.go and DESIGN.md "Durability & replay".
	Log EventLogConfig
}

// Server is one running listening deployment: the collector socket
// layer plus, when configured, the aggregation-window rotator. The
// embedded collector.Server surfaces (Addrs, Stats, ServeMetrics,
// Sync) are promoted; use this type's Close/Serve so the rotator
// stops and the final window is delivered.
type Server struct {
	*collector.Server
	det    *Detector
	window WindowConfig

	stop    chan struct{} // stops the periodic rotator
	rotDone chan struct{}
	// tuneStop/tuneDone bound the adaptive batch-size tuner, which
	// follows the collector's smoothed ingest rate.
	tuneStop chan struct{}
	tuneDone chan struct{}
	stopOnce sync.Once
	// cutMu serializes window cuts (periodic, RotateNow, final) so
	// exports and log markers are delivered in sequence order.
	cutMu sync.Mutex

	// Event-log wiring (log.go). All nil/zero when ListenConfig.Log is
	// unset.
	log        *eventlog.Log
	tail       *LogTail
	replay     ReplayStats
	logCancel  func()        // cancels the writer's subscription
	logDone    chan struct{} // haystack:unbounded close-only writer-exit signal
	logEvents  atomic.Uint64 // events appended by the writer
	logErrs    atomic.Uint64 // failed appends (events and markers)
	logClosErr error         // the log's Close error, folded into Close's return
}

// Listen binds the configured sockets — UDP datagram listeners and
// TCP stream listeners (RFC 7011 IPFIX framing) alike — and starts
// ingesting NetFlow v9 / IPFIX into the detection pipeline: the
// deployable collector of the paper's §6 vantage points. Each
// exporter source the adaptive fan-in opens gets a NewFeed handle;
// sources are stickily assigned to feeds so template caches,
// sequence tracking, and per-subscriber ordering are preserved, and
// a TCP source's feed lives exactly as long as its connection (see
// DESIGN.md for the layer diagram and docs/OPERATIONS.md for running
// it).
//
// The returned server reports transport metrics (collector.Stats),
// drives the configured window rotation, and stops with Close; the
// detector itself stays open for Detections, Subscribe, and further
// feeds.
func (d *Detector) Listen(cfg ListenConfig) (*Server, error) {
	if cfg.MaxFeeds == 0 {
		cfg.MaxFeeds = d.Shards()
	}
	s := &Server{det: d, window: cfg.Window}
	if cfg.Log.Dir != "" {
		// Replay, then subscribe the writer, and only then bind the
		// sockets: state is rebuilt before any new observation arrives,
		// and no event can fire into a pre-subscription gap.
		if err := s.openLog(cfg.Log); err != nil {
			return nil, err
		}
	}
	inner, err := collector.Listen(cfg.Config, func() collector.Feed { return d.NewFeed() })
	if err != nil {
		s.teardownLog()
		return nil, err
	}
	s.Server = inner
	if cfg.Window.Every > 0 {
		s.stop = make(chan struct{})    // haystack:unbounded close-only shutdown signal for the rotator
		s.rotDone = make(chan struct{}) // haystack:unbounded close-only rotator-exit acknowledgement
		go s.rotator()
	}
	tick := cfg.Tick
	if tick <= 0 {
		tick = time.Second
	}
	s.tuneStop = make(chan struct{}) // haystack:unbounded close-only shutdown signal for the tuner
	s.tuneDone = make(chan struct{}) // haystack:unbounded close-only tuner-exit acknowledgement
	go s.batchTuner(tick)
	return s, nil
}

// batchTuner retunes the pipeline's dispatch threshold to the fan-in
// controller's smoothed ingest rate, once per controller tick: higher
// sustained rates earn larger batches (fewer handoffs per record).
// It is a throughput policy; the pipeline's flusher bounds how long an
// observation waits in a partial batch at any rate. See
// pipeline.AdaptiveBatchSize for the policy.
func (s *Server) batchTuner(tick time.Duration) {
	defer close(s.tuneDone)
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-s.tuneStop:
			return
		case <-t.C:
			s.det.pipe.SetBatchSize(pipeline.AdaptiveBatchSize(s.Server.Stats().RateEWMA))
		}
	}
}

// rotator cuts a window every cfg.Window.Every until Close.
func (s *Server) rotator() {
	defer close(s.rotDone)
	t := time.NewTicker(s.window.Every)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.rotateAndDeliver()
		}
	}
}

// rotateAndDeliver cuts one window and delivers it — OnRotate first,
// then the log's window marker, so a marker in the log means the
// window reached its consumers. cutMu keeps concurrent cut sources
// (the periodic rotator, RotateNow, the final cut in Close) from
// interleaving their deliveries out of sequence order.
func (s *Server) rotateAndDeliver() WindowResult {
	s.cutMu.Lock()
	defer s.cutMu.Unlock()
	res := s.det.Rotate()
	if s.window.OnRotate != nil {
		s.window.OnRotate(res)
	}
	s.appendMarker(&res)
	return res
}

// RotateNow cuts the current aggregation window immediately —
// delivering it to OnRotate, the export directory, and the event log
// exactly as a periodic rotation would — and returns it. The CLI
// drives it from SIGHUP; tests use it for deterministic window
// boundaries.
func (s *Server) RotateNow() WindowResult { return s.rotateAndDeliver() }

// Close stops the sockets first — draining every queued datagram
// through the feeds, so the detector is quiescent — then stops the
// window rotator and rotates one final time, delivering the partial
// tail window to OnRotate: across a windowed run every detection
// lands in exactly one WindowResult. Safe to call multiple times;
// the final window is delivered once.
func (s *Server) Close() error {
	err := s.Server.Close()
	s.stopOnce.Do(func() {
		if s.stop != nil {
			close(s.stop)
			<-s.rotDone
		}
		if s.tuneStop != nil {
			close(s.tuneStop)
			<-s.tuneDone
		}
		if s.window.Every > 0 || s.window.OnRotate != nil || s.log != nil {
			s.rotateAndDeliver()
		}
		s.finishLog()
	})
	if err == nil {
		err = s.logClosErr
	}
	return err
}

// Kill tears the server down without committing the in-progress
// window: sockets drain, the rotator stops, but there is no final
// Rotate — no export, no OnRotate call, no window marker. From the
// event log's perspective this is exactly what SIGKILL leaves behind
// (events of the open window with no closing marker), which is what
// crash-replay tests simulate with it. The detector itself stays
// open; callers own its Close.
func (s *Server) Kill() error {
	err := s.Server.Close()
	s.stopOnce.Do(func() {
		if s.stop != nil {
			close(s.stop)
			<-s.rotDone
		}
		if s.tuneStop != nil {
			close(s.tuneStop)
			<-s.tuneDone
		}
		s.finishLog()
	})
	if err == nil {
		err = s.logClosErr
	}
	return err
}

// Serve blocks until ctx is done, then shuts the server down
// gracefully via Close (rotating and delivering the final window).
func (s *Server) Serve(ctx context.Context) error {
	<-ctx.Done()
	return s.Close()
}

// ListenAndDetect is Listen for the common lifecycle: it serves until
// ctx is cancelled, then drains the sockets' in-flight datagrams,
// closes the feeds, and delivers the final window (when windowing is
// configured), leaving the detector quiescent for exact Detections
// reads.
func (d *Detector) ListenAndDetect(ctx context.Context, cfg ListenConfig) error {
	srv, err := d.Listen(cfg)
	if err != nil {
		return err
	}
	return srv.Serve(ctx)
}

// DetectorStats is the detector-level slice of the metrics surface;
// the per-feed transport counters live in collector.Stats. All
// counters are cumulative across the detector's lifetime — window
// deltas are what Rotate reports in WindowResult.
//
// haystack:metrics-struct — every exported field must be filled by a
// haystack:metrics-export function (enforced by haystacklint).
type DetectorStats struct {
	// RecordsIPv4 and RecordsIPv6 count decoded records delivered to
	// the pipeline, by subscriber address family (both are hashed and
	// observed, per §2.1).
	RecordsIPv4 uint64 `json:"records_ipv4"`
	RecordsIPv6 uint64 `json:"records_ipv6"`
	// SkippedRecords counts decoded records dropped for lack of any
	// usable subscriber address, across all feeds.
	SkippedRecords uint64 `json:"skipped_records"`
	// Shards is the engine shard count.
	Shards int `json:"shards"`
	// OpenFeeds is the number of live feed handles (pipeline
	// producers).
	OpenFeeds int `json:"open_feeds"`
	// InflightBatches is the pipeline-side queue depth: observation
	// batches dispatched to shard workers but not yet applied.
	InflightBatches int `json:"inflight_batches"`
	// BatchSize is the pipeline's current dispatch threshold
	// (observations per shard batch), a throughput setting: under
	// Listen it tracks the collector's smoothed ingest rate via
	// pipeline.AdaptiveBatchSize. How long a partial batch may wait is
	// bounded separately, by the pipeline's flusher.
	BatchSize int `json:"batch_size"`
	// FlushFull counts shard batches dispatched because they reached
	// BatchSize; FlushTimed counts partial batches dispatched because
	// they had waited a full 1 ms tick (the pipeline's dwell bound).
	// Both count batches, not records, and exclude the flushes reads
	// and Close perform.
	FlushFull  uint64 `json:"flush_full"`
	FlushTimed uint64 `json:"flush_timed"`
	// Windows is the number of completed aggregation windows
	// (Rotate/Reset cuts); the current window's sequence number.
	Windows uint64 `json:"windows"`
	// EventSubscribers is the number of live Subscribe channels.
	EventSubscribers int `json:"event_subscribers"`
	// EventsEmitted counts first-fire events emitted by the shard
	// workers since the first Subscribe installed the hook.
	EventsEmitted uint64 `json:"events_emitted"`
	// EventsDropped counts events lost because the detector's bounded
	// event queue was full — the broker could not keep up.
	EventsDropped uint64 `json:"events_dropped"`
	// SubscriberDrops counts per-subscriber deliveries skipped because
	// that subscriber's channel buffer was full (slow consumer); other
	// subscribers still receive the event.
	SubscriberDrops uint64 `json:"subscriber_drops"`
	// EventsDelivered counts events the broker has fanned out to the
	// subscriber channels. EventsEmitted − EventsDropped −
	// EventsDelivered is the broker's queue backlog.
	EventsDelivered uint64 `json:"events_delivered"`
	// EventQueues breaks the Subscribe fan-out down per subscriber:
	// one entry per live channel, sorted by name, with its queue depth
	// and drop count — how a lagging event-log writer or exporter
	// bridge is told apart from a healthy one.
	EventQueues []EventQueueStats `json:"event_queues,omitempty"`
}

// EventQueueStats is one Subscribe channel's health in DetectorStats.
//
// haystack:metrics-struct — every exported field must be filled by a
// haystack:metrics-export function (enforced by haystacklint).
type EventQueueStats struct {
	// Name is the SubscribeNamed name ("sub-<n>" when auto-assigned).
	Name string `json:"name"`
	// Buffered and Capacity are the channel's current depth and size.
	Buffered int `json:"buffered"`
	Capacity int `json:"capacity"`
	// Drops counts deliveries this subscriber alone missed because its
	// buffer was full.
	Drops uint64 `json:"drops"`
}

// Stats snapshots the detector's health counters. Safe to call while
// feeds are running.
//
// Stats is also haystack:deterministic — the EventQueues slice feeds
// /metrics JSON that tests diff, so the map iteration over
// subscribers is sorted by name before export.
//
// haystack:metrics-export
func (d *Detector) Stats() DetectorStats {
	d.evMu.Lock()
	subs := len(d.evSubs)
	queues := make([]EventQueueStats, 0, subs)
	for sub := range d.evSubs {
		queues = append(queues, EventQueueStats{
			Name:     sub.name,
			Buffered: len(sub.ch),
			Capacity: cap(sub.ch),
			Drops:    sub.drops.Load(),
		})
	}
	d.evMu.Unlock()
	sort.Slice(queues, func(i, j int) bool { return queues[i].Name < queues[j].Name })
	if len(queues) == 0 {
		queues = nil
	}
	full, timed := d.pipe.Flushes()
	return DetectorStats{
		RecordsIPv4:      d.recordsV4.Load(),
		RecordsIPv6:      d.recordsV6.Load(),
		SkippedRecords:   d.skipped.Load(),
		Shards:           d.pipe.Shards(),
		OpenFeeds:        d.pipe.Producers(),
		InflightBatches:  d.pipe.Inflight(),
		BatchSize:        d.pipe.BatchSize(),
		FlushFull:        full,
		FlushTimed:       timed,
		Windows:          d.pipe.Window(),
		EventSubscribers: subs,
		EventsEmitted:    d.eventsEmitted.Load(),
		EventsDropped:    d.eventsDropped.Load(),
		SubscriberDrops:  d.subscriberDrops.Load(),
		EventsDelivered:  d.eventsDelivered.Load(),
		EventQueues:      queues,
	}
}
