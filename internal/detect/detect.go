// Package detect implements the streaming detection engine that applies
// the compiled IoT dictionary to sampled flow records (§5–§6).
//
// The engine is keyed by an opaque subscriber identifier — an
// anonymized subscriber-line hash at the ISP, a source address hash at
// the IXP — and tracks, per (subscriber, rule), which monitored domains
// have been evidenced. A rule fires once the §4.3.2 evidence
// requirement max(1, ⌊D·N⌋) is met, subject to the rule hierarchy
// (Samsung TV requires Samsung IoT confirmed first).
//
// Aggregation windows are the caller's concern: run one engine per
// hour/day/fortnight and Reset between bins, exactly like the paper's
// hourly and daily summaries.
package detect

import (
	"math/bits"
	"net/netip"

	"repro/internal/rules"
	"repro/internal/simtime"
)

// SubID is an opaque subscriber identifier.
type SubID uint64

// bitset covers up to 128 monitored domains per rule (Fire TV needs 67).
type bitset [2]uint64

func (b *bitset) set(i int) { b[i>>6] |= 1 << (i & 63) }

func (b *bitset) count() int {
	return bits.OnesCount64(b[0]) + bits.OnesCount64(b[1])
}

// ruleState is per-(subscriber, rule) evidence. Subscribers touch very
// few rules, so states live in a small association list.
type ruleState struct {
	rule      int
	bits      bitset
	pkts      uint64       // sampled packets attributed to the rule
	firstHour simtime.Hour // first hour the rule fired (0 = not yet)
	detected  bool
}

type subState struct {
	states []ruleState
}

func (s *subState) get(rule int) *ruleState {
	for i := range s.states {
		if s.states[i].rule == rule {
			return &s.states[i]
		}
	}
	s.states = append(s.states, ruleState{rule: rule})
	return &s.states[len(s.states)-1]
}

func (s *subState) lookup(rule int) *ruleState {
	for i := range s.states {
		if s.states[i].rule == rule {
			return &s.states[i]
		}
	}
	return nil
}

// Engine applies a dictionary at a fixed detection threshold.
// Not safe for concurrent use; shard subscribers across engines for
// parallel processing.
type Engine struct {
	dict *rules.Dictionary
	// D is the detection threshold of §4.3.2.
	D       float64
	minDoms []int
	subs    map[SubID]*subState
	// detections counts currently-detected subscribers per rule.
	detections []int

	// OnFire, when non-nil, is called synchronously at the moment a
	// rule crosses its evidence threshold for a subscriber — exactly
	// once per (subscriber, rule) per aggregation bin, including rules
	// released transitively by a newly-confirmed parent. It fires in
	// addition to (and in the same order as) Observe's returned slice.
	// The callback runs inside Observe and must not call back into the
	// engine; hand the event to a queue for anything heavier than a
	// counter.
	OnFire func(sub SubID, rule int, h simtime.Hour)
}

// New returns an engine with detection threshold d. The paper's
// conservative default is 0.4.
func New(dict *rules.Dictionary, d float64) *Engine {
	e := &Engine{dict: dict, D: d}
	e.minDoms = make([]int, len(dict.Rules))
	for i := range dict.Rules {
		e.minDoms[i] = dict.Rules[i].MinDomains(d)
	}
	e.Reset()
	return e
}

// Reset clears all subscriber state (start of a new aggregation bin).
func (e *Engine) Reset() {
	e.subs = make(map[SubID]*subState)
	e.detections = make([]int, len(e.dict.Rules))
}

// Dictionary returns the engine's dictionary.
func (e *Engine) Dictionary() *rules.Dictionary { return e.dict }

// Observe feeds one sampled flow observation: subscriber sub exchanged
// pkts sampled packets with service endpoint (ip, port) during hour h.
// Returns the rules that newly fired on this observation.
func (e *Engine) Observe(sub SubID, h simtime.Hour, ip netip.Addr, port uint16, pkts uint64) []int {
	var fired []int
	e.observe([]Obs{{Sub: sub, Hour: h, IP: ip, Port: port, Pkts: pkts}}, &fired)
	return fired
}

// Obs is one sampled flow observation: subscriber Sub exchanged Pkts
// sampled packets with service endpoint (IP, Port) during Hour. It is
// the element type of the batch observe path (internal/pipeline
// aliases it), laid out once here so batches cross the pipeline
// boundary without conversion.
type Obs struct {
	Sub  SubID
	Hour simtime.Hour
	IP   netip.Addr
	Port uint16
	Pkts uint64
}

// ObserveBatch feeds a batch of observations. It is Observe for each
// element in order — OnFire fires for exactly the same (subscriber,
// rule, hour) sequence — with newly-fired rules reported only through
// OnFire.
//
// haystack:hotpath — runs once per shard batch, the innermost loop of
// the socket-to-detection path.
func (e *Engine) ObserveBatch(obs []Obs) { e.observe(obs, nil) }

// observe is the one per-observation body behind Observe and
// ObserveBatch. The subscriber-state map lookup is hoisted across runs
// of consecutive same-subscriber observations, the common shape after
// a decoded flow batch is partitioned by shard. Newly fired rules are
// appended to *fired when a caller wants the list; with fired nil
// nothing is built, so the batch path never allocates.
//
// haystack:hotpath — loops per observation.
func (e *Engine) observe(obs []Obs, fired *[]int) {
	var (
		cur SubID
		st  *subState
	)
	for i := range obs {
		o := &obs[i]
		targets := e.dict.Lookup(o.Hour.Day(), o.IP, o.Port)
		if len(targets) == 0 {
			continue
		}
		if st == nil || o.Sub != cur {
			cur = o.Sub
			st = e.subs[cur]
			if st == nil {
				st = &subState{}
				e.subs[cur] = st
			}
		}
		for _, t := range targets {
			rs := st.get(t.Rule)
			rs.bits.set(t.Bit)
			rs.pkts += o.Pkts
			e.evaluate(cur, st, t.Rule, o.Hour, fired)
		}
	}
}

// evaluate re-checks a rule (and its dependents) after new evidence.
func (e *Engine) evaluate(sub SubID, st *subState, rule int, h simtime.Hour, fired *[]int) {
	rs := st.lookup(rule)
	if rs == nil || rs.detected || rs.bits.count() < e.minDoms[rule] {
		return
	}
	r := &e.dict.Rules[rule]
	if r.RequireParent && r.Parent >= 0 {
		if ps := st.lookup(r.Parent); ps == nil || !ps.detected {
			return
		}
	}
	rs.detected = true
	rs.firstHour = h
	e.detections[rule]++
	if fired != nil {
		*fired = append(*fired, rule)
	}
	if e.OnFire != nil {
		e.OnFire(sub, rule, h)
	}
	// A newly-confirmed parent may release children waiting on it.
	for i := range e.dict.Rules {
		if e.dict.Rules[i].RequireParent && e.dict.Rules[i].Parent == rule {
			e.evaluate(sub, st, i, h, fired)
		}
	}
}

// Restore marks (sub, rule) as already detected with the given first
// detection hour, without evidence bits and without firing OnFire —
// the replay path rebuilding a window from a durable event log. A
// restored detection behaves exactly like a fired one: evaluate skips
// it (no double fire when live evidence arrives) and children gated
// on RequireParent see the parent as confirmed. Restoring an
// already-detected pair is a no-op, so replays are idempotent.
func (e *Engine) Restore(sub SubID, rule int, first simtime.Hour) {
	if rule < 0 || rule >= len(e.dict.Rules) {
		return
	}
	st := e.subs[sub]
	if st == nil {
		st = &subState{}
		e.subs[sub] = st
	}
	rs := st.get(rule)
	if rs.detected {
		return
	}
	rs.detected = true
	rs.firstHour = first
	e.detections[rule]++
}

// Detected reports whether the rule has fired for the subscriber.
func (e *Engine) Detected(sub SubID, rule int) bool {
	st := e.subs[sub]
	if st == nil {
		return false
	}
	rs := st.lookup(rule)
	return rs != nil && rs.detected
}

// FirstDetection returns the hour a rule first fired for a subscriber
// and whether it fired at all.
func (e *Engine) FirstDetection(sub SubID, rule int) (simtime.Hour, bool) {
	st := e.subs[sub]
	if st == nil {
		return 0, false
	}
	rs := st.lookup(rule)
	if rs == nil || !rs.detected {
		return 0, false
	}
	return rs.firstHour, true
}

// CountDetected returns how many subscribers the rule currently fires
// for.
func (e *Engine) CountDetected(rule int) int {
	if rule < 0 || rule >= len(e.detections) {
		return 0
	}
	return e.detections[rule]
}

// CountAnyDetected returns how many subscribers have at least one
// fired rule.
func (e *Engine) CountAnyDetected() int {
	n := 0
	for _, st := range e.subs {
		for i := range st.states {
			if st.states[i].detected {
				n++
				break
			}
		}
	}
	return n
}

// Subscribers returns the number of tracked subscribers (those with at
// least one dictionary hit).
func (e *Engine) Subscribers() int { return len(e.subs) }

// RulePackets returns the sampled packets attributed to (sub, rule) so
// far in this bin — the §7.1 usage signal (threshold 10/hour for
// "actively used").
func (e *Engine) RulePackets(sub SubID, rule int) uint64 {
	st := e.subs[sub]
	if st == nil {
		return 0
	}
	rs := st.lookup(rule)
	if rs == nil {
		return 0
	}
	return rs.pkts
}

// EachDetected visits every (subscriber, rule) detection.
func (e *Engine) EachDetected(fn func(sub SubID, rule int, first simtime.Hour)) {
	for sub, st := range e.subs {
		for i := range st.states {
			if st.states[i].detected {
				fn(sub, st.states[i].rule, st.states[i].firstHour)
			}
		}
	}
}

// UsageThreshold is the §7.1 packets/hour threshold: a detected device
// whose sampled packet count reaches it ("threshold 10/hour") counts as
// actively used.
const UsageThreshold = 10

// ActiveUse reports whether the rule's sampled packet count for the
// subscriber in this bin meets or exceeds UsageThreshold. The bound is
// inclusive: exactly 10 sampled packets in an hour is active use.
func (e *Engine) ActiveUse(sub SubID, rule int) bool {
	return e.RulePackets(sub, rule) >= UsageThreshold
}
