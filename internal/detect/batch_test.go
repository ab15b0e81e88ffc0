package detect

import (
	"net/netip"
	"reflect"
	"testing"

	"repro/internal/simrand"
	"repro/internal/simtime"
)

// obsStream builds a mixed observation stream over real dictionary
// endpoints: runs of same-subscriber observations (the shape the
// pipeline produces), interleaved with misses and subscriber changes.
func obsStream(t *testing.T, n int) ([]Obs, *Engine, *Engine) {
	t.Helper()
	dict, w := testDict(t)
	days := w.Window.Days()
	var endpoints []struct {
		ip   netip.Addr
		port uint16
	}
	for _, name := range w.Catalog.DomainNames() {
		d := w.Catalog.Domains[name]
		for _, ip := range w.ResolverOn(days[0]).Resolve(name) {
			endpoints = append(endpoints, struct {
				ip   netip.Addr
				port uint16
			}{ip, d.Port})
		}
	}
	if len(endpoints) == 0 {
		t.Fatal("no resolvable endpoints")
	}
	rng := simrand.New(4242)
	obs := make([]Obs, 0, n)
	sub := SubID(1)
	for len(obs) < n {
		if rng.Intn(4) == 0 {
			sub = SubID(1 + rng.Intn(40))
		}
		ep := endpoints[rng.Intn(len(endpoints))]
		o := Obs{
			Sub:  sub,
			Hour: w.Window.Start + simtime.Hour(rng.Intn(48)),
			IP:   ep.ip,
			Port: ep.port,
			Pkts: uint64(1 + rng.Intn(3)),
		}
		if rng.Intn(8) == 0 {
			o.Port++ // dictionary miss
		}
		obs = append(obs, o)
	}
	return obs, New(dict, 0.4), New(dict, 0.4)
}

type fireEvent struct {
	sub  SubID
	rule int
	h    simtime.Hour
}

// ObserveBatch must be observably identical to an Observe loop: the
// same OnFire sequence and the same final engine statistics.
func TestObserveBatchMatchesObserveLoop(t *testing.T) {
	obs, eA, eB := obsStream(t, 4000)

	var firesA, firesB []fireEvent
	eA.OnFire = func(sub SubID, rule int, h simtime.Hour) {
		firesA = append(firesA, fireEvent{sub, rule, h})
	}
	eB.OnFire = func(sub SubID, rule int, h simtime.Hour) {
		firesB = append(firesB, fireEvent{sub, rule, h})
	}

	for i := range obs {
		o := &obs[i]
		eA.Observe(o.Sub, o.Hour, o.IP, o.Port, o.Pkts)
	}
	// Feed the same stream in uneven batch slices.
	for i := 0; i < len(obs); {
		n := min(1+i%97, len(obs)-i)
		eB.ObserveBatch(obs[i : i+n])
		i += n
	}

	if !reflect.DeepEqual(firesA, firesB) {
		t.Fatalf("OnFire sequences diverged: loop %d events, batch %d events", len(firesA), len(firesB))
	}
	if a, b := eA.Subscribers(), eB.Subscribers(); a != b {
		t.Fatalf("subscriber counts diverged: %d vs %d", a, b)
	}
	for rule := 0; rule < len(eA.dict.Rules); rule++ {
		if a, b := eA.CountDetected(rule), eB.CountDetected(rule); a != b {
			t.Fatalf("rule %d detections diverged: %d vs %d", rule, a, b)
		}
	}
	for _, ev := range firesA {
		if pa, pb := eA.RulePackets(ev.sub, ev.rule), eB.RulePackets(ev.sub, ev.rule); pa != pb {
			t.Fatalf("packets for (%d,%d) diverged: %d vs %d", ev.sub, ev.rule, pa, pb)
		}
	}
}

// Once subscribers and rule states exist, the batch observe path must
// not allocate: the engine's per-record work is map reads, association
// list walks, and integer updates.
func TestObserveBatchZeroAllocs(t *testing.T) {
	obs, e, _ := obsStream(t, 512)
	e.ObserveBatch(obs) // warm: create subscriber + rule states
	allocs := testing.AllocsPerRun(100, func() {
		e.ObserveBatch(obs)
	})
	if allocs != 0 {
		t.Fatalf("steady-state ObserveBatch allocates %v allocs/run, want 0", allocs)
	}

	// The same holds for a batch that fires: nobody reads a fired list
	// on this path, so none may be built. Forgetting every detection
	// before each run makes the evidence re-cross its thresholds.
	fires := 0
	e.OnFire = func(SubID, int, simtime.Hour) { fires++ }
	allocs = testing.AllocsPerRun(100, func() {
		for _, st := range e.subs {
			for i := range st.states {
				st.states[i].detected = false
			}
		}
		clear(e.detections)
		e.ObserveBatch(obs)
	})
	if fires == 0 {
		t.Fatal("the batch fired no rule; the guard measured nothing")
	}
	if allocs != 0 {
		t.Fatalf("firing ObserveBatch allocates %v allocs/run, want 0", allocs)
	}
}
