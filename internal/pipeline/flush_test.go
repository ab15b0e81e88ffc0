package pipeline

import (
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/detect"
	"repro/internal/rules"
	"repro/internal/simtime"
	"repro/internal/world"
)

// TestTimedFlushFiresWithoutSync: a producer observes just enough to
// fire one rule and then goes silent — no Sync, no Close, no further
// traffic. The flusher alone must hand the partial batch to its shard,
// so the fire hook runs within a few ticks rather than at the next
// read.
func TestTimedFlushFiresWithoutSync(t *testing.T) {
	dict, w := testDict(t)
	p := New(dict, 0.4, 4)
	defer p.Close()
	fired := make(chan FireEvent, 1)
	p.SetFireHook(func(ev FireEvent) {
		select {
		case fired <- ev:
		default:
		}
	})
	h := w.Window.Start
	ips := w.ResolverOn(h.Day()).Resolve("mqtt.simmeross.example")
	port := w.Catalog.Domains["mqtt.simmeross.example"].Port

	p.NewProducer().Observe(7, h, ips[0], port, 1)
	select {
	case ev := <-fired:
		if ev.Sub != 7 || ev.Rule != dict.RuleIndex("Meross Dooropener") {
			t.Fatalf("fired %+v", ev)
		}
	case <-time.After(100 * time.Millisecond):
		t.Fatal("fire hook did not run within 100 ms of the producer's only observation")
	}
	p.Close() // joins the flusher, so its count is final
	if full, timed := p.Flushes(); full != 0 || timed != 1 {
		t.Fatalf("Flushes() = %d full, %d timed; want 0 full, 1 timed", full, timed)
	}
}

// oneShotObs gives each of n subscribers exactly one observation, of
// the first domain of a top-level rule. Every detection then rests on
// a single observation and lands whole in whichever window applies it,
// so the union of any sequence of window cuts equals one uncut run.
func oneShotObs(dict *rules.Dictionary, w *world.World, n int) []Obs {
	var top []int
	for ri := range dict.Rules {
		if dict.Rules[ri].Parent < 0 {
			top = append(top, ri)
		}
	}
	h := w.Window.Start
	res := w.ResolverOn(h.Day())
	var obs []Obs
	for i := 0; i < n; i++ {
		domain := dict.Rules[top[i%len(top)]].Domains[0]
		ips := res.Resolve(domain)
		if len(ips) == 0 {
			continue
		}
		port := uint16(443)
		if d, ok := w.Catalog.Domains[domain]; ok {
			port = d.Port
		}
		sub := detect.SubID(uint64(i)*0x9e3779b97f4a7c15 + 17)
		obs = append(obs, Obs{Sub: sub, Hour: h + simtime.Hour(i%24), IP: ips[0], Port: port, Pkts: uint64(i%5) + 1})
	}
	return obs
}

// TestFlusherRotateSyncRace runs the flusher against everything else
// that flushes producers or cuts windows: 4 producers observe
// concurrently while one goroutine rotates every ~2 ms and another
// syncs. The union of the windows must equal a single-engine
// reference, and after Close the goroutine count is back where it
// started — the flusher and the shard workers have exited. Run with
// -race.
func TestFlusherRotateSyncRace(t *testing.T) {
	dict, w := testDict(t)
	obs := oneShotObs(dict, w, 2000)
	eng := detect.New(dict, 0.4)
	eng.ObserveBatch(obs)
	want := eng.Snapshot().Detections()
	if len(want) == 0 {
		t.Fatal("reference engine detected nothing")
	}

	base := runtime.NumGoroutine()
	p := New(dict, 0.4, 4)
	const producers = 4
	var writers sync.WaitGroup
	for g := 0; g < producers; g++ {
		prod := p.NewProducer()
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			defer prod.Close()
			for i := g * 5; i < len(obs); i += producers * 5 {
				prod.ObserveBatch(obs[i:min(i+5, len(obs))])
				time.Sleep(100 * time.Microsecond) // let batches age past a tick
			}
		}(g)
	}

	stop := make(chan struct{}) // close-only: stops the rotator and the syncer
	var cutters sync.WaitGroup
	var union []detect.Detection
	cutters.Add(2)
	go func() {
		defer cutters.Done()
		for {
			snap, _ := p.Rotate()
			union = append(union, snap.Detections()...)
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
		}
	}()
	go func() {
		defer cutters.Done()
		for {
			p.Sync()
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
			}
		}
	}()
	writers.Wait()
	close(stop)
	cutters.Wait()
	snap, _ := p.Rotate() // the producers are closed: this cut is exact
	union = append(union, snap.Detections()...)

	sort.Slice(union, func(i, j int) bool {
		if union[i].Sub != union[j].Sub {
			return union[i].Sub < union[j].Sub
		}
		return union[i].Rule < union[j].Rule
	})
	if len(union) != len(want) {
		t.Fatalf("union of %d windows holds %d detections, reference %d", p.Window(), len(union), len(want))
	}
	for i := range want {
		if union[i] != want[i] {
			t.Fatalf("detection %d: windows hold %+v, reference %+v", i, union[i], want[i])
		}
	}
	if _, timed := p.Flushes(); timed == 0 {
		t.Error("the flusher dispatched nothing; the race exercised no timed flush")
	}

	p.Close()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before New", runtime.NumGoroutine(), base)
		}
	}
}
