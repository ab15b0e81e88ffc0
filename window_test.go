package haystack

// Tests for the windowed, event-driven read side: Subscribe streams,
// Rotate window cuts, and their acceptance contract — rotation is
// loss-free and shard-invariant, and the events of a window reproduce
// its WindowResult exactly.

import (
	"fmt"
	"net"
	"net/netip"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/flow"
	"repro/internal/netflow"
	"repro/internal/simtime"
)

// merossMsgs builds NetFlow v9 messages whose single record fires the
// single-domain Meross rule for the given subscriber address.
func merossMsgs(t *testing.T, s *System, src netip.Addr, h simtime.Hour, srcID uint32) [][]byte {
	t.Helper()
	ips := s.lab.W.ResolverOn(h.Day()).Resolve("mqtt.simmeross.example")
	if len(ips) == 0 {
		t.Fatal("meross does not resolve")
	}
	dom := s.lab.W.Catalog.Domains["mqtt.simmeross.example"]
	rec := flow.Record{
		Key: flow.Key{
			Src: src, Dst: ips[0],
			SrcPort: 50123, DstPort: dom.Port, Proto: flow.ProtoTCP,
		},
		Packets: 3, Bytes: 1800, TCPFlags: 0x18,
		Hour: h,
	}
	msgs, err := netflow.NewExporter(srcID).Export([]flow.Record{rec}, 30)
	if err != nil {
		t.Fatal(err)
	}
	return msgs
}

func waitEvent(t *testing.T, ch <-chan DetectionEvent) DetectionEvent {
	t.Helper()
	select {
	case ev, ok := <-ch:
		if !ok {
			t.Fatal("event channel closed while waiting for an event")
		}
		return ev
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for a detection event")
	}
	panic("unreachable")
}

// TestDetectorRotationLossFreeShardInvariantUDP is the acceptance
// contract of the windowed API, over real loopback sockets: a run
// split across N rotated windows (each window's exporters covering a
// disjoint subscriber range) must yield the same union of
// (subscriber, rule) detections as one un-rotated single-shard run —
// at 1 engine shard and at 8 — and the events received via Subscribe
// must match each WindowResult's contents exactly.
func TestDetectorRotationLossFreeShardInvariantUDP(t *testing.T) {
	s := sharedSystem(t)
	const windows = 3
	streams := exporterStreams(t, s, windows)

	// Reference: every stream through one un-rotated single-shard
	// detector.
	single := s.NewShardedDetector(0.4, 1)
	feedStreams(t, single, streams)
	want := single.Detections()
	single.Close()
	if len(want) == 0 {
		t.Fatal("reference detector detected nothing; stream is too weak to compare")
	}

	run := func(t *testing.T, shards int) []WindowResult {
		det := s.NewShardedDetector(0.4, shards)
		defer det.Close()

		evCh, cancel := det.Subscribe()
		defer cancel()
		var evMu sync.Mutex
		eventsByWindow := map[uint64][]DetectionEvent{}
		evDone := make(chan struct{})
		go func() {
			defer close(evDone)
			for ev := range evCh {
				evMu.Lock()
				eventsByWindow[ev.Window] = append(eventsByWindow[ev.Window], ev)
				evMu.Unlock()
			}
		}()

		srv, err := det.Listen(ListenConfig{Config: collector.Config{
			Listeners:  []collector.Listener{{Addr: "127.0.0.1:0"}},
			MaxFeeds:   4,
			QueueLen:   4096,
			ReadBuffer: 4 << 20,
		}})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		addr := srv.Addrs()[0].String()

		var results []WindowResult
		total := 0
		for wi, msgs := range streams {
			conn, err := net.Dial("udp", addr)
			if err != nil {
				t.Fatal(err)
			}
			feed := func(i int, m []byte) {
				if _, err := conn.Write(m); err != nil {
					t.Fatal(err)
				}
				if i%16 == 15 {
					time.Sleep(time.Millisecond) // pace loopback bursts
				}
			}
			for i, m := range msgs {
				feed(i, m)
			}
			conn.Close()
			total += len(msgs)
			deadline := time.Now().Add(10 * time.Second)
			for srv.Stats().Datagrams < uint64(total) {
				if time.Now().After(deadline) {
					t.Fatalf("window %d: socket received %d of %d datagrams", wi, srv.Stats().Datagrams, total)
				}
				time.Sleep(time.Millisecond)
			}
			srv.Sync() // all datagrams decoded; feeds quiescent → exact cut
			res := det.Rotate()
			if res.Seq != uint64(wi) {
				t.Fatalf("window %d rotated with Seq %d", wi, res.Seq)
			}
			if got := len(det.Detections()); got != 0 {
				t.Fatalf("window %d: %d detections survive rotation", wi, got)
			}
			results = append(results, res)
		}
		if st := srv.Stats(); st.DroppedDatagrams != 0 || st.DecodeErrors != 0 {
			t.Fatalf("transport not clean: %+v", st)
		}
		srv.Close()
		det.Close() // drains the broker and closes the event stream
		<-evDone

		st := det.Stats()
		if st.EventsDropped != 0 || st.SubscriberDrops != 0 {
			t.Fatalf("event path lossy in a paced test: %+v", st)
		}
		if st.Windows != windows {
			t.Fatalf("Windows = %d, want %d", st.Windows, windows)
		}

		// Per window: events must reproduce the WindowResult exactly,
		// and RuleCounts must tally its detections.
		for wi, res := range results {
			evs := eventsByWindow[uint64(wi)]
			got := make([]Detection, len(evs))
			for i, ev := range evs {
				got[i] = Detection{Subscriber: ev.Subscriber, Rule: ev.Rule, Level: ev.Level, First: ev.First}
			}
			sortDetections(got)
			if !reflect.DeepEqual(got, res.Detections) {
				t.Fatalf("window %d: %d events diverge from %d WindowResult detections",
					wi, len(got), len(res.Detections))
			}
			counted := 0
			for _, n := range res.RuleCounts {
				counted += n
			}
			if counted != len(res.Detections) {
				t.Fatalf("window %d: RuleCounts tally %d != %d detections", wi, counted, len(res.Detections))
			}
		}
		if len(eventsByWindow) > windows {
			t.Fatalf("events stamped with %d distinct windows, want ≤ %d", len(eventsByWindow), windows)
		}
		return results
	}

	var perShard [][]WindowResult
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards_%d", shards), func(t *testing.T) {
			results := run(t, shards)
			// Loss-free: the union across windows equals the
			// un-rotated reference.
			var union []Detection
			for _, r := range results {
				union = append(union, r.Detections...)
			}
			sortDetections(union)
			if !reflect.DeepEqual(union, want) {
				t.Fatalf("union of %d rotated windows (%d detections) diverges from un-rotated run (%d)",
					windows, len(union), len(want))
			}
			perShard = append(perShard, results)
		})
	}
	// Shard-invariant: the same windows at 1 and 8 shards.
	if len(perShard) == 2 {
		for wi := range perShard[0] {
			a, b := perShard[0][wi], perShard[1][wi]
			if !reflect.DeepEqual(a.Detections, b.Detections) ||
				!reflect.DeepEqual(a.RuleCounts, b.RuleCounts) ||
				a.Subscribers != b.Subscribers {
				t.Fatalf("window %d diverges between 1 and 8 shards", wi)
			}
		}
	}
}

// TestDetectorRotateStandalone covers Rotate off the wire path: window
// metadata, per-rule counts, stats deltas, and re-detection of the
// same subscriber in consecutive windows.
func TestDetectorRotateStandalone(t *testing.T) {
	s := sharedSystem(t)
	det := s.NewDetector(0.4)
	defer det.Close()
	h := simtime.HourOf(s.StudyStart()) + 9
	sub := netip.MustParseAddr("100.64.9.9")

	for _, m := range merossMsgs(t, s, sub, h, 1) {
		if err := det.FeedNetFlow(m); err != nil {
			t.Fatal(err)
		}
	}
	res := det.Rotate()
	if res.Seq != 0 {
		t.Fatalf("first window Seq = %d", res.Seq)
	}
	if len(res.Detections) != 1 || res.Detections[0].Rule != "Meross Dooropener" {
		t.Fatalf("window detections = %+v", res.Detections)
	}
	if res.Detections[0].First != (h).Time() {
		t.Fatalf("first = %v, want %v", res.Detections[0].First, h.Time())
	}
	if res.RuleCounts["Meross Dooropener"] != 1 || res.Subscribers != 1 || res.DetectedSubscribers != 1 {
		t.Fatalf("window tallies = %+v", res)
	}
	if res.Records != 1 || res.RecordsIPv4 != 1 || res.RecordsIPv6 != 0 {
		t.Fatalf("window record deltas = %+v", res)
	}
	if res.End.Before(res.Start) {
		t.Fatalf("window bounds inverted: %v – %v", res.Start, res.End)
	}

	// Second window: the same subscriber re-fires, and the record
	// delta is the window's own.
	for _, m := range merossMsgs(t, s, sub, h+24, 1) {
		if err := det.FeedNetFlow(m); err != nil {
			t.Fatal(err)
		}
	}
	res2 := det.Rotate()
	if res2.Seq != 1 || len(res2.Detections) != 1 || res2.Records != 1 {
		t.Fatalf("second window = %+v", res2)
	}
	if res2.Detections[0].Subscriber != res.Detections[0].Subscriber {
		t.Fatal("same subscriber hashed differently across windows")
	}
	if !res2.Start.Equal(res.End) {
		t.Fatalf("windows not contiguous: %v then %v", res.End, res2.Start)
	}

	// Reset discards a window and cuts the baseline: the next Rotate
	// reports an empty window with zero deltas.
	for _, m := range merossMsgs(t, s, sub, h+48, 1) {
		if err := det.FeedNetFlow(m); err != nil {
			t.Fatal(err)
		}
	}
	det.Reset()
	res3 := det.Rotate()
	if res3.Seq != 3 { // Reset consumed sequence 2
		t.Fatalf("post-Reset window Seq = %d, want 3", res3.Seq)
	}
	if len(res3.Detections) != 0 || res3.Records != 0 || res3.Subscribers != 0 {
		t.Fatalf("post-Reset window not empty: %+v", res3)
	}
}

// TestDetectorSubscribeFanOutAndCancel: multiple subscribers each see
// every event, a cancelled subscriber's channel closes and stops
// receiving, and Close closes the rest.
func TestDetectorSubscribeFanOutAndCancel(t *testing.T) {
	s := sharedSystem(t)
	det := s.NewDetector(0.4)
	h := simtime.HourOf(s.StudyStart()) + 9

	chA, cancelA := det.Subscribe()
	chB, cancelB := det.Subscribe()
	defer cancelB()

	for _, m := range merossMsgs(t, s, netip.MustParseAddr("100.64.9.9"), h, 1) {
		if err := det.FeedNetFlow(m); err != nil {
			t.Fatal(err)
		}
	}
	// Force the pipeline flush that applies the observation (events
	// fire on the shard workers).
	if n := len(det.Detections()); n != 1 {
		t.Fatalf("detections = %d", n)
	}
	evA, evB := waitEvent(t, chA), waitEvent(t, chB)
	if evA != evB {
		t.Fatalf("subscribers diverge: %+v vs %+v", evA, evB)
	}
	if evA.Rule != "Meross Dooropener" || evA.Window != 0 {
		t.Fatalf("event = %+v", evA)
	}

	// Cancel A: channel closes; B keeps receiving.
	cancelA()
	cancelA() // idempotent
	if _, ok := <-chA; ok {
		t.Fatal("cancelled channel still open")
	}
	for _, m := range merossMsgs(t, s, netip.MustParseAddr("100.64.9.10"), h, 2) {
		if err := det.FeedNetFlow(m); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(det.Detections()); n != 2 {
		t.Fatalf("detections = %d", n)
	}
	ev2 := waitEvent(t, chB)
	if ev2.Subscriber == evA.Subscriber {
		t.Fatalf("second event for the same subscriber: %+v", ev2)
	}
	if st := det.Stats(); st.EventSubscribers != 1 || st.EventsEmitted != 2 {
		t.Fatalf("event stats = %+v", st)
	}

	// Close closes the remaining channel once the broker drained.
	det.Close()
	for {
		if _, ok := <-chB; !ok {
			break
		}
	}
	// Subscribing after Close yields an already-closed channel.
	chC, cancelC := det.Subscribe()
	defer cancelC()
	if _, ok := <-chC; ok {
		t.Fatal("post-Close subscription delivered an event")
	}
}

// TestDetectorTimedFlushDeliversEventOverUDP: one NetFlow v9 datagram
// through Listen over loopback, then silence — no RotateNow, no read,
// no further traffic. Its DetectionEvent must still reach an open
// Subscribe channel promptly, because the pipeline's flusher bounds how
// long the record waits in a partial batch.
func TestDetectorTimedFlushDeliversEventOverUDP(t *testing.T) {
	s := sharedSystem(t)
	det := s.NewShardedDetector(0.4, 4)
	defer det.Close()
	evCh, cancel := det.Subscribe()
	defer cancel()
	srv, err := det.Listen(ListenConfig{Config: collector.Config{
		Listeners: []collector.Listener{{Addr: "127.0.0.1:0"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	msgs := merossMsgs(t, s, netip.MustParseAddr("100.64.9.9"), simtime.HourOf(s.StudyStart())+9, 1)
	if len(msgs) != 1 {
		t.Fatalf("exporter produced %d messages, want 1 datagram", len(msgs))
	}
	conn, err := net.Dial("udp", srv.Addrs()[0].String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(msgs[0]); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-evCh:
		if ev.Rule != "Meross Dooropener" || ev.Window != 0 {
			t.Fatalf("event = %+v", ev)
		}
	case <-time.After(250 * time.Millisecond):
		t.Fatal("no detection event within 250 ms of the datagram")
	}
	if st := det.Stats(); st.FlushTimed == 0 {
		t.Fatalf("event arrived but FlushTimed = 0: %+v", st)
	}
}

// TestDetectorCloseFlushesImplicitFeed pins the Close contract: an
// observation buffered on the lazily-created default feed must reach
// the pipeline when the detector is closed — FeedNetFlow, Close,
// Detections never loses data.
func TestDetectorCloseFlushesImplicitFeed(t *testing.T) {
	s := sharedSystem(t)
	det := s.NewDetector(0.4)
	h := simtime.HourOf(s.StudyStart()) + 9
	for _, m := range merossMsgs(t, s, netip.MustParseAddr("100.64.9.9"), h, 1) {
		if err := det.FeedNetFlow(m); err != nil {
			t.Fatal(err)
		}
	}
	det.Close()
	if n := len(det.Detections()); n != 1 {
		t.Fatalf("detections after Close = %d, want 1", n)
	}
	det.Close() // idempotent
}

// TestListenMaxFeedsDefaultsToShards: a zero ListenConfig.MaxFeeds is
// defaulted to the detector's shard count; an explicit value is
// preserved.
func TestListenMaxFeedsDefaultsToShards(t *testing.T) {
	s := sharedSystem(t)
	det := s.NewShardedDetector(0.4, 3)
	defer det.Close()
	srv, err := det.Listen(ListenConfig{Config: collector.Config{
		Listeners: []collector.Listener{{Addr: "127.0.0.1:0"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats().MaxFeeds; got != det.Shards() {
		t.Fatalf("defaulted MaxFeeds = %d, want Shards() = %d", got, det.Shards())
	}
	srv.Close()

	srv2, err := det.Listen(ListenConfig{Config: collector.Config{
		Listeners: []collector.Listener{{Addr: "127.0.0.1:0"}},
		MaxFeeds:  2,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if got := srv2.Stats().MaxFeeds; got != 2 {
		t.Fatalf("explicit MaxFeeds = %d, want 2", got)
	}
}

// TestDetectorStatsFieldSemantics pins what each DetectorStats field
// means while feeds are live: per-family record counts, skip counts,
// open feed handles, and the window sequence.
func TestDetectorStatsFieldSemantics(t *testing.T) {
	s := sharedSystem(t)
	det := s.NewShardedDetector(0.4, 2)
	defer det.Close()
	h := simtime.HourOf(s.StudyStart()) + 9

	if st := det.Stats(); st.Shards != 2 || st.OpenFeeds != 0 || st.Windows != 0 {
		t.Fatalf("fresh detector stats = %+v", st)
	}

	fa, fb := det.NewFeed(), det.NewFeed()
	if st := det.Stats(); st.OpenFeeds != 2 {
		t.Fatalf("OpenFeeds = %d, want 2", st.OpenFeeds)
	}

	// A live feed goroutine while another goroutine polls Stats: the
	// counters must be loadable mid-ingest (run under -race in CI).
	msgs := merossMsgs(t, s, netip.MustParseAddr("100.64.9.9"), h, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			for _, m := range msgs {
				if err := fa.FeedNetFlow(m); err != nil {
					t.Error(err)
					return
				}
			}
		}
		fa.Close()
	}()
	for {
		select {
		case <-done:
			goto fed
		default:
			_ = det.Stats()
		}
	}
fed:
	// A v6 subscriber and an unusable record, via the second feed.
	ips := s.lab.W.ResolverOn(h.Day()).Resolve("mqtt.simmeross.example")
	dom := s.lab.W.Catalog.Domains["mqtt.simmeross.example"]
	fb.observeBatch([]flow.Record{
		{Key: flow.Key{Src: netip.MustParseAddr("2001:db8::9"), Dst: ips[0], DstPort: dom.Port, Proto: flow.ProtoTCP}, Packets: 2, Hour: h},
		{Key: flow.Key{Dst: ips[0], DstPort: dom.Port, Proto: flow.ProtoTCP}, Packets: 2, Hour: h}, // no subscriber address
	})
	fb.Close()

	if n := len(det.Detections()); n != 2 { // v4 sub + v6 sub
		t.Fatalf("detections = %d, want 2", n)
	}
	st := det.Stats()
	if st.RecordsIPv4 != 50 {
		t.Fatalf("RecordsIPv4 = %d, want 50", st.RecordsIPv4)
	}
	if st.RecordsIPv6 != 1 {
		t.Fatalf("RecordsIPv6 = %d, want 1", st.RecordsIPv6)
	}
	if st.SkippedRecords != 1 {
		t.Fatalf("SkippedRecords = %d, want 1", st.SkippedRecords)
	}
	if st.OpenFeeds != 0 {
		t.Fatalf("OpenFeeds = %d after closing both feeds", st.OpenFeeds)
	}
	if st.InflightBatches != 0 {
		t.Fatalf("InflightBatches = %d on a quiescent detector", st.InflightBatches)
	}

	det.Reset()
	res := det.Rotate()
	if st := det.Stats(); st.Windows != 2 {
		t.Fatalf("Windows = %d after Reset + Rotate", st.Windows)
	}
	if res.Seq != 1 {
		t.Fatalf("Rotate after Reset returned Seq %d, want 1", res.Seq)
	}
	// Cumulative counters survive window cuts.
	if st := det.Stats(); st.RecordsIPv4 != 50 || st.SkippedRecords != 1 {
		t.Fatalf("cumulative counters reset by rotation: %+v", st)
	}
}
