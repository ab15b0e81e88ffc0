package haystack

// Crash-replay acceptance for the durable event log: a deployment
// killed mid-window (SIGKILL semantics — no final rotate, no export,
// no closing marker) and restarted from its -log-dir must produce,
// across the crash, the same exported windows as an uninterrupted
// run. The only permitted difference is wall-clock window bounds
// (window_start/window_end are stamped at rotate time), which the
// comparison normalizes away; every §2.1 payload field — subscriber
// hash, rule, level, first-seen hour, window sequence — must be
// byte-identical.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/eventlog"
)

// crashRun holds one deployment instance of the crash-replay test.
type crashRun struct {
	det *Detector
	srv *Server
	fed int // datagrams sent so far, across instances of one run
}

// startCrashRun boots a detector + server over loopback UDP with an
// export directory and a durable log, both shared across restarts.
func startCrashRun(t *testing.T, s *System, shards int, exportDir, logDir string, fed int) *crashRun {
	t.Helper()
	exp, err := NewExportDir(exportDir, "jsonl")
	if err != nil {
		t.Fatal(err)
	}
	det := s.NewShardedDetector(0.4, shards)
	srv, err := det.Listen(ListenConfig{
		Config: collector.Config{
			Listeners:  []collector.Listener{{Addr: "127.0.0.1:0"}},
			MaxFeeds:   4,
			QueueLen:   4096,
			ReadBuffer: 4 << 20,
		},
		Window: WindowConfig{OnRotate: func(res WindowResult) {
			if _, err := exp.Export(&res); err != nil {
				t.Errorf("export: %v", err)
			}
		}},
		Log: EventLogConfig{Dir: logDir},
	})
	if err != nil {
		det.Close()
		t.Fatal(err)
	}
	return &crashRun{det: det, srv: srv, fed: fed}
}

// feed sends one exporter stream over the UDP socket and waits until
// the server has received and decoded all of it (Sync → exact state)
// and every detection it fired has been appended to the log.
func (r *crashRun) feed(t *testing.T, msgs [][]byte) {
	t.Helper()
	conn, err := net.Dial("udp", r.srv.Addrs()[0].String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i, m := range msgs {
		if _, err := conn.Write(m); err != nil {
			t.Fatal(err)
		}
		if i%16 == 15 {
			time.Sleep(time.Millisecond) // pace loopback bursts
		}
	}
	r.fed += len(msgs)
	deadline := time.Now().Add(10 * time.Second)
	for r.srv.Stats().Datagrams < uint64(r.fed) {
		if time.Now().After(deadline) {
			t.Fatalf("socket received %d of %d datagrams", r.srv.Stats().Datagrams, r.fed)
		}
		time.Sleep(time.Millisecond)
	}
	r.srv.Sync()
	r.settle(t)
}

// settle waits until the event log holds every detection fired so far.
// The collector's Sync covers only its lanes: the pipeline's flusher
// may still dispatch a partial batch a few milliseconds later, so
// Detections synchronizes the pipeline first, which leaves nothing
// buffered to fire. Then the broker must have fanned out every emitted
// event and the log writer appended every delivered one.
func (r *crashRun) settle(t *testing.T) {
	t.Helper()
	r.det.Detections()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		st, ws := r.det.Stats(), r.srv.LogWriterStats()
		if st.EventsDelivered+st.EventsDropped >= st.EventsEmitted &&
			ws.EventsAppended+ws.AppendErrors+st.SubscriberDrops >= st.EventsDelivered {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("events did not settle: %+v, writer %+v", st, ws)
		}
	}
}

// normalizedExport verifies a window file's trailer, then returns its
// rows with the wall-clock window bounds zeroed — everything a crash
// may NOT change, as comparable bytes.
func normalizedExport(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyWindowJSONL(bytes.NewReader(data)); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	var out bytes.Buffer
	for _, line := range lines[:len(lines)-1] { // drop the trailer
		var row exportRow
		if err := json.Unmarshal(line, &row); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		row.WindowStart, row.WindowEnd = "", ""
		b, err := json.Marshal(row)
		if err != nil {
			t.Fatal(err)
		}
		out.Write(b)
		out.WriteByte('\n')
	}
	return out.Bytes()
}

// drainTail reads the full record sequence from a LogTail handler via
// long-poll NDJSON, exactly as a remote `haystack tail` would.
func drainTail(t *testing.T, handler http.Handler) []TailRecord {
	t.Helper()
	ts := httptest.NewServer(handler)
	defer ts.Close()
	var got []TailRecord
	from := uint64(0)
	for {
		resp, err := http.Get(fmt.Sprintf("%s/?from=%d", ts.URL, from))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("tail: %s", resp.Status)
		}
		n := 0
		dec := json.NewDecoder(resp.Body)
		for dec.More() {
			var rec TailRecord
			if err := dec.Decode(&rec); err != nil {
				t.Fatal(err)
			}
			got = append(got, rec)
			n++
		}
		resp.Body.Close()
		if n == 0 {
			return got
		}
		fmt.Sscanf(resp.Header.Get("X-Next-Offset"), "%d", &from)
	}
}

// TestDetectorCrashReplay is the acceptance contract of the durable
// log (ISSUE: crash-replay invariant): at 1 and 8 shards, ingest over
// loopback, SIGKILL-equivalent mid-window, restart from the log dir —
// the union of windows exported before the crash and after the replay
// must match an uninterrupted run byte-for-byte (modulo wall-clock
// window bounds), with the window sequence numbering intact; and a
// tail consumer reading from offset 0 must receive exactly the logged
// record sequence.
func TestDetectorCrashReplay(t *testing.T) {
	s := sharedSystem(t)
	const windows = 3
	streams := exporterStreams(t, s, windows)

	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards_%d", shards), func(t *testing.T) {
			// Uninterrupted reference: all three streams through one
			// deployment, RotateNow between streams, Close cuts the last.
			refExport, refLog := t.TempDir(), t.TempDir()
			ref := startCrashRun(t, s, shards, refExport, refLog, 0)
			for wi, msgs := range streams {
				ref.feed(t, msgs)
				if wi < windows-1 {
					if res := ref.srv.RotateNow(); res.Seq != uint64(wi) {
						t.Fatalf("reference window %d rotated with Seq %d", wi, res.Seq)
					}
				}
			}
			if err := ref.srv.Close(); err != nil {
				t.Fatal(err)
			}
			ref.det.Close()

			// Crash run, instance 1: window 0 committed, stream 1 fully
			// ingested (its detections fired and were logged), then the
			// process "dies" — no rotate, no export, no marker.
			crashExport, crashLog := t.TempDir(), t.TempDir()
			run1 := startCrashRun(t, s, shards, crashExport, crashLog, 0)
			run1.feed(t, streams[0])
			if res := run1.srv.RotateNow(); res.Seq != 0 {
				t.Fatalf("crash run window 0 rotated with Seq %d", res.Seq)
			}
			run1.feed(t, streams[1])
			if err := run1.srv.Kill(); err != nil {
				t.Fatal(err)
			}
			run1.det.Close()

			// Instance 2: a fresh detector restarted on the same log
			// dir. Replay must resume the window sequence at 1 with the
			// fired set restored.
			run2 := startCrashRun(t, s, shards, crashExport, crashLog, 0)
			defer run2.det.Close()
			rp := run2.srv.Replay()
			if rp.ResumedWindow != 1 {
				t.Fatalf("replay resumed window %d, want 1 (stats %+v)", rp.ResumedWindow, rp)
			}
			if rp.Restored == 0 {
				t.Fatalf("replay restored nothing: %+v", rp)
			}
			if rp.UnknownRules != 0 {
				t.Fatalf("replay met %d unknown rules", rp.UnknownRules)
			}
			// Cut window 1 from restored state alone, then ingest the
			// final stream live and let Close cut window 2.
			if res := run2.srv.RotateNow(); res.Seq != 1 {
				t.Fatalf("post-replay rotate produced Seq %d, want 1", res.Seq)
			}
			run2.feed(t, streams[2])

			// Tail invariant: a consumer from offset 0 sees exactly the
			// log's record sequence.
			gotTail := drainTail(t, run2.srv.TailHandler())
			var wantTail []TailRecord
			if _, err := run2.srv.EventLog().ReadAt(0, func(off uint64, rec eventlog.Record) bool {
				wantTail = append(wantTail, NewTailRecord(off, &rec))
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if len(wantTail) == 0 {
				t.Fatal("log is empty before the final window")
			}
			if !reflect.DeepEqual(gotTail, wantTail) {
				t.Fatalf("tail consumer saw %d records, log holds %d (or contents diverge)",
					len(gotTail), len(wantTail))
			}

			if err := run2.srv.Close(); err != nil {
				t.Fatal(err)
			}

			// The union of exports across the crash must equal the
			// uninterrupted run, window for window.
			for wi := 0; wi < windows; wi++ {
				name := fmt.Sprintf("window-%012d.jsonl", wi)
				want := normalizedExport(t, filepath.Join(refExport, name))
				got := normalizedExport(t, filepath.Join(crashExport, name))
				if !bytes.Equal(got, want) {
					t.Errorf("window %d diverges across the crash:\ngot  %d bytes\nwant %d bytes",
						wi, len(got), len(want))
				}
				if wi == 1 && len(want) == 0 {
					t.Error("window 1 (the crashed window) is empty; the test exercised nothing")
				}
			}

			// The recovery counters agree with what happened: instance 2
			// opened a cleanly-closed log (Kill syncs), so nothing was
			// truncated, and the replayed record count matches the scan.
			ls := run2.srv.EventLog().Stats()
			if ls.RecoveryTruncatedBytes != 0 {
				t.Errorf("clean shutdown left %d torn bytes", ls.RecoveryTruncatedBytes)
			}
		})
	}
}
