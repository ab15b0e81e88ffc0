package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"
)

// smallSpecs are the four workloads cut down to run in about a second
// each: an eighth of the subscribers and ring, and a fresh workload
// paced at a sixteenth of its rate so a race-instrumented build keeps
// up with the open loop.
func smallSpecs() []spec {
	out := append([]spec(nil), specs...)
	for i := range out {
		out[i].ringMsgs /= 8
		out[i].subs /= 8
		out[i].burst = max(1, out[i].burst/16)
	}
	return out
}

// TestSuiteSmoke runs every workload end to end — live run with the
// oracle and loss accounting on, then the traced run — and checks that
// each is correct, every declared metric is reported, and the traced
// budget closes.
func TestSuiteSmoke(t *testing.T) {
	o := options{seed: 7, seconds: 1.2, trace: -1, out: t.TempDir(), window: 64, setups: 1, specs: smallSpecs()}
	rep, err := measure(o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rep.print(&buf)
	t.Log(buf.String())
	for _, ws := range rep.Workloads {
		if !ws.Correct || ws.Failed != 0 || ws.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d %v", ws.Name, ws.Correct, ws.Attempted, ws.Failed, ws.Diffs)
		}
		for _, def := range endToEnd {
			if r := rep.find(ws.Name, def.Name); r == nil || !(r.Median > 0) {
				t.Errorf("%s: end-to-end metric %s missing or not positive: %+v", ws.Name, def.Name, r)
			}
		}
		shares := 0.0
		for _, def := range perLayer {
			r := rep.find(ws.Name, def.Name)
			if r == nil {
				t.Errorf("%s: per-layer metric %s missing", ws.Name, def.Name)
				continue
			}
			if strings.HasPrefix(def.Name, "share.") {
				shares += r.Median
			}
		}
		if math.Abs(shares-100) > 1e-6 {
			t.Errorf("%s: traced budget does not close: shares sum to %v%%", ws.Name, shares)
		}
		if _, err := os.Stat(o.out + "/trace-" + ws.Name + ".json"); err != nil {
			t.Errorf("%s: span file: %v", ws.Name, err)
		}
	}
	if line := contractLine(&report{Workloads: rep.Workloads[:1], Rows: rep.Rows}, 0); !json.Valid([]byte(line)) {
		t.Errorf("contract line is not JSON: %s", line)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, which the
// acceptance driver reads, in step with the tables the program reports
// from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if strings.Join(doc.Command, " ") != "go run ./bench" || len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("command %v paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("%d workloads declared, %d defined", len(doc.Workloads), len(specs))
	}
	for i, w := range doc.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why || len(w.Why) > 200 {
			t.Errorf("workload %d: %q / %q differs from the spec (%d chars)", i, w.Name, w.Why, len(w.Why))
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d declared, %d defined", kind, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %d: declared %+v, defined %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	for _, def := range endToEnd {
		if def.Bound <= 0 || def.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", def.Name, def.Bound)
		}
	}
}

func TestQuartilesFollowPython(t *testing.T) {
	// statistics.quantiles(values, n=4) for each case.
	for _, c := range []struct{ in, want []float64 }{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, []float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, []float64{1, 2, 3}},
		{[]float64{1, 2}, []float64{0.75, 1.5, 2.25}},
		{[]float64{4}, []float64{4, 4, 4}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if got := []float64{q1, q2, q3}; got[0] != c.want[0] || got[1] != c.want[1] || got[2] != c.want[2] {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(records, heap []float64) *report {
		r := &report{Workloads: []workloadSummary{{Name: "w"}}}
		r.add("w", endToEnd, "end_to_end", map[string][]float64{"records_per_s": records, "live_heap_mb": heap})
		return r
	}
	base := mk([]float64{100, 101, 102}, []float64{50, 50, 51})
	for _, c := range []struct {
		name                  string
		b                     *report
		regressed, unresolved int
		want                  string
	}{
		{"same", mk([]float64{100, 102, 101}, []float64{50, 51, 50}), 0, 0, "unchanged"},
		{"slower", mk([]float64{60, 61, 62}, []float64{50, 50, 51}), 1, 0, "regressed"},
		{"faster", mk([]float64{160, 161, 162}, []float64{50, 50, 51}), 0, 0, "improved"},
		{"noisy", mk([]float64{70, 100, 130}, []float64{50, 50, 51}), 0, 1, "unresolved"},
		{"noisy but apart", mk([]float64{30, 45, 60}, []float64{50, 50, 51}), 1, 0, "regressed"},
	} {
		var out bytes.Buffer
		regressed, unresolved := compare(&out, base, c.b)
		if regressed != c.regressed || unresolved != c.unresolved || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: regressed=%d unresolved=%d\n%s", c.name, regressed, unresolved, out.String())
		}
	}
}
