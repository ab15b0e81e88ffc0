package main

// Metric definitions, summary statistics, the report a run prints and
// saves, and the comparison rule -aa and -compare share.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: relative worsening that counts as a regression
}

// endToEnd is what a user of the deployment sees. BENCHMARK.json
// repeats this table and the package test keeps the two in step.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"records_per_s", "1/s", "higher", 0.25},
	{"detect_latency_p50_ms", "ms", "lower", 0.25},
	{"detect_latency_p99_ms", "ms", "lower", 0.25},
	{"cpu_s_per_mrec", "s", "lower", 0.25},
	{"live_heap_mb", "MiB", "lower", 0.25},
}

// perLayer is read through public Stats() during the live run or timed
// from outside in the traced run. No bounds: these explain a movement,
// they do not gate one.
var perLayer = []metricDef{
	{Name: "logged_latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "collector.ns_per_datagram", Unit: "ns", Better: "lower"},
	{Name: "collector.ns_per_stream_msg", Unit: "ns", Better: "lower"},
	{Name: "collector.queue_depth_max", Unit: "count", Better: "lower"},
	{Name: "collector.dropped_datagrams", Unit: "count", Better: "lower"},
	{Name: "collector.kernel_lost_datagrams", Unit: "count", Better: "lower"},
	{Name: "collector.active_feeds", Unit: "count", Better: "higher"},
	{Name: "collector.started_feeds", Unit: "count", Better: "higher"},
	{Name: "netflow.decode_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "netflow.decode_allocs_per_msg", Unit: "count", Better: "lower"},
	{Name: "ipfix.decode_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "ipfix.decode_allocs_per_msg", Unit: "count", Better: "lower"},
	{Name: "feed.ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "feed.stage_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "feed.template_drops", Unit: "count", Better: "lower"},
	{Name: "feed.sequence_gaps", Unit: "count", Better: "lower"},
	{Name: "feed.skipped_records", Unit: "count", Better: "lower"},
	{Name: "pipeline.observe_ns_per_obs", Unit: "ns", Better: "lower"},
	{Name: "pipeline.sync_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.batch_size", Unit: "count", Better: "higher"},
	{Name: "pipeline.inflight_batches_max", Unit: "count", Better: "lower"},
	{Name: "detect.apply_ns_per_obs_cold", Unit: "ns", Better: "lower"},
	{Name: "detect.apply_ns_per_obs_warm", Unit: "ns", Better: "lower"},
	{Name: "detect.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "detect.subscribers", Unit: "count", Better: "higher"},
	{Name: "detect.detections", Unit: "count", Better: "higher"},
	{Name: "events.emitted", Unit: "count", Better: "higher"},
	{Name: "events.dropped", Unit: "count", Better: "lower"},
	{Name: "events.subscriber_drops", Unit: "count", Better: "lower"},
	{Name: "eventlog.append_ns", Unit: "ns", Better: "lower"},
	{Name: "eventlog.sync_ms", Unit: "ms", Better: "lower"},
	{Name: "eventlog.append_lag_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "eventlog.append_errors", Unit: "count", Better: "lower"},
	{Name: "window.rotate_ms", Unit: "ms", Better: "lower"},
	{Name: "export.jsonl_ms_per_kdet", Unit: "ms", Better: "lower"},
	{Name: "gen.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "gen.offered_records_per_s", Unit: "1/s", Better: "higher"},
	{Name: "share.collector", Unit: "%", Better: "lower"},
	{Name: "share.decode", Unit: "%", Better: "lower"},
	{Name: "share.stage", Unit: "%", Better: "lower"},
	{Name: "share.observe", Unit: "%", Better: "lower"},
	{Name: "share.apply", Unit: "%", Better: "lower"},
	{Name: "share.unattributed", Unit: "%", Better: "lower"},
	{Name: "trace.unattributed_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}

func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(math.Ceil(p*float64(len(sorted))))-1]
}

// quartiles follows Python's statistics.quantiles(values, n=4), the
// rule the acceptance driver applies.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func median(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}

// row is one metric on one workload, summarised across trials.
type row struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Kind     string    `json:"kind"` // end_to_end or per_layer
	Median   float64   `json:"median"`
	Q1       float64   `json:"q1"`
	Q3       float64   `json:"q3"`
	N        int       `json:"n"`
	Samples  []float64 `json:"samples"`
}

type workloadSummary struct {
	Name       string   `json:"name"`
	Correct    bool     `json:"correct"`
	Attempted  uint64   `json:"ops_attempted"`
	Failed     uint64   `json:"ops_failed"`
	Unresolved bool     `json:"unresolved"` // the generator ran late: latency rows are not evidence
	Diffs      []string `json:"differences,omitempty"`
}

type report struct {
	Machine    map[string]string `json:"machine"`
	Deployment map[string]any    `json:"deployment"`
	Seed       uint64            `json:"seed"`
	Seconds    float64           `json:"seconds_per_workload"`
	Trials     int               `json:"trials"`
	Workloads  []workloadSummary `json:"workloads"`
	Rows       []row             `json:"rows"`
}

func newReport(seed uint64, seconds float64) *report {
	return &report{
		Machine: machineFacts(),
		Deployment: map[string]any{
			"world_seed": worldSeed, "threshold": threshold, "shards": shards, "max_feeds": maxFeeds,
			"queue_len": queueLen, "read_buffer": readBuffer, "max_datagram": maxDatagram, "tick": "default",
			"log_segment_bytes": logSegmentBytes,
		},
		Seed: seed, Seconds: seconds, Trials: trials,
	}
}

func machineFacts() map[string]string {
	m := map[string]string{
		"nproc": fmt.Sprint(runtime.NumCPU()), "go": runtime.Version(),
		"os": runtime.GOOS + "/" + runtime.GOARCH,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/net/core/rmem_max"); err == nil {
		m["rmem_max"] = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m["kernel"] = strings.TrimSpace(string(b))
	}
	return m
}

func (r *report) add(workload string, defs []metricDef, kind string, samples map[string][]float64) {
	for _, def := range defs {
		s, ok := samples[def.Name]
		if !ok {
			continue
		}
		q1, q2, q3 := quartiles(s)
		r.Rows = append(r.Rows, row{workload, def.Name, def.Unit, kind, q2, q1, q3, len(s), s})
	}
}

func (r *report) find(workload, metric string) *row {
	for i := range r.Rows {
		if r.Rows[i].Workload == workload && r.Rows[i].Metric == metric {
			return &r.Rows[i]
		}
	}
	return nil
}

func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "machine: %v\ndeployment: %v\nseed %d, %g s per workload in %d trials\n",
		r.Machine, r.Deployment, r.Seed, r.Seconds, r.Trials)
	for _, ws := range r.Workloads {
		fmt.Fprintf(w, "\n%s: correct=%v ops_attempted=%d ops_failed=%d", ws.Name, ws.Correct, ws.Attempted, ws.Failed)
		if ws.Unresolved {
			fmt.Fprint(w, " UNRESOLVED (generator late by more than 1 ms at p99)")
		}
		fmt.Fprintln(w)
		for _, d := range ws.Diffs {
			fmt.Fprintf(w, "  ! %s\n", d)
		}
		fmt.Fprintf(w, "  %-36s %-6s %14s %14s %14s %3s\n", "metric", "unit", "median", "q1", "q3", "n")
		for _, row := range r.Rows {
			if row.Workload == ws.Name {
				fmt.Fprintf(w, "  %-36s %-6s %14.6g %14.6g %14.6g %3d\n", row.Metric, row.Unit, row.Median, row.Q1, row.Q3, row.N)
			}
		}
	}
}

func (r *report) save(path string) error {
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func loadReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := new(report)
	if err := json.Unmarshal(b, r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compare prints, for every end-to-end metric × workload in both
// reports, both medians and inter-quartile ranges and a verdict:
// unresolved when either side's spread exceeds the bound (unless every
// sample of one side beats every sample of the other), otherwise
// improved, regressed or unchanged by the bound. It returns how many
// rows regressed and how many were unresolved.
func compare(w io.Writer, a, b *report) (regressed, unresolved int) {
	fmt.Fprintf(w, "%-18s %-24s %13s %9s %13s %9s %8s  %s\n", "workload", "metric", "median A", "iqr A", "median B", "iqr B", "B vs A", "verdict")
	for _, ws := range a.Workloads {
		for _, def := range endToEnd {
			ra, rb := a.find(ws.Name, def.Name), b.find(ws.Name, def.Name)
			if ra == nil || rb == nil || ra.Median == 0 {
				continue
			}
			worse := (rb.Median - ra.Median) / ra.Median // relative change in the bad direction
			if def.Better == "higher" {
				worse = -worse
			}
			verdict := "unchanged"
			switch {
			case (ra.Q3-ra.Q1)/ra.Median > def.Bound || (rb.Q3-rb.Q1)/rb.Median > def.Bound:
				verdict = "unresolved"
				if separated(ra.Samples, rb.Samples) {
					verdict = map[bool]string{true: "regressed", false: "improved"}[worse > 0]
				}
			case worse > def.Bound:
				verdict = "regressed"
			case worse < -def.Bound:
				verdict = "improved"
			}
			switch verdict {
			case "regressed":
				regressed++
			case "unresolved":
				unresolved++
			}
			fmt.Fprintf(w, "%-18s %-24s %13.6g %9.3g %13.6g %9.3g %+7.1f%%  %s\n", ws.Name, def.Name,
				ra.Median, ra.Q3-ra.Q1, rb.Median, rb.Q3-rb.Q1, 100*(rb.Median-ra.Median)/ra.Median, verdict)
		}
	}
	return regressed, unresolved
}

// separated reports whether every sample of one side lies beyond every
// sample of the other.
func separated(a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	minmax := func(s []float64) (lo, hi float64) {
		lo, hi = s[0], s[0]
		for _, v := range s {
			lo, hi = min(lo, v), max(hi, v)
		}
		return
	}
	alo, ahi := minmax(a)
	blo, bhi := minmax(b)
	return ahi < blo || bhi < alo
}
