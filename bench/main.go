// Command bench is the repository's benchmark: it runs four workloads
// against the real deployable stack (Detector.Listen → collector →
// feed and wire decoders → pipeline → detect → Subscribe broker →
// event log) over loopback, checks every result against a reference
// computation, and prints every metric by name. See README.md.
//
//	go run ./bench                              every workload, then the traced runs
//	go run ./bench -workload W -seed N -seconds S -trace 0|1
//	go run ./bench -aa                          the suite twice, compared
//	go run ./bench -compare a.json b.json       two saved reports, compared
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int    // 0 end-to-end only, 1 per-layer only, -1 both
	out      string // scratch and output directory
	window   int    // closed-loop in-flight cap, datagrams (×4 in stream messages)
	setups   int    // how many times each workload is set up; setup_s is their median
	specs    []spec
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{window: 256, setups: 3, specs: specs}
	fs.StringVar(&o.workload, "workload", "", "run one workload and end with the one-line JSON result (default: all)")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 30, "measured seconds per workload, split over 3 trials")
	fs.IntVar(&o.trace, "trace", -1, "0: end-to-end metrics only; 1: live run plus traced run, per-layer metrics; -1: both")
	fs.StringVar(&o.out, "out", filepath.Join("bench", "out"), "directory for report.json, span files and scratch data")
	aa := fs.Bool("aa", false, "run the suite twice and check the two agree within every bound")
	cmp := fs.Bool("compare", false, "compare two saved reports: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two report files")
			return 2
		}
		a, err := loadReport(fs.Arg(0))
		if err == nil {
			var b *report
			if b, err = loadReport(fs.Arg(1)); err == nil {
				if regressed, _ := compare(stdout, a, b); regressed > 0 {
					return 1
				}
				return 0
			}
		}
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if o.seconds <= 0 || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive and there are no positional arguments")
		return 2
	}
	if o.workload != "" {
		sp, ok := findSpec(o.workload)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
			return 2
		}
		o.specs = []spec{sp}
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	rep, err := measure(o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	rep.print(stdout)
	code := 0
	for _, ws := range rep.Workloads {
		if !ws.Correct {
			code = 1
		}
	}
	switch {
	case *aa:
		second, err := measure(o, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintln(stdout, "\nA/A: the same commit measured twice")
		if regressed, unresolved := compare(stdout, rep, second); regressed+unresolved > 0 {
			code = 1
		}
	case o.workload != "":
		fmt.Fprintln(stdout, contractLine(rep, o.trace))
	default:
		if err := rep.save(filepath.Join(o.out, "report.json")); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return code
}

// measure runs the selected workloads one after another. Each is set
// up several times so setup_s has a median; the last set-up is the one
// that runs.
func measure(o options, progress io.Writer) (*report, error) {
	// One P more than cores: the generator lives in this process and,
	// while a schedule is running, holds a P by spinning. With nproc Ps
	// the system under test would be left with nproc−1, and a GC mark
	// worker on one of those starves it for a whole mark phase
	// (measured: 15–30 ms lane stalls, events shed). The kernel shares
	// the cores between the threads instead.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU() + 1))
	rep := newReport(o.seed, o.seconds)
	for _, sp := range o.specs {
		var wl *workload
		var setupS []float64
		for i := 0; i < o.setups; i++ {
			wl = nil
			runtime.GC()
			t0 := now()
			w, err := buildWorld()
			if err != nil {
				return nil, err
			}
			if wl, err = buildWorkload(w, sp, o.seed, o.seconds); err != nil {
				return nil, err
			}
			setupS = append(setupS, float64(now()-t0)/1e9)
		}
		fmt.Fprintf(progress, "bench: %s: set up in %.2f s, running %g s\n", sp.name, median(setupS), o.seconds)
		live, err := runLive(wl, o.seconds, o.window, o.out)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sp.name, err)
		}
		samples := map[string][]float64{"setup_s": setupS}
		for _, t := range live.trials {
			for name, v := range t.vals {
				samples[name] = append(samples[name], v)
			}
		}
		ws := workloadSummary{Name: sp.name, Correct: live.correct(), Attempted: live.attempted, Failed: live.failed, Diffs: live.diffs}
		ws.Unresolved = median(samples["gen.late_p99_ms"]) > 1
		if o.trace != 0 {
			fmt.Fprintf(progress, "bench: %s: traced run\n", sp.name)
			tv, err := traceWorkload(wl, live, median(samples["records_per_s"]), o.window, o.out)
			if err != nil {
				return nil, fmt.Errorf("%s: traced run: %w", sp.name, err)
			}
			for name, v := range tv {
				samples[name] = []float64{v}
			}
		}
		if o.trace != 1 {
			rep.add(sp.name, endToEnd, "end_to_end", samples)
		}
		if o.trace != 0 {
			rep.add(sp.name, perLayer, "per_layer", samples)
		}
		rep.Workloads = append(rep.Workloads, ws)
		wl = nil
		debug.FreeOSMemory()
	}
	return rep, nil
}

// contractLine is the single-workload result the acceptance driver
// reads from the last line of standard output.
func contractLine(rep *report, trace int) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ws := rep.Workloads[0]
	kind := "end_to_end"
	if trace == 1 {
		kind = "per_layer"
	}
	metrics := map[string]value{}
	for _, r := range rep.Rows {
		if r.Kind == kind {
			metrics[r.Metric] = value{r.Median, r.Unit}
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{ws.Correct, ws.Attempted, ws.Failed, metrics})
	if err != nil {
		return fmt.Sprintf(`{"correct":false,"attempted":1,"failed":1,"metrics":{},"error":%q}`, err)
	}
	return string(b)
}
