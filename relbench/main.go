// Command relbench is the repository benchmark. It runs one workload for a
// fixed time, checks every answer, and prints each metric by name with its
// unit and sample count; the last line of standard output is a JSON
// summary. See README.md for the workloads, the metrics and how to run
// them.
//
//	relbench -workload solve-construct -seed 1 -seconds 30 -trace 0
//	relbench diff old.json new.json
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// spec names a metric and its unit.
type spec struct{ Name, Unit string }

// endToEnd lists the metrics of an untraced run, every workload.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"throughput_qps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"error_halfwidth", "prob"},
	{"success_rate", "ratio"},
}

// perLayer lists the metrics of a traced run, every workload; a layer a
// workload does not reach reports 0.
var perLayer = []spec{
	{"datasets.generate_ms", "ms"},
	{"preprocess.index_ms", "ms"},
	{"preprocess.index_bytes", "B"},
	{"preprocess.plan_ms", "ms"},
	{"preprocess.subproblems", "count"},
	{"preprocess.max_subgraph_edges", "count"},
	{"core.construct_ms", "ms"},
	{"core.construct_share", "ratio"},
	{"core.layers", "count"},
	{"core.peak_width", "count"},
	{"core.nodes_created", "count"},
	{"core.nodes_deleted", "count"},
	{"core.resolved_mass", "ratio"},
	{"core.sample_ms", "ms"},
	{"core.sample_share", "ratio"},
	{"core.draws", "count"},
	{"core.ns_per_draw", "ns"},
	{"core.draws_saved_frac", "ratio"},
	{"core.strata", "count"},
	{"batch.cache_hit_ratio", "ratio"},
	{"batch.subproblems_deduped_frac", "ratio"},
	{"batch.invalidated_per_write", "count"},
	{"netrel.write_p50_ms", "ms"},
	{"engine.admission_wait_p50_ms", "ms"},
	{"engine.admission_wait_p99_ms", "ms"},
	{"engine.pool_assists", "count"},
	{"netreld.http_overhead_ms", "ms"},
	{"netreld.response_bytes", "B"},
	{"netreld.invalidate_ms", "ms"},
	{"netreld.reindex_ms", "ms"},
	{"telemetry.trace_overhead_frac", "ratio"},
}

// metric is one value of the JSON summary.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line is one printed metric: its value, the samples behind it, and how it
// was taken.
type line struct {
	Name  string
	Value float64
	N     int
	Note  string
}

// outcome is what one workload run produced.
type outcome struct {
	Attempted, Failed int
	Lines             []line
	Manifest          manifest
	Report            *report // traced runs only
}

// config is what every workload gets from the command line, apart from
// Tiny, which only the self-tests set.
type config struct {
	Seed    uint64
	Seconds float64
	Trace   bool
	Tiny    bool   // seconds-long runs on small inputs
	Netreld string // daemon binary (serve-mixed)
}

var workloads = []struct {
	Name string
	Why  string
	Run  func(config) (*outcome, error)
}{
	{"solve-construct", "Tokyo road network: S2BDD construction does nearly all the work", runSolveConstruct},
	{"solve-sample", "Hit-d protein network: completion sampling does nearly all the work", runSolveSample},
	{"serve-mixed", "netreld under cached reads, batches, what-ifs and a few writes", runServe},
}

var epoch = time.Now()

// nowNS is a monotonic clock reading in nanoseconds.
func nowNS() int64 { return int64(time.Since(epoch)) }

func main() {
	if len(os.Args) > 1 && os.Args[1] == "diff" {
		if len(os.Args) != 4 {
			fmt.Fprintln(os.Stderr, "usage: relbench diff old.json new.json")
			os.Exit(2)
		}
		if err := diffReports(os.Stdout, os.Args[2], os.Args[3]); err != nil {
			fmt.Fprintln(os.Stderr, "relbench:", err)
			os.Exit(1)
		}
		return
	}
	var (
		workload = flag.String("workload", "", "workload to run: solve-construct, solve-sample, serve-mixed, or all")
		seed     = flag.Uint64("seed", 1, "workload seed: every input is generated from it")
		seconds  = flag.Float64("seconds", 30, "serve-mixed measurement time; solve-* answer their whole query list")
		trace    = flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
		netreld  = flag.String("netreld", "", "netreld binary for serve-mixed")
		outdir   = flag.String("outdir", "traces", "directory for traced-run reports")
	)
	flag.Parse()
	cfg := config{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Netreld: *netreld}
	if err := run(os.Stdout, *workload, cfg, *outdir); err != nil {
		fmt.Fprintln(os.Stderr, "relbench:", err)
		os.Exit(1)
	}
}

// run executes the named workload (or all of them) and prints the metric
// lines and, last, the JSON summary. Nothing is printed for a run that
// fails its correctness gate.
func run(w io.Writer, name string, cfg config, outdir string) error {
	var names []string
	for _, wl := range workloads {
		if name == wl.Name || name == "all" {
			names = append(names, wl.Name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("unknown workload %q", name)
	}
	sum := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: make(map[string]metric)}
	var outs []*outcome
	var reports []report
	for _, n := range names {
		out, err := runOne(n, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
		outs = append(outs, out)
		if out.Report != nil {
			reports = append(reports, *out.Report)
		}
	}
	bw := bufio.NewWriter(w)
	for i, out := range outs {
		m, _ := json.Marshal(out.Manifest)
		fmt.Fprintf(bw, "manifest %s\n", m)
		want := endToEnd
		if cfg.Trace {
			want = perLayer
		}
		units := unitsOf(want)
		for _, l := range out.Lines {
			fmt.Fprintf(bw, "%-16s %-32s %16.6g %-7s n=%-7d %s\n", names[i], l.Name, l.Value, units[l.Name], l.N, l.Note)
			key := l.Name
			if len(names) > 1 {
				key = names[i] + "/" + l.Name
			}
			sum.Metrics[key] = metric{Value: l.Value, Unit: units[l.Name]}
		}
		sum.Attempted += out.Attempted
		sum.Failed += out.Failed
	}
	if len(reports) > 0 {
		file := fmt.Sprintf("%s-seed%d.json", name, cfg.Seed)
		path, err := writeReports(outdir, file, reports)
		if err != nil {
			return err
		}
		fmt.Fprintf(bw, "trace report %s\n", path)
	}
	data, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "%s\n", data)
	return bw.Flush()
}

// runOne runs one workload and checks it reported exactly the expected
// metrics.
func runOne(name string, cfg config) (*outcome, error) {
	for _, wl := range workloads {
		if wl.Name != name {
			continue
		}
		out, err := wl.Run(cfg)
		if err != nil {
			return nil, err
		}
		out.Manifest.Workload = name
		out.Manifest.Why = wl.Why
		if out.Report != nil {
			out.Report.Workload = name
			out.Report.Manifest = out.Manifest
		}
		want := endToEnd
		if cfg.Trace {
			want = perLayer
		}
		if err := checkLines(out.Lines, want); err != nil {
			return nil, err
		}
		if out.Attempted < 1 {
			return nil, errors.New("no operation attempted")
		}
		return out, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func unitsOf(specs []spec) map[string]string {
	m := make(map[string]string, len(specs))
	for _, s := range specs {
		m[s.Name] = s.Unit
	}
	return m
}

// checkLines requires exactly one line per wanted metric.
func checkLines(lines []line, want []spec) error {
	units := unitsOf(want)
	seen := make(map[string]bool)
	for _, l := range lines {
		if _, ok := units[l.Name]; !ok || seen[l.Name] {
			return fmt.Errorf("unexpected or repeated metric %q", l.Name)
		}
		seen[l.Name] = true
	}
	for _, s := range want {
		if !seen[s.Name] {
			return fmt.Errorf("metric %q missing", s.Name)
		}
	}
	return nil
}

// manifest records what a run measured and where.
type manifest struct {
	Workload string  `json:"workload"`
	Why      string  `json:"why"`
	Seed     uint64  `json:"seed"`
	Traced   bool    `json:"traced"`
	Seconds  float64 `json:"seconds"`

	Dataset             string             `json:"dataset"`
	Vertices            int                `json:"vertices"`
	Edges               int                `json:"edges"`
	TerminalsPerSet     string             `json:"terminals_per_set"`
	DistinctSets        int                `json:"distinct_terminal_sets"`
	SubproblemsPerQuery float64            `json:"subproblems_per_query"`
	Samples             int                `json:"samples"`
	Width               int                `json:"width"`
	Mix                 map[string]float64 `json:"mix"`

	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

// machine fills the manifest's machine fields.
func (m *manifest) machine(cfg config) {
	m.Seed = cfg.Seed
	m.Traced = cfg.Trace
	m.Seconds = cfg.Seconds
	m.GOMAXPROCS = runtime.GOMAXPROCS(0)
	m.NumCPU = runtime.NumCPU()
	m.GoVersion = runtime.Version()
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
}
