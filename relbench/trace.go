package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls (or, for the daemon, taken from the
// response's own timing). Spans of one request share Req; set-up spans
// have Req -1.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // 0: a root span
	Req     int     `json:"req"`
	Layer   string  `json:"layer"`
	StartUS float64 `json:"start_us"` // since the run began
	DurUS   float64 `json:"dur_us"`
}

// tracer keeps a run's spans in memory until the run ends. A nil *tracer
// records nothing, so untraced code paths call it unconditionally.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(layer string, parent, req int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Req: req, Layer: layer,
		StartUS: float64(time.Since(t.t0)) / 1e3,
	})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	sp := &t.spans[id-1]
	sp.DurUS = float64(time.Since(t.t0))/1e3 - sp.StartUS
}

// add records a span whose duration was measured elsewhere (a daemon
// phase reported in a response), starting at start.
func (t *tracer) add(layer string, parent, req int, start time.Time, dur time.Duration) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Req: req, Layer: layer,
		StartUS: float64(start.Sub(t.t0)) / 1e3, DurUS: float64(dur) / 1e3,
	})
	return len(t.spans)
}

// layerTime is one layer's self time summed over a run's requests: span
// durations minus the part their child spans cover.
type layerTime struct {
	Layer  string  `json:"layer"`
	SelfMS float64 `json:"self_ms"`
	Calls  int     `json:"calls"`
	// Share is SelfMS over the summed duration of the root spans — the
	// layer's share of the time the requests were blocked.
	Share float64 `json:"share"`
}

// layerTimes folds request spans (Req ≥ 0) into per-layer self times.
func layerTimes(spans []span) []layerTime {
	child := make(map[int]float64)
	for _, sp := range spans {
		if sp.Parent != 0 {
			child[sp.Parent] += sp.DurUS
		}
	}
	by := make(map[string]*layerTime)
	blocking := 0.0
	for _, sp := range spans {
		if sp.Req < 0 {
			continue
		}
		if sp.Parent == 0 {
			blocking += sp.DurUS
		}
		lt := by[sp.Layer]
		if lt == nil {
			lt = &layerTime{Layer: sp.Layer}
			by[sp.Layer] = lt
		}
		lt.SelfMS += (sp.DurUS - child[sp.ID]) / 1e3
		lt.Calls++
	}
	out := make([]layerTime, 0, len(by))
	for _, lt := range by {
		if blocking > 0 {
			lt.Share = lt.SelfMS * 1e3 / blocking
		}
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// report is a traced run's output file: what ran, the per-layer metrics,
// the per-layer self times, and every span.
type report struct {
	Workload string            `json:"workload"`
	Manifest manifest          `json:"manifest"`
	Requests int               `json:"requests"`
	Metrics  map[string]metric `json:"metrics"`
	Layers   []layerTime       `json:"layers"`
	Spans    []span            `json:"spans"`
}

type reportFile struct {
	Runs []report `json:"runs"`
}

// writeReports writes a traced run's reports to dir and returns the path.
func writeReports(dir, name string, runs []report) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	data, err := json.Marshal(reportFile{Runs: runs})
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("writing trace report: %w", err)
	}
	return path, nil
}

func readReports(path string) (reportFile, error) {
	var rf reportFile
	data, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(data, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// diffReports prints, for every workload present in both files, each
// layer's self time per request before and after, the change, and each
// layer's share of the blocking time before and after.
func diffReports(w io.Writer, oldPath, newPath string) error {
	oldRF, err := readReports(oldPath)
	if err != nil {
		return err
	}
	newRF, err := readReports(newPath)
	if err != nil {
		return err
	}
	matched := 0
	for _, o := range oldRF.Runs {
		for _, n := range newRF.Runs {
			if n.Workload != o.Workload {
				continue
			}
			matched++
			printLayerDiff(w, o, n)
		}
	}
	if matched == 0 {
		return fmt.Errorf("no workload appears in both %s and %s", oldPath, newPath)
	}
	return nil
}

func printLayerDiff(w io.Writer, o, n report) {
	fmt.Fprintf(w, "workload %s: old seed %d, %d requests; new seed %d, %d requests\n",
		o.Workload, o.Manifest.Seed, o.Requests, n.Manifest.Seed, n.Requests)
	fmt.Fprintf(w, "  %-22s %14s %14s %12s %8s %10s %10s\n",
		"layer", "old ms/req", "new ms/req", "delta ms", "delta", "old share", "new share")
	perReq := func(r report) map[string]layerTime {
		m := make(map[string]layerTime)
		for _, lt := range r.Layers {
			if r.Requests > 0 {
				lt.SelfMS /= float64(r.Requests)
			}
			m[lt.Layer] = lt
		}
		return m
	}
	om, nm := perReq(o), perReq(n)
	var names []string
	for l := range om {
		names = append(names, l)
	}
	for l := range nm {
		if _, ok := om[l]; !ok {
			names = append(names, l)
		}
	}
	sort.Slice(names, func(i, j int) bool {
		return om[names[i]].SelfMS+nm[names[i]].SelfMS > om[names[j]].SelfMS+nm[names[j]].SelfMS
	})
	for _, l := range names {
		a, b := om[l], nm[l]
		rel := "n/a"
		if a.SelfMS != 0 {
			rel = fmt.Sprintf("%+.1f%%", 100*(b.SelfMS-a.SelfMS)/a.SelfMS)
		}
		fmt.Fprintf(w, "  %-22s %14.4f %14.4f %+12.4f %8s %9.1f%% %9.1f%%\n",
			l, a.SelfMS, b.SelfMS, b.SelfMS-a.SelfMS, rel, 100*a.Share, 100*b.Share)
	}
	var keys []string
	for k := range o.Metrics {
		if _, ok := n.Metrics[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "  %-34s %16s %16s %10s\n", "per-layer metric", "old", "new", "delta")
	for _, k := range keys {
		a, b := o.Metrics[k].Value, n.Metrics[k].Value
		rel := "n/a"
		if a != 0 {
			rel = fmt.Sprintf("%+.1f%%", 100*(b-a)/a)
		}
		fmt.Fprintf(w, "  %-34s %16.6g %16.6g %10s %s\n", k, a, b, rel, o.Metrics[k].Unit)
	}
}
