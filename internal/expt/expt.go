// Package expt regenerates every table and figure of the paper's evaluation
// (Section 7) on the synthetic dataset stand-ins. Each experiment has a
// runner returning structured rows and a renderer printing the same rows
// the paper reports. Runners use only the public netrel API, so they double
// as integration tests of the library surface.
package expt

import (
	"fmt"
	"io"
	"runtime"
	"text/tabwriter"
	"time"

	"netrel"
	"netrel/datasets"
)

// Config parameterizes the experiment suite.
type Config struct {
	// Scale selects dataset sizes (default Small; Full matches Table 2).
	Scale datasets.Scale
	// Samples is the paper's s (default 10,000).
	Samples int
	// Width is the paper's w (default 10,000).
	Width int
	// Searches is the number of random terminal sets averaged per
	// configuration (paper: 20; default 3 to keep laptop runs short).
	Searches int
	// Repeats is the number of repeated approximations per search in the
	// accuracy tables (paper: 100; default 10).
	Repeats int
	// BDDBudget caps the exact-BDD baseline's nodes before it reports DNF.
	BDDBudget int
	// SampleBudgets overrides Figure 4's x-axis decades (default
	// 100, 1K, 10K, 100K).
	SampleBudgets []int
	// Seed drives all randomness.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Samples <= 0 {
		c.Samples = 10_000
	}
	if c.Width <= 0 {
		c.Width = 10_000
	}
	if c.Searches <= 0 {
		c.Searches = 3
	}
	if c.Repeats <= 0 {
		c.Repeats = 10
	}
	if c.BDDBudget <= 0 {
		c.BDDBudget = 500_000
	}
	return c
}

// LargeDatasets lists the five large datasets of Figures 3–5 and Table 5.
func LargeDatasets() []string {
	return []string{"DBLP1", "DBLP2", "Tokyo", "NYC", "Hit-d"}
}

// --- Table 2 -------------------------------------------------------------

// Table2Row summarizes one generated dataset as the paper's Table 2 does.
type Table2Row struct {
	Name, Abbr, Type   string
	Vertices, Edges    int
	AvgDegree, AvgProb float64
}

// Table2 generates every dataset at the configured scale and reports its
// statistics.
func Table2(cfg Config) ([]Table2Row, error) {
	cfg = cfg.withDefaults()
	rows := make([]Table2Row, 0, 7)
	for _, info := range datasets.Catalog() {
		g, err := datasets.Generate(info.Abbr, cfg.Scale, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("table2 %s: %w", info.Abbr, err)
		}
		rows = append(rows, Table2Row{
			Name: info.Name, Abbr: info.Abbr, Type: info.Type,
			Vertices: g.N(), Edges: g.M(),
			AvgDegree: g.AvgDegree(), AvgProb: g.AvgProb(),
		})
	}
	return rows, nil
}

// RenderTable2 prints rows in the paper's column layout.
func RenderTable2(w io.Writer, rows []Table2Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Name\tAbbr\tType\t#vertices\t#edges\tAvg.Deg\tAvg.Prob")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%d\t%.2f\t%.3f\n",
			r.Name, r.Abbr, r.Type, r.Vertices, r.Edges, r.AvgDegree, r.AvgProb)
	}
	tw.Flush()
}

// --- Figure 3 ------------------------------------------------------------

// Method identifies the compared approaches in the paper's naming.
type Method string

// The four methods of Figure 3.
const (
	MethodPro      Method = "Pro(MC)"
	MethodProNoExt Method = "Pro(MC)w/o ext"
	MethodSampling Method = "Sampling(MC)"
	MethodBDD      Method = "BDD"
)

// Figure3Row is one bar of Figure 3: mean response time of a method on a
// dataset for a terminal count.
type Figure3Row struct {
	Dataset  string
	K        int
	Method   Method
	Seconds  float64
	DNF      bool
	Estimate float64
}

// Figure3 measures response time for every large dataset, k ∈ {5,10,20},
// and the four methods.
func Figure3(cfg Config) ([]Figure3Row, error) {
	cfg = cfg.withDefaults()
	var rows []Figure3Row
	for _, ds := range LargeDatasets() {
		g, err := datasets.Generate(ds, cfg.Scale, cfg.Seed)
		if err != nil {
			return nil, err
		}
		for _, k := range []int{5, 10, 20} {
			for _, method := range []Method{MethodPro, MethodProNoExt, MethodSampling, MethodBDD} {
				row, err := timeMethod(g, ds, k, method, cfg)
				if err != nil {
					return nil, err
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

func timeMethod(g *netrel.Graph, ds string, k int, method Method, cfg Config) (Figure3Row, error) {
	row := Figure3Row{Dataset: ds, K: k, Method: method}
	total := 0.0
	for s := 0; s < cfg.Searches; s++ {
		terms, err := datasets.RandomTerminals(g, k, cfg.Seed+uint64(1000*k+s))
		if err != nil {
			return row, err
		}
		start := time.Now()
		var res *netrel.Result
		switch method {
		case MethodPro:
			res, err = netrel.Reliability(g, terms,
				netrel.WithSamples(cfg.Samples), netrel.WithMaxWidth(cfg.Width),
				netrel.WithSeed(cfg.Seed+uint64(s)))
		case MethodProNoExt:
			res, err = netrel.Reliability(g, terms,
				netrel.WithSamples(cfg.Samples), netrel.WithMaxWidth(cfg.Width),
				netrel.WithSeed(cfg.Seed+uint64(s)), netrel.WithoutExtension())
		case MethodSampling:
			res, err = netrel.MonteCarlo(g, terms,
				netrel.WithSamples(cfg.Samples), netrel.WithSeed(cfg.Seed+uint64(s)))
		case MethodBDD:
			res, err = netrel.BDDExact(g, terms, netrel.WithBDDNodeBudget(cfg.BDDBudget))
			if err != nil {
				// The paper's BDD baseline DNFs on every large dataset.
				row.DNF = true
				row.Seconds = time.Since(start).Seconds()
				return row, nil
			}
		}
		if err != nil {
			return row, fmt.Errorf("%s k=%d %s: %w", ds, k, method, err)
		}
		total += time.Since(start).Seconds()
		row.Estimate = res.Reliability
	}
	row.Seconds = total / float64(cfg.Searches)
	return row, nil
}

// RenderFigure3 prints the response-time series per k.
func RenderFigure3(w io.Writer, rows []Figure3Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "k\tDataset\tMethod\tResponse time [sec]\tEstimate")
	for _, r := range rows {
		tm := fmt.Sprintf("%.3f", r.Seconds)
		if r.DNF {
			tm = "DNF"
		}
		est := fmt.Sprintf("%.4g", r.Estimate)
		if r.DNF {
			est = "-"
		}
		fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%s\n", r.K, r.Dataset, r.Method, tm, est)
	}
	tw.Flush()
}

// --- Figure 4 ------------------------------------------------------------

// Figure4Row reports, for one dataset and sample budget, the paper's two
// reduction-rate series: response-time ratio Pro/Sampling (4a) and sample
// ratio s′/s (4b).
type Figure4Row struct {
	Dataset     string
	Samples     int
	TimeRatio   float64
	SampleRatio float64
}

// Figure4 varies the number of samples (the paper's x-axis decades; its
// final tick is read as the 100K decade).
func Figure4(cfg Config) ([]Figure4Row, error) {
	cfg = cfg.withDefaults()
	const k = 10
	budgets := cfg.SampleBudgets
	if len(budgets) == 0 {
		budgets = []int{100, 1_000, 10_000, 100_000}
	}
	var rows []Figure4Row
	for _, ds := range LargeDatasets() {
		g, err := datasets.Generate(ds, cfg.Scale, cfg.Seed)
		if err != nil {
			return nil, err
		}
		terms, err := datasets.RandomTerminals(g, k, cfg.Seed+77)
		if err != nil {
			return nil, err
		}
		for _, s := range budgets {
			proStart := time.Now()
			pro, err := netrel.Reliability(g, terms,
				netrel.WithSamples(s), netrel.WithMaxWidth(cfg.Width), netrel.WithSeed(cfg.Seed))
			if err != nil {
				return nil, err
			}
			proTime := time.Since(proStart).Seconds()

			mcStart := time.Now()
			if _, err := netrel.MonteCarlo(g, terms,
				netrel.WithSamples(s), netrel.WithSeed(cfg.Seed)); err != nil {
				return nil, err
			}
			mcTime := time.Since(mcStart).Seconds()

			ratio := 0.0
			if mcTime > 0 {
				ratio = proTime / mcTime
			}
			sampleRatio := 0.0
			if s > 0 {
				sampleRatio = float64(pro.SamplesReduced) / float64(s*max(pro.Subproblems, 1))
			}
			rows = append(rows, Figure4Row{
				Dataset: ds, Samples: s,
				TimeRatio: ratio, SampleRatio: sampleRatio,
			})
		}
	}
	return rows, nil
}

// RenderFigure4 prints both series.
func RenderFigure4(w io.Writer, rows []Figure4Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Dataset\t#samples\tTime ratio Pro/Sampling\ts'/s")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.3f\n", r.Dataset, r.Samples, r.TimeRatio, r.SampleRatio)
	}
	tw.Flush()
}

// --- Figure 5 ------------------------------------------------------------

// Figure5Row reports memory and time for one dataset and maximum width.
type Figure5Row struct {
	Dataset  string
	Width    int
	AllocMB  float64
	Seconds  float64
	Estimate float64
}

// Figure5 varies the maximum S2BDD width w. Memory is measured as bytes
// allocated during the computation (cumulative allocations, a monotone
// proxy for the paper's resident-set curve).
func Figure5(cfg Config) ([]Figure5Row, error) {
	cfg = cfg.withDefaults()
	const k = 10
	widths := []int{1_000, 10_000, 100_000, 1_000_000}
	if cfg.Scale == datasets.Small {
		// The 1M-width point needs the paper's 256GB testbed at full scale
		// and adds nothing to the shape (memory ∝ w, time ≈ flat).
		widths = widths[:3]
	}
	var rows []Figure5Row
	for _, ds := range LargeDatasets() {
		g, err := datasets.Generate(ds, cfg.Scale, cfg.Seed)
		if err != nil {
			return nil, err
		}
		terms, err := datasets.RandomTerminals(g, k, cfg.Seed+99)
		if err != nil {
			return nil, err
		}
		for _, w := range widths {
			runtime.GC()
			var m1, m2 runtime.MemStats
			runtime.ReadMemStats(&m1)
			start := time.Now()
			res, err := netrel.Reliability(g, terms,
				netrel.WithSamples(cfg.Samples), netrel.WithMaxWidth(w), netrel.WithSeed(cfg.Seed))
			if err != nil {
				return nil, err
			}
			secs := time.Since(start).Seconds()
			runtime.ReadMemStats(&m2)
			rows = append(rows, Figure5Row{
				Dataset: ds, Width: w,
				AllocMB:  float64(m2.TotalAlloc-m1.TotalAlloc) / (1 << 20),
				Seconds:  secs,
				Estimate: res.Reliability,
			})
		}
	}
	return rows, nil
}

// RenderFigure5 prints both series.
func RenderFigure5(w io.Writer, rows []Figure5Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Dataset\tMax width\tMemory [MB alloc]\tResponse time [sec]")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%.1f\t%.3f\n", r.Dataset, r.Width, r.AllocMB, r.Seconds)
	}
	tw.Flush()
}
