package expt

import (
	"fmt"
	"io"
	"text/tabwriter"

	"netrel"
	"netrel/datasets"
	"netrel/internal/stats"
)

// AccuracyRow is one row of Tables 3 and 4: the variance and error rate of
// a method against the exact reliability over Searches×Repeats runs.
type AccuracyRow struct {
	Dataset   string
	K         int
	Method    Method
	Variance  float64
	ErrorRate float64
	// ExactRuns counts runs the method solved exactly (Table 4's headline:
	// Pro is always exact on Am-Rv).
	ExactRuns int
	TotalRuns int
}

// The accuracy tables compare four methods.
const (
	MethodProMC      Method = "Pro(MC)"
	MethodProHT      Method = "Pro(HT)"
	MethodSamplingMC Method = "Sampling(MC)"
	MethodSamplingHT Method = "Sampling(HT)"
)

// Table3 evaluates accuracy on the Karate dataset (paper Table 3).
func Table3(cfg Config) ([]AccuracyRow, error) {
	return accuracyTable(cfg, "Karate")
}

// Table4 evaluates accuracy on the American-Revolution dataset (Table 4).
func Table4(cfg Config) ([]AccuracyRow, error) {
	return accuracyTable(cfg, "Am-Rv")
}

func accuracyTable(cfg Config, ds string) ([]AccuracyRow, error) {
	cfg = cfg.withDefaults()
	g, err := datasets.Generate(ds, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	methods := []Method{MethodProMC, MethodProHT, MethodSamplingMC, MethodSamplingHT}
	var rows []AccuracyRow
	for _, k := range []int{5, 10, 20} {
		// Exact reliabilities per search.
		exactVals := make([]float64, cfg.Searches)
		termSets := make([][]int, cfg.Searches)
		for s := 0; s < cfg.Searches; s++ {
			terms, err := datasets.RandomTerminals(g, k, cfg.Seed+uint64(10_000*k+s))
			if err != nil {
				return nil, err
			}
			termSets[s] = terms
			ex, err := exactReliability(g, terms)
			if err != nil {
				return nil, fmt.Errorf("%s k=%d search %d: %w", ds, k, s, err)
			}
			exactVals[s] = ex
		}
		for _, method := range methods {
			estimates := make([][]float64, cfg.Searches)
			exactRuns, totalRuns := 0, 0
			for s := 0; s < cfg.Searches; s++ {
				estimates[s] = make([]float64, cfg.Repeats)
				for rep := 0; rep < cfg.Repeats; rep++ {
					seed := cfg.Seed + uint64(1_000_000*k+1000*s+rep)
					res, err := runAccuracyMethod(g, termSets[s], method, cfg, seed)
					if err != nil {
						return nil, err
					}
					estimates[s][rep] = res.Reliability
					if res.Exact {
						exactRuns++
					}
					totalRuns++
				}
			}
			acc, err := stats.EvalAccuracy(exactVals, estimates)
			if err != nil {
				return nil, err
			}
			rows = append(rows, AccuracyRow{
				Dataset: ds, K: k, Method: method,
				Variance: acc.Variance, ErrorRate: acc.ErrorRate,
				ExactRuns: exactRuns, TotalRuns: totalRuns,
			})
		}
	}
	return rows, nil
}

// exactReliability obtains ground truth, escalating the width budget until
// the S2BDD resolves exactly.
func exactReliability(g *netrel.Graph, terms []int) (float64, error) {
	var lastErr error
	for _, w := range []int{1 << 17, 1 << 20, 1 << 23} {
		res, err := netrel.Exact(g, terms, netrel.WithMaxWidth(w))
		if err == nil {
			return res.Reliability, nil
		}
		lastErr = err
	}
	return 0, lastErr
}

func runAccuracyMethod(g *netrel.Graph, terms []int, method Method, cfg Config, seed uint64) (*netrel.Result, error) {
	switch method {
	case MethodProMC:
		return netrel.Reliability(g, terms,
			netrel.WithSamples(cfg.Samples), netrel.WithMaxWidth(cfg.Width), netrel.WithSeed(seed))
	case MethodProHT:
		return netrel.Reliability(g, terms,
			netrel.WithSamples(cfg.Samples), netrel.WithMaxWidth(cfg.Width), netrel.WithSeed(seed),
			netrel.WithEstimator(netrel.EstimatorHorvitzThompson))
	case MethodSamplingMC:
		return netrel.MonteCarlo(g, terms,
			netrel.WithSamples(cfg.Samples), netrel.WithSeed(seed))
	case MethodSamplingHT:
		return netrel.MonteCarlo(g, terms,
			netrel.WithSamples(cfg.Samples), netrel.WithSeed(seed),
			netrel.WithEstimator(netrel.EstimatorHorvitzThompson))
	}
	return nil, fmt.Errorf("expt: unknown accuracy method %q", method)
}

// RenderAccuracy prints Tables 3/4 in the paper's layout.
func RenderAccuracy(w io.Writer, rows []AccuracyRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "k\tMethod\tVariance\tError rate\tExact runs")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%s\t%.3g\t%.3g\t%d/%d\n",
			r.K, r.Method, r.Variance, r.ErrorRate, r.ExactRuns, r.TotalRuns)
	}
	tw.Flush()
}

// --- Table 5 -------------------------------------------------------------

// Table5Row reports the extension technique's preprocessing time and the
// reduced graph size ratio for one dataset.
type Table5Row struct {
	Dataset      string
	ProcessSecs  float64
	ReducedRatio float64
}

// Table5 measures the extension technique on all seven datasets with k=10
// terminals (k=5 for the small graphs, matching their vertex counts).
func Table5(cfg Config) ([]Table5Row, error) {
	cfg = cfg.withDefaults()
	var rows []Table5Row
	for _, info := range datasets.Catalog() {
		g, err := datasets.Generate(info.Abbr, cfg.Scale, cfg.Seed)
		if err != nil {
			return nil, err
		}
		k := 10
		if g.N() < 100 {
			k = 5
		}
		terms, err := datasets.RandomTerminals(g, k, cfg.Seed+3)
		if err != nil {
			return nil, err
		}
		// A one-sample run exposes the preprocessing statistics without a
		// full estimation pass. Width 2 keeps construction negligible, and
		// neither it nor the one draw is timed: the trace splits out the
		// technique's cost, the 2ECC index build and the per-query
		// reduction, which both run before construction; Table 5 reports
		// both.
		res, err := netrel.Reliability(g, terms,
			netrel.WithSamples(1), netrel.WithMaxWidth(2), netrel.WithSeed(cfg.Seed),
			netrel.WithTrace())
		if err != nil {
			return nil, err
		}
		if res.Preprocess == nil {
			return nil, fmt.Errorf("table5 %s: missing preprocess stats", info.Abbr)
		}
		index, _ := res.Phases.Span("index")
		rows = append(rows, Table5Row{
			Dataset:      info.Abbr,
			ProcessSecs:  (index.Duration + res.Preprocess.Duration).Seconds(),
			ReducedRatio: res.Preprocess.ReducedRatio,
		})
	}
	return rows, nil
}

// RenderTable5 prints the table.
func RenderTable5(w io.Writer, rows []Table5Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Dataset\tProcess time [sec]\tReduced graph size")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.6f\t%.3f\n", r.Dataset, r.ProcessSecs, r.ReducedRatio)
	}
	tw.Flush()
}
