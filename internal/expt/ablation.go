package expt

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"netrel"
	"netrel/datasets"
)

// AblationRow reports one design-choice variant's behaviour beyond the
// paper's own figures: edge ordering, deletion heuristic, early
// termination, stall rule, and Theorem 1 reduction.
type AblationRow struct {
	Dataset  string
	Variant  string
	Seconds  float64
	Estimate float64
	Lower    float64
	Upper    float64
	Samples  int
}

// Ablations runs one variant per design choice the options can switch off
// or reorder (see variants below), on one road-like and one dense dataset.
func Ablations(cfg Config) ([]AblationRow, error) {
	cfg = cfg.withDefaults()
	type variant struct {
		name string
		opts []netrel.Option
	}
	variants := []variant{
		{"baseline(bfs)", nil},
		{"order=natural", []netrel.Option{netrel.WithOrdering(netrel.OrderNatural)}},
		{"order=dfs", []netrel.Option{netrel.WithOrdering(netrel.OrderDFS)}},
		{"order=degree", []netrel.Option{netrel.WithOrdering(netrel.OrderDegree)}},
		{"no-heuristic", []netrel.Option{netrel.WithoutHeuristic()}},
		{"no-early-term", []netrel.Option{netrel.WithoutEarlyTermination()}},
		{"no-stall", []netrel.Option{netrel.WithoutStall()}},
		{"no-reduction", []netrel.Option{netrel.WithoutSampleReduction()}},
		{"no-extension", []netrel.Option{netrel.WithoutExtension()}},
	}
	var rows []AblationRow
	for _, ds := range []string{"Tokyo", "Hit-d"} {
		g, err := datasets.Generate(ds, cfg.Scale, cfg.Seed)
		if err != nil {
			return nil, err
		}
		terms, err := datasets.RandomTerminals(g, 10, cfg.Seed+5)
		if err != nil {
			return nil, err
		}
		for _, v := range variants {
			opts := append([]netrel.Option{
				netrel.WithSamples(cfg.Samples),
				netrel.WithMaxWidth(cfg.Width),
				netrel.WithSeed(cfg.Seed),
			}, v.opts...)
			start := time.Now()
			res, err := netrel.Reliability(g, terms, opts...)
			if err != nil {
				return nil, fmt.Errorf("ablation %s/%s: %w", ds, v.name, err)
			}
			rows = append(rows, AblationRow{
				Dataset: ds, Variant: v.name,
				Seconds:  time.Since(start).Seconds(),
				Estimate: res.Reliability,
				Lower:    res.Lower, Upper: res.Upper,
				Samples: res.SamplesUsed,
			})
		}
	}
	return rows, nil
}

// RenderAblations prints the variant table.
func RenderAblations(w io.Writer, rows []AblationRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Dataset\tVariant\tTime [sec]\tEstimate\tLower\tUpper\tSamples used")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.3f\t%.4g\t%.4g\t%.4g\t%d\n",
			r.Dataset, r.Variant, r.Seconds, r.Estimate, r.Lower, r.Upper, r.Samples)
	}
	tw.Flush()
}

// Run dispatches an experiment by name and renders it to w. Known names:
// table2, fig3, fig4, fig5, table3, table4, table5, ablation, all.
func Run(name string, cfg Config, w io.Writer) error {
	switch name {
	case "table2":
		rows, err := Table2(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "== Table 2: datasets ==")
		RenderTable2(w, rows)
	case "fig3":
		rows, err := Figure3(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "== Figure 3: response time by method ==")
		RenderFigure3(w, rows)
	case "fig4":
		rows, err := Figure4(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "== Figure 4: effect of the number of samples ==")
		RenderFigure4(w, rows)
	case "fig5":
		rows, err := Figure5(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "== Figure 5: effect of the maximum width ==")
		RenderFigure5(w, rows)
	case "table3":
		rows, err := Table3(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "== Table 3: accuracy on Karate ==")
		RenderAccuracy(w, rows)
	case "table4":
		rows, err := Table4(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "== Table 4: accuracy on Am-Rv ==")
		RenderAccuracy(w, rows)
	case "table5":
		rows, err := Table5(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "== Table 5: effect of the extension technique ==")
		RenderTable5(w, rows)
	case "ablation":
		rows, err := Ablations(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "== Ablations: design-choice variants ==")
		RenderAblations(w, rows)
	case "all":
		for _, n := range []string{"table2", "fig3", "fig4", "fig5", "table3", "table4", "table5", "ablation"} {
			if err := Run(n, cfg, w); err != nil {
				return fmt.Errorf("%s: %w", n, err)
			}
			fmt.Fprintln(w)
		}
	default:
		return fmt.Errorf("expt: unknown experiment %q", name)
	}
	return nil
}
