// Command experiments regenerates the paper's tables and figures on the
// synthetic dataset stand-ins.
//
// Usage:
//
//	experiments -exp all -scale small
//	experiments -exp fig3 -scale medium -searches 20 -samples 10000
//	experiments -exp table3 -searches 100 -repeats 100   # paper-size run
//
// Performance across revisions is measured by the repository benchmark in
// relbench/ (see BENCHMARK.json), not by this command.
package main

import (
	"flag"
	"fmt"
	"os"

	"netrel/datasets"
	"netrel/internal/expt"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: table2|fig3|fig4|fig5|table3|table4|table5|ablation|all")
		scale    = flag.String("scale", "small", "dataset scale: small|medium|full")
		samples  = flag.Int("samples", 10000, "sample budget s")
		width    = flag.Int("width", 10000, "maximum S2BDD width w")
		searches = flag.Int("searches", 3, "random terminal sets per configuration")
		repeats  = flag.Int("repeats", 10, "repeated approximations per search (accuracy tables)")
		seed     = flag.Uint64("seed", 42, "random seed")
		budget   = flag.Int("bddbudget", 500000, "node budget of the exact BDD baseline")
	)
	flag.Parse()

	sc, err := datasets.ParseScale(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg := expt.Config{
		Scale:     sc,
		Samples:   *samples,
		Width:     *width,
		Searches:  *searches,
		Repeats:   *repeats,
		Seed:      *seed,
		BDDBudget: *budget,
	}
	if err := expt.Run(*exp, cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
