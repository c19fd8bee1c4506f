// Command eipreport reruns the paper's entire evaluation (Tables 1-6 and
// the data behind Figures 6 and 8, plus the baseline comparison) against
// the synthetic dataset catalog and prints the resulting tables. It is the
// programmatic counterpart of EXPERIMENTS.md. The tables go to stdout and
// are the same on every run with the same flags; how long each exhibit
// took goes to stderr.
//
// Usage:
//
//	eipreport                 # laptop-scale defaults (1K train, 100K candidates)
//	eipreport -quick          # very small sizes, a few seconds end to end
//	eipreport -candidates 1000000   # the paper's candidate count
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"time"

	"entropyip/internal/core"
	"entropyip/internal/report"
	"entropyip/internal/stats"
)

func main() {
	var (
		quick      = flag.Bool("quick", false, "use very small experiment sizes (smoke test)")
		train      = flag.Int("train", 1000, "training sample size")
		candidates = flag.Int("candidates", 100000, "number of generated candidates per dataset")
		universe   = flag.Int("universe", 0, "synthetic universe size per dataset (0 = archetype default)")
		seed       = flag.Int64("seed", 1, "random seed")
		only       = flag.String("only", "", "run only one exhibit: table1..table6, figure6, figure8, baselines")
	)
	flag.Parse()

	sizes := report.Sizes{TrainSize: *train, Candidates: *candidates, UniverseSize: *universe, Seed: *seed}
	if *quick {
		sizes = report.Sizes{TrainSize: 300, Candidates: 5000, UniverseSize: 6000, Seed: *seed}
	}
	// All exhibit output flows through one buffered writer: the tables are
	// hundreds of lines, and unbuffered per-line prints cost a syscall
	// each. The buffer is flushed (with the error checked) after every
	// exhibit and before any error exit, so partial output is never lost.
	out := bufio.NewWriter(os.Stdout)
	flush := func() {
		if err := out.Flush(); err != nil {
			fmt.Fprintf(os.Stderr, "eipreport: writing output: %v\n", err)
			os.Exit(1)
		}
	}
	run := func(name string, fn func() error) {
		if *only != "" && *only != name {
			return
		}
		start := time.Now()
		if err := fn(); err != nil {
			flush()
			fmt.Fprintf(os.Stderr, "eipreport: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Fprintln(out)
		flush()
		fmt.Fprintf(os.Stderr, "[%s completed in %v]\n", name, time.Since(start).Round(time.Millisecond))
	}

	run("table1", func() error {
		t, err := report.Table1(sizes.Seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, t)
		return nil
	})
	run("table2", func() error {
		a, err := report.Analyze("C1", sizes, core.Options{})
		if err != nil {
			return err
		}
		t, err := report.Table2(a)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, t)
		return nil
	})
	run("table3", func() error {
		a, err := report.Analyze("S1", sizes, core.Options{})
		if err != nil {
			return err
		}
		fmt.Fprintln(out, report.Table3(a))
		return nil
	})
	run("table4", func() error {
		t, _, err := report.Table4(sizes)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, t)
		return nil
	})
	run("table5", func() error {
		trainSizes := []int{100, 1000, 10000}
		if *quick {
			trainSizes = []int{100, 300}
		}
		t, _, err := report.Table5(nil, trainSizes, sizes)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, t)
		return nil
	})
	run("table6", func() error {
		t, _, err := report.Table6(sizes)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, t)
		return nil
	})
	run("figure6", func() error {
		series, err := report.Figure6(sizes)
		if err != nil {
			return err
		}
		t := &report.Table{Title: "Figure 6: total entropy (H_S) of the aggregate datasets",
			Header: []string{"Dataset", "H_S", "mean H (bits 0-64)", "mean H (bits 64-128)"}}
		for _, s := range series {
			t.Add(s.Dataset, fmt.Sprintf("%.1f", s.Total), fmt.Sprintf("%.2f", stats.Mean(s.H[:16])), fmt.Sprintf("%.2f", stats.Mean(s.H[16:])))
		}
		fmt.Fprintln(out, t)
		return nil
	})
	run("figure8", func() error {
		series, err := report.Figure8(sizes)
		if err != nil {
			return err
		}
		t := &report.Table{Title: "Figure 8: per-dataset entropy summaries",
			Header: []string{"Dataset", "H_S", "mean ACR (bits 32-64)", "mean H (bits 64-128)"}}
		for _, s := range series {
			t.Add(s.Dataset, fmt.Sprintf("%.1f", s.Total), fmt.Sprintf("%.2f", stats.Mean(s.ACR[8:16])), fmt.Sprintf("%.2f", stats.Mean(s.H[16:])))
		}
		fmt.Fprintln(out, t)
		return nil
	})
	run("baselines", func() error {
		rows, err := report.CompareBaselines("R1", sizes)
		if err != nil {
			return err
		}
		t := &report.Table{Title: "Baseline comparison on R1 (ablation; §2/§5.5 discussion)",
			Header: []string{"Generator", "Overall hits", "Success", "New /64s"}}
		for _, r := range rows {
			t.Add(r.Generator, r.Overall, report.Percent(r.SuccessRate), r.NewPrefixes)
		}
		fmt.Fprintln(out, t)
		return nil
	})
}
