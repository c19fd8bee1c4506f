// Command entropyip analyzes a set of IPv6 addresses with the Entropy/IP
// pipeline: per-nybble entropy, segmentation, segment mining and Bayesian
// network learning. It prints a terminal report (entropy plot, mined
// segment values, dependencies) and can write the trained model as JSON,
// the interactive conditional-probability browser as HTML, and the network
// structure as Graphviz DOT.
//
// Usage:
//
//	entropyip -in addresses.txt -train 1000 -model model.json -html report.html
//	entropyip -dataset C1 -train 1000 -condition J=J1
//
// With -gen N it additionally generates N candidate addresses from the
// freshly trained model (conditioned on -condition), streaming them to
// -gen-out:
//
//	entropyip -in addresses.txt -train 1000 -q -gen 100000 -gen-out cands.txt
//
// With -drift it runs offline drift scoring instead of training: the input
// addresses are compared against an existing model (the offline twin of
// eipserved's online drift detection), the per-segment divergence report
// is printed, and the exit status is 2 when the score reaches the enter
// threshold — so cron jobs can page on stale models.
//
//	entropyip -in today.txt -drift model.json
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"entropyip/internal/buildinfo"
	"entropyip/internal/core"
	"entropyip/internal/dataset"
	"entropyip/internal/drift"
	"entropyip/internal/ip6"
	"entropyip/internal/report"
	"entropyip/internal/stats"
	"entropyip/internal/synth"
	"entropyip/internal/viz"
)

func main() {
	var (
		inPath    = flag.String("in", "", "input file with one IPv6 address per line")
		dsName    = flag.String("dataset", "", "analyze a built-in synthetic dataset instead of a file")
		trainSize = flag.Int("train", 1000, "number of training addresses sampled from the input (0 = all)")
		seed      = flag.Int64("seed", 1, "random seed")
		prefix64  = flag.Bool("prefix64", false, "model only the top 64 bits (network identifiers)")
		condition = flag.String("condition", "", "conditional browsing evidence, e.g. \"J=J1,B=B2\"")
		modelOut  = flag.String("model", "", "write the trained model as JSON to this file")
		genCount  = flag.Int("gen", 0, "generate this many candidate addresses from the trained model (conditioned on -condition)")
		genOut    = flag.String("gen-out", "-", "file the -gen candidates are written to ('-' for stdout)")
		htmlOut   = flag.String("html", "", "write the conditional probability browser as HTML to this file")
		dotOut    = flag.String("dot", "", "write the Bayesian network structure as Graphviz DOT to this file")
		quiet     = flag.Bool("q", false, "suppress the terminal report")
		driftIn   = flag.String("drift", "", "score the input addresses for drift against this model file instead of training")
		driftGate = flag.Float64("drift-enter", drift.DefaultEnter, "drift score at which -drift exits with status 2")
		trace     = flag.Bool("trace", false, "print per-stage training pipeline timings to stderr")
		version   = flag.Bool("version", false, "print the version and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println("entropyip", buildinfo.Version())
		return
	}

	addrs, name, err := loadInput(*inPath, *dsName, *seed)
	if err != nil {
		fatal(err)
	}
	if *driftIn != "" {
		runDrift(*driftIn, name, addrs, *driftGate, *quiet)
		return
	}
	train := addrs
	if *trainSize > 0 && *trainSize < len(addrs) {
		train, _ = stats.SplitTrainTest(stats.RNG(*seed), addrs, *trainSize)
	}
	buildOpts := core.Options{Prefix64Only: *prefix64}
	var stages []stageTime
	if *trace {
		// Build reports its stages sequentially, so no lock is needed.
		buildOpts.OnStage = func(name string, d time.Duration) {
			stages = append(stages, stageTime{name, d})
		}
	}
	model, err := core.Build(train, buildOpts)
	if err != nil {
		fatal(err)
	}
	if *trace {
		fmt.Fprintln(os.Stderr, "entropyip: training stage timing:")
		if err := writeStages(os.Stderr, stages); err != nil {
			fatal(err)
		}
	}
	evidence, err := parseEvidence(*condition)
	if err != nil {
		fatal(err)
	}

	if !*quiet {
		printReport(name, model, evidence)
	}
	if *modelOut != "" {
		if err := writeFile(*modelOut, func(f *os.File) error { return model.Save(f) }); err != nil {
			fatal(err)
		}
	}
	if *htmlOut != "" {
		page := &viz.BrowserPage{Title: name, Model: model, Evidence: evidence}
		if err := writeFile(*htmlOut, func(f *os.File) error { return page.Render(f) }); err != nil {
			fatal(err)
		}
	}
	if *dotOut != "" {
		dot := viz.DOTNetwork(model, "")
		if err := os.WriteFile(*dotOut, []byte(dot), 0o644); err != nil {
			fatal(err)
		}
	}
	if *genCount > 0 {
		if err := generateCandidates(model, *genCount, *seed, evidence, *genOut); err != nil {
			fatal(err)
		}
	}
}

// generateCandidates streams candidates drawn from the trained model —
// the §5.5 generation step without a separate eipgen invocation. The
// training addresses are not excluded here; use eipgen -exclude for the
// paper's "new targets only" workflow.
func generateCandidates(model *core.Model, n int, seed int64, evidence core.Evidence, outPath string) error {
	out := os.Stdout
	if outPath != "-" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	w := bufio.NewWriter(out)
	opts := core.GenerateOptions{Count: n, Seed: seed, Evidence: evidence}
	count := 0
	line := make([]byte, 0, 64)
	err := model.GenerateStream(opts, func(a ip6.Addr) bool {
		line = a.AppendString(line[:0])
		line = append(line, '\n')
		_, werr := w.Write(line)
		count++
		return werr == nil
	})
	// Flush even on a mid-stream error so the output file is not left
	// truncated mid-line.
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "entropyip: generated %d candidate addresses\n", count)
	return nil
}

// runDrift is the offline drift sub-mode: score the input addresses
// against a saved model and report per-segment divergence.
func runDrift(modelPath, name string, addrs []ip6.Addr, gate float64, quiet bool) {
	f, err := os.Open(modelPath)
	if err != nil {
		fatal(err)
	}
	model, err := core.Load(f)
	f.Close()
	if err != nil {
		fatal(fmt.Errorf("loading model %s: %w", modelPath, err))
	}
	rep, err := drift.Score(model, addrs)
	if err != nil {
		fatal(err)
	}
	if !quiet {
		w := bufio.NewWriter(os.Stdout)
		fmt.Fprintf(w, "Drift of %s (%d addresses) against %s (trained on %d):\n\n",
			name, rep.Window, modelPath, model.TrainCount)
		fmt.Fprintf(w, "  %-8s %-12s %8s %8s %10s %8s\n", "segment", "nybbles", "codeJS", "codeKL", "nybbleJS", "clamped")
		for _, s := range rep.Segments {
			nyb := "n/a"
			if s.HasNybble {
				nyb = fmt.Sprintf("%.3f", s.NybbleJS)
			}
			fmt.Fprintf(w, "  %-8s %3d..%-8d %8.3f %8.3f %10s %7.1f%%\n",
				s.Label, s.Start, s.Start+s.Width, s.CodeJS, s.CodeKL, nyb, 100*s.Clamped)
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "  score (max segment divergence): %.3f\n", rep.Score)
		fmt.Fprintf(w, "  mean code JS:                   %.3f\n", rep.MeanCodeJS)
		fmt.Fprintf(w, "  mean log-likelihood per addr:   %.2f nats\n", rep.MeanLogLikelihood)
		if err := w.Flush(); err != nil {
			fatal(err)
		}
	}
	if rep.Score >= gate {
		fmt.Printf("DRIFTED: score %.3f >= %.3f — the model is stale for this input\n", rep.Score, gate)
		os.Exit(2)
	}
	fmt.Printf("OK: score %.3f < %.3f\n", rep.Score, gate)
}

func loadInput(inPath, dsName string, seed int64) ([]ip6.Addr, string, error) {
	switch {
	case inPath != "" && dsName != "":
		return nil, "", fmt.Errorf("use either -in or -dataset, not both")
	case inPath != "":
		d, err := dataset.LoadFile(inPath)
		if err != nil {
			return nil, "", err
		}
		return d.Addrs, inPath, nil
	case dsName != "":
		addrs, err := synth.Generate(dsName, 0, seed)
		return addrs, dsName, err
	default:
		return nil, "", fmt.Errorf("one of -in or -dataset is required")
	}
}

func parseEvidence(s string) (core.Evidence, error) {
	if s == "" {
		return nil, nil
	}
	ev := core.Evidence{}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 || kv[0] == "" || kv[1] == "" {
			return nil, fmt.Errorf("invalid -condition entry %q (want LABEL=CODE)", part)
		}
		ev[kv[0]] = kv[1]
	}
	return ev, nil
}

// printReport renders the terminal report through one buffered writer —
// the report is dozens of lines, and unbuffered per-line Printf costs one
// syscall each — with an explicit final flush whose error is checked (a
// full pipe or closed stdout must not pass silently).
func printReport(name string, model *core.Model, evidence core.Evidence) {
	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "Entropy/IP analysis of %s (%d training addresses)\n", name, model.TrainCount)
	fmt.Fprintf(w, "total entropy H_S = %.1f\n\n", model.TotalEntropy())
	segments := make([]string, 32)
	for _, sm := range model.Segments {
		if sm.Seg.Start < len(segments) {
			segments[sm.Seg.Start] = sm.Seg.Label
		}
	}
	fmt.Fprintln(w, viz.ASCIIEntropy(model.Profile.H[:], model.ACR.ACR[:], segments))
	fmt.Fprintln(w, "Segmentation:", model.Segmentation.String())
	fmt.Fprintln(w)
	a := &report.Analysis{Dataset: name, Model: model}
	fmt.Fprintln(w, report.Table3(a).String())
	fmt.Fprintln(w, "Bayesian network dependencies (by mutual information):")
	for _, d := range model.Dependencies() {
		fmt.Fprintf(w, "  %s -> %s  (MI %.2f bits)\n", d.Parent, d.Child, d.MI)
	}
	fmt.Fprintln(w)
	dists, err := model.Browse(evidence)
	if err != nil {
		_ = w.Flush()
		fatal(err)
	}
	if len(evidence) > 0 {
		fmt.Fprintf(w, "Conditional probability browser (evidence: %v):\n", evidence)
	} else {
		fmt.Fprintln(w, "Conditional probability browser (no evidence):")
	}
	fmt.Fprintln(w, viz.ASCIIBrowser(dists))
	if err := w.Flush(); err != nil {
		fatal(err)
	}
}

// stageTime is one core.Build stage as reported through Options.OnStage.
type stageTime struct {
	name string
	d    time.Duration
}

// writeStages writes an aligned per-stage timing table with each stage's
// share of the total, ending with a total line.
func writeStages(w io.Writer, stages []stageTime) error {
	var total time.Duration
	width := len("total")
	for _, s := range stages {
		total += s.d
		width = max(width, len(s.name))
	}
	for _, s := range stages {
		share := 0.0
		if total > 0 {
			share = 100 * float64(s.d) / float64(total)
		}
		if _, err := fmt.Fprintf(w, "  %-*s %12v %6.1f%%\n", width, s.name, s.d.Round(time.Microsecond), share); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "  %-*s %12v\n", width, "total", total.Round(time.Microsecond))
	return err
}

func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "entropyip:", err)
	os.Exit(1)
}
