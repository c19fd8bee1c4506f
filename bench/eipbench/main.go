// Command eipbench is the end-to-end and per-layer benchmark of the
// Entropy/IP system. It synthesizes every input from a seed, starts the
// serving API (internal/serve) in process on a loopback listener, drives it
// through pkg/client, checks the outputs outside the timed windows, and
// prints every metric by name with its unit. The last line of its output is
// a JSON summary:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {"op_p50_ms": {"value": 1012.4, "unit": "ms"}, ...}}
//
// Workloads (see README.md for why each exists):
//
//	train     a 100k-address S1 file becomes a saved model, at all cores and at one
//	stream    1M candidates pulled from a 1K-trained R1 model over the binary encoding
//	requests  open loop of 1000-candidate requests at 200/s across three models
//	observe   1024-address binary observe POSTs, each scoring drift on a 16k window
//
// Usage, from the root of a checkout (bench/run.sh builds the command and
// keeps what it writes under .bench_build/):
//
//	bash bench/run.sh -workload stream -seed 1 -seconds 20
//	bash bench/run.sh -workload all -trace 1
//	bash bench/run.sh -workload observe -runs 5
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"entropyip/internal/stats"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports all of them with tracing off; what an "op" is depends on the
// workload (README.md, "Workloads"). There is no tail percentile: train and
// stream complete about fifteen ops a run, too few for one, and the open
// loop's tail shows in loadgen.slo_pct. There is no throughput metric
// either: every op of a workload carries the same work, so on the closed
// loops it would be that work over the mean latency, and on the open loop
// the fixed arrival rate.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"heap_p99_mb", "MB"},
}

// trainLayers are the span names of one training build, in pipeline
// order; each yields a _w1 and a _wN metric.
var trainLayers = []string{
	"dataset.read", "entropy.profile", "mra.acr", "segment.segment", "mining.mine",
	"mining.compile", "mining.encode", "bayes.learn", "core.save",
}

// perLayer are the metrics of single layers, reported by a -trace 1 run.
// Every workload prints all of them; a layer the workload does not
// exercise reads 0.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range trainLayers {
		defs = append(defs, metricDef{l + "_ms_w1", "ms"}, metricDef{l + "_ms_wN", "ms"})
	}
	return append(defs,
		metricDef{"train.alloc_mb_w1", "MB"},
		metricDef{"train.alloc_mb_wN", "MB"},

		metricDef{"bayes.sample_ns", "ns"},
		metricDef{"mining.decode_ns", "ns"},
		metricDef{"ip6.dedup_ns", "ns"},
		metricDef{"gen.attempts_per_cand", "count"},
		metricDef{"gen.dup_reject_pct", "%"},
		metricDef{"core.generate_ns", "ns"},
		metricDef{"core.generate_w1_ns", "ns"},
		metricDef{"wire.encode_ns", "ns"},
		metricDef{"wire.decode_ns", "ns"},
		metricDef{"stream.alloc_b_per_cand", "B"},
		metricDef{"stream.ttfc_ms", "ms"},
		metricDef{"scan.hit_pct", "%"},
		metricDef{"scan.new_64s", "count"},

		metricDef{"registry.get_us", "us"},
		metricDef{"bayes.new_sampler_us", "us"},
		metricDef{"bayes.new_cond_sampler_us", "us"},
		metricDef{"core.generate_1k_us", "us"},
		metricDef{"core.generate_1k_evidence_us", "us"},
		metricDef{"serve.handler_us", "us"},
		metricDef{"loadgen.conn_wait_ms_p99", "ms"},
		metricDef{"loadgen.late_ms_max", "ms"},
		metricDef{"loadgen.slo_pct", "%"},

		metricDef{"wire.obs_decode_ns", "ns"},
		metricDef{"ingest.add_ns", "ns"},
		metricDef{"ingest.snapshot_us", "us"},
		metricDef{"core.encode_window_ms", "ms"},
		metricDef{"drift.score_ms", "ms"},
		metricDef{"serve.observe_handler_ms", "ms"},
		metricDef{"drift.evals_per_post", "count"},

		metricDef{"trace.overhead_pct", "%"},
		metricDef{"trace.unaccounted_pct", "%"},
		metricDef{"trace.layer_cover_pct", "%"},
	)
}()

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	// scale shrinks input sizes (the training file, the pull size) for
	// smoke tests; 1 is the benchmark.
	scale   float64
	workdir string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one command line and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("eipbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+" or all")
	seed := fs.Int64("seed", 1, "seed every input is synthesized from")
	seconds := fs.Float64("seconds", 20, "measured seconds per workload (split in half between untraced and traced ops under -trace 1)")
	traceFlag := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of the end-to-end metrics")
	scale := fs.Float64("scale", 1, "input size factor (below 1 for smoke tests)")
	workdir := fs.String("workdir", ".bench_build", "directory for the model registry and the span files of -trace 1 runs")
	runs := fs.Int("runs", 0, "run the command this many times in child processes and print each metric's quartiles")
	out := fs.String("out", "", "write the results with a hardware stamp to this JSON file")
	commit := fs.String("commit", "", "git commit recorded in the hardware stamp")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*traceFlag != 0 && *traceFlag != 1) || *seconds <= 0 || *scale <= 0 {
		fmt.Fprintln(stderr, "eipbench: bad arguments; see -help")
		return 2
	}
	names := workloadNames()
	if *workload != "all" {
		if _, ok := workloadByName(*workload); !ok {
			fmt.Fprintf(stderr, "eipbench: unknown workload %q\n", *workload)
			return 2
		}
		names = []string{*workload}
	}
	if *runs > 0 {
		return runRepeated(*runs, args, stdout, stderr)
	}

	cfg := config{
		seed:    *seed,
		seconds: *seconds,
		trace:   *traceFlag == 1,
		scale:   *scale,
		workdir: *workdir,
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "eipbench: %v\n", err)
		return 1
	}
	code := 0
	results := make(map[string]*result, len(names))
	for _, name := range names {
		res, err := runWorkload(cfg, name)
		if err != nil {
			fmt.Fprintf(stderr, "eipbench: %s: %v\n", name, err)
			return 1
		}
		results[name] = res
		res.print(stdout, name, cfg)
		if !res.correct {
			code = 1
		}
	}
	if *out != "" {
		if err := writeResults(*out, cfg, *commit, results); err != nil {
			fmt.Fprintf(stderr, "eipbench: %v\n", err)
			return 1
		}
	}
	return code
}

// result is the outcome of one workload run.
type result struct {
	correct   bool
	attempted int
	failed    int
	// metrics holds every value the run reports, by metric name.
	metrics map[string]float64
	defs    []metricDef
	// samples is the number of ops behind the latency metrics, classes
	// their latencies by op class.
	samples int
	classes map[string][]float64
	checks  []string
	table   *layerTable
}

// summary is the JSON form of a result, the last line of the output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) summary() summary {
	s := summary{Correct: r.correct, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricValue, len(r.defs))}
	for _, d := range r.defs {
		s.Metrics[d.name] = metricValue{Value: r.metrics[d.name], Unit: d.unit}
	}
	return s
}

// print writes the human-readable block of one workload followed by its
// JSON summary line.
func (r *result) print(w io.Writer, name string, cfg config) {
	mode := "end-to-end"
	if cfg.trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "workload %s  seed %d  %s  ops attempted %d  failed %d  latency samples %d\n",
		name, cfg.seed, mode, r.attempted, r.failed, r.samples)
	for _, c := range r.checks {
		fmt.Fprintf(w, "  check %s\n", c)
	}
	classes := make([]string, 0, len(r.classes))
	for c := range r.classes {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		fmt.Fprintf(w, "  class %-10s ops %6d  p50 %.4f ms\n", c, len(r.classes[c]), percentile(r.classes[c], 0.5))
	}
	if r.table != nil {
		r.table.print(w)
	}
	for _, d := range r.defs {
		fmt.Fprintf(w, "  metric %-32s %14.4f %s\n", d.name, r.metrics[d.name], d.unit)
	}
	line, _ := json.Marshal(r.summary())
	fmt.Fprintf(w, "%s\n", line)
}

// stamp identifies the hardware and build a results file was measured on.
type stamp struct {
	CPU        string  `json:"cpu"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Date       string  `json:"date"`
}

// writeResults writes every workload's summary, checks and layer table
// with the hardware stamp, the form of a ledger entry.
func writeResults(path string, cfg config, commit string, results map[string]*result) error {
	if commit == "" {
		commit = "unknown"
	}
	type entry struct {
		summary
		Samples int         `json:"latency_samples"`
		Checks  []string    `json:"checks"`
		Layers  *layerTable `json:"layers,omitempty"`
	}
	doc := struct {
		Stamp     stamp            `json:"stamp"`
		Workloads map[string]entry `json:"workloads"`
	}{
		Stamp: stamp{
			CPU:        cpuModel(),
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
			Commit:     commit,
			Seed:       cfg.seed,
			Seconds:    cfg.seconds,
			Trace:      cfg.trace,
			Date:       time.Now().UTC().Format(time.RFC3339),
		},
		Workloads: make(map[string]entry, len(results)),
	}
	for name, r := range results {
		doc.Workloads[name] = entry{summary: r.summary(), Samples: r.samples, Checks: r.checks, Layers: r.table}
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// cpuModel reads the CPU model name on Linux; elsewhere it reports the
// architecture.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOARCH
}

// runRepeated runs the same command line n times in child processes (each
// with a fresh heap, as separate benchmark runs have) and prints, per
// workload and metric, the median and quartiles of the n values and the
// quartile spread as a share of the median, flagging spreads wider than
// the metric's bound in the benchmark definition, BENCHMARK.json in the
// working directory.
func runRepeated(n int, args []string, stdout, stderr io.Writer) int {
	bounds, err := loadBounds("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "eipbench: %v\n", err)
		return 1
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "eipbench: %v\n", err)
		return 1
	}
	child := stripFlags(args, "runs", "out")
	// values[workload][metric] holds one value per run.
	values := map[string]map[string][]float64{}
	var order []string
	code := 0
	for i := 0; i < n; i++ {
		var buf bytes.Buffer
		cmd := exec.Command(exe, child...)
		cmd.Stdout = &buf
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "eipbench: run %d: %v\n", i+1, err)
			code = 1
		}
		var workload string
		for _, line := range strings.Split(buf.String(), "\n") {
			if strings.HasPrefix(line, "workload ") {
				workload = strings.Fields(line)[1]
				continue
			}
			var s summary
			if !strings.HasPrefix(line, "{") || json.Unmarshal([]byte(line), &s) != nil {
				continue
			}
			if values[workload] == nil {
				values[workload] = map[string][]float64{}
				order = append(order, workload)
			}
			for name, m := range s.Metrics {
				values[workload][name] = append(values[workload][name], m.Value)
			}
		}
	}
	fmt.Fprintf(stdout, "%-10s %-32s %14s %14s %14s %8s %7s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	for _, w := range order {
		names := make([]string, 0, len(values[w]))
		for name := range values[w] {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			v := values[w][name]
			q1, med, q3 := quartilesExclusive(v)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			bound, hasBound := bounds[name]
			flagged := ""
			if hasBound && spread > bound {
				flagged = "  SPREAD EXCEEDS BOUND"
			}
			b := "-"
			if hasBound {
				b = fmt.Sprintf("%.1f%%", 100*bound)
			}
			fmt.Fprintf(stdout, "%-10s %-32s %14.4f %14.4f %14.4f %7.1f%% %7s%s\n", w, name, q1, med, q3, 100*spread, b, flagged)
		}
	}
	return code
}

// loadBounds reads the end-to-end regression bounds of the benchmark
// definition.
func loadBounds(path string) (map[string]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading bounds: %w", err)
	}
	var def struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", filepath.Base(path), err)
	}
	out := make(map[string]float64, len(def.EndToEnd))
	for _, m := range def.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

// stripFlags removes the named flags (and their separate values) from a
// command line.
func stripFlags(args []string, names ...string) []string {
	drop := func(a string) (bool, bool) {
		for _, n := range names {
			for _, p := range []string{"-" + n, "--" + n} {
				if a == p {
					return true, true
				}
				if strings.HasPrefix(a, p+"=") {
					return true, false
				}
			}
		}
		return false, false
	}
	var out []string
	for i := 0; i < len(args); i++ {
		if d, hasValue := drop(args[i]); d {
			if hasValue {
				i++
			}
			continue
		}
		out = append(out, args[i])
	}
	return out
}

// quartilesExclusive returns the quartiles of data by the method of
// Python's statistics.quantiles(data, n=4) (the "exclusive" method), the
// spread rule the benchmark's bounds are checked with.
func quartilesExclusive(data []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), data...)
	sort.Float64s(s)
	if len(s) < 2 {
		if len(s) == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	ld := len(s)
	m := ld + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// percentile returns the q-quantile of data (linear interpolation), or 0
// for no data.
func percentile(data []float64, q float64) float64 {
	if len(data) == 0 {
		return 0
	}
	return stats.Quantile(data, q)
}
