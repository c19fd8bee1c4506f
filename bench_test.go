// Benchmark harness regenerating every table and figure of the paper's
// evaluation (see DESIGN.md §3 for the per-exhibit index). Each benchmark
// runs the corresponding experiment end to end on the synthetic dataset
// catalog and reports domain metrics (success rates, entropy values, hit
// counts) through b.ReportMetric, so that
//
//	go test -bench=. -benchmem
//
// reproduces the paper's evaluation at laptop scale. Full tables with the
// same rows as the paper are printed by `go run ./cmd/eipreport`; the
// benchmarks here use b.Logf for row-level detail (visible with -v).
package entropyip

import (
	"strings"
	"testing"

	"entropyip/internal/bayes"
	"entropyip/internal/core"
	"entropyip/internal/entropy"
	"entropyip/internal/mining"
	"entropyip/internal/report"
	"entropyip/internal/segment"
	"entropyip/internal/synth"
	"entropyip/internal/viz"
)

// benchSizes keeps a full `go test -bench=.` run in the minutes range while
// preserving the paper's protocol (1K training addresses). Candidate counts
// and universe sizes can be raised to the paper's scale via cmd/eipreport.
func benchSizes() report.Sizes {
	return report.Sizes{TrainSize: 1000, Candidates: 20_000, UniverseSize: 20_000, Seed: 1}
}

// --- Table 1 -----------------------------------------------------------

func BenchmarkTable1DatasetSizes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := report.Table1(1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", tbl)
		}
	}
}

// --- Figures 1 and 2, Table 2 (C1, the Japanese-telco-like client set) --

func BenchmarkFigure1ConditionalBrowser(b *testing.B) {
	sizes := benchSizes()
	for i := 0; i < b.N; i++ {
		a, err := report.Analyze("C1", sizes, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		// The "mouse click" of Fig. 1(b)->(c): condition on the most
		// popular exact value of the last segment and recompute the
		// browser.
		last := a.Model.Segments[len(a.Model.Segments)-1]
		var code string
		for _, v := range last.Values {
			if v.IsExact() {
				code = v.Code
				break
			}
		}
		if code == "" {
			b.Fatal("no exact value to click on")
		}
		before, err := a.Model.Browse(nil)
		if err != nil {
			b.Fatal(err)
		}
		after, err := a.Model.Browse(core.Evidence{last.Seg.Label: code})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("clicked %s=%s; first segment before/after:\n%s\n%s",
				last.Seg.Label, code, viz.ASCIIBrowser(before[:1]), viz.ASCIIBrowser(after[:1]))
			b.ReportMetric(a.Model.TotalEntropy(), "H_S")
			b.ReportMetric(float64(len(a.Model.Segments)), "segments")
		}
	}
}

func BenchmarkFigure2BNStructure(b *testing.B) {
	sizes := benchSizes()
	for i := 0; i < b.N; i++ {
		a, err := report.Analyze("C1", sizes, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		deps := a.Model.Dependencies()
		dot := viz.DOTNetwork(a.Model, "")
		if !strings.HasPrefix(dot, "digraph") {
			b.Fatal("bad DOT output")
		}
		if i == 0 {
			b.ReportMetric(float64(len(deps)), "edges")
			for _, d := range deps {
				b.Logf("edge %s -> %s (MI %.2f bits)", d.Parent, d.Child, d.MI)
			}
		}
	}
}

func BenchmarkTable2ConditionalProbability(b *testing.B) {
	sizes := benchSizes()
	for i := 0; i < b.N; i++ {
		a, err := report.Analyze("C1", sizes, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		tbl, err := report.Table2(a)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", tbl)
		}
	}
}

// --- Figure 4 and Table 3 (segment mining of S1) ------------------------

func BenchmarkFigure4SegmentMining(b *testing.B) {
	sizes := benchSizes()
	for i := 0; i < b.N; i++ {
		a, err := report.Analyze("S1", sizes, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		// Fig. 4 is the histogram of one two-nybble segment with its mined
		// codes; report how many codes the mining produced per step.
		steps := map[mining.Step]int{}
		for _, sm := range a.Model.Segments {
			for _, v := range sm.Values {
				steps[v.Step]++
			}
		}
		if i == 0 {
			b.ReportMetric(float64(steps[mining.StepOutlier]), "outlier_values")
			b.ReportMetric(float64(steps[mining.StepDense]+steps[mining.StepUniform]), "range_values")
			b.ReportMetric(float64(steps[mining.StepClosing]), "closing_values")
		}
	}
}

func BenchmarkTable3SegmentMiningS1(b *testing.B) {
	sizes := benchSizes()
	for i := 0; i < b.N; i++ {
		a, err := report.Analyze("S1", sizes, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		tbl := report.Table3(a)
		if i == 0 {
			b.Logf("\n%s", tbl)
			b.ReportMetric(float64(len(a.Model.Segments)), "segments")
			codes := 0
			for _, sm := range a.Model.Segments {
				codes += sm.Arity()
			}
			b.ReportMetric(float64(codes), "mined_codes")
		}
	}
}

// --- Figure 5 (windowed entropy of S1) ----------------------------------

func BenchmarkFigure5WindowedEntropy(b *testing.B) {
	addrs, err := synth.Generate("S1", 5000, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := entropy.NewWindowed(addrs)
		if i == 0 {
			b.ReportMetric(w.Max(), "max_bits")
			svg := viz.SVGWindowedHeatmap("Fig 5: windowed entropy, S1", w)
			if !strings.HasPrefix(svg, "<svg") {
				b.Fatal("bad SVG")
			}
		}
	}
}

// --- Figure 6 (aggregate entropy) ---------------------------------------

func BenchmarkFigure6AggregateEntropy(b *testing.B) {
	sizes := benchSizes()
	for i := 0; i < b.N; i++ {
		series, err := report.Figure6(sizes)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, s := range series {
				b.Logf("%s: H_S = %.1f", s.Dataset, s.Total)
				switch s.Dataset {
				case "AS":
					b.ReportMetric(s.Total, "H_S_servers")
				case "AC":
					b.ReportMetric(s.Total, "H_S_clients")
					b.ReportMetric(s.H[17], "u_bit_nybble_H")
				case "AR":
					b.ReportMetric((s.H[22]+s.H[23])/2, "fffe_nybble_H")
				}
			}
		}
	}
}

// --- Figures 7, 9, 10 (per-dataset deep dives) ---------------------------

func benchmarkDatasetFigure(b *testing.B, name string) {
	sizes := benchSizes()
	for i := 0; i < b.N; i++ {
		a, err := report.Analyze(name, sizes, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		svg := viz.SVGEntropyPlot(name, a.Model.Profile.H[:], a.Model.ACR.ACR[:], viz.SegmentMarkers(a.Model))
		if !strings.HasPrefix(svg, "<svg") {
			b.Fatal("bad SVG")
		}
		if _, err := a.Model.Browse(nil); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(a.Model.TotalEntropy(), "H_S")
			b.ReportMetric(float64(len(a.Model.Segments)), "segments")
			b.Logf("%s segmentation: %s", name, a.Model.Segmentation)
		}
	}
}

func BenchmarkFigure7ServerS1(b *testing.B)  { benchmarkDatasetFigure(b, "S1") }
func BenchmarkFigure9RouterR1(b *testing.B)  { benchmarkDatasetFigure(b, "R1") }
func BenchmarkFigure10ClientC1(b *testing.B) { benchmarkDatasetFigure(b, "C1") }

// --- Figure 8 (brief plots) ----------------------------------------------

func BenchmarkFigure8BriefPlots(b *testing.B) {
	sizes := benchSizes()
	for i := 0; i < b.N; i++ {
		series, err := report.Figure8(sizes)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, s := range series {
				b.Logf("%s: H_S = %.1f", s.Dataset, s.Total)
			}
			b.ReportMetric(float64(len(series)), "datasets")
		}
	}
}

// --- Table 4 (scanning servers and routers) ------------------------------

func BenchmarkTable4Scanning(b *testing.B) {
	sizes := benchSizes()
	for i := 0; i < b.N; i++ {
		tbl, rows, err := report.Table4(sizes)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", tbl)
			var sum, routers float64
			newPrefixes := 0
			for _, r := range rows {
				sum += r.SuccessRate
				if r.Dataset[0] == 'R' {
					routers += r.SuccessRate
				}
				newPrefixes += r.NewPrefixes64
			}
			b.ReportMetric(100*sum/float64(len(rows)), "mean_success_%")
			b.ReportMetric(float64(newPrefixes), "new_/64s")
		}
	}
}

// --- Table 5 (training size sweep) ----------------------------------------

func BenchmarkTable5TrainingSize(b *testing.B) {
	sizes := benchSizes()
	sizes.Candidates = 10_000
	for i := 0; i < b.N; i++ {
		tbl, results, err := report.Table5([]string{"S5", "R1", "C5"}, []int{100, 1000, 5000}, sizes)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", tbl)
			if r := results["R1"]; len(r) == 3 {
				b.ReportMetric(100*r[1], "R1_success_at_1K_%")
			}
		}
	}
}

// --- Table 6 (client /64 prefix prediction) -------------------------------

func BenchmarkTable6PrefixPrediction(b *testing.B) {
	sizes := benchSizes()
	for i := 0; i < b.N; i++ {
		tbl, rows, err := report.Table6(sizes)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", tbl)
			sum := 0.0
			for _, r := range rows {
				sum += r.SuccessRate7Day
			}
			b.ReportMetric(100*sum/float64(len(rows)), "mean_7day_success_%")
		}
	}
}

// --- Baseline comparison (the §2/§5.5 qualitative claim) -------------------

func BenchmarkBaselineComparison(b *testing.B) {
	sizes := benchSizes()
	for i := 0; i < b.N; i++ {
		rows, err := report.CompareBaselines("R1", sizes)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.Logf("%-18s success %6.2f%%  new /64s %d", r.Generator, 100*r.SuccessRate, r.NewPrefixes)
				if r.Generator == "entropy-ip" {
					b.ReportMetric(float64(r.NewPrefixes), "entropyip_new_/64s")
				}
			}
		}
	}
}

// --- Ablations (design choices called out in DESIGN.md) --------------------

// BenchmarkAblationSegmentation compares the paper's entropy-threshold
// segmentation against fixed-width 4-nybble segments by the mean
// address-level log-likelihood (nats per address) the resulting model
// assigns to held-out data. The two models mine different code
// alphabets, so only the address-level likelihood compares them.
func BenchmarkAblationSegmentation(b *testing.B) {
	addrs, err := synth.Generate("S1", 20_000, 1)
	if err != nil {
		b.Fatal(err)
	}
	train, test := addrs[:1000], addrs[1000:3000]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		entropyModel, err := core.Build(train, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		fixedModel, err := core.Build(train, core.Options{
			Segmentation: segment.Config{Thresholds: []float64{2}, ForcedBoundaries: []int{16, 32, 48, 64, 80, 96, 112}},
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(entropyModel.MeanAddressLogLikelihood(test), "entropy_seg_LL/addr")
			b.ReportMetric(fixedModel.MeanAddressLogLikelihood(test), "fixed_seg_LL/addr")
			b.ReportMetric(float64(len(entropyModel.Segments)), "entropy_segments")
			b.ReportMetric(float64(len(fixedModel.Segments)), "fixed_segments")
		}
	}
}

// BenchmarkAblationBNStructure compares the learned Bayesian network against
// the independent-segments and Markov-chain alternatives discussed in §4.5,
// by held-out mean address-level log-likelihood (nats per address).
func BenchmarkAblationBNStructure(b *testing.B) {
	addrs, err := synth.Generate("C1", 20_000, 1)
	if err != nil {
		b.Fatal(err)
	}
	train, test := addrs[:1000], addrs[1000:3000]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		type variant struct {
			name string
			s    bayes.Structure
		}
		variants := []variant{
			{"learned", bayes.StructureLearned},
			{"independent", bayes.StructureIndependent},
			{"chain", bayes.StructureChain},
		}
		for _, v := range variants {
			m, err := core.Build(train, core.Options{Learn: bayes.LearnConfig{Structure: v.s}})
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(m.MeanAddressLogLikelihood(test), v.name+"_LL/addr")
			}
		}
	}
}

// BenchmarkAblationMining compares the paper's full mining heuristic against
// a top-K-only variant (no DBSCAN ranges) by scanning success on R1.
func BenchmarkAblationMining(b *testing.B) {
	sizes := benchSizes()
	sizes.Candidates = 10_000
	for i := 0; i < b.N; i++ {
		full, err := report.ScanDataset("R1", sizes)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(100*full.SuccessRate, "full_mining_success_%")
		}
		// Top-K-only mining: tiny nominate limit and huge stop fraction so
		// only the outlier step contributes.
		a, err := report.Analyze("R1", sizes, core.Options{
			Mining: mining.Config{NominateLimit: 5, StopFraction: 0.5},
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			codes := 0
			for _, sm := range a.Model.Segments {
				codes += sm.Arity()
			}
			b.ReportMetric(float64(codes), "topk_codes")
		}
	}
}
