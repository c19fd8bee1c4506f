package drift

import (
	"math/rand"
	"reflect"
	"testing"

	"entropyip/internal/core"
	"entropyip/internal/entropy"
	"entropyip/internal/ip6"
	"entropyip/internal/plan"
)

// testPlan builds a simple addressing plan: fixed /32, a weighted subnet
// nybble group, zeros, and a bounded host field.
func testPlan(subnets []uint64, weights []float64) *plan.Plan {
	return &plan.Plan{Name: "test", Fields: []plan.Field{
		{Name: "prefix", Start: 0, Width: 8, Gen: plan.Const(0x20010db8)},
		{Name: "subnet", Start: 8, Width: 4, Gen: plan.Choice(subnets, weights)},
		{Name: "host", Start: 28, Width: 4, Gen: plan.Uniform(1, 0x3ff)},
	}}
}

func trainModel(t *testing.T, p *plan.Plan, n int, seed int64) *core.Model {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m, err := core.Build(drawUnique(p, rng, n), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestScoreSameDistributionIsLow(t *testing.T) {
	p := testPlan([]uint64{0x0001, 0x0002}, []float64{0.7, 0.3})
	m := trainModel(t, p, 3000, 1)
	window := draw(p, rand.New(rand.NewSource(99)), 2000)
	rep, err := Score(m, window)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Window != 2000 {
		t.Errorf("window = %d", rep.Window)
	}
	if rep.Score > 0.1 {
		t.Errorf("in-distribution score = %.3f, want <= 0.1\n%s", rep.Score, rep)
	}
	if rep.MeanLogLikelihood >= 0 {
		t.Errorf("mean LL = %v, want negative", rep.MeanLogLikelihood)
	}
}

func TestScoreShiftedDistributionIsHigh(t *testing.T) {
	a := testPlan([]uint64{0x0001, 0x0002}, []float64{0.7, 0.3})
	m := trainModel(t, a, 3000, 1)
	// The operator rolled out new subnets: the live window comes from a
	// disjoint subnet set.
	b := testPlan([]uint64{0x00a1, 0x00a2}, []float64{0.5, 0.5})
	window := draw(b, rand.New(rand.NewSource(99)), 2000)

	repA, err := Score(m, draw(a, rand.New(rand.NewSource(5)), 2000))
	if err != nil {
		t.Fatal(err)
	}
	repB, err := Score(m, window)
	if err != nil {
		t.Fatal(err)
	}
	if repB.Score <= repA.Score+0.2 {
		t.Errorf("shifted score %.3f not clearly above in-distribution %.3f", repB.Score, repA.Score)
	}
	if repB.MeanLogLikelihood >= repA.MeanLogLikelihood {
		t.Errorf("shifted mean LL %.2f not below in-distribution %.2f",
			repB.MeanLogLikelihood, repA.MeanLogLikelihood)
	}
	// The shifted segment must carry clamp evidence: subnet values the
	// model never mined.
	anyClamped := false
	for _, s := range repB.Segments {
		if s.Clamped > 0 {
			anyClamped = true
		}
	}
	if !anyClamped {
		t.Error("no segment reports clamped values for a disjoint subnet set")
	}
}

func TestScoreIsDeterministic(t *testing.T) {
	p := testPlan([]uint64{0x0001, 0x0002}, []float64{0.7, 0.3})
	m := trainModel(t, p, 2000, 1)
	window := draw(p, rand.New(rand.NewSource(3)), 1500)
	r1, err := Score(m, window)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Score(m, window)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("scoring is not deterministic:\n%+v\n%+v", r1, r2)
	}
}

func TestScoreEmptyWindow(t *testing.T) {
	p := testPlan([]uint64{0x0001}, []float64{1})
	m := trainModel(t, p, 1000, 1)
	rep, err := Score(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Window != 0 || rep.Score != 0 {
		t.Errorf("empty window report = %+v", rep)
	}
}

func TestScoreLegacyModelWithoutNybbleCounts(t *testing.T) {
	p := testPlan([]uint64{0x0001, 0x0002}, []float64{0.7, 0.3})
	m := trainModel(t, p, 2000, 1)
	// Simulate a model file from before entropy_counts were persisted.
	m.Profile = &entropy.Profile{N: m.Profile.N, H: m.Profile.H, Raw: m.Profile.Raw}
	rep, err := Score(m, draw(p, rand.New(rand.NewSource(9)), 1000))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range rep.Segments {
		if s.HasNybble {
			t.Fatalf("segment %s claims nybble scores without training counts", s.Label)
		}
	}
	if rep.Score < 0 || rep.Score > 1 {
		t.Errorf("score = %v", rep.Score)
	}
}

func TestScorePrefix64OnlyMasksWindow(t *testing.T) {
	p := testPlan([]uint64{0x0001, 0x0002}, []float64{0.6, 0.4})
	rng := rand.New(rand.NewSource(1))
	m, err := core.Build(drawUnique(p, rng, 3000), core.Options{Prefix64Only: true})
	if err != nil {
		t.Fatal(err)
	}
	window := draw(p, rand.New(rand.NewSource(7)), 1500)
	rep, err := Score(m, window)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Score > 0.1 {
		t.Errorf("prefix64 in-distribution score = %.3f, want <= 0.1", rep.Score)
	}
	// Masked and unmasked windows must score identically.
	masked := make([]ip6.Addr, len(window))
	for i, a := range window {
		masked[i] = ip6.Mask(a, 64)
	}
	rep2, err := Score(m, masked)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, rep2) {
		t.Error("masking the window changed the prefix64 score")
	}
}

func reportWithScore(score float64, window int) Report {
	return Report{Window: window, Score: score}
}

func TestDetectorHysteresis(t *testing.T) {
	d := NewDetector(Config{Enter: 0.2, Exit: 0.1, Consecutive: 2, MinWindow: -1})

	// One spike does not trip it.
	v := d.Observe(reportWithScore(0.5, 100))
	if v.Drifting || v.Entered {
		t.Fatalf("one spike tripped the detector: %+v", v)
	}
	// A calm window resets the streak.
	if v := d.Observe(reportWithScore(0.05, 100)); v.Drifting {
		t.Fatalf("calm window left it drifting: %+v", v)
	}
	// Two consecutive spikes trip it.
	d.Observe(reportWithScore(0.3, 100))
	v = d.Observe(reportWithScore(0.3, 100))
	if !v.Drifting || !v.Entered {
		t.Fatalf("two spikes did not trip: %+v", v)
	}
	// Between exit and enter: stays drifting (hysteresis).
	if v := d.Observe(reportWithScore(0.15, 100)); !v.Drifting || v.Exited {
		t.Fatalf("mid-band score cleared the detector: %+v", v)
	}
	// At or below exit: recovers.
	v = d.Observe(reportWithScore(0.1, 100))
	if v.Drifting || !v.Exited {
		t.Fatalf("exit score did not clear: %+v", v)
	}
	// Reset clears a drifting state and the spike streak.
	d.Observe(reportWithScore(0.3, 100))
	if v := d.Observe(reportWithScore(0.3, 100)); !v.Drifting {
		t.Fatalf("two spikes did not trip again: %+v", v)
	}
	d.Reset()
	if drifting, _ := d.State(); drifting {
		t.Error("Reset left the detector drifting")
	}
	if v := d.Observe(reportWithScore(0.3, 100)); v.Drifting || v.Entered {
		t.Fatalf("one spike after Reset tripped the detector: %+v", v)
	}
}

func TestDetectorMinWindowSkips(t *testing.T) {
	d := NewDetector(Config{Enter: 0.2, Consecutive: 1, MinWindow: 500})
	v := d.Observe(reportWithScore(0.9, 100))
	if !v.Skipped || v.Drifting {
		t.Fatalf("small window was judged: %+v", v)
	}
	if _, evals := d.State(); evals != 0 {
		t.Errorf("skipped window counted as evaluation")
	}
}

func TestDetectorDefaults(t *testing.T) {
	cfg := Config{}
	if cfg.enter() != DefaultEnter || cfg.exit() != DefaultEnter/2 {
		t.Errorf("default thresholds = %v/%v", cfg.enter(), cfg.exit())
	}
	if cfg.consecutive() != DefaultConsecutive || cfg.minWindow() != DefaultMinWindow {
		t.Errorf("default consecutive/minWindow = %v/%v", cfg.consecutive(), cfg.minWindow())
	}
	// Exit above Enter is clamped down to Enter.
	bad := Config{Enter: 0.2, Exit: 0.5}
	if bad.exit() != 0.2 {
		t.Errorf("exit not clamped: %v", bad.exit())
	}
}

// draw draws n addresses from p (duplicates possible, as in real traffic).
func draw(p *plan.Plan, rng *rand.Rand, n int) []ip6.Addr {
	out := make([]ip6.Addr, n)
	for i := range out {
		out[i] = p.One(rng)
	}
	return out
}

// drawUnique draws from p until n unique addresses have been produced or
// n×20 draws are spent.
func drawUnique(p *plan.Plan, rng *rand.Rand, n int) []ip6.Addr {
	seen := ip6.NewSet(n)
	out := make([]ip6.Addr, 0, n)
	for attempts := 0; len(out) < n && attempts < n*20; attempts++ {
		if a := p.One(rng); seen.Add(a) {
			out = append(out, a)
		}
	}
	return out
}
