package report

import (
	"strings"
	"testing"

	"entropyip/internal/core"
)

// smallSizes keeps unit tests fast; the full-scale runs live in the
// top-level benchmark harness.
func smallSizes() Sizes {
	return Sizes{TrainSize: 500, Candidates: 3000, UniverseSize: 8000, Seed: 3}
}

func TestTableFormatting(t *testing.T) {
	tbl := &Table{Title: "demo", Header: []string{"a", "bb"}}
	tbl.Add("x", 1)
	tbl.Add("longer", 2.5, "extra")
	s := tbl.String()
	if !strings.Contains(s, "demo") || !strings.Contains(s, "longer") || !strings.Contains(s, "extra") {
		t.Errorf("table output:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Errorf("line count = %d:\n%s", len(lines), s)
	}
}

func TestPercentAndCount(t *testing.T) {
	if Percent(0.43) != "43%" || Percent(0.016) != "1.6%" || Percent(0.0055) != "0.55%" {
		t.Errorf("Percent formatting wrong: %s %s %s", Percent(0.43), Percent(0.016), Percent(0.0055))
	}
	if Count(42) != "42" || Count(6400) != "6.4 K" || Count(6_700_000) != "6.7 M" || Count(3_500_000_000) != "3.5 G" {
		t.Errorf("Count formatting wrong: %s %s %s %s", Count(42), Count(6400), Count(6_700_000), Count(3_500_000_000))
	}
}

func TestDefaultSizes(t *testing.T) {
	var zero Sizes
	if zero.trainSize() != 1000 || zero.candidates() != 100_000 {
		t.Error("zero-value sizes should fall back to defaults")
	}
}

func TestAnalyze(t *testing.T) {
	a, err := Analyze("R5", smallSizes(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Model == nil || len(a.Train) == 0 || len(a.Test) == 0 {
		t.Fatal("incomplete analysis")
	}
	if len(a.Train)+len(a.Test) != len(a.Population) {
		t.Error("train/test must partition the population")
	}
	if _, err := Analyze("NOPE", smallSizes(), core.Options{}); err == nil {
		t.Error("unknown dataset should error")
	}
}

func TestTable1(t *testing.T) {
	// Keep it cheap by relying on the catalog defaults only for the small
	// datasets; Table1 generates every dataset, so this is the slowest unit
	// test here but still bounded by the scaled-down defaults.
	if testing.Short() {
		t.Skip("short mode")
	}
	tbl, err := Table1(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 19 {
		t.Errorf("rows = %d, want 19", len(tbl.Rows))
	}
	if !strings.Contains(tbl.String(), "S1") || !strings.Contains(tbl.String(), "AT") {
		t.Error("table missing datasets")
	}
}

func TestTable2AndTable3(t *testing.T) {
	a, err := Analyze("C1", smallSizes(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := Table2(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(t2.Rows) < 2 {
		t.Errorf("Table 2 should have a prior row plus parent rows:\n%s", t2)
	}
	t3 := Table3(a)
	if len(t3.Rows) < len(a.Model.Segments) {
		t.Errorf("Table 3 should have at least one row per segment")
	}
	if !strings.Contains(t3.String(), "A1") {
		t.Error("Table 3 missing code A1")
	}
}

func TestScanDatasetServerVsClient(t *testing.T) {
	sizes := smallSizes()
	// R1 (point-to-point routers) must be predictable; its success rate
	// must greatly exceed C3's (privacy addresses, essentially unguessable
	// at the full-address level). This is the paper's headline contrast.
	r1, err := ScanDataset("R1", sizes)
	if err != nil {
		t.Fatal(err)
	}
	c3, err := ScanDataset("C3", sizes)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Overall == 0 {
		t.Error("R1 scanning should find active addresses")
	}
	if r1.SuccessRate <= c3.SuccessRate {
		t.Errorf("R1 success (%v) should exceed C3 (%v)", r1.SuccessRate, c3.SuccessRate)
	}
	if r1.NewPrefixes64 == 0 {
		t.Error("R1 scanning should discover /64s not seen in training")
	}
	if r1.TestSet == 0 || r1.Ping == 0 {
		t.Errorf("R1 oracle counts look wrong: %+v", r1)
	}
}

func TestPredictPrefixes(t *testing.T) {
	row, err := PredictPrefixes("C5", smallSizes())
	if err != nil {
		t.Fatal(err)
	}
	if row.Candidates == 0 {
		t.Fatal("no candidate prefixes generated")
	}
	if row.Predicted7Day == 0 {
		t.Error("C5 prefix prediction should find active /64s (the paper reports 20%)")
	}
	if row.Predicted7Day < row.PredictedDay1 {
		t.Error("7-day activity is a superset of day-1 activity")
	}
	if row.SuccessRate7Day <= 0 || row.SuccessRate7Day > 1 {
		t.Errorf("success rate = %v", row.SuccessRate7Day)
	}
}

func TestCompareBaselines(t *testing.T) {
	rows, err := CompareBaselines("R1", smallSizes())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("expected entropy-ip plus 3 baselines, got %d", len(rows))
	}
	byName := map[string]BaselineRow{}
	for _, r := range rows {
		byName[r.Generator] = r
	}
	eip := byName["entropy-ip"]
	if eip.NewPrefixes == 0 {
		t.Error("Entropy/IP should discover new /64s")
	}
	// The IID-only baselines cannot discover /64s outside training by
	// construction.
	for _, name := range []string{"random-iid", "scan6-heuristics", "iid-pattern"} {
		if byName[name].NewPrefixes != 0 {
			t.Errorf("%s should not discover new /64s", name)
		}
	}
}

func TestFigure6And8(t *testing.T) {
	sizes := smallSizes()
	sizes.UniverseSize = 6000
	f6, err := Figure6(sizes)
	if err != nil {
		t.Fatal(err)
	}
	if len(f6) != 4 {
		t.Fatalf("Figure 6 series = %d", len(f6))
	}
	var hs, hc float64
	for _, s := range f6 {
		if len(s.H) != 32 {
			t.Errorf("series %s has %d nybbles", s.Dataset, len(s.H))
		}
		switch s.Dataset {
		case "AS":
			hs = s.Total
		case "AC":
			hc = s.Total
		}
	}
	if hs >= hc {
		t.Errorf("servers (%v) should have lower total entropy than clients (%v)", hs, hc)
	}
	f8, err := Figure8(sizes)
	if err != nil {
		t.Fatal(err)
	}
	if len(f8) != 12 {
		t.Errorf("Figure 8 series = %d, want 12", len(f8))
	}
	for _, s := range f8 {
		if s.ACR == nil {
			t.Errorf("series %s missing ACR", s.Dataset)
		}
	}
}

func TestTable5SmallSweep(t *testing.T) {
	sizes := smallSizes()
	sizes.Candidates = 2000
	tbl, results, err := Table5([]string{"R5"}, []int{100, 400}, sizes)
	if err != nil {
		t.Fatal(err)
	}
	if len(results["R5"]) != 2 {
		t.Fatalf("results = %+v", results)
	}
	if !strings.Contains(tbl.String(), "R5") {
		t.Error("table missing dataset")
	}
}
