package report

import (
	"context"
	"fmt"
	"sort"

	"entropyip/internal/baseline"
	"entropyip/internal/core"
	"entropyip/internal/entropy"
	"entropyip/internal/ip6"
	"entropyip/internal/scan"
	"entropyip/internal/stats"
	"entropyip/internal/synth"
)

// Sizes controls how large the experiments are. The defaults reproduce the
// paper's protocol at laptop scale (1K training addresses as in the paper,
// 100K candidates instead of 1M, synthetic universes at the catalog's
// default sizes). Every run is deterministic in Seed.
type Sizes struct {
	// TrainSize is the number of training addresses (paper: 1000).
	TrainSize int
	// Candidates is the number of generated candidates (paper: 1,000,000).
	Candidates int
	// UniverseSize is the synthetic population size per dataset; zero uses
	// each archetype's default.
	UniverseSize int
	// Seed drives every random choice.
	Seed int64
}

func (s Sizes) trainSize() int {
	if s.TrainSize <= 0 {
		return 1000
	}
	return s.TrainSize
}

func (s Sizes) candidates() int {
	if s.Candidates <= 0 {
		return 100_000
	}
	return s.Candidates
}

// Analysis bundles a trained model with the data it was trained and
// evaluated on; the figure-oriented experiments return it.
type Analysis struct {
	Dataset    string
	Model      *core.Model
	Population []ip6.Addr
	Train      []ip6.Addr
	Test       []ip6.Addr
}

// Analyze synthesizes the named dataset, splits it into train/test and
// builds an Entropy/IP model on the training sample. It is the shared entry
// point of the per-dataset figures (Figs. 1, 7, 9, 10).
func Analyze(name string, sizes Sizes, opts core.Options) (*Analysis, error) {
	pop, err := synth.Generate(name, sizes.UniverseSize, sizes.Seed)
	if err != nil {
		return nil, err
	}
	train, test := stats.SplitTrainTest(stats.Split(sizes.Seed, 17), pop, sizes.trainSize())
	m, err := core.Build(train, opts)
	if err != nil {
		return nil, fmt.Errorf("report: building model for %s: %w", name, err)
	}
	return &Analysis{Dataset: name, Model: m, Population: pop, Train: train, Test: test}, nil
}

// Table1 reproduces Table 1: the number of unique addresses per dataset,
// both as reported in the paper and as synthesized here.
func Table1(seed int64) (*Table, error) {
	t := &Table{
		Title:  "Table 1: unique IPv6 addresses per dataset (paper vs synthetic)",
		Header: []string{"Dataset", "Kind", "Paper", "Synthetic", "Description"},
	}
	for _, spec := range synth.Catalog() {
		addrs, err := synth.Generate(spec.Name, 0, seed)
		if err != nil {
			return nil, err
		}
		t.Add(spec.Name, spec.Kind.String(), Count(spec.PaperSize), Count(len(addrs)), spec.Description)
	}
	return t, nil
}

// Table2 reproduces Table 2 for an analyzed dataset: the probability that
// the chosen target segment takes its most popular exact value, conditioned
// on every value of its direct Bayesian-network parents.
func Table2(a *Analysis) (*Table, error) {
	m := a.Model
	// Target: the last segment with an exact value; value: its most popular
	// exact code (the paper uses J = 00000… of the C1-like dataset).
	var targetLabel, targetCode, targetDisplay string
	for i := len(m.Segments) - 1; i >= 0; i-- {
		sm := m.Segments[i]
		for _, v := range sm.Values {
			if v.IsExact() {
				targetLabel, targetCode, targetDisplay = sm.Seg.Label, v.Code, sm.FormatValue(v)
				break
			}
		}
		if targetLabel != "" {
			break
		}
	}
	if targetLabel == "" {
		return nil, fmt.Errorf("report: no exact segment value to condition on in %s", a.Dataset)
	}
	parents, err := m.DirectInfluences(targetLabel)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("Table 2: P(%s = %s | parent value) for dataset %s", targetLabel, targetDisplay, a.Dataset),
		Header: []string{"Parent", "Parent value", "P(target)"},
	}
	base, err := m.ConditionalProb(targetLabel, targetCode, nil)
	if err != nil {
		return nil, err
	}
	t.Add("(none)", "(prior)", Percent(base))
	for _, parent := range parents {
		_, sm, ok := m.SegmentByLabel(parent)
		if !ok {
			continue
		}
		for _, v := range sm.Values {
			p, err := m.ConditionalProb(targetLabel, targetCode, core.Evidence{parent: v.Code})
			if err != nil {
				return nil, err
			}
			t.Add(parent, fmt.Sprintf("%s (%s)", v.Code, sm.FormatValue(v)), Percent(p))
		}
	}
	return t, nil
}

// Table3 reproduces Table 3: the full segment-mining result (codes, values,
// frequencies) of an analyzed dataset (the paper shows S1).
func Table3(a *Analysis) *Table {
	t := &Table{
		Title:  fmt.Sprintf("Table 3: segment mining results for dataset %s", a.Dataset),
		Header: []string{"Seg (bits)", "Code", "Value", "Freq"},
	}
	for _, sm := range a.Model.Segments {
		segName := fmt.Sprintf("%s (%d-%d)", sm.Seg.Label, sm.Seg.StartBit(), sm.Seg.EndBit())
		for _, v := range sm.Values {
			t.Add(segName, v.Code, sm.FormatValue(v), Percent(v.Freq))
			segName = ""
		}
	}
	return t
}

// ScanRow is one row of Table 4 (or Table 5), with the paper's accounting.
type ScanRow struct {
	Dataset       string
	TrainSize     int
	Candidates    int
	TestSet       int
	Ping          int
	RDNS          int
	Overall       int
	SuccessRate   float64
	NewPrefixes64 int
}

// ScanDataset runs the paper's §5.5 protocol on one dataset: train a model
// on a random sample, generate candidates, probe them against the synthetic
// universe, and count hits and newly discovered /64s.
func ScanDataset(name string, sizes Sizes) (ScanRow, error) {
	a, err := Analyze(name, sizes, core.Options{})
	if err != nil {
		return ScanRow{}, err
	}
	return scanWithModel(a, sizes)
}

func scanWithModel(a *Analysis, sizes Sizes) (ScanRow, error) {
	universe := scan.NewUniverse(a.Population, scan.UniverseConfig{Seed: sizes.Seed})
	exclude := ip6.NewSet(len(a.Train))
	exclude.AddAll(a.Train)
	cands, err := a.Model.Generate(core.GenerateOptions{
		Count:   sizes.candidates(),
		Seed:    sizes.Seed + 1,
		Exclude: exclude,
	})
	if err != nil {
		return ScanRow{}, err
	}
	res, err := scan.Run(context.Background(), &scan.MemProber{Universe: universe, Seed: sizes.Seed},
		cands, scan.Config{TrainingPrefixes: scan.TrainingPrefixSet(a.Train)})
	if err != nil {
		return ScanRow{}, err
	}
	return ScanRow{
		Dataset:       a.Dataset,
		TrainSize:     len(a.Train),
		Candidates:    res.Candidates,
		TestSet:       res.TestSet,
		Ping:          res.Ping,
		RDNS:          res.RDNS,
		Overall:       res.Overall,
		SuccessRate:   res.SuccessRate(),
		NewPrefixes64: res.NewPrefixes64,
	}, nil
}

// Table4 reproduces Table 4: scanning results for the server and router
// datasets.
func Table4(sizes Sizes) (*Table, []ScanRow, error) {
	datasets := []string{"S1", "S2", "S3", "S4", "S5", "R1", "R2", "R3", "R4", "R5"}
	t := &Table{
		Title: fmt.Sprintf("Table 4: scanning results (train %d, generate %d candidates)",
			sizes.trainSize(), sizes.candidates()),
		Header: []string{"Dataset", "Test set", "Ping", "rDNS", "Overall", "Success", "New /64s"},
	}
	rows := make([]ScanRow, 0, len(datasets))
	for _, name := range datasets {
		row, err := ScanDataset(name, sizes)
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, row)
		t.Add(name, Count(row.TestSet), Count(row.Ping), Count(row.RDNS), Count(row.Overall),
			Percent(row.SuccessRate), Count(row.NewPrefixes64))
	}
	return t, rows, nil
}

// Table5 reproduces Table 5: success rate as a function of the training-set
// size for a server, a router and a client dataset.
func Table5(datasets []string, trainSizes []int, sizes Sizes) (*Table, map[string][]float64, error) {
	if len(datasets) == 0 {
		datasets = []string{"S5", "R1", "C5"}
	}
	if len(trainSizes) == 0 {
		trainSizes = []int{100, 1000, 10_000}
	}
	t := &Table{Title: "Table 5: success rate vs training sample size",
		Header: append([]string{"Dataset"}, func() []string {
			out := make([]string, len(trainSizes))
			for i, n := range trainSizes {
				out[i] = Count(n)
			}
			return out
		}()...)}
	results := make(map[string][]float64, len(datasets))
	for _, name := range datasets {
		row := []interface{}{name}
		var rates []float64
		for _, ts := range trainSizes {
			s := sizes
			s.TrainSize = ts
			var rate float64
			if name[0] == 'C' {
				// Client datasets are evaluated on /64 prefix prediction,
				// as in §5.6.
				r, err := PredictPrefixes(name, s)
				if err != nil {
					return nil, nil, err
				}
				rate = r.SuccessRate7Day
			} else {
				r, err := ScanDataset(name, s)
				if err != nil {
					return nil, nil, err
				}
				rate = r.SuccessRate
			}
			rates = append(rates, rate)
			row = append(row, Percent(rate))
		}
		results[name] = rates
		t.Add(row...)
	}
	return t, results, nil
}

// PrefixRow is one row of Table 6.
type PrefixRow struct {
	Dataset         string
	Candidates      int
	PredictedDay1   int
	Predicted7Day   int
	SuccessRate7Day float64
}

// PredictPrefixes runs the §5.6 protocol on a client dataset: model only
// the top 64 bits, train on /64 prefixes seen on "day 1" (a subset of the
// population), generate candidate /64s, and count how many are active on
// day 1 and across the whole week (the full population).
func PredictPrefixes(name string, sizes Sizes) (PrefixRow, error) {
	pop, err := synth.Generate(name, sizes.UniverseSize, sizes.Seed)
	if err != nil {
		return PrefixRow{}, err
	}
	// Day 1 sees roughly 40% of the week's client addresses.
	day1, _ := stats.SplitTrainTest(stats.Split(sizes.Seed, 23), pop, len(pop)*2/5)
	weekUniverse := scan.NewUniverse(pop, scan.UniverseConfig{Seed: sizes.Seed})
	day1Universe := scan.NewUniverse(day1, scan.UniverseConfig{Seed: sizes.Seed})

	train, _ := stats.SplitTrainTest(stats.Split(sizes.Seed, 29), day1, sizes.trainSize())
	m, err := core.Build(train, core.Options{Prefix64Only: true})
	if err != nil {
		return PrefixRow{}, err
	}
	exclude := ip6.NewSet(len(train))
	exclude.AddAll(train)
	prefixes, err := m.GeneratePrefixes(core.GenerateOptions{
		Count:   sizes.candidates(),
		Seed:    sizes.Seed + 2,
		Exclude: exclude,
	})
	if err != nil {
		return PrefixRow{}, err
	}
	trainPrefixes := scan.TrainingPrefixSet(train)
	row := PrefixRow{Dataset: name, Candidates: len(prefixes)}
	for _, p := range prefixes {
		if trainPrefixes.Contains(p) {
			continue // only count prefixes not seen in training
		}
		addr := p.Addr()
		if day1Universe.ActivePrefix64(addr) {
			row.PredictedDay1++
		}
		if weekUniverse.ActivePrefix64(addr) {
			row.Predicted7Day++
		}
	}
	if row.Candidates > 0 {
		row.SuccessRate7Day = float64(row.Predicted7Day) / float64(row.Candidates)
	}
	return row, nil
}

// Table6 reproduces Table 6: /64-prefix prediction for the client datasets,
// against day-1 and 7-day activity.
func Table6(sizes Sizes) (*Table, []PrefixRow, error) {
	datasets := []string{"C1", "C2", "C3", "C4", "C5"}
	t := &Table{
		Title: fmt.Sprintf("Table 6: client /64 prefix prediction (train %d prefixes, %d candidates)",
			sizes.trainSize(), sizes.candidates()),
		Header: []string{"Dataset", "Predicted day-1", "Predicted 7-day", "Success (7-day)"},
	}
	rows := make([]PrefixRow, 0, len(datasets))
	for _, name := range datasets {
		row, err := PredictPrefixes(name, sizes)
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, row)
		t.Add(name, Count(row.PredictedDay1), Count(row.Predicted7Day), Percent(row.SuccessRate7Day))
	}
	return t, rows, nil
}

// EntropySeries is one dataset's per-nybble entropy (and total entropy),
// the data behind Figs. 6 and 8.
type EntropySeries struct {
	Dataset string
	H       []float64
	ACR     []float64
	Total   float64
}

// Figure6 reproduces Fig. 6: per-nybble entropy of the aggregate datasets,
// computed on a stratified per-/32 sample as the paper does.
func Figure6(sizes Sizes) ([]EntropySeries, error) {
	names := []string{"AS", "AR", "AC", "AT"}
	out := make([]EntropySeries, 0, len(names))
	for _, name := range names {
		pop, err := synth.Generate(name, sizes.UniverseSize, sizes.Seed)
		if err != nil {
			return nil, err
		}
		sample := stats.StratifiedSample(stats.Split(sizes.Seed, 31), pop, func(a ip6.Addr) string {
			return ip6.Prefix32(a).String()
		}, sizes.trainSize())
		p := entropy.NewProfile(sample)
		out = append(out, EntropySeries{Dataset: name, H: p.H[:], Total: p.Total()})
	}
	return out, nil
}

// Figure8 reproduces Fig. 8: brief entropy-vs-ACR series for the S2-S5,
// R2-R5 and C2-C5 datasets.
func Figure8(sizes Sizes) ([]EntropySeries, error) {
	names := []string{"S2", "S3", "S4", "S5", "R2", "R3", "R4", "R5", "C2", "C3", "C4", "C5"}
	out := make([]EntropySeries, 0, len(names))
	for _, name := range names {
		a, err := Analyze(name, sizes, core.Options{})
		if err != nil {
			return nil, err
		}
		out = append(out, EntropySeries{
			Dataset: name,
			H:       a.Model.Profile.H[:],
			ACR:     a.Model.ACR.ACR[:],
			Total:   a.Model.TotalEntropy(),
		})
	}
	return out, nil
}

// BaselineRow compares Entropy/IP against the published baselines on one
// dataset (the comparison discussed in §2 and §5.5).
type BaselineRow struct {
	Dataset     string
	Generator   string
	Overall     int
	SuccessRate float64
	NewPrefixes int
}

// CompareBaselines runs Entropy/IP and every baseline generator on the same
// training sample of one dataset and scans their candidates against the
// same universe.
func CompareBaselines(name string, sizes Sizes) ([]BaselineRow, error) {
	a, err := Analyze(name, sizes, core.Options{})
	if err != nil {
		return nil, err
	}
	universe := scan.NewUniverse(a.Population, scan.UniverseConfig{Seed: sizes.Seed})
	trainPrefixes := scan.TrainingPrefixSet(a.Train)
	exclude := ip6.NewSet(len(a.Train))
	exclude.AddAll(a.Train)

	var rows []BaselineRow
	evaluate := func(genName string, cands []ip6.Addr) error {
		res, err := scan.Run(context.Background(), &scan.MemProber{Universe: universe, Seed: sizes.Seed},
			cands, scan.Config{TrainingPrefixes: trainPrefixes})
		if err != nil {
			return err
		}
		rows = append(rows, BaselineRow{
			Dataset:     name,
			Generator:   genName,
			Overall:     res.Overall,
			SuccessRate: res.SuccessRate(),
			NewPrefixes: res.NewPrefixes64,
		})
		return nil
	}
	cands, err := a.Model.Generate(core.GenerateOptions{Count: sizes.candidates(), Seed: sizes.Seed + 1, Exclude: exclude})
	if err != nil {
		return nil, err
	}
	if err := evaluate("entropy-ip", cands); err != nil {
		return nil, err
	}
	for _, g := range baseline.All() {
		if err := evaluate(g.Name(), g.Generate(a.Train, sizes.candidates(), sizes.Seed+1)); err != nil {
			return nil, err
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].SuccessRate > rows[j].SuccessRate })
	return rows, nil
}
