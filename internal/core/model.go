// Package core implements the Entropy/IP system itself: the end-to-end
// pipeline that ingests a set of active IPv6 addresses, computes per-nybble
// entropy, segments the addresses, mines per-segment value sets, and learns
// a Bayesian network over the segment codes (§4 of the paper). The
// resulting Model supports the paper's two applications: interactive
// exploration through conditional probabilities (the "conditional
// probability browser", Figs. 1, 7, 9, 10 and Table 2) and generation of
// candidate target addresses or /64 prefixes for scanning (§5.5, §5.6).
package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"entropyip/internal/bayes"
	"entropyip/internal/entropy"
	"entropyip/internal/ip6"
	"entropyip/internal/mining"
	"entropyip/internal/mra"
	"entropyip/internal/parallel"
	"entropyip/internal/segment"
)

// Options configures model building. The zero value reproduces the paper's
// configuration. Model files persist every field that changes how a
// model is built, under the JSON tags here and on the config types, so a
// loaded model reports the configuration it was trained with and a
// retrain from it reproduces the model.
type Options struct {
	// Segmentation configures the entropy-threshold segmentation (§4.2).
	Segmentation segment.Config `json:"segmentation"`
	// Mining configures per-segment value mining (§4.3).
	Mining mining.Config `json:"mining"`
	// Learn configures Bayesian-network structure learning and parameter
	// fitting (§4.4).
	Learn bayes.LearnConfig `json:"learn"`
	// Prefix64Only restricts the model to the top 64 bits of the address
	// (network identifiers), the configuration used for client /64-prefix
	// prediction in §5.6 of the paper.
	Prefix64Only bool `json:"prefix64_only"`
	// Workers bounds the number of goroutines used while training
	// (0 = runtime.GOMAXPROCS). Training is deterministic: the same input
	// yields a bit-identical model — and bit-identical serialized JSON —
	// for every worker count, so Workers is purely an operational knob.
	// It is deliberately NOT persisted in model JSON.
	Workers int `json:"-"`
	// OnStage, if non-nil, receives the name and wall-clock duration of
	// each completed pipeline stage (the names in BuildStages, in order).
	// It is called from the goroutine running Build. Like Workers it is an
	// operational knob: excluded from model JSON so serialized models stay
	// byte-identical whether or not a build was traced.
	OnStage func(stage string, d time.Duration) `json:"-"`
}

// BuildStages lists the pipeline stage names Build reports through
// Options.OnStage, in execution order.
var BuildStages = []string{"entropy", "segment", "mine", "compile", "encode", "learn"}

// buildStage reports one completed stage and returns the start of the
// next. With no observer it passes start through untouched — durations
// are then never read, so no clock is consulted.
func buildStage(on func(string, time.Duration), name string, start time.Time) time.Time {
	if on == nil {
		return start
	}
	//eip:nondeterministic-ok stage durations feed only the OnStage observer, never the model
	now := time.Now()
	on(name, now.Sub(start))
	return now
}

// Model is a trained Entropy/IP model.
type Model struct {
	// Profile is the per-nybble entropy profile of the training set.
	Profile *entropy.Profile
	// ACR is the 4-bit aggregate count ratio series of the training set.
	ACR *mra.Series
	// Segmentation is the entropy-derived segmentation.
	Segmentation *segment.Segmentation
	// Segments holds the mined value set of every segment, in order.
	Segments []*mining.SegmentModel
	// Net is the Bayesian network over segment codes.
	Net *bayes.Network
	// Opts records the options the model was built with, except the
	// operational Workers and OnStage, which are always zero here.
	Opts Options
	// TrainCount is the number of training addresses.
	TrainCount int

	// The derived state below is built by newModel, which every Model
	// comes from (Build and Load).
	encoder *mining.Encoder
	scorer  *bayes.Scorer
	// marginals runs the network's variable elimination on first use:
	// see Marginals for why it is not built with the rest.
	marginals func() ([][]float64, error)
}

// MaxArity is the largest number of mined values a segment may carry.
// Compiling a segment's encoder costs time quadratic in its value count,
// so the bound keeps an uploaded model from pinning a core while it
// loads: on a 2-vCPU Xeon, a model of 32 one-nybble segments at the bound
// loads in 0.06 s, and the costliest shape (all 32 nybbles in segments
// of width 4 to 16) in under 0.4 s; twice the bound takes 1.5 s. Mining
// with the paper's configuration yields about 30 values per segment.
const MaxArity = 512

// ErrNoData is returned when a model is built from an empty training set.
var ErrNoData = errors.New("core: no training addresses")

// Transform returns addrs as a model built with these options sees them:
// for Prefix64Only, the distinct /64 network identifiers (the low 64 bits
// masked) in order of first occurrence; otherwise addrs itself. Build
// trains on it, and drift scoring applies it to observation windows.
func (o Options) Transform(addrs []ip6.Addr) []ip6.Addr {
	if !o.Prefix64Only {
		return addrs
	}
	masked := make([]ip6.Addr, 0, len(addrs))
	seen := ip6.NewSet(len(addrs))
	for _, a := range addrs {
		if p := ip6.Mask(a, 64); seen.Add(p) {
			masked = append(masked, p)
		}
	}
	return masked
}

// Build trains an Entropy/IP model on the given addresses.
func Build(addrs []ip6.Addr, opts Options) (*Model, error) {
	if len(addrs) == 0 {
		return nil, ErrNoData
	}
	train := opts.Transform(addrs)
	segCfg := opts.Segmentation
	if opts.Prefix64Only {
		// Network identifiers have 16 nybbles.
		if segCfg.MaxNybble == 0 || segCfg.MaxNybble > 16 {
			segCfg.MaxNybble = 16
		}
	}

	// One resolved worker count drives every parallel stage (ACR and
	// learning run on this goroutine), so Workers=1 is a genuinely
	// sequential build and Workers=N bounds the whole pipeline.
	workers := parallel.Workers(opts.Workers)

	//eip:nondeterministic-ok stopwatch start for the OnStage observer; no timestamp enters the model
	now := time.Now()
	profile := entropy.NewProfileWorkers(train, workers)
	acr := mra.New(train)
	now = buildStage(opts.OnStage, "entropy", now)
	sg := segment.Segments(profile, segCfg)
	if err := sg.Validate(); err != nil {
		return nil, fmt.Errorf("core: segmentation: %w", err)
	}
	now = buildStage(opts.OnStage, "segment", now)
	models := mining.MineAllWorkers(train, sg, opts.Mining, workers)
	now = buildStage(opts.OnStage, "mine", now)
	vars, err := segmentVars(models)
	if err != nil {
		return nil, err
	}
	enc := mining.NewEncoder(models)
	now = buildStage(opts.OnStage, "compile", now)
	// The network learns from the distinct code vectors and their counts.
	rows, counts := enc.EncodeDistinct(train, workers)
	now = buildStage(opts.OnStage, "encode", now)
	net, err := bayes.Learn(rows, counts, vars, opts.Learn)
	if err != nil {
		return nil, fmt.Errorf("core: learning Bayesian network: %w", err)
	}
	buildStage(opts.OnStage, "learn", now)

	// The model keeps only the options that shape it, so an observer
	// closure, and whatever it captured, does not live as long as the
	// model.
	opts.Workers, opts.OnStage = 0, nil
	return newModel(&Model{
		Profile:      profile,
		ACR:          acr,
		Segmentation: sg,
		Segments:     models,
		Net:          net,
		Opts:         opts,
		TrainCount:   len(train),
	}, enc)
}

// newModel finishes a model whose persisted fields are set; Build and
// Load both end here. It checks that the segments agree with the
// network's variables, which the decoder and the scorer trust, and builds
// the encoder and the scorer, so generation and drift scoring only read
// them. enc is the encoder Build compiled for its encode stage; nil
// compiles one.
func newModel(m *Model, enc *mining.Encoder) (*Model, error) {
	vars, err := segmentVars(m.Segments)
	if err != nil {
		return nil, err
	}
	if len(vars) != m.Net.NumVars() {
		return nil, fmt.Errorf("core: %d segments but %d network variables", len(vars), m.Net.NumVars())
	}
	for i, v := range vars {
		if a := m.Net.Vars[i].Arity; a != v.Arity {
			return nil, fmt.Errorf("core: segment %s arity %d does not match network arity %d", v.Name, v.Arity, a)
		}
	}
	if enc == nil {
		enc = mining.NewEncoder(m.Segments)
	}
	m.encoder = enc
	m.scorer = m.Net.NewScorer()
	net := m.Net
	m.marginals = sync.OnceValues(func() ([][]float64, error) { return net.Posteriors(nil) })
	return m, nil
}

// segmentVars returns the network variables of the mined segments,
// refusing a segment without values or with more than MaxArity of them,
// and a value whose range is inverted or leaves its segment: compiling
// it would cut the value axis past its end. Build calls it before
// compiling, newModel for every model.
func segmentVars(models []*mining.SegmentModel) ([]bayes.Variable, error) {
	vars := make([]bayes.Variable, len(models))
	for i, sm := range models {
		switch a := sm.Arity(); {
		case a == 0:
			return nil, fmt.Errorf("core: segment %s mined no values", sm.Seg.Label)
		case a > MaxArity:
			return nil, fmt.Errorf("core: segment %s has %d values, more than the %d allowed", sm.Seg.Label, a, MaxArity)
		}
		for _, v := range sm.Values {
			if v.Lo > v.Hi || v.Hi > sm.Seg.MaxValue() {
				return nil, fmt.Errorf("core: segment %s value %s [%#x, %#x] outside 0..%#x or inverted",
					sm.Seg.Label, v.Code, v.Lo, v.Hi, sm.Seg.MaxValue())
			}
		}
		vars[i] = bayes.Variable{Name: sm.Seg.Label, Arity: sm.Arity()}
	}
	return vars, nil
}

// Encoder returns the categorical encoder over the model's mined segments.
// It is immutable and safe for concurrent use.
func (m *Model) Encoder() *mining.Encoder { return m.encoder }

// Scorer returns the log-CPT scorer of the model's Bayesian network. It
// is immutable and safe for concurrent use.
func (m *Model) Scorer() *bayes.Scorer { return m.scorer }

// SegmentByLabel returns the mined model of the segment with the given
// label and its index.
func (m *Model) SegmentByLabel(label string) (int, *mining.SegmentModel, bool) {
	for i, sm := range m.Segments {
		if sm.Seg.Label == label {
			return i, sm, true
		}
	}
	return -1, nil, false
}

// TotalEntropy returns H_S of the training set (Eq. 3 of the paper).
func (m *Model) TotalEntropy() float64 { return m.Profile.Total() }

// Evidence expresses conditioning in terms of segment labels and value
// codes, e.g. {"J": "J1", "B": "B2"} — the mouse clicks of the paper's
// conditional probability browser.
type Evidence map[string]string

// evidenceIndices resolves label/code evidence into variable/category
// indices for the Bayesian network.
func (m *Model) evidenceIndices(ev Evidence) (map[int]int, error) {
	labels := make([]string, 0, len(ev))
	for label := range ev {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	out := make(map[int]int, len(ev))
	for _, label := range labels {
		code := ev[label]
		idx, sm, ok := m.SegmentByLabel(label)
		if !ok {
			return nil, fmt.Errorf("core: unknown segment %q", label)
		}
		found := -1
		for k, v := range sm.Values {
			if v.Code == code {
				found = k
				break
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("core: segment %q has no value code %q", label, code)
		}
		out[idx] = found
	}
	return out, nil
}

// EvidenceFromAddr builds evidence fixing the given segments to the codes
// the address encodes to. Unknown labels cause an error.
func (m *Model) EvidenceFromAddr(a ip6.Addr, labels ...string) (Evidence, error) {
	c := m.encoder.Compiled()
	hi, lo := a.Uint64s()
	ev := make(Evidence, len(labels))
	for _, label := range labels {
		i, sm, ok := m.SegmentByLabel(label)
		if !ok {
			return nil, fmt.Errorf("core: unknown segment %q", label)
		}
		// Every segment has a mined value, so the index is never -1.
		idx, _ := c.EncodeSegment(i, hi, lo)
		ev[label] = sm.Values[idx].Code
	}
	return ev, nil
}

// SegmentDistribution is the posterior distribution of one segment, the row
// of the conditional probability browser. Its JSON names are the browse
// response's wire format.
type SegmentDistribution struct {
	// Label is the segment letter (A, B, C, ...).
	Label string `json:"label"`
	// Entries are the segment's mined values with their posterior
	// probabilities, in mined (code) order.
	Entries []DistEntry `json:"entries"`
}

// DistEntry is one value of a segment with its posterior probability.
type DistEntry struct {
	// Code is the value code (e.g. "B2").
	Code string `json:"code"`
	// Display is the human-readable value or range.
	Display string `json:"display"`
	// Prob is the posterior probability given the evidence.
	Prob float64 `json:"prob"`
	// IsRange marks mined ranges as opposed to exact values.
	IsRange bool `json:"is_range,omitempty"`
}

// Browse computes the posterior distribution of every segment given the
// evidence: the data behind Figs. 1(b), 1(c), 7(b), 9(b) and 10(b).
func (m *Model) Browse(ev Evidence) ([]SegmentDistribution, error) {
	indices, err := m.evidenceIndices(ev)
	if err != nil {
		return nil, err
	}
	posts, err := m.Net.Posteriors(indices)
	if err != nil {
		return nil, err
	}
	out := make([]SegmentDistribution, len(m.Segments))
	for i, sm := range m.Segments {
		entries := make([]DistEntry, sm.Arity())
		for k, v := range sm.Values {
			entries[k] = DistEntry{
				Code:    v.Code,
				Display: sm.FormatValue(v),
				Prob:    posts[i][k],
				IsRange: !v.IsExact(),
			}
		}
		out[i] = SegmentDistribution{Label: sm.Seg.Label, Entries: entries}
	}
	return out, nil
}

// ConditionalProb returns P(target segment takes the value with the given
// code | evidence), the quantity tabulated in the paper's Table 2.
func (m *Model) ConditionalProb(targetLabel, targetCode string, ev Evidence) (float64, error) {
	tIdx, sm, ok := m.SegmentByLabel(targetLabel)
	if !ok {
		return 0, fmt.Errorf("core: unknown segment %q", targetLabel)
	}
	cIdx := -1
	for k, v := range sm.Values {
		if v.Code == targetCode {
			cIdx = k
			break
		}
	}
	if cIdx < 0 {
		return 0, fmt.Errorf("core: segment %q has no value code %q", targetLabel, targetCode)
	}
	indices, err := m.evidenceIndices(ev)
	if err != nil {
		return 0, err
	}
	dist, err := m.Net.Query(tIdx, indices)
	if err != nil {
		return 0, err
	}
	return dist[cIdx], nil
}

// Dependency is a directed edge of the Bayesian network between two
// segments, annotated with the mutual information between them.
type Dependency struct {
	Parent, Child string
	// MI is the mutual information in bits between the two segments under
	// the model's joint distribution.
	MI float64
}

// Dependencies lists the BN's directed edges (Fig. 2 of the paper), sorted
// by descending mutual information.
func (m *Model) Dependencies() []Dependency {
	var out []Dependency
	for _, e := range m.Net.Edges() {
		mi, err := m.Net.MutualInformation(e[0], e[1], nil)
		if err != nil {
			mi = 0
		}
		out = append(out, Dependency{
			Parent: m.Segments[e[0]].Seg.Label,
			Child:  m.Segments[e[1]].Seg.Label,
			MI:     mi,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].MI != out[j].MI {
			return out[i].MI > out[j].MI
		}
		if out[i].Parent != out[j].Parent {
			return out[i].Parent < out[j].Parent
		}
		return out[i].Child < out[j].Child
	})
	return out
}

// DirectInfluences returns the labels of segments that are direct BN
// parents or children of the given segment (the red edges of Fig. 2).
func (m *Model) DirectInfluences(label string) ([]string, error) {
	idx, _, ok := m.SegmentByLabel(label)
	if !ok {
		return nil, fmt.Errorf("core: unknown segment %q", label)
	}
	seen := map[string]bool{}
	var out []string
	for _, e := range m.Net.Edges() {
		var other int
		switch {
		case e[0] == idx:
			other = e[1]
		case e[1] == idx:
			other = e[0]
		default:
			continue
		}
		l := m.Segments[other].Seg.Label
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	sort.Strings(out)
	return out, nil
}
