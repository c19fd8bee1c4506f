// Package mining implements the segment mining step of Entropy/IP (§4.3 of
// the paper): for each address segment, it builds the ordered set V_k of
// popular values and ranges that cover the observed data, assigns them
// short codes (A1, B2, ...), and encodes addresses as categorical vectors
// over those codes — the representation consumed by the Bayesian network.
//
// The heuristic follows the paper's three steps, each nominating at most
// NominateLimit elements and removing them from the remaining pool:
//
//	(a) frequency outliers: values more common than Q3 + 1.5·IQR of the
//	    frequency distribution (Tukey's rule);
//	(b) DBSCAN over the remaining values (weighted by their counts) to
//	    find highly dense ranges;
//	(c) DBSCAN over the histogram (value, count) to find ranges of values
//	    that are both uniformly distributed and relatively continuous.
//
// Finally, whatever remains is closed with a (min, max) range, or — if at
// most SmallSetLimit distinct values remain — taken verbatim as exact
// values. Mining stops early when no more than StopFraction of the
// observations remain unexplained.
package mining

import (
	"fmt"
	"math/rand"
	"sort"

	"entropyip/internal/dbscan"
	"entropyip/internal/ip6"
	"entropyip/internal/parallel"
	"entropyip/internal/segment"
	"entropyip/internal/stats"
)

// Step identifies which mining step produced a value.
type Step int

// Mining steps, in execution order.
const (
	StepOutlier Step = iota + 1 // frequency outlier (a)
	StepDense                   // DBSCAN over values (b)
	StepUniform                 // DBSCAN over the histogram (c)
	StepClosing                 // closing range / small-set fallback
)

// String returns a short name for the step.
func (s Step) String() string {
	switch s {
	case StepOutlier:
		return "outlier"
	case StepDense:
		return "dense-range"
	case StepUniform:
		return "uniform-range"
	case StepClosing:
		return "closing"
	default:
		return "unknown"
	}
}

// Value is one element of a segment's mined value set V_k: either an exact
// value (Lo == Hi) or an inclusive range [Lo, Hi].
type Value struct {
	// Code is the short identifier, e.g. "C3": segment label plus 1-based
	// index in mined order.
	Code string
	// Lo and Hi bound the value (inclusive). Lo == Hi for exact values.
	Lo, Hi uint64
	// Count is the number of training observations covered by this element
	// at the time it was mined (observations are never counted twice).
	Count int
	// Freq is Count divided by the total number of observations.
	Freq float64
	// Step records which mining step produced the element.
	Step Step
}

// IsExact reports whether the element is a single exact value.
func (v Value) IsExact() bool { return v.Lo == v.Hi }

// Contains reports whether the segment value x falls within the element.
func (v Value) Contains(x uint64) bool { return x >= v.Lo && x <= v.Hi }

// Width returns the number of distinct segment values covered, saturating
// at the maximum uint64 for the full 64-bit range.
func (v Value) Width() uint64 {
	w := v.Hi - v.Lo
	if w == ^uint64(0) {
		return w
	}
	return w + 1
}

// Sample draws a concrete segment value covered by the element, uniformly
// at random for ranges and deterministically for exact values.
func (v Value) Sample(rng *rand.Rand) uint64 {
	if v.IsExact() {
		return v.Lo
	}
	span := v.Hi - v.Lo
	if span == ^uint64(0) {
		return rng.Uint64()
	}
	n := span + 1
	// Unbiased sampling of [0, n) via rejection on the top partial block.
	for {
		x := rng.Uint64()
		r := x % n
		if x-r <= ^uint64(0)-(n-1) {
			return v.Lo + r
		}
	}
}

// Config controls segment mining. Model files persist it under its JSON
// tags.
type Config struct {
	// NominateLimit is the maximum number of elements each step may add
	// (the paper uses 10). Zero means the default.
	NominateLimit int `json:"nominate_limit,omitempty"`
	// StopFraction stops mining when no more than this fraction of
	// observations remains unexplained (the paper uses 0.001). Zero means
	// the default; negative means never stop early.
	StopFraction float64 `json:"stop_fraction,omitempty"`
	// SmallSetLimit is the |D_k| at or below which the remaining values are
	// taken verbatim instead of closed with a range (the paper uses 10).
	// Zero means the default.
	SmallSetLimit int `json:"small_set_limit,omitempty"`
	// TukeyK is the outlier fence multiplier (default 1.5).
	TukeyK float64 `json:"tukey_k,omitempty"`
	// MinRangePoints is the minimum number of distinct values for a DBSCAN
	// range to be nominated (default 3); smaller clusters are better
	// represented as exact values by later rounds.
	MinRangePoints int `json:"min_range_points,omitempty"`
}

// Defaults used when Config fields are zero.
const (
	DefaultNominateLimit  = 10
	DefaultStopFraction   = 0.001
	DefaultSmallSetLimit  = 10
	DefaultTukeyK         = 1.5
	DefaultMinRangePoints = 3
)

func (c Config) nominateLimit() int {
	if c.NominateLimit <= 0 {
		return DefaultNominateLimit
	}
	return c.NominateLimit
}

func (c Config) stopFraction() float64 {
	switch {
	case c.StopFraction == 0:
		return DefaultStopFraction
	case c.StopFraction < 0:
		return 0
	default:
		return c.StopFraction
	}
}

func (c Config) smallSetLimit() int {
	if c.SmallSetLimit <= 0 {
		return DefaultSmallSetLimit
	}
	return c.SmallSetLimit
}

func (c Config) tukeyK() float64 {
	if c.TukeyK <= 0 {
		return DefaultTukeyK
	}
	return c.TukeyK
}

func (c Config) minRangePoints() int {
	if c.MinRangePoints <= 0 {
		return DefaultMinRangePoints
	}
	return c.MinRangePoints
}

// SegmentModel is the mined value set of one segment.
type SegmentModel struct {
	Seg segment.Segment
	// Values is V_k in mined order. Codes are Seg.Label + 1-based index.
	Values []Value
	// Total is the number of observations the segment was mined from.
	Total int
}

// Mine builds the value set of one segment from the segment values of the
// training addresses.
func Mine(seg segment.Segment, values []uint64, cfg Config) *SegmentModel {
	total := len(values)
	m := &SegmentModel{Seg: seg, Total: total}
	if total == 0 {
		return m
	}
	pool := stats.FreqOf(values)
	stopAt := int(cfg.stopFraction() * float64(total))

	addValue := func(v Value) {
		v.Code = fmt.Sprintf("%s%d", seg.Label, len(m.Values)+1)
		v.Freq = float64(v.Count) / float64(total)
		m.Values = append(m.Values, v)
	}

	// Step (a): frequency outliers.
	if pool.Total() > stopAt {
		for _, e := range mineOutliers(pool, cfg) {
			addValue(e)
		}
	}
	// Steps (b) and (c) look for ranges; they only make sense when more
	// distinct values remain than the small-set fallback would keep
	// verbatim — otherwise a handful of individually meaningful values
	// (e.g. subnet selectors 0-7) would be collapsed into a single
	// uninformative range.
	if pool.Distinct() > cfg.smallSetLimit() {
		// Step (b): dense ranges of values.
		if pool.Total() > stopAt {
			for _, e := range mineDenseRanges(pool, seg, cfg) {
				addValue(e)
			}
		}
		// Step (c): uniform, continuous ranges in the histogram.
		if pool.Total() > stopAt {
			for _, e := range mineUniformRanges(pool, seg, cfg) {
				addValue(e)
			}
		}
	}
	// Closing step.
	if pool.Total() > stopAt && pool.Distinct() > 0 {
		if pool.Distinct() <= cfg.smallSetLimit() {
			// Entries shares the pool's storage, so nothing is removed
			// while iterating; the pool is not read again.
			for _, e := range pool.Entries() {
				addValue(Value{Lo: e.Value, Hi: e.Value, Count: e.Count, Step: StepClosing})
			}
		} else {
			lo, _ := pool.Min()
			hi, _ := pool.Max()
			count := pool.RemoveRange(lo, hi)
			addValue(Value{Lo: lo, Hi: hi, Count: count, Step: StepClosing})
		}
	}
	return m
}

// mineOutliers implements step (a): Tukey outliers of the frequency
// distribution, at most NominateLimit of them, by descending count.
func mineOutliers(pool *stats.Freq, cfg Config) []Value {
	entries := pool.Entries()
	if len(entries) == 0 {
		return nil
	}
	if len(entries) == 1 {
		// A single distinct value is trivially "unusually prevalent".
		e := entries[0]
		pool.Remove(e.Value)
		return []Value{{Lo: e.Value, Hi: e.Value, Count: e.Count, Step: StepOutlier}}
	}
	counts := make([]float64, len(entries))
	for i, e := range entries {
		counts[i] = float64(e.Count)
	}
	fence := stats.TukeyUpperFence(counts, cfg.tukeyK())
	var outliers []stats.Entry
	for _, e := range entries {
		if float64(e.Count) > fence {
			outliers = append(outliers, e)
		}
	}
	sort.SliceStable(outliers, func(i, j int) bool {
		if outliers[i].Count != outliers[j].Count {
			return outliers[i].Count > outliers[j].Count
		}
		return outliers[i].Value < outliers[j].Value
	})
	if len(outliers) > cfg.nominateLimit() {
		outliers = outliers[:cfg.nominateLimit()]
	}
	out := make([]Value, 0, len(outliers))
	for _, e := range outliers {
		pool.Remove(e.Value)
		out = append(out, Value{Lo: e.Value, Hi: e.Value, Count: e.Count, Step: StepOutlier})
	}
	return out
}

// mineDenseRanges implements step (b): weighted DBSCAN over the remaining
// values; each sufficiently large cluster becomes a [min, max] range.
func mineDenseRanges(pool *stats.Freq, seg segment.Segment, cfg Config) []Value {
	entries := pool.Entries()
	if len(entries) < cfg.minRangePoints() {
		return nil
	}
	points := make([]dbscan.WeightedPoint, len(entries))
	for i, e := range entries {
		points[i] = dbscan.WeightedPoint{Value: float64(e.Value), Weight: e.Count}
	}
	// eps: a small fraction of the segment's value range, but at least 1 so
	// adjacent integer values connect. minPts: a dense range must cover at
	// least ~1% of the remaining observations (and at least 4).
	eps := rangeEps(seg)
	minPts := pool.Total() / 100
	if minPts < 4 {
		minPts = 4
	}
	res := dbscan.Cluster1DWeighted(points, eps, minPts)
	ivs := dbscan.WeightedIntervals(points, res)
	return rangesFromIntervals(pool, ivs, cfg, StepDense)
}

// histPoint is one input point of the step-(c) DBSCAN: a run of adjacent
// histogram values with its total count. Below the coarsening limit every
// point is a single distinct value (lo == hi, values == 1).
type histPoint struct {
	lo, hi uint64
	count  int
	values int // distinct values covered
}

// uniformDBSCANMaxPoints bounds the input size of the 2-D DBSCAN of step
// (c), so that a wide high-entropy segment of a 100K-address training set
// (tens of thousands of distinct values) reaches it as a few thousand
// points. Above the limit, the histogram is coarsened first into
// fixed-size runs of adjacent distinct values (each run covering the same
// number of entries, not the same total count): the step looks for ranges
// that are uniformly distributed and relatively continuous, a property
// that survives this coarsening. Segments under the limit cluster one
// point per distinct value. The limit shapes the mined model, so changing
// it changes models.
const uniformDBSCANMaxPoints = 4096

// histPoints converts histogram entries (ascending value order) into
// DBSCAN input points, coarsening adjacent values into at most max runs
// when there are more entries than that.
func histPoints(entries []stats.Entry, max int) []histPoint {
	if len(entries) <= max {
		out := make([]histPoint, len(entries))
		for i, e := range entries {
			out[i] = histPoint{lo: e.Value, hi: e.Value, count: e.Count, values: 1}
		}
		return out
	}
	stride := (len(entries) + max - 1) / max
	out := make([]histPoint, 0, max)
	for start := 0; start < len(entries); start += stride {
		end := start + stride
		if end > len(entries) {
			end = len(entries)
		}
		hp := histPoint{lo: entries[start].Value, hi: entries[end-1].Value}
		for _, e := range entries[start:end] {
			hp.count += e.Count
			hp.values++
		}
		out = append(out, hp)
	}
	return out
}

// The step-(c) DBSCAN parameters over the normalized histogram.
const (
	uniformEps    = 5
	uniformMinPts = 4
)

// uniformPoints returns the step-(c) runs of entries (ascending value
// order) and their DBSCAN points: the run's middle value on the x axis
// and its count on the y axis, each normalized to [0, 100].
func uniformPoints(entries []stats.Entry, seg segment.Segment) ([]histPoint, [][]float64) {
	hps := histPoints(entries, uniformDBSCANMaxPoints)
	maxCount := 0
	for _, hp := range hps {
		if hp.count > maxCount {
			maxCount = hp.count
		}
	}
	span := float64(seg.MaxValue())
	if span == 0 {
		span = 1
	}
	points := make([][]float64, len(hps))
	for i, hp := range hps {
		mid := hp.lo + (hp.hi-hp.lo)/2
		points[i] = []float64{
			// Value axis normalized to [0, 100]: continuity matters at the
			// scale of the whole segment.
			100 * float64(mid) / span,
			// Count axis normalized to [0, 100]: similar prevalence keeps
			// points close.
			100 * float64(hp.count) / float64(maxCount),
		}
	}
	return hps, points
}

// mineUniformRanges implements step (c): DBSCAN over the histogram —
// points are (value, count) pairs, normalized so that clusters are ranges
// of contiguous values with similar counts (uniformly distributed,
// relatively continuous).
func mineUniformRanges(pool *stats.Freq, seg segment.Segment, cfg Config) []Value {
	entries := pool.Entries()
	if len(entries) < cfg.minRangePoints() {
		return nil
	}
	hps, points := uniformPoints(entries, seg)
	res := dbscan.Cluster(points, uniformEps, uniformMinPts)
	// Convert clusters back to value intervals.
	ivs := make([]dbscan.WeightedInterval, res.NumClusters)
	init := make([]bool, res.NumClusters)
	for i, lbl := range res.Labels {
		if lbl == dbscan.Noise {
			continue
		}
		lo, hi := float64(hps[i].lo), float64(hps[i].hi)
		iv := &ivs[lbl]
		if !init[lbl] {
			iv.Lo, iv.Hi = lo, hi
			init[lbl] = true
		} else {
			if lo < iv.Lo {
				iv.Lo = lo
			}
			if hi > iv.Hi {
				iv.Hi = hi
			}
		}
		iv.Weight += hps[i].count
		iv.Points += hps[i].values
	}
	return rangesFromIntervals(pool, ivs, cfg, StepUniform)
}

// rangesFromIntervals turns DBSCAN intervals into mined range values,
// keeping the largest (by covered observations) first, at most
// NominateLimit of them, and removing the covered observations from the
// pool.
func rangesFromIntervals(pool *stats.Freq, ivs []dbscan.WeightedInterval, cfg Config, step Step) []Value {
	var candidates []dbscan.WeightedInterval
	for _, iv := range ivs {
		if iv.Points >= cfg.minRangePoints() {
			candidates = append(candidates, iv)
		}
	}
	sort.SliceStable(candidates, func(i, j int) bool {
		if candidates[i].Weight != candidates[j].Weight {
			return candidates[i].Weight > candidates[j].Weight
		}
		return candidates[i].Lo < candidates[j].Lo
	})
	if len(candidates) > cfg.nominateLimit() {
		candidates = candidates[:cfg.nominateLimit()]
	}
	out := make([]Value, 0, len(candidates))
	for _, iv := range candidates {
		lo, hi := floatToUint64(iv.Lo), floatToUint64(iv.Hi)
		count := pool.RemoveRange(lo, hi)
		if count == 0 {
			continue // fully covered by an earlier (overlapping) range
		}
		out = append(out, Value{Lo: lo, Hi: hi, Count: count, Step: step})
	}
	return out
}

// floatToUint64 converts a non-negative float back to uint64, clamping at
// the extremes (cluster bounds pass through float64 and may round past the
// 64-bit range for the widest segments).
func floatToUint64(f float64) uint64 {
	if f <= 0 {
		return 0
	}
	if f >= 18446744073709551615.0 {
		return ^uint64(0)
	}
	return uint64(f)
}

// rangeEps returns the value-space DBSCAN radius for a segment: 1/256 of
// the segment's range, but at least 1.
func rangeEps(seg segment.Segment) float64 {
	span := float64(seg.MaxValue()) / 256
	if span < 1 {
		span = 1
	}
	return span
}

// MineAllWorkers mines every segment of a segmentation from the training
// addresses and returns the per-segment models in segment order, on at
// most workers goroutines (<= 0 selects GOMAXPROCS). Segments are
// independent by construction — each mines its own value multiset,
// including its weighted-DBSCAN passes — so they run concurrently,
// dispatched dynamically because per-segment cost is skewed (wide
// high-entropy segments dominate). Each result lands at its segment's
// index, so the output is identical for any worker count. Each worker
// fills one column of segment values, reused for every segment it mines
// and freed with the call (Mine keeps no reference to its input).
func MineAllWorkers(addrs []ip6.Addr, sg *segment.Segmentation, cfg Config, workers int) []*SegmentModel {
	out := make([]*SegmentModel, len(sg.Segments))
	cols := make([][]uint64, parallel.Workers(workers))
	parallel.ForEach(workers, len(sg.Segments), func(worker, si int) {
		if cols[worker] == nil {
			cols[worker] = make([]uint64, len(addrs))
		}
		values := cols[worker]
		seg := sg.Segments[si]
		pl := newPlacement(seg)
		for i, a := range addrs {
			values[i] = pl.extract(a.Uint64s())
		}
		out[si] = Mine(seg, values, cfg)
	})
	return out
}

// Encode maps a segment value to an element of V_k: an exact element if
// one matches, otherwise the first mined range that contains the value
// (ranges mined earlier take priority, as in the paper's ordered V_k).
// ok is false when no element covers the value, which can happen for
// addresses not seen in training.
func (m *SegmentModel) Encode(value uint64) (int, bool) {
	rangeMatch := -1
	for i, v := range m.Values {
		if !v.Contains(value) {
			continue
		}
		if v.IsExact() {
			return i, true
		}
		if rangeMatch < 0 {
			rangeMatch = i
		}
	}
	if rangeMatch >= 0 {
		return rangeMatch, true
	}
	return -1, false
}

// EncodeNearest is like Encode but falls back to the element whose bounds
// are numerically closest to the value, so that any address can be encoded.
// ok is false only when the model has no values at all.
func (m *SegmentModel) EncodeNearest(value uint64) (int, bool) {
	if i, ok := m.Encode(value); ok {
		return i, true
	}
	if len(m.Values) == 0 {
		return -1, false
	}
	best, bestDist := 0, ^uint64(0)
	for i, v := range m.Values {
		var d uint64
		switch {
		case value < v.Lo:
			d = v.Lo - value
		case value > v.Hi:
			d = value - v.Hi
		default:
			d = 0
		}
		if d < bestDist {
			best, bestDist = i, d
		}
	}
	return best, true
}

// Arity returns the number of elements in V_k (the number of categories
// the segment contributes to the Bayesian network).
func (m *SegmentModel) Arity() int { return len(m.Values) }

// Find returns the element with the given code.
func (m *SegmentModel) Find(code string) (Value, bool) {
	for _, v := range m.Values {
		if v.Code == code {
			return v, true
		}
	}
	return Value{}, false
}

// CoveredFraction returns the fraction of training observations covered by
// the mined elements (normally 1.0 unless mining stopped early).
func (m *SegmentModel) CoveredFraction() float64 {
	if m.Total == 0 {
		return 0
	}
	covered := 0
	for _, v := range m.Values {
		covered += v.Count
	}
	return float64(covered) / float64(m.Total)
}

// FormatValue renders a mined element the way the paper's Table 3 does:
// exact values as fixed-width hex, ranges as "lo-hi".
func (m *SegmentModel) FormatValue(v Value) string {
	if v.IsExact() {
		return m.Seg.FormatValue(v.Lo)
	}
	return m.Seg.FormatValue(v.Lo) + "-" + m.Seg.FormatValue(v.Hi)
}

// Encoder encodes whole addresses into categorical vectors over the mined
// codes of every segment, the representation used to train and query the
// Bayesian network. Every encode runs on the compiled flat-table form
// (Compiled), which answers what the per-segment scans
// SegmentModel.Encode and EncodeNearest answer. Decoding has a similar
// split: DecodeReference is the readable form, Decoder the compiled one
// generation runs on. NewEncoder builds both compiled forms, so an
// Encoder is immutable and safe for concurrent use.
type Encoder struct {
	Models []*SegmentModel

	compiled *CompiledEncoder
	decoder  *CompiledDecoder
}

// NewEncoder returns an encoder over the given per-segment models with
// its compiled encoder and decoder. Compiling a segment asks the
// per-segment scans at most twice per elementary interval, so it costs
// time quadratic in its number of mined values with a small constant
// (see compileIntervals), plus a narrow segment's direct table.
func NewEncoder(models []*SegmentModel) *Encoder {
	return &Encoder{Models: models, compiled: compile(models), decoder: compileDecoder(models)}
}

// Arities returns the number of categories of each segment, in order.
func (e *Encoder) Arities() []int {
	out := make([]int, len(e.Models))
	for i, m := range e.Models {
		out[i] = m.Arity()
	}
	return out
}

// Decode materializes a concrete address from a categorical vector by
// sampling a concrete value from every selected element (exact values are
// deterministic; ranges sample uniformly). It checks the vector, then
// runs the compiled decoder (Decoder); generation, whose sampler draws
// only valid vectors, calls the compiled decoder directly.
func (e *Encoder) Decode(vec []int, rng *rand.Rand) (ip6.Addr, error) {
	if err := e.checkVec(vec); err != nil {
		return ip6.Addr{}, err
	}
	return e.Decoder().Decode(vec, rng), nil
}

// DecodeReference is the readable decode: every selected element's value
// written through Segment.Set, which splits the address into its two
// 64-bit halves, mask-and-ors the value in and packs the halves back, once
// per segment. It is kept only as the test oracle and benchmark baseline
// of the compiled decoder, which answers identically for every rng state.
func (e *Encoder) DecodeReference(vec []int, rng *rand.Rand) (ip6.Addr, error) {
	if err := e.checkVec(vec); err != nil {
		return ip6.Addr{}, err
	}
	var a ip6.Addr
	for i, m := range e.Models {
		a = m.Seg.Set(a, m.Values[vec[i]].Sample(rng))
	}
	return a, nil
}

// checkVec reports an error unless vec holds one valid element index per
// segment.
func (e *Encoder) checkVec(vec []int) error {
	if len(vec) != len(e.Models) {
		return fmt.Errorf("mining: Decode needs %d categories, got %d", len(e.Models), len(vec))
	}
	for i, m := range e.Models {
		if vec[i] < 0 || vec[i] >= m.Arity() {
			return fmt.Errorf("mining: category %d out of range for segment %s", vec[i], m.Seg.Label)
		}
	}
	return nil
}

// Decoder returns the encoder's compiled decoder.
func (e *Encoder) Decoder() *CompiledDecoder { return e.decoder }

// Codes returns the vector of code strings for a categorical vector, e.g.
// ["A1", "B2", ...], the notation used in the paper.
func (e *Encoder) Codes(vec []int) []string {
	out := make([]string, len(vec))
	for i, idx := range vec {
		if i < len(e.Models) && idx >= 0 && idx < e.Models[i].Arity() {
			out[i] = e.Models[i].Values[idx].Code
		} else {
			out[i] = "?"
		}
	}
	return out
}
