package core

import (
	"encoding/json"
	"fmt"
	"io"

	"entropyip/internal/bayes"
	"entropyip/internal/entropy"
	"entropyip/internal/mining"
	"entropyip/internal/mra"
	"entropyip/internal/segment"
)

// modelVersion is the on-disk format version written by Save.
const modelVersion = 1

// modelJSON is the serialized form of a Model. Only what is needed to
// reconstruct the model is stored; derived structures (the encoder and
// scorer) are rebuilt on load.
type modelJSON struct {
	Version      int       `json:"version"`
	Prefix64Only bool      `json:"prefix64_only"`
	TrainCount   int       `json:"train_count"`
	EntropyH     []float64 `json:"entropy_h"`
	EntropyRaw   []float64 `json:"entropy_raw"`
	// EntropyCounts is the per-nybble value histogram of the training set
	// (32 rows of 16 counts). It is what online drift detection compares
	// live windows against; files written before it existed load with nil
	// counts and drift scoring falls back to code distributions only.
	EntropyCounts [][]int        `json:"entropy_counts,omitempty"`
	ACRCounts     []int          `json:"acr_counts"`
	ACRAddrs      int            `json:"acr_addrs"`
	Segments      []segmentJSON  `json:"segments"`
	Net           *bayes.Network `json:"net"`
	Options       *optionsJSON   `json:"options,omitempty"`
}

// optionsJSON is the serialized form of Options. Every field that changes
// how a model is built is persisted, so that a loaded model reports exactly
// the configuration it was trained with (and retraining from the stored
// options reproduces it). Options.Workers is deliberately absent:
// training is bit-deterministic across worker counts, so the model does
// not depend on it and serialized output must stay byte-identical
// whatever parallelism trained it.
type optionsJSON struct {
	Segmentation segmentConfigJSON `json:"segmentation"`
	Mining       miningConfigJSON  `json:"mining"`
	Learn        learnConfigJSON   `json:"learn"`
	Prefix64Only bool              `json:"prefix64_only"`
}

type segmentConfigJSON struct {
	// Thresholds and ForcedBoundaries must NOT use omitempty: nil (use the
	// defaults) and [] (explicitly none) mean different things to
	// segment.Config, and both must survive the round trip.
	Thresholds       []float64 `json:"thresholds"`
	Hysteresis       float64   `json:"hysteresis,omitempty"`
	ForcedBoundaries []int     `json:"forced_boundaries"`
	MaxNybble        int       `json:"max_nybble,omitempty"`
}

type miningConfigJSON struct {
	NominateLimit  int     `json:"nominate_limit,omitempty"`
	StopFraction   float64 `json:"stop_fraction,omitempty"`
	SmallSetLimit  int     `json:"small_set_limit,omitempty"`
	TukeyK         float64 `json:"tukey_k,omitempty"`
	MinRangePoints int     `json:"min_range_points,omitempty"`
}

type learnConfigJSON struct {
	MaxParents           int     `json:"max_parents,omitempty"`
	EquivalentSampleSize float64 `json:"equivalent_sample_size,omitempty"`
	Pseudocount          float64 `json:"pseudocount,omitempty"`
	MaxParentConfigs     int     `json:"max_parent_configs,omitempty"`
	Structure            int     `json:"structure,omitempty"`
	Score                int     `json:"score,omitempty"`
}

// validate rejects learn options Learn would refuse, so a model file
// that a refresh retrain would fail on is refused when it is loaded.
func (lj learnConfigJSON) validate() error {
	if lj.MaxParents < 0 || lj.MaxParents > bayes.MaxParentsLimit {
		return fmt.Errorf("core: learn.max_parents %d outside 0..%d", lj.MaxParents, bayes.MaxParentsLimit)
	}
	if lj.MaxParentConfigs < 0 || lj.MaxParentConfigs > bayes.MaxParentConfigsLimit {
		return fmt.Errorf("core: learn.max_parent_configs %d outside 0..%d", lj.MaxParentConfigs, bayes.MaxParentConfigsLimit)
	}
	return nil
}

func optionsToJSON(o Options) *optionsJSON {
	return &optionsJSON{
		Segmentation: segmentConfigJSON{
			Thresholds:       o.Segmentation.Thresholds,
			Hysteresis:       o.Segmentation.Hysteresis,
			ForcedBoundaries: o.Segmentation.ForcedBoundaries,
			MaxNybble:        o.Segmentation.MaxNybble,
		},
		Mining: miningConfigJSON{
			NominateLimit:  o.Mining.NominateLimit,
			StopFraction:   o.Mining.StopFraction,
			SmallSetLimit:  o.Mining.SmallSetLimit,
			TukeyK:         o.Mining.TukeyK,
			MinRangePoints: o.Mining.MinRangePoints,
		},
		Learn: learnConfigJSON{
			MaxParents:           o.Learn.MaxParents,
			EquivalentSampleSize: o.Learn.EquivalentSampleSize,
			Pseudocount:          o.Learn.Pseudocount,
			MaxParentConfigs:     o.Learn.MaxParentConfigs,
			Structure:            int(o.Learn.Structure),
			Score:                int(o.Learn.Score),
		},
		Prefix64Only: o.Prefix64Only,
	}
}

func (oj *optionsJSON) toOptions() Options {
	return Options{
		Segmentation: segment.Config{
			Thresholds:       oj.Segmentation.Thresholds,
			Hysteresis:       oj.Segmentation.Hysteresis,
			ForcedBoundaries: oj.Segmentation.ForcedBoundaries,
			MaxNybble:        oj.Segmentation.MaxNybble,
		},
		Mining: mining.Config{
			NominateLimit:  oj.Mining.NominateLimit,
			StopFraction:   oj.Mining.StopFraction,
			SmallSetLimit:  oj.Mining.SmallSetLimit,
			TukeyK:         oj.Mining.TukeyK,
			MinRangePoints: oj.Mining.MinRangePoints,
		},
		Learn: bayes.LearnConfig{
			MaxParents:           oj.Learn.MaxParents,
			EquivalentSampleSize: oj.Learn.EquivalentSampleSize,
			Pseudocount:          oj.Learn.Pseudocount,
			MaxParentConfigs:     oj.Learn.MaxParentConfigs,
			Structure:            bayes.Structure(oj.Learn.Structure),
			Score:                bayes.Score(oj.Learn.Score),
		},
		Prefix64Only: oj.Prefix64Only,
	}
}

type segmentJSON struct {
	Label  string      `json:"label"`
	Start  int         `json:"start"`
	Width  int         `json:"width"`
	Total  int         `json:"total"`
	Values []valueJSON `json:"values"`
}

type valueJSON struct {
	Code  string `json:"code"`
	Lo    uint64 `json:"lo"`
	Hi    uint64 `json:"hi"`
	Count int    `json:"count"`
	Step  int    `json:"step"`
}

// MarshalJSON implements json.Marshaler.
func (m *Model) MarshalJSON() ([]byte, error) {
	out := modelJSON{
		Version:      modelVersion,
		Prefix64Only: m.Opts.Prefix64Only,
		TrainCount:   m.TrainCount,
		EntropyH:     append([]float64(nil), m.Profile.H[:]...),
		EntropyRaw:   append([]float64(nil), m.Profile.Raw[:]...),
		ACRCounts:    append([]int(nil), m.ACR.Counts[:]...),
		ACRAddrs:     m.ACR.N,
		Net:          m.Net,
		Options:      optionsToJSON(m.Opts),
	}
	out.EntropyCounts = make([][]int, len(m.Profile.Counts))
	for i := range m.Profile.Counts {
		out.EntropyCounts[i] = append([]int(nil), m.Profile.Counts[i][:]...)
	}
	for _, sm := range m.Segments {
		sj := segmentJSON{
			Label: sm.Seg.Label,
			Start: sm.Seg.Start,
			Width: sm.Seg.Width,
			Total: sm.Total,
		}
		for _, v := range sm.Values {
			sj.Values = append(sj.Values, valueJSON{
				Code: v.Code, Lo: v.Lo, Hi: v.Hi, Count: v.Count, Step: int(v.Step),
			})
		}
		out.Segments = append(out.Segments, sj)
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler.
func (m *Model) UnmarshalJSON(data []byte) error {
	var in modelJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	if in.Version != modelVersion {
		return fmt.Errorf("core: unsupported model version %d", in.Version)
	}
	if in.Net == nil {
		return fmt.Errorf("core: model has no Bayesian network")
	}
	if in.Options != nil {
		if err := in.Options.Learn.validate(); err != nil {
			return err
		}
	}

	profile := &entropy.Profile{N: in.TrainCount}
	copy(profile.H[:], in.EntropyH)
	copy(profile.Raw[:], in.EntropyRaw)
	for i, row := range in.EntropyCounts {
		if i >= len(profile.Counts) {
			break
		}
		copy(profile.Counts[i][:], row)
	}

	var segs []segment.Segment
	var models []*mining.SegmentModel
	for _, sj := range in.Segments {
		seg := segment.Segment{Label: sj.Label, Start: sj.Start, Width: sj.Width}
		sm := &mining.SegmentModel{Seg: seg, Total: sj.Total}
		for _, vj := range sj.Values {
			sm.Values = append(sm.Values, mining.Value{
				Code: vj.Code, Lo: vj.Lo, Hi: vj.Hi, Count: vj.Count,
				Step: mining.Step(vj.Step),
				Freq: freqOf(vj.Count, sj.Total),
			})
		}
		segs = append(segs, seg)
		models = append(models, sm)
	}
	sg := &segment.Segmentation{Segments: segs}
	if err := sg.Validate(); err != nil {
		return fmt.Errorf("core: invalid segmentation in model file: %w", err)
	}
	// Renormalize before validating: CPT rows read from JSON carry float
	// drift (every cell was independently rounded on encode), and sampling
	// must never inherit that bias. All-zero rows are rejected here.
	if err := in.Net.Renormalize(); err != nil {
		return fmt.Errorf("core: invalid network in model file: %w", err)
	}
	if err := in.Net.Validate(); err != nil {
		return fmt.Errorf("core: invalid network in model file: %w", err)
	}
	// Model files written before options were persisted carry only the
	// Prefix64Only flag; the remaining options default to zero (the
	// paper's configuration).
	opts := Options{Prefix64Only: in.Prefix64Only}
	if in.Options != nil {
		opts = in.Options.toOptions()
	}
	loaded, err := newModel(&Model{
		Profile:      profile,
		ACR:          mra.FromCounts(in.ACRAddrs, in.ACRCounts),
		Segmentation: sg,
		Segments:     models,
		Net:          in.Net,
		Opts:         opts,
		TrainCount:   in.TrainCount,
	}, nil)
	if err != nil {
		return err
	}
	*m = *loaded
	return nil
}

func freqOf(count, total int) float64 {
	if total <= 0 {
		return 0
	}
	return float64(count) / float64(total)
}

// Save writes the model as JSON to w.
func (m *Model) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(m)
}

// Load reads a model previously written by Save.
func Load(r io.Reader) (*Model, error) {
	dec := json.NewDecoder(r)
	var m Model
	if err := dec.Decode(&m); err != nil {
		return nil, err
	}
	return &m, nil
}
