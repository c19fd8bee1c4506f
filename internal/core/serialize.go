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
	Options       *Options       `json:"options,omitempty"`
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
		Options:      &m.Opts,
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
		// A refresh retrain reuses these options: refuse a file it would fail on.
		if err := in.Options.Learn.Validate(); err != nil {
			return fmt.Errorf("core: learn options in model file: %w", err)
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
		opts = *in.Options
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
