package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"entropyip/internal/bayes"
	"entropyip/internal/mining"
	"entropyip/internal/segment"
)

// TestOptionsRoundTrip verifies that Save/Load preserves the full Options —
// not just Prefix64Only but the segmentation, mining and learning
// configuration the model was built with. Every persisted field is set,
// and the saved options object is compared with persistedOptions, so a
// renamed JSON name fails here instead of quietly dropping that field
// from older files.
func TestOptionsRoundTrip(t *testing.T) {
	opts := Options{
		Segmentation: segment.Config{
			Thresholds:       []float64{0.025, 0.1, 0.3, 0.5, 0.9},
			Hysteresis:       0.08,
			ForcedBoundaries: []int{32, 64},
			MaxNybble:        20,
		},
		Mining: mining.Config{
			NominateLimit:  12,
			StopFraction:   0.002,
			SmallSetLimit:  8,
			TukeyK:         2.0,
			MinRangePoints: 4,
		},
		Learn: bayes.LearnConfig{
			MaxParents:           1,
			EquivalentSampleSize: 2.0,
			Pseudocount:          0.25,
			MaxParentConfigs:     2048,
			Structure:            bayes.StructureChain,
			Score:                bayes.ScoreBIC,
		},
	}
	m, _ := buildTestModel(t, 2000, 7, opts)

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct{ Options json.RawMessage }
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if string(doc.Options) != persistedOptions {
		t.Errorf("saved options:\n got  %s\n want %s", doc.Options, persistedOptions)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.Opts, m.Opts) {
		t.Errorf("options did not round-trip:\n got  %+v\n want %+v", loaded.Opts, m.Opts)
	}

	// A second round trip must be byte-identical (the format is stable).
	var buf2 bytes.Buffer
	if err := loaded.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("second save differs from first")
	}
}

// persistedOptions is the options object saved for TestOptionsRoundTrip's
// configuration. Model files already written carry these names, so a
// field whose name changes would load from them as its zero value.
const persistedOptions = `{"segmentation":{"thresholds":[0.025,0.1,0.3,0.5,0.9],"hysteresis":0.08,"forced_boundaries":[32,64],"max_nybble":20},` +
	`"mining":{"nominate_limit":12,"stop_fraction":0.002,"small_set_limit":8,"tukey_k":2,"min_range_points":4},` +
	`"learn":{"max_parents":1,"equivalent_sample_size":2,"pseudocount":0.25,"max_parent_configs":2048,"structure":2,"score":1},` +
	`"prefix64_only":false}`

// TestOptionsRoundTripPrefix64 checks the flag that existed before full
// options were persisted still round-trips through the new field.
func TestOptionsRoundTripPrefix64(t *testing.T) {
	m, _ := buildTestModel(t, 2000, 3, Options{Prefix64Only: true})
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Opts.Prefix64Only {
		t.Error("Prefix64Only lost in round trip")
	}
	if !reflect.DeepEqual(loaded.Opts, m.Opts) {
		t.Errorf("options did not round-trip: got %+v want %+v", loaded.Opts, m.Opts)
	}
}

// TestLoadLegacyModelWithoutOptions ensures model files written before the
// options field existed (only the top-level prefix64_only flag) still load,
// restoring the flag and defaulting the rest.
func TestLoadLegacyModelWithoutOptions(t *testing.T) {
	m, _ := buildTestModel(t, 2000, 5, Options{Prefix64Only: true})
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	delete(doc, "options")
	legacy, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Opts.Prefix64Only {
		t.Error("legacy Prefix64Only flag not restored")
	}
	want := Options{Prefix64Only: true}
	if !reflect.DeepEqual(loaded.Opts, want) {
		t.Errorf("legacy options = %+v, want %+v", loaded.Opts, want)
	}
}

// TestEntropyCountsRoundTrip verifies the per-nybble training histograms —
// the reference side of online drift scoring — survive Save/Load, and that
// files without them (written before the field existed) still load.
func TestEntropyCountsRoundTrip(t *testing.T) {
	m, _ := buildTestModel(t, 2000, 11, Options{})
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Profile.Counts != m.Profile.Counts {
		t.Error("entropy counts did not round-trip")
	}

	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	delete(doc, "entropy_counts")
	legacy, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	old, err := Load(bytes.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	var zero [16]int
	for i := range old.Profile.Counts {
		if old.Profile.Counts[i] != zero {
			t.Fatalf("legacy model nybble %d counts = %v, want zero", i, old.Profile.Counts[i])
		}
	}
}
