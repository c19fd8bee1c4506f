package core

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"entropyip/internal/ip6"
	"entropyip/internal/synth"
)

// TestBuildDeterministicAcrossWorkers is the acceptance gate for the
// parallel training pipeline: for the same input, Workers=1 and Workers=8
// (and the GOMAXPROCS default) must produce byte-identical serialized
// models — same segmentation, same mined values, same BN structure, same
// CPT bits — and identical generation output follows, since generation is
// seeded and reads only the model.
func TestBuildDeterministicAcrossWorkers(t *testing.T) {
	for _, ds := range []string{"S1", "C1"} {
		addrs, err := synth.Generate(ds, 4000, 1)
		if err != nil {
			t.Fatal(err)
		}
		var want []byte
		for _, workers := range []int{1, 8, 0} {
			m, err := Build(addrs, Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", ds, workers, err)
			}
			var buf bytes.Buffer
			if err := m.Save(&buf); err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = buf.Bytes()
				continue
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("%s workers=%d: serialized model differs from Workers=1 build", ds, workers)
			}
		}
	}
}

// TestBuildWorkersGenerationIdentical double-checks the downstream claim
// directly: candidates generated from models trained with different worker
// counts are identical for the same generation seed.
func TestBuildWorkersGenerationIdentical(t *testing.T) {
	addrs, err := synth.Generate("R1", 3000, 2)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := Build(addrs, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	m8, err := Build(addrs, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	g1, err := m1.Generate(GenerateOptions{Count: 500, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	g8, err := m8.Generate(GenerateOptions{Count: 500, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(g1) != len(g8) {
		t.Fatalf("generated %d vs %d candidates", len(g1), len(g8))
	}
	for i := range g1 {
		if g1[i] != g8[i] {
			t.Fatalf("candidate %d differs: %v vs %v", i, g1[i], g8[i])
		}
	}
}

// TestOptionsWorkersNotPersisted pins the serialization contract: Workers
// must not appear in model JSON, so the same training data produces the
// same document whatever parallelism built it, and loaded models always
// default to all cores. A built model keeps neither Workers nor the
// OnStage observer in its Opts, so a retrain from them runs on all
// cores and the observer's closure does not outlive the build.
func TestOptionsWorkersNotPersisted(t *testing.T) {
	addrs, err := synth.Generate("S1", 1500, 3)
	if err != nil {
		t.Fatal(err)
	}
	stages := 0
	m, err := Build(addrs, Options{Workers: 3, OnStage: func(string, time.Duration) { stages++ }})
	if err != nil {
		t.Fatal(err)
	}
	if stages != len(BuildStages) {
		t.Fatalf("OnStage called %d times, want %d", stages, len(BuildStages))
	}
	if m.Opts.Workers != 0 || m.Opts.OnStage != nil {
		t.Fatalf("built Opts keep Workers = %d, OnStage set = %t; want 0, false",
			m.Opts.Workers, m.Opts.OnStage != nil)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte("workers")) {
		t.Fatal("serialized model mentions workers")
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Opts.Workers != 0 {
		t.Fatalf("loaded Workers = %d, want 0", loaded.Opts.Workers)
	}
}

// TestBuildInputOrderIndependent pins that a model depends on the set of
// training addresses and not on their order: Build on a shuffled copy
// saves the same bytes as on the original, for every golden dataset, with
// and without Prefix64Only (whose deduplication keeps the first
// occurrence of each /64) and at one worker and at GOMAXPROCS. Encoding
// tallies the distinct vectors in order of first occurrence, so this also
// pins that nothing downstream reads that order.
func TestBuildInputOrderIndependent(t *testing.T) {
	for _, ds := range goldenDatasets {
		addrs, err := synth.Generate(ds, 10_000, 1)
		if err != nil {
			t.Fatal(err)
		}
		shuffled := append([]ip6.Addr{}, addrs...)
		rand.New(rand.NewSource(5)).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		for _, p64 := range []bool{false, true} {
			for _, workers := range []int{1, 0} {
				opts := Options{Prefix64Only: p64, Workers: workers}
				var saved [2][]byte
				for i, in := range [][]ip6.Addr{addrs, shuffled} {
					m, err := Build(in, opts)
					if err != nil {
						t.Fatalf("%s %+v: %v", ds, opts, err)
					}
					var buf bytes.Buffer
					if err := m.Save(&buf); err != nil {
						t.Fatal(err)
					}
					saved[i] = buf.Bytes()
				}
				if !bytes.Equal(saved[0], saved[1]) {
					t.Errorf("%s prefix64=%v workers=%d: the shuffled input saves different bytes", ds, p64, workers)
				}
			}
		}
	}
}
