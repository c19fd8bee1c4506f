package core

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// FuzzLoad throws arbitrary bodies at the model loader, the parser behind
// PUT /v1/models/{name} uploads. Load must never panic; any model it
// accepts must generate and browse without panicking; and saving a
// loaded model, loading that and saving again must give the same bytes.
func FuzzLoad(f *testing.F) {
	for _, ds := range goldenDatasets {
		raw := goldenModelBytes(f, ds)
		f.Add(raw)
		f.Add(raw[:len(raw)/2])
		f.Add(raw[:len(raw)-2])
		for _, mutate := range loadMutations {
			var mj modelJSON
			if err := json.Unmarshal(raw, &mj); err != nil {
				f.Fatal(err)
			}
			mutate(&mj)
			b, err := json.Marshal(mj)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(b)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Errors are fine; panics are not.
		_, _ = m.Generate(GenerateOptions{Count: 64, Seed: 1, Workers: 2})
		_, _ = m.Browse(nil)

		var first bytes.Buffer
		if err := m.Save(&first); err != nil {
			t.Fatalf("saving a loaded model: %v", err)
		}
		again, err := Load(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reloading a saved model: %v", err)
		}
		var second bytes.Buffer
		if err := again.Save(&second); err != nil {
			t.Fatalf("saving a reloaded model: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("save→load→save is not byte-identical:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}

// loadMutations corrupt one field of a valid model file each, seeding
// FuzzLoad near the validation checks.
var loadMutations = []func(*modelJSON){
	func(mj *modelJSON) { mj.Version = 2 },
	func(mj *modelJSON) { mj.Net = nil },
	func(mj *modelJSON) { mj.Segments = mj.Segments[:1] },
	func(mj *modelJSON) { mj.Segments[0].Width = 0 },
	func(mj *modelJSON) { mj.Segments[len(mj.Segments)-1].Start = 40 },
	func(mj *modelJSON) { mj.Segments[0].Values[0].Lo, mj.Segments[0].Values[0].Hi = math.MaxUint64, 0 },
	func(mj *modelJSON) { mj.Segments[0].Values = append(mj.Segments[0].Values, mj.Segments[0].Values[0]) },
	func(mj *modelJSON) { mj.Segments[0].Values[0].Step = -7 },
	func(mj *modelJSON) { mj.Net.Vars[0].Arity++ },
	func(mj *modelJSON) { mj.Net.Parents[0] = []int{1} },
	func(mj *modelJSON) { mj.Net.CPTs[0].Rows[0][0] = -1 },
	func(mj *modelJSON) { mj.Net.CPTs[0].Rows[0][0] *= 2 },
	func(mj *modelJSON) { mj.ACRCounts = append(mj.ACRCounts, mj.ACRCounts...) },
}
