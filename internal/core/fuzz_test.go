package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"entropyip/internal/bayes"
	"entropyip/internal/ip6"
	"entropyip/internal/segment"
)

// FuzzLoad throws arbitrary bodies at the model loader, the parser behind
// PUT /v1/models/{name} uploads. Load must never panic; any model it
// accepts must generate and browse, with and without evidence, without
// panicking or building a factor past the inference bound; its window
// state must replay EncodeWindow bit for bit (observe streams score
// against uploaded models); and saving a loaded model, loading that and
// saving again must give the same bytes.
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
	f.Add(wideFactorModel(f))
	f.Add(manyValuesModel(f, MaxArity+1))
	f.Add(outOfDomainModel(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Errors are fine; panics are not.
		_, _ = m.Generate(GenerateOptions{Count: 64, Seed: 1, Workers: 2})
		_, _ = m.Browse(nil)
		if len(m.Segments) > 0 {
			sm := m.Segments[0]
			ev := Evidence{sm.Seg.Label: sm.Values[0].Code}
			_, _ = m.Browse(ev)
			_, _ = m.Generate(GenerateOptions{Count: 64, Seed: 1, Workers: 2, Evidence: ev})
		}
		checkWindowState(t, m)

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

// checkWindowState runs a model's window state over a 64-address window
// of generated and random addresses, the random ones mostly outside the
// mined support, then replaces half the addresses. After each step the
// state's encoding must equal EncodeWindow on the same addresses, bit
// for bit.
func checkWindowState(t *testing.T, m *Model) {
	t.Helper()
	const n = 64
	rng := rand.New(rand.NewSource(3))
	random := func() ip6.Addr { return ip6.AddrFromUint64s(rng.Uint64(), rng.Uint64()) }
	gen, _ := m.Generate(GenerateOptions{Count: n, Seed: 2, Workers: 1})
	window := make([]ip6.Addr, n)
	for i := range window {
		if i%2 == 0 && i/2 < len(gen) {
			window[i] = gen[i/2]
		} else {
			window[i] = random()
		}
	}
	st := m.NewWindowState()
	for _, a := range window {
		st.Add(a)
	}
	sameEncoding(t, "filled", st.Encoding(), m.EncodeWindow(window))
	for i := 0; i < n; i += 2 {
		old := window[i]
		window[i] = random()
		st.Add(window[i])
		st.Remove(old)
	}
	sameEncoding(t, "half replaced", st.Encoding(), m.EncodeWindow(window))
}

// sameEncoding fails unless two window encodings are equal bit for bit.
func sameEncoding(t *testing.T, what string, got, want *WindowEncoding) {
	t.Helper()
	if !reflect.DeepEqual(got.CodeCounts, want.CodeCounts) || !reflect.DeepEqual(got.Clamped, want.Clamped) ||
		math.Float64bits(got.BNLogLikelihood) != math.Float64bits(want.BNLogLikelihood) ||
		math.Float64bits(got.WithinLogDensity) != math.Float64bits(want.WithinLogDensity) {
		t.Fatalf("%s: window state encoding %+v, EncodeWindow %+v", what, got, want)
	}
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

// TestWideFactorModelRefused pins that the crafted FuzzLoad seed loads,
// that browse and evidence-conditioned generation refuse it with
// ErrFactorTooLarge instead of allocating, and that unconditioned
// generation, which runs no elimination, still works.
func TestWideFactorModelRefused(t *testing.T) {
	m, err := Load(bytes.NewReader(wideFactorModel(t)))
	if err != nil {
		t.Fatal(err)
	}
	ev := Evidence{"A": "A1"}
	if _, err := m.Browse(nil); !errors.Is(err, bayes.ErrFactorTooLarge) {
		t.Errorf("Browse: err = %v, want ErrFactorTooLarge", err)
	}
	if _, err := m.Browse(ev); !errors.Is(err, bayes.ErrFactorTooLarge) {
		t.Errorf("Browse under evidence: err = %v, want ErrFactorTooLarge", err)
	}
	if _, err := m.Generate(GenerateOptions{Count: 64, Seed: 1, Evidence: ev}); !errors.Is(err, bayes.ErrFactorTooLarge) {
		t.Errorf("Generate under evidence: err = %v, want ErrFactorTooLarge", err)
	}
	if got, err := m.Generate(GenerateOptions{Count: 64, Seed: 1}); err != nil || len(got) != 64 {
		t.Errorf("Generate: %d candidates, err = %v", len(got), err)
	}
}

// wideFactorModel returns a model file Load accepts although exact
// inference on it needs a 64^6-entry (550 GB) factor: six two-nybble
// segments with 64 mined values each, then fifteen one-nybble segments
// with a single value, one for each pair of the first six and with that
// pair as its network parents.
func wideFactorModel(tb testing.TB) []byte {
	const roots, arity = 6, 64
	mj := modelJSON{Version: modelVersion, Net: &bayes.Network{}}
	start := 0
	add := func(width, values int, parents []int, rows [][]float64) {
		label := segment.Label(len(mj.Segments))
		sj := segmentJSON{Label: label, Start: start, Width: width, Total: values}
		for k := 0; k < values; k++ {
			sj.Values = append(sj.Values, valueJSON{
				Code: fmt.Sprint(label, k+1), Lo: uint64(k), Hi: uint64(k), Count: 1, Step: 1,
			})
		}
		mj.Segments = append(mj.Segments, sj)
		start += width
		card := make([]int, len(parents))
		for k := range card {
			card[k] = arity
		}
		mj.Net.Vars = append(mj.Net.Vars, bayes.Variable{Name: label, Arity: values})
		mj.Net.Parents = append(mj.Net.Parents, parents)
		mj.Net.CPTs = append(mj.Net.CPTs, &bayes.CPT{ParentCard: card, Arity: values, Rows: rows})
	}
	uniform := make([]float64, arity)
	for k := range uniform {
		uniform[k] = 1.0 / arity
	}
	for i := 0; i < roots; i++ {
		add(2, arity, nil, [][]float64{uniform})
	}
	certain := make([][]float64, arity*arity)
	for r := range certain {
		certain[r] = []float64{1}
	}
	for a := 0; a < roots; a++ {
		for b := a + 1; b < roots; b++ {
			add(1, 1, []int{a, b}, certain)
		}
	}
	raw, err := json.Marshal(mj)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// manyValuesModel returns a model file with one four-nybble segment of n
// exact values (0, 1, ..., n-1) and a uniform network over them.
func manyValuesModel(tb testing.TB, n int) []byte {
	values := make([]valueJSON, n)
	for k := range values {
		values[k] = valueJSON{Code: fmt.Sprint("A", k+1), Lo: uint64(k), Hi: uint64(k), Count: 1, Step: 1}
	}
	return oneSegmentModel(tb, values)
}

// oneSegmentModel returns a model file with one four-nybble segment A of
// the given values and a uniform network over them.
func oneSegmentModel(tb testing.TB, values []valueJSON) []byte {
	n := len(values)
	row := make([]float64, n)
	for k := range row {
		row[k] = 1 / float64(n)
	}
	raw, err := json.Marshal(modelJSON{
		Version:  modelVersion,
		Segments: []segmentJSON{{Label: "A", Start: 0, Width: 4, Total: n, Values: values}},
		Net: &bayes.Network{
			Vars:    []bayes.Variable{{Name: "A", Arity: n}},
			Parents: [][]int{nil},
			CPTs:    []*bayes.CPT{{Arity: n, Rows: [][]float64{row}}},
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// outOfDomainModel returns a model file whose four-nybble segment holds
// a range over all of 0..0xffff and the value 70000 past it. Compiling
// that segment's encoder would append one interval per value above
// 0xffff without end, since each is nearest to 70000 while 0xffff is
// covered by the range.
func outOfDomainModel(tb testing.TB) []byte {
	return oneSegmentModel(tb, []valueJSON{
		{Code: "A1", Lo: 0, Hi: 0xffff, Count: 1, Step: 4},
		{Code: "A2", Lo: 70000, Hi: 70000, Count: 1, Step: 1},
	})
}

// TestLoadRefusesValuesOutsideSegment pins the value-range check on the
// load path. A value past the segment's largest value can make the
// encoder's compile loop run forever (outOfDomainModel), and an inverted
// range makes decoded values leave their element; both are refused. A
// range covering the whole segment loads.
func TestLoadRefusesValuesOutsideSegment(t *testing.T) {
	if _, err := Load(bytes.NewReader(outOfDomainModel(t))); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Errorf("value 70000 in a four-nybble segment: err = %v, want the value-range error", err)
	}
	for _, r := range [][2]uint64{{0xfff0, 0x10000}, {5, 3}, {0, math.MaxUint64}} {
		values := []valueJSON{
			{Code: "A1", Lo: 0, Hi: 0, Count: 1, Step: 1},
			{Code: "A2", Lo: r[0], Hi: r[1], Count: 1, Step: 2},
		}
		_, err := Load(bytes.NewReader(oneSegmentModel(t, values)))
		if err == nil || !strings.Contains(err.Error(), "outside") {
			t.Errorf("value [%#x, %#x]: err = %v, want the value-range error", r[0], r[1], err)
		}
	}
	whole := []valueJSON{{Code: "A1", Lo: 0, Hi: 0xffff, Count: 1, Step: 2}}
	if _, err := Load(bytes.NewReader(oneSegmentModel(t, whole))); err != nil {
		t.Errorf("value [0, 0xffff]: %v", err)
	}
}

// TestLoadBoundsArity pins MaxArity on the load path: a segment with
// MaxArity values loads and encodes, one more value is refused before
// anything is compiled.
func TestLoadBoundsArity(t *testing.T) {
	m, err := Load(bytes.NewReader(manyValuesModel(t, MaxArity)))
	if err != nil {
		t.Fatalf("%d values: %v", MaxArity, err)
	}
	a := ip6.AddrFromUint64s(uint64(MaxArity-1)<<48, 0)
	if ev, err := m.EvidenceFromAddr(a, "A"); err != nil || ev["A"] != fmt.Sprint("A", MaxArity) {
		t.Errorf("EvidenceFromAddr = %v, %v; want A%d", ev, err, MaxArity)
	}
	_, err = Load(bytes.NewReader(manyValuesModel(t, MaxArity+1)))
	if err == nil || !strings.Contains(err.Error(), "more than the") {
		t.Errorf("%d values: err = %v, want the arity bound", MaxArity+1, err)
	}
}
