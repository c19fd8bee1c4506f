package core

import (
	"bytes"
	"maps"
	"math"
	"math/rand"
	"testing"

	"entropyip/internal/bayes"
	"entropyip/internal/ip6"
	"entropyip/internal/stats"
)

// TestDrawSamplesTheModel checks that generation samples the model it
// claims to (§4.4, §5.5 of the paper), unconditionally and under
// evidence, on the engine's own draw function: the drawn codes of every
// segment, and the drawn (parent, child) code pairs of every network
// edge, follow the network's distribution (chi-square tests at a fixed
// seed), and every decoded segment value lies inside the mined element
// its code selected. In prefix mode the low 64 bits are zero and the
// segments above them still lie inside their elements. The golden
// datasets' models run through Load, as uploaded models do.
func TestDrawSamplesTheModel(t *testing.T) {
	m, _ := buildTestModel(t, 4000, 31, Options{})
	type drawCase struct {
		name   string
		m      *Model
		ev     Evidence
		mask64 bool
	}
	cases := []drawCase{
		{"unconditional", m, nil, false},
		{"evidence", m, genEvidence(t, m), false},
		{"prefix", m, nil, true},
	}
	for _, ds := range goldenDatasets {
		gm, err := Load(bytes.NewReader(goldenModelBytes(t, ds)))
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, drawCase{ds, gm, nil, false}, drawCase{ds + "/evidence", gm, genEvidence(t, gm), false})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.m
			idx, err := m.evidenceIndices(tc.ev)
			if err != nil {
				t.Fatal(err)
			}
			want, err := m.Net.Posteriors(idx)
			if err != nil {
				t.Fatal(err)
			}
			draw, err := m.newDraw(idx, tc.mask64)
			if err != nil {
				t.Fatal(err)
			}
			counts := make([][]int, len(m.Segments))
			for i, sm := range m.Segments {
				counts[i] = make([]int, sm.Arity())
			}
			edges := m.Net.Edges()
			joints := make([][]int, len(edges))
			for e, pc := range edges {
				joints[e] = make([]int, m.Net.Vars[pc[0]].Arity*m.Net.Vars[pc[1]].Arity)
			}
			rng := rand.New(rand.NewSource(17))
			buf := make([]int, m.Net.NumVars())
			const n = 20000
			for d := 0; d < n; d++ {
				a := draw(rng, buf)
				if _, lo := a.Uint64s(); tc.mask64 && lo != 0 {
					t.Fatalf("prefix draw %v has nonzero low 64 bits", a)
				}
				for e, pc := range edges {
					joints[e][buf[pc[0]]*m.Net.Vars[pc[1]].Arity+buf[pc[1]]]++
				}
				for i, sm := range m.Segments {
					counts[i][buf[i]]++
					if tc.mask64 && sm.Seg.EndBit() > 64 {
						continue
					}
					v := sm.Values[buf[i]]
					if x := sm.Seg.Value(a); !v.Contains(x) {
						t.Fatalf("segment %s: decoded %x outside %s [%x, %x]", sm.Seg.Label, x, v.Code, v.Lo, v.Hi)
					}
				}
			}
			for i, sm := range m.Segments {
				stat, df, ok := chiSquare(counts[i], want[i], n)
				if !ok {
					t.Errorf("segment %s: drew a code of probability 0: counts %v, want %v", sm.Seg.Label, counts[i], want[i])
					continue
				}
				if crit := chiSquareCritical(df); df > 0 && stat > crit {
					t.Errorf("segment %s: chi-square %.1f > %.1f (df %d): counts %v, want %v",
						sm.Seg.Label, stat, crit, df, counts[i], want[i])
				}
			}
			for e, pc := range edges {
				p := edgeJoint(t, m.Net, idx, want[pc[0]], pc[0], pc[1])
				stat, df, ok := chiSquare(joints[e], p, n)
				pl, cl := m.Segments[pc[0]].Seg.Label, m.Segments[pc[1]].Seg.Label
				if !ok {
					t.Errorf("edge %s→%s: drew a code pair of probability 0", pl, cl)
					continue
				}
				if crit := chiSquareCritical(df); df > 0 && stat > crit {
					t.Errorf("edge %s→%s: chi-square %.1f > %.1f (df %d)", pl, cl, stat, crit, df)
				}
			}
		})
	}
}

// edgeJoint returns the joint distribution of a network edge's parent and
// child codes under evidence, parent-major: P(parent | evidence) from
// pParent (Query's answer) times P(child | parent, evidence) from Query
// with the parent observed as well.
func edgeJoint(t *testing.T, net *bayes.Network, evidence map[int]int, pParent []float64, parent, child int) []float64 {
	t.Helper()
	arity := net.Vars[child].Arity
	joint := make([]float64, len(pParent)*arity)
	cond := map[int]int{}
	maps.Copy(cond, evidence)
	for pv, pp := range pParent {
		if pp == 0 {
			continue
		}
		cond[parent] = pv
		pc, err := net.Query(child, cond)
		if err != nil {
			t.Fatal(err)
		}
		for cv, q := range pc {
			joint[pv*arity+cv] = pp * q
		}
	}
	return joint
}

// chiSquare returns Pearson's statistic of observed counts against the
// probabilities p over n draws, and its degrees of freedom. Categories
// expected fewer than 5 times are pooled into one bin, counted only when
// the pool is expected 5 times or more. ok is false when a category of
// probability 0 was drawn.
func chiSquare(obs []int, p []float64, n int) (stat float64, df int, ok bool) {
	bins := 0
	var poolObs, poolExp float64
	for k, o := range obs {
		e := p[k] * float64(n)
		switch {
		case p[k] == 0:
			if o > 0 {
				return 0, 0, false
			}
		case e < 5:
			poolObs += float64(o)
			poolExp += e
		default:
			stat += (float64(o) - e) * (float64(o) - e) / e
			bins++
		}
	}
	if poolExp >= 5 {
		stat += (poolObs - poolExp) * (poolObs - poolExp) / poolExp
		bins++
	}
	if bins == 0 {
		return 0, 0, true
	}
	return stat, bins - 1, true
}

// chiSquareCritical approximates the chi-square quantile at about
// 1 - 3e-5 (z = 4) by the Wilson–Hilferty transform: generous enough
// that a correct sampler never fails at the fixed seed, tight enough
// that a biased one does.
func chiSquareCritical(df int) float64 {
	const z = 4.0
	k := float64(df)
	c := 1 - 2/(9*k) + z*math.Sqrt(2/(9*k))
	return k * c * c * c
}

// TestGenerateMatchesReferenceDecode pins the compiled generate path to
// the readable one it replaced: the sequential engine replayed with the
// network sampler and the reference decode emits the same candidates, in
// the same order, as Generate at one and several workers.
func TestGenerateMatchesReferenceDecode(t *testing.T) {
	m, _ := buildTestModel(t, 3000, 32, Options{})
	const count, seed = 1500, 77
	s := m.Net.NewSampler()
	enc := m.Encoder()
	var rngs [genSubstreams]*rand.Rand
	for i := range rngs {
		rngs[i] = stats.Split(seed, int64(i))
	}
	buf := make([]int, m.Net.NumVars())
	seen := ip6.NewSet(count)
	var want []ip6.Addr
	for attempts := 0; len(want) < count && attempts < 20*count; attempts++ {
		r := rngs[attempts%genSubstreams]
		a, err := enc.DecodeReference(s.SampleInto(r, buf), r)
		if err != nil {
			t.Fatal(err)
		}
		if seen.Add(a) {
			want = append(want, a)
		}
	}
	for _, workers := range []int{1, 4} {
		got, err := m.Generate(GenerateOptions{Count: count, Seed: seed, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d candidates, reference %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: candidate %d is %v, reference %v", workers, i, got[i], want[i])
			}
		}
	}
}
