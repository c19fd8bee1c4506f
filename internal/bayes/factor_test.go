package bayes

import (
	"math"
	"testing"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// set sets the factor value for the given assignment.
func set(f *Factor, assign []int, v float64) { f.Values[f.index(assign)] = v }

func TestFactorIndexRoundTrip(t *testing.T) {
	f := NewFactor([]int{0, 1, 2}, []int{2, 3, 4})
	if len(f.Values) != 24 {
		t.Fatalf("size = %d", len(f.Values))
	}
	assign := make([]int, 3)
	for idx := range f.Values {
		f.assignment(idx, assign)
		if got := f.index(assign); got != idx {
			t.Fatalf("index round trip: %d -> %v -> %d", idx, assign, got)
		}
	}
}

func TestFactorAtSet(t *testing.T) {
	f := NewFactor([]int{5, 7}, []int{2, 2})
	set(f, []int{1, 0}, 0.25)
	if !approx(f.At([]int{1, 0}), 0.25) {
		t.Error("At/set mismatch")
	}
	if f.Sum() != 0.25 {
		t.Errorf("Sum = %v", f.Sum())
	}
}

func TestFactorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"mismatched lengths": func() { NewFactor([]int{0}, []int{2, 2}) },
		"zero cardinality":   func() { NewFactor([]int{0}, []int{0}) },
		"bad assignment":     func() { NewFactor([]int{0}, []int{2}).At([]int{5}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestProduct(t *testing.T) {
	// P(A) * P(B|A) should give the joint.
	pa := NewFactor([]int{0}, []int{2})
	set(pa, []int{0}, 0.6)
	set(pa, []int{1}, 0.4)
	pba := NewFactor([]int{0, 1}, []int{2, 2})
	set(pba, []int{0, 0}, 0.9)
	set(pba, []int{0, 1}, 0.1)
	set(pba, []int{1, 0}, 0.2)
	set(pba, []int{1, 1}, 0.8)
	joint := Product(pa, pba)
	if !approx(joint.At([]int{0, 0}), 0.54) || !approx(joint.At([]int{1, 1}), 0.32) {
		t.Errorf("joint wrong: %v", joint.Values)
	}
	if !approx(joint.Sum(), 1) {
		t.Errorf("joint sum = %v", joint.Sum())
	}
	// Product with a factor over disjoint variables behaves like an outer
	// product.
	pc := NewFactor([]int{2}, []int{3})
	for i := 0; i < 3; i++ {
		set(pc, []int{i}, 1.0/3)
	}
	outer := Product(pa, pc)
	if len(outer.Values) != 6 || !approx(outer.Sum(), 1) {
		t.Errorf("outer product wrong: %v", outer.Values)
	}
}

func TestSumOut(t *testing.T) {
	joint := NewFactor([]int{0, 1}, []int{2, 2})
	set(joint, []int{0, 0}, 0.54)
	set(joint, []int{0, 1}, 0.06)
	set(joint, []int{1, 0}, 0.08)
	set(joint, []int{1, 1}, 0.32)
	pb := joint.SumOut(0)
	if len(pb.Vars) != 1 || pb.Vars[0] != 1 {
		t.Fatalf("vars = %v", pb.Vars)
	}
	if !approx(pb.At([]int{0}), 0.62) || !approx(pb.At([]int{1}), 0.38) {
		t.Errorf("marginal = %v", pb.Values)
	}
	// Summing out an absent variable clones.
	clone := joint.SumOut(9)
	if !approx(clone.Sum(), joint.Sum()) || len(clone.Vars) != 2 {
		t.Error("SumOut of absent variable should clone")
	}
}

func TestReduce(t *testing.T) {
	joint := NewFactor([]int{0, 1}, []int{2, 2})
	set(joint, []int{0, 0}, 0.54)
	set(joint, []int{0, 1}, 0.06)
	set(joint, []int{1, 0}, 0.08)
	set(joint, []int{1, 1}, 0.32)
	reduced := joint.Reduce(map[int]int{0: 1})
	if len(reduced.Vars) != 1 || reduced.Vars[0] != 1 {
		t.Fatalf("vars = %v", reduced.Vars)
	}
	if !approx(reduced.At([]int{0}), 0.08) || !approx(reduced.At([]int{1}), 0.32) {
		t.Errorf("reduced = %v", reduced.Values)
	}
	// Evidence on an unrelated variable leaves the factor unchanged.
	same := joint.Reduce(map[int]int{7: 0})
	if !approx(same.Sum(), joint.Sum()) {
		t.Error("unrelated evidence should not change the factor")
	}
}

func TestNormalize(t *testing.T) {
	f := NewFactor([]int{0}, []int{2})
	if f.Normalize() {
		t.Error("all-zero factor cannot normalize")
	}
	set(f, []int{0}, 3)
	set(f, []int{1}, 1)
	if !f.Normalize() {
		t.Fatal("normalize failed")
	}
	if !approx(f.At([]int{0}), 0.75) {
		t.Errorf("normalized = %v", f.Values)
	}
}

func TestCloneIndependence(t *testing.T) {
	f := NewFactor([]int{0}, []int{2})
	set(f, []int{0}, 1)
	c := f.Clone()
	set(c, []int{0}, 5)
	if f.At([]int{0}) != 1 {
		t.Error("Clone shares storage")
	}
}
