package dbscan

import (
	"cmp"
	"slices"
	"testing"
	"testing/quick"
)

func TestCluster1DWeightedEquivalentToExpanded(t *testing.T) {
	// Property: clustering weighted points gives the same core structure as
	// clustering the expanded multiset.
	f := func(raw []uint8, epsRaw, minPtsRaw uint8) bool {
		if len(raw) > 60 {
			raw = raw[:60]
		}
		// Build weighted points with weights 1..4 over values 0..49.
		type vw struct {
			v float64
			w int
		}
		var wpoints []WeightedPoint
		var expanded []float64
		seen := map[float64]int{}
		for i, r := range raw {
			v := float64(r % 50)
			w := int(raw[(i+1)%len(raw)]%4) + 1
			seen[v] += w
		}
		for v, w := range seen {
			wpoints = append(wpoints, WeightedPoint{Value: v, Weight: w})
			for k := 0; k < w; k++ {
				expanded = append(expanded, v)
			}
		}
		if len(wpoints) == 0 {
			return true
		}
		// Map order is random; Cluster1DWeighted takes ascending values.
		slices.SortFunc(wpoints, func(a, b WeightedPoint) int { return cmp.Compare(a.Value, b.Value) })
		eps := float64(epsRaw%10) + 0.5
		minPts := int(minPtsRaw%6) + 1
		a := Cluster1DWeighted(wpoints, eps, minPts)
		b := Cluster(points1D(expanded), eps, minPts)
		if a.NumClusters != b.NumClusters {
			return false
		}
		// Each weighted point's noise status must match the status of the
		// corresponding expanded values.
		expIdx := map[float64]int{}
		for i, v := range expanded {
			expIdx[v] = i
		}
		for i, p := range wpoints {
			if (a.Labels[i] == Noise) != (b.Labels[expIdx[p.Value]] == Noise) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestCluster1DWeightedBasic(t *testing.T) {
	points := []WeightedPoint{
		{Value: 10, Weight: 100},
		{Value: 11, Weight: 50},
		{Value: 500, Weight: 1},
		{Value: 501, Weight: 1},
	}
	r := Cluster1DWeighted(points, 2, 10)
	if r.NumClusters != 1 {
		t.Fatalf("NumClusters = %d, want 1", r.NumClusters)
	}
	if r.Labels[0] != 0 || r.Labels[1] != 0 {
		t.Error("heavy points should cluster")
	}
	if r.Labels[2] != Noise || r.Labels[3] != Noise {
		t.Error("light points should be noise with minPts=10")
	}
	ivs := WeightedIntervals(points, r)
	if len(ivs) != 1 || ivs[0].Lo != 10 || ivs[0].Hi != 11 || ivs[0].Weight != 150 || ivs[0].Points != 2 {
		t.Errorf("WeightedIntervals = %+v", ivs)
	}
}

func TestCluster1DWeightedEmptyAndZeroWeight(t *testing.T) {
	r := Cluster1DWeighted(nil, 1, 1)
	if r.NumClusters != 0 {
		t.Error("empty input should have no clusters")
	}
	if WeightedIntervals(nil, r) != nil {
		t.Error("WeightedIntervals of empty should be nil")
	}
	// Zero-weight points never become cores and stay noise.
	r = Cluster1DWeighted([]WeightedPoint{{Value: 1, Weight: 0}}, 1, 1)
	if r.NumClusters != 0 || r.Labels[0] != Noise {
		t.Error("zero-weight point should be noise")
	}
}

func TestCluster1DWeightedTwoRanges(t *testing.T) {
	var points []WeightedPoint
	for v := 0; v < 20; v++ {
		points = append(points, WeightedPoint{Value: float64(v), Weight: 5})
	}
	for v := 100; v < 120; v++ {
		points = append(points, WeightedPoint{Value: float64(v), Weight: 5})
	}
	r := Cluster1DWeighted(points, 1.5, 8)
	if r.NumClusters != 2 {
		t.Fatalf("NumClusters = %d, want 2", r.NumClusters)
	}
	ivs := WeightedIntervals(points, r)
	if ivs[0].Lo != 0 || ivs[0].Hi != 19 || ivs[1].Lo != 100 || ivs[1].Hi != 119 {
		t.Errorf("WeightedIntervals = %+v", ivs)
	}
}

func TestCluster1DWeightedRejectsUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order input did not panic")
		}
	}()
	Cluster1DWeighted([]WeightedPoint{{Value: 1, Weight: 3}, {Value: 5, Weight: 3}, {Value: 4, Weight: 3}}, 2, 3)
}
