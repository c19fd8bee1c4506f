package dbscan

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestClusterTwoBlobs(t *testing.T) {
	// Two tight 2-D blobs and one far-away noise point.
	points := [][]float64{
		{0, 0}, {0.1, 0}, {0, 0.1}, {0.1, 0.1},
		{10, 10}, {10.1, 10}, {10, 10.1},
		{100, 100},
	}
	r := Cluster(points, 0.5, 3)
	if r.NumClusters != 2 {
		t.Fatalf("NumClusters = %d, want 2", r.NumClusters)
	}
	if r.Labels[0] != r.Labels[1] || r.Labels[0] != r.Labels[3] {
		t.Error("first blob should share a label")
	}
	if r.Labels[4] != r.Labels[6] {
		t.Error("second blob should share a label")
	}
	if r.Labels[0] == r.Labels[4] {
		t.Error("blobs should have distinct labels")
	}
	if r.Labels[7] != Noise {
		t.Error("far point should be noise")
	}
}

func TestClusterEmptyAndSingle(t *testing.T) {
	r := Cluster(nil, 1, 2)
	if r.NumClusters != 0 || len(r.Labels) != 0 {
		t.Error("empty input should produce no clusters")
	}
	r = Cluster([][]float64{{1}}, 1, 2)
	if r.NumClusters != 0 || r.Labels[0] != Noise {
		t.Error("single point with minPts=2 should be noise")
	}
	r = Cluster([][]float64{{1}}, 1, 1)
	if r.NumClusters != 1 || r.Labels[0] != 0 {
		t.Error("single point with minPts=1 should be a cluster")
	}
}

func TestClusterChaining(t *testing.T) {
	// Points spaced exactly eps apart chain into one cluster.
	var points [][]float64
	for i := 0; i < 10; i++ {
		points = append(points, []float64{float64(i)})
	}
	r := Cluster(points, 1.0, 2)
	if r.NumClusters != 1 {
		t.Fatalf("NumClusters = %d, want 1 (chained)", r.NumClusters)
	}
	for i, l := range r.Labels {
		if l != 0 {
			t.Errorf("point %d label = %d", i, l)
		}
	}
}

func TestCluster1DMatchesND(t *testing.T) {
	// Property: the 1-D specialization produces the same partition as the
	// generic implementation (same number of clusters, same grouping).
	f := func(raw []uint16, epsRaw uint8, minPtsRaw uint8) bool {
		if len(raw) > 200 {
			raw = raw[:200]
		}
		values := make([]float64, len(raw))
		points := make([][]float64, len(raw))
		for i, v := range raw {
			values[i] = float64(v % 1000)
			points[i] = []float64{values[i]}
		}
		eps := float64(epsRaw%50) + 0.5
		minPts := int(minPtsRaw%5) + 1
		a := Cluster(points, eps, minPts)
		b := Cluster1D(values, eps, minPts)
		if a.NumClusters != b.NumClusters {
			return false
		}
		// Core-point status is deterministic; compute it independently.
		core := make([]bool, len(values))
		for i := range values {
			cnt := 0
			for j := range values {
				if values[i]-values[j] <= eps && values[j]-values[i] <= eps {
					cnt++
				}
			}
			core[i] = cnt >= minPts
		}
		// Noise status must match exactly (a point is noise iff it is
		// neither core nor within eps of a core point); cluster membership
		// must agree for core points. Border points may legitimately be
		// attached to either adjacent cluster (a documented DBSCAN
		// ambiguity), so they are not compared pairwise.
		for i := range values {
			if (a.Labels[i] == Noise) != (b.Labels[i] == Noise) {
				return false
			}
		}
		for i := range values {
			if !core[i] {
				continue
			}
			for j := i + 1; j < len(values); j++ {
				if !core[j] {
					continue
				}
				sameA := a.Labels[i] == a.Labels[j]
				sameB := b.Labels[i] == b.Labels[j]
				if sameA != sameB {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCluster1DDenseRangeAndOutliers(t *testing.T) {
	// A dense run 100..150 plus isolated values far apart.
	var values []float64
	for v := 100; v <= 150; v++ {
		values = append(values, float64(v))
	}
	values = append(values, 500, 900)
	r := Cluster1D(values, 2, 4)
	if r.NumClusters != 1 {
		t.Fatalf("NumClusters = %d, want 1", r.NumClusters)
	}
	ivs := Intervals(values, r)
	if len(ivs) != 1 || ivs[0].Lo != 100 || ivs[0].Hi != 150 || ivs[0].Size != 51 {
		t.Errorf("Intervals = %+v", ivs)
	}
	if r.Labels[len(values)-1] != Noise || r.Labels[len(values)-2] != Noise {
		t.Error("isolated values should be noise")
	}
}

func TestCluster1DEmpty(t *testing.T) {
	r := Cluster1D(nil, 1, 2)
	if r.NumClusters != 0 {
		t.Error("empty input should produce no clusters")
	}
	if Intervals(nil, r) != nil {
		t.Error("Intervals of empty result should be nil")
	}
}

func TestCluster1DBorderPoints(t *testing.T) {
	// 0,1,2 are dense (minPts 3, eps 1); 3.5 is within eps... no, 3.5-2 =
	// 1.5 > 1, so it is noise. 2.8 would be a border point of the cluster.
	values := []float64{0, 1, 2, 2.8, 10}
	r := Cluster1D(values, 1, 3)
	if r.NumClusters != 1 {
		t.Fatalf("NumClusters = %d", r.NumClusters)
	}
	if r.Labels[3] != 0 {
		t.Errorf("border point label = %d, want 0", r.Labels[3])
	}
	if r.Labels[4] != Noise {
		t.Error("far point should be noise")
	}
}

func TestIntervalsMultipleClusters(t *testing.T) {
	values := []float64{1, 2, 3, 100, 101, 102, 103}
	r := Cluster1D(values, 1.5, 3)
	ivs := Intervals(values, r)
	if len(ivs) != 2 {
		t.Fatalf("Intervals = %+v", ivs)
	}
	if ivs[0].Lo != 1 || ivs[0].Hi != 3 || ivs[1].Lo != 100 || ivs[1].Hi != 103 {
		t.Errorf("Intervals = %+v", ivs)
	}
}

func TestClusterUniformHistogramUseCase(t *testing.T) {
	// The mining step's use of DBSCAN on a histogram: (value, count) pairs
	// where a contiguous range of values has similar counts clusters
	// together when counts are normalized.
	rng := rand.New(rand.NewSource(1))
	var points [][]float64
	// Uniform-ish range: values 0..99 with counts ~10.
	for v := 0; v < 100; v++ {
		points = append(points, []float64{float64(v), 10 + float64(rng.Intn(3))})
	}
	// A spike far away in count space.
	points = append(points, []float64{200, 1000})
	r := Cluster(points, 5, 4)
	if r.NumClusters < 1 {
		t.Fatal("expected at least one cluster")
	}
	if r.Labels[len(points)-1] != Noise {
		t.Error("spike should be noise relative to the uniform range")
	}
}

// clusterReference is the textbook all-pairs DBSCAN that Cluster
// replaced: every neighborhood query scans all n points, and the
// expansion queue appends whole neighbor lists, duplicates included. It
// stays as the oracle Cluster's labels must equal.
func clusterReference(points [][]float64, eps float64, minPts int) Result {
	n := len(points)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = Noise
	}
	visited := make([]bool, n)
	cluster := 0

	neighbors := func(i int) []int {
		var out []int
		for j := 0; j < n; j++ {
			if euclid(points[i], points[j]) <= eps {
				out = append(out, j)
			}
		}
		return out
	}

	for i := 0; i < n; i++ {
		if visited[i] {
			continue
		}
		visited[i] = true
		nb := neighbors(i)
		if len(nb) < minPts {
			continue
		}
		labels[i] = cluster
		queue := append([]int(nil), nb...)
		for qi := 0; qi < len(queue); qi++ {
			j := queue[qi]
			if !visited[j] {
				visited[j] = true
				jnb := neighbors(j)
				if len(jnb) >= minPts {
					queue = append(queue, jnb...)
				}
			}
			if labels[j] == Noise {
				labels[j] = cluster
			}
		}
		cluster++
	}
	return Result{Labels: labels, NumClusters: cluster}
}

// TestClusterMatchesReference pins Cluster's labels and cluster count to
// the all-pairs reference on inputs built to hit the windowed query's
// edges: unsorted points, repeated first coordinates, pairs exactly eps
// apart on either axis, and the (value, count) histogram shape of segment
// mining's step (c).
func TestClusterMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	gens := map[string]func(n int) [][]float64{
		// Small integer grid: many repeated x values and many pairs at
		// distance exactly eps (eps below is a whole number).
		"grid": func(n int) [][]float64 {
			pts := make([][]float64, n)
			for i := range pts {
				pts[i] = []float64{float64(rng.Intn(40)), float64(rng.Intn(40))}
			}
			return pts
		},
		// Continuous 2-D blobs and scatter in random order.
		"blobs": func(n int) [][]float64 {
			pts := make([][]float64, n)
			for i := range pts {
				c := float64(rng.Intn(4)) * 30
				pts[i] = []float64{c + rng.NormFloat64()*3, c + rng.NormFloat64()*3}
				if rng.Intn(5) == 0 {
					pts[i] = []float64{rng.Float64() * 150, rng.Float64() * 150}
				}
			}
			return pts
		},
		// Step (c): distinct values on the x axis, normalized to [0, 100],
		// with normalized counts on the y axis.
		"histogram": func(n int) [][]float64 {
			pts := make([][]float64, n)
			maxCount := 1
			counts := make([]int, n)
			for i := range counts {
				counts[i] = 1 + rng.Intn(20)
				if rng.Intn(10) == 0 {
					counts[i] += rng.Intn(500)
				}
				maxCount = max(maxCount, counts[i])
			}
			span := float64(4 * n)
			for i := range pts {
				v := uint64(i*4 + rng.Intn(4))
				pts[i] = []float64{100 * float64(v) / span, 100 * float64(counts[i]) / float64(maxCount)}
			}
			rng.Shuffle(len(pts), func(a, b int) { pts[a], pts[b] = pts[b], pts[a] })
			return pts
		},
		// One dimension, all points on a few x values.
		"repeated1d": func(n int) [][]float64 {
			pts := make([][]float64, n)
			for i := range pts {
				pts[i] = []float64{float64(rng.Intn(6)) * 2.5}
			}
			return pts
		},
	}
	for name, gen := range gens {
		for trial := 0; trial < 40; trial++ {
			pts := gen(1 + rng.Intn(300))
			eps := []float64{1, 2, 2.5, 5, 7.5}[rng.Intn(5)]
			minPts := 1 + rng.Intn(6)
			want := clusterReference(pts, eps, minPts)
			got := Cluster(pts, eps, minPts)
			if got.NumClusters != want.NumClusters || !slices.Equal(got.Labels, want.Labels) {
				t.Fatalf("%s trial %d (n=%d eps=%v minPts=%d): got %d clusters %v, want %d clusters %v",
					name, trial, len(pts), eps, minPts, got.NumClusters, got.Labels, want.NumClusters, want.Labels)
			}
		}
	}
}

func TestClusterExactlyEpsApart(t *testing.T) {
	// Points exactly eps from the core point (0, 0) along each axis and
	// along the hypotenuse of a 3-4-5 triangle are its neighbors; a point a
	// hair past eps on the first axis is not.
	points := [][]float64{{0, 0}, {5, 0}, {0, 5}, {3, 4}, {0, -5}, {-5.000001, 0}}
	want := clusterReference(points, 5, 4)
	got := Cluster(points, 5, 4)
	if !slices.Equal(got.Labels, want.Labels) || got.NumClusters != want.NumClusters {
		t.Fatalf("labels %v (%d clusters), want %v (%d)", got.Labels, got.NumClusters, want.Labels, want.NumClusters)
	}
	if !slices.Equal(got.Labels, []int{0, 0, 0, 0, 0, Noise}) {
		t.Fatalf("labels = %v", got.Labels)
	}
}

func BenchmarkCluster1D(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	values := make([]float64, 2000)
	for i := range values {
		values[i] = rng.Float64() * 1000
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Cluster1D(values, 5, 4)
	}
}

func BenchmarkClusterND(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	points := make([][]float64, 500)
	for i := range points {
		points[i] = []float64{rng.Float64() * 1000, rng.Float64() * 1000}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Cluster(points, 5, 4)
	}
}
