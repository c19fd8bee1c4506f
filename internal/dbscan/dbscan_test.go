package dbscan

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"entropyip/internal/dbscan/dbscantest"
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

// points1D returns values as 1-D points.
func points1D(values []float64) [][]float64 {
	pts := make([][]float64, len(values))
	for i, v := range values {
		pts[i] = []float64{v}
	}
	return pts
}

func TestClusterDenseRangeAndOutliers(t *testing.T) {
	// A dense run 100..150 plus isolated values far apart.
	var values []float64
	for v := 100; v <= 150; v++ {
		values = append(values, float64(v))
	}
	values = append(values, 500, 900)
	r := Cluster(points1D(values), 2, 4)
	if r.NumClusters != 1 {
		t.Fatalf("NumClusters = %d, want 1", r.NumClusters)
	}
	for i := 0; i <= 50; i++ {
		if r.Labels[i] != 0 {
			t.Fatalf("value %v has label %d, want cluster 0", values[i], r.Labels[i])
		}
	}
	if r.Labels[len(values)-1] != Noise || r.Labels[len(values)-2] != Noise {
		t.Error("isolated values should be noise")
	}
}

func TestCluster1DEmpty(t *testing.T) {
	r := Cluster(points1D(nil), 1, 2)
	if r.NumClusters != 0 {
		t.Error("empty input should produce no clusters")
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

// clusterReference is the textbook all-pairs DBSCAN that Cluster's
// labels and cluster count must equal.
func clusterReference(points [][]float64, eps float64, minPts int) Result {
	labels, clusters := dbscantest.Reference(points, eps, minPts)
	return Result{Labels: labels, NumClusters: clusters}
}

// histogramPoints returns n points shaped like the input of segment
// mining's step (c): ascending distinct values with gaps, normalized to
// [0, 100] on the x axis, and their counts, a band of similar counts with
// rare spikes, normalized to [0, 100] on the y axis.
func histogramPoints(rng *rand.Rand, n int) [][]float64 {
	values := make([]uint64, n)
	counts := make([]int, n)
	v, maxCount := uint64(0), 1
	for i := range values {
		v += 1 + uint64(rng.Intn(4))
		if rng.Intn(200) == 0 {
			v += uint64(rng.Intn(20 * n)) // a gap in the value axis
		}
		values[i] = v
		counts[i] = 20 + rng.Intn(6)
		if rng.Intn(50) == 0 {
			counts[i] += rng.Intn(200)
		}
		maxCount = max(maxCount, counts[i])
	}
	span := float64(v + uint64(rng.Intn(4*n)))
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = []float64{100 * float64(values[i]) / span, 100 * float64(counts[i]) / float64(maxCount)}
	}
	return pts
}

// TestClusterMatchesReference pins Cluster's labels and cluster count to
// the all-pairs reference on inputs built to hit the grid's edges: points
// on and around cell boundaries, negative coordinates, repeated
// coordinates and duplicate points, cells dense enough to be all core,
// pairs exactly eps apart, border points equidistant from two clusters,
// and the (value, count) histogram shape of segment mining's step (c).
func TestClusterMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	check := func(name string, pts [][]float64, eps float64, minPts int) {
		t.Helper()
		want := clusterReference(pts, eps, minPts)
		got := Cluster(pts, eps, minPts)
		if got.NumClusters != want.NumClusters || !slices.Equal(got.Labels, want.Labels) {
			t.Fatalf("%s (n=%d eps=%v minPts=%d): got %d clusters %v, want %d clusters %v",
				name, len(pts), eps, minPts, got.NumClusters, got.Labels, want.NumClusters, want.Labels)
		}
	}
	gens := []struct {
		name string
		gen  func(n int, eps float64) [][]float64
	}{
		// Small integer grid: many repeated x values and many pairs at
		// distance exactly eps (eps below is a whole number).
		{"grid", func(n int, _ float64) [][]float64 {
			pts := make([][]float64, n)
			for i := range pts {
				pts[i] = []float64{float64(rng.Intn(40)), float64(rng.Intn(40))}
			}
			return pts
		}},
		// Continuous 2-D blobs and scatter in random order.
		{"blobs", func(n int, _ float64) [][]float64 {
			pts := make([][]float64, n)
			for i := range pts {
				c := float64(rng.Intn(4)) * 30
				pts[i] = []float64{c + rng.NormFloat64()*3, c + rng.NormFloat64()*3}
				if rng.Intn(5) == 0 {
					pts[i] = []float64{rng.Float64() * 150, rng.Float64() * 150}
				}
			}
			return pts
		}},
		// Step (c): distinct values on the x axis, normalized to [0, 100],
		// with normalized counts on the y axis.
		{"histogram", func(n int, _ float64) [][]float64 {
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
		}},
		// One dimension, all points on a few x values.
		{"repeated1d", func(n int, _ float64) [][]float64 {
			pts := make([][]float64, n)
			for i := range pts {
				pts[i] = []float64{float64(rng.Intn(6)) * 2.5}
			}
			return pts
		}},
		// Blobs and scatter on both sides of zero on both axes.
		{"negative", func(n int, _ float64) [][]float64 {
			pts := make([][]float64, n)
			for i := range pts {
				c := float64(rng.Intn(4))*25 - 40
				pts[i] = []float64{c + rng.NormFloat64()*3, -c + rng.NormFloat64()*3}
				if rng.Intn(5) == 0 {
					pts[i] = []float64{rng.Float64()*200 - 100, rng.Float64()*200 - 100}
				}
			}
			return pts
		}},
		// Coordinates on multiples of eps/2, some nudged one ulp either
		// way, in one and two dimensions.
		{"boundaries", func(n int, eps float64) [][]float64 {
			dim := 1 + rng.Intn(2)
			pts := make([][]float64, n)
			for i := range pts {
				pts[i] = make([]float64, dim)
				for a := range pts[i] {
					x := float64(rng.Intn(41)-20) * eps / 2
					switch rng.Intn(4) {
					case 0:
						x = math.Nextafter(x, math.Inf(1))
					case 1:
						x = math.Nextafter(x, math.Inf(-1))
					}
					pts[i][a] = x
				}
			}
			return pts
		}},
		// A few distinct points, each repeated many times.
		{"duplicates", func(n int, _ float64) [][]float64 {
			base := make([][]float64, 1+rng.Intn(8))
			for i := range base {
				base[i] = []float64{float64(rng.Intn(30)), float64(rng.Intn(30))}
			}
			pts := make([][]float64, n)
			for i := range pts {
				pts[i] = slices.Clone(base[rng.Intn(len(base))])
			}
			return pts
		}},
		// Tight clumps of 6 to 15 points, so that whole cells hold at
		// least minPts points, among sparse scatter.
		{"densecells", func(n int, eps float64) [][]float64 {
			var pts [][]float64
			for len(pts) < n {
				if rng.Intn(3) == 0 {
					pts = append(pts, []float64{rng.Float64() * 60, rng.Float64() * 60})
					continue
				}
				cx, cy := rng.Float64()*60, rng.Float64()*60
				for k := 6 + rng.Intn(10); k > 0 && len(pts) < n; k-- {
					pts = append(pts, []float64{cx + rng.Float64()*eps/10, cy + rng.Float64()*eps/10})
				}
			}
			rng.Shuffle(len(pts), func(a, b int) { pts[a], pts[b] = pts[b], pts[a] })
			return pts
		}},
	}
	for _, g := range gens {
		for trial := 0; trial < 40; trial++ {
			eps := []float64{1, 2, 2.5, 5, 7.5}[rng.Intn(5)]
			minPts := 1 + rng.Intn(6)
			check(fmt.Sprintf("%s trial %d", g.name, trial), g.gen(1+rng.Intn(300), eps), eps, minPts)
		}
	}
	// Mining's step (c) clusters up to 4096 histogram points with eps 5
	// and minPts 4.
	for trial := 0; trial < 2; trial++ {
		check(fmt.Sprintf("histogram4096 trial %d", trial), histogramPoints(rng, 4096), 5, 4)
	}

	// The point at 0 is within eps of the core points at -1 and 1 only,
	// so it is a border point equidistant from two clusters; it takes
	// the lower cluster number, that of the cluster listed first.
	border := []float64{0, 1, 1.25, 1.5, 1.75, 2, -1, -1.25, -1.5, -1.75, -2}
	check("equidistant border", points1D(border), 1, 4)
	if got := Cluster(points1D(border), 1, 4); got.NumClusters != 2 || got.Labels[0] != 0 || got.Labels[6] != 1 {
		t.Fatalf("equidistant border: labels %v", got.Labels)
	}
	// 7.5 - nextbelow(2.5) rounds to exactly 5, so the pair is within
	// eps = 5 although x/(eps/2) puts them three cells of side eps/2
	// apart.
	below := math.Nextafter(2.5, 0)
	check("rounding across cells 1d", [][]float64{{below}, {7.5}}, 5, 2)
	check("rounding across cells 2d", [][]float64{{below, 1}, {7.5, 1}}, 5, 2)
	if got := Cluster([][]float64{{below}, {7.5}}, 5, 2); got.NumClusters != 1 {
		t.Fatalf("rounding across cells: labels %v", got.Labels)
	}
}

func TestClusterPanicsOnInvalidInput(t *testing.T) {
	cases := []struct {
		name   string
		points [][]float64
		eps    float64
	}{
		{"zero eps", [][]float64{{1}}, 0},
		{"NaN eps", [][]float64{{1}}, math.NaN()},
		{"infinite eps", [][]float64{{1}}, math.Inf(1)},
		{"tiny eps", [][]float64{{0}}, 0x1p-600},
		{"huge eps", [][]float64{{0}}, 0x1p600},
		{"three coordinates", [][]float64{{1, 2, 3}}, 1},
		{"mixed dimensions", [][]float64{{1, 2}, {3}}, 1},
		{"NaN coordinate", [][]float64{{1, math.NaN()}}, 1},
		{"infinite coordinate", [][]float64{{math.Inf(-1)}}, 1},
		{"coordinate too large", [][]float64{{0x1p30}}, 1},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Cluster did not panic", c.name)
				}
			}()
			Cluster(c.points, c.eps, 2)
		}()
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

// BenchmarkClusterHist4096 clusters 4096 points shaped like the step-(c)
// input of a wide segment: a band of similar counts across the value axis,
// where most pairs of nearby values are within eps.
func BenchmarkClusterHist4096(b *testing.B) {
	points := histogramPoints(rand.New(rand.NewSource(1)), 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Cluster(points, 5, 4)
	}
}
