// Package dbscan implements the DBSCAN density-based clustering algorithm
// of Ester, Kriegel, Sander and Xu (KDD 1996), which Entropy/IP uses during
// segment mining (§4.3 of the paper) to find dense ranges of segment values
// and ranges of values that are uniformly distributed in the histogram.
//
// The package provides a generic n-dimensional implementation (Cluster,
// with windowed neighbor queries along the first axis) and an optimized
// 1-dimensional variant (Cluster1D) that exploits sortedness; the two
// produce identical clusters for 1-D inputs.
package dbscan

import (
	"cmp"
	"math"
	"slices"
	"sort"
)

// Noise is the label assigned to points that belong to no cluster.
const Noise = -1

// Result holds the output of a clustering run.
type Result struct {
	// Labels[i] is the cluster index of input point i (0-based), or Noise.
	Labels []int
	// NumClusters is the number of clusters found.
	NumClusters int
}

// Cluster runs DBSCAN on n-dimensional points using Euclidean distance.
//
// eps is the neighborhood radius and minPts the minimum number of points
// (including the point itself) required to form a dense region. Every
// point must have the same dimension, at least 1.
//
// Neighborhoods are found in a window rather than by an all-pairs scan:
// point indices are sorted by their first coordinate once, and a query
// walks outward from the point's sorted position only while the
// first-coordinate distance stays within eps. That distance is computed
// from the same float64 difference euclid squares first, and it can only
// grow along the walk, so every point the walk stops short of is farther
// than eps and the pruning is exact; inside the window the euclid test
// decides as before. The expansion queue takes each point at most once
// per cluster (a second copy could only revisit a point already
// expanded and labeled), and points are expanded in the same order as
// the textbook algorithm, so labels and cluster numbers are those of the
// all-pairs version. Worst case (every point within eps on the first
// axis) it is still O(n²); on spread data a query costs the window size.
func Cluster(points [][]float64, eps float64, minPts int) Result {
	n := len(points)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = Noise
	}
	// order lists point indices by first coordinate, xs holds those
	// coordinates in the same order, and pos inverts order.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(points[a][0], points[b][0]) })
	xs := make([]float64, n)
	pos := make([]int, n)
	for k, i := range order {
		xs[k] = points[i][0]
		pos[i] = k
	}

	// within reports whether sorted position k is within eps of x on the
	// first axis, as the lower bound sqrt(d*d) <= euclid.
	within := func(x float64, k int) bool {
		d := x - xs[k]
		return math.Sqrt(d*d) <= eps
	}
	var nb []int
	// neighbors returns the indices within eps of point i in ascending
	// order, in a buffer that the next call reuses.
	neighbors := func(i int) []int {
		nb = nb[:0]
		x := points[i][0]
		for k := pos[i]; k >= 0 && within(x, k); k-- {
			if euclid(points[i], points[order[k]]) <= eps {
				nb = append(nb, order[k])
			}
		}
		for k := pos[i] + 1; k < n && within(x, k); k++ {
			if euclid(points[i], points[order[k]]) <= eps {
				nb = append(nb, order[k])
			}
		}
		slices.Sort(nb)
		return nb
	}

	visited := make([]bool, n)
	// queuedBy[j] is 1 + the last cluster whose expansion queued point j.
	queuedBy := make([]int, n)
	var queue []int
	cluster := 0
	enqueue := func(nb []int) {
		for _, j := range nb {
			if queuedBy[j] != cluster+1 {
				queuedBy[j] = cluster + 1
				queue = append(queue, j)
			}
		}
	}

	for i := 0; i < n; i++ {
		if visited[i] {
			continue
		}
		visited[i] = true
		nb := neighbors(i)
		if len(nb) < minPts {
			continue // noise (may later be adopted as a border point)
		}
		// Start a new cluster and expand it.
		labels[i] = cluster
		queue = queue[:0]
		enqueue(nb)
		for qi := 0; qi < len(queue); qi++ {
			j := queue[qi]
			if !visited[j] {
				visited[j] = true
				if jnb := neighbors(j); len(jnb) >= minPts {
					enqueue(jnb)
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

func euclid(a, b []float64) float64 {
	sum := 0.0
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// Cluster1D runs DBSCAN over scalar values. It produces the same clusters
// as Cluster with 1-D points but runs in O(n log n) by sorting.
func Cluster1D(values []float64, eps float64, minPts int) Result {
	n := len(values)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = Noise
	}
	if n == 0 {
		return Result{Labels: labels}
	}
	// Sort indices by value.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return values[idx[a]] < values[idx[b]] })
	sorted := make([]float64, n)
	for i, id := range idx {
		sorted[i] = values[id]
	}

	// neighborCount[i] = number of points within eps of sorted[i].
	neighborCount := make([]int, n)
	lo, hi := 0, 0
	for i := 0; i < n; i++ {
		for lo < n && sorted[i]-sorted[lo] > eps {
			lo++
		}
		if hi < i {
			hi = i
		}
		for hi+1 < n && sorted[hi+1]-sorted[i] <= eps {
			hi++
		}
		neighborCount[i] = hi - lo + 1
	}

	// A cluster is a maximal run of points chained through core points:
	// consecutive (in sorted order) points belong to the same cluster if
	// the gap between them is <= eps and at least one endpoint of the gap
	// chain is reachable from a core point. We reproduce DBSCAN semantics:
	// border points join the cluster of a core point within eps; noise
	// points otherwise.
	cluster := -1
	lastCore := -1        // index (sorted order) of the most recent core point
	lastCoreCluster := -1 // its cluster
	for i := 0; i < n; i++ {
		if neighborCount[i] < minPts {
			continue // not a core point; handled as border below
		}
		if lastCore >= 0 && sorted[i]-sorted[lastCore] <= eps {
			// Same cluster as the previous core point (density-connected).
			labels[idx[i]] = lastCoreCluster
		} else {
			cluster++
			labels[idx[i]] = cluster
			lastCoreCluster = cluster
		}
		lastCore = i
	}
	// Assign border points: any non-core point within eps of a core point
	// joins that core point's cluster (ties go to the nearer core point,
	// matching the "first discovered" rule closely enough for our use).
	coreIdx := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if neighborCount[i] >= minPts {
			coreIdx = append(coreIdx, i)
		}
	}
	for i := 0; i < n; i++ {
		if neighborCount[i] >= minPts {
			continue
		}
		// Find nearest core point by binary search over coreIdx.
		pos := sort.Search(len(coreIdx), func(k int) bool { return sorted[coreIdx[k]] >= sorted[i] })
		best, bestDist := -1, math.Inf(1)
		if pos < len(coreIdx) {
			if d := sorted[coreIdx[pos]] - sorted[i]; d < bestDist {
				best, bestDist = coreIdx[pos], d
			}
		}
		if pos > 0 {
			if d := sorted[i] - sorted[coreIdx[pos-1]]; d < bestDist {
				best, bestDist = coreIdx[pos-1], d
			}
		}
		if best >= 0 && bestDist <= eps {
			labels[idx[i]] = labels[idx[best]]
		}
	}
	return Result{Labels: labels, NumClusters: cluster + 1}
}

// Interval is a closed range of values belonging to one cluster.
type Interval struct {
	Lo, Hi float64
	// Size is the number of points in the cluster.
	Size int
}

// Intervals summarizes a 1-D clustering result as the [min, max] interval
// of each cluster, ordered by cluster label.
func Intervals(values []float64, r Result) []Interval {
	if r.NumClusters == 0 {
		return nil
	}
	out := make([]Interval, r.NumClusters)
	for i := range out {
		out[i] = Interval{Lo: math.Inf(1), Hi: math.Inf(-1)}
	}
	for i, lbl := range r.Labels {
		if lbl == Noise {
			continue
		}
		iv := &out[lbl]
		if values[i] < iv.Lo {
			iv.Lo = values[i]
		}
		if values[i] > iv.Hi {
			iv.Hi = values[i]
		}
		iv.Size++
	}
	return out
}
