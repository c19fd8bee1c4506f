package dbscan

import (
	"fmt"
	"sort"
)

// WeightedPoint is a scalar value observed with an integer multiplicity.
// Clustering weighted points is equivalent to clustering the expanded
// multiset (each value repeated weight times) but runs in time proportional
// to the number of distinct values, which matters for segment mining where
// a popular value can occur hundreds of thousands of times.
type WeightedPoint struct {
	Value  float64
	Weight int
}

// Cluster1DWeighted runs DBSCAN over a weighted 1-D multiset. A point is a
// core point when the total weight within eps of it (including itself) is
// at least minPts. The points must be in ascending Value order, as the
// entries of a stats.Freq are; Cluster1DWeighted panics at the first
// point whose Value is below its predecessor's. The returned labels are
// indexed like the input slice.
func Cluster1DWeighted(points []WeightedPoint, eps float64, minPts int) Result {
	n := len(points)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = Noise
		if i > 0 && points[i].Value < points[i-1].Value {
			panic(fmt.Sprintf("dbscan: Cluster1DWeighted point %d has Value %v below point %d's %v", i, points[i].Value, i-1, points[i-1].Value))
		}
	}

	// Sliding-window total weight within eps. hi starts before the first
	// point; the expansion loop always reaches at least i because the
	// distance of a point to itself is 0 <= eps.
	weightWithin := make([]int, n)
	lo, hi := 0, -1
	windowWeight := 0
	for i := 0; i < n; i++ {
		for hi+1 < n && points[hi+1].Value-points[i].Value <= eps {
			hi++
			windowWeight += points[hi].Weight
		}
		for points[i].Value-points[lo].Value > eps {
			windowWeight -= points[lo].Weight
			lo++
		}
		weightWithin[i] = windowWeight
	}

	cluster := -1
	lastCore := -1
	lastCoreCluster := -1
	for i := 0; i < n; i++ {
		if weightWithin[i] < minPts || points[i].Weight <= 0 {
			continue
		}
		if lastCore >= 0 && points[i].Value-points[lastCore].Value <= eps {
			labels[i] = lastCoreCluster
		} else {
			cluster++
			lastCoreCluster = cluster
			labels[i] = cluster
		}
		lastCore = i
	}
	// Border points join the nearest core point's cluster if within eps.
	coreIdx := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if weightWithin[i] >= minPts && points[i].Weight > 0 {
			coreIdx = append(coreIdx, i)
		}
	}
	for i := 0; i < n; i++ {
		if labels[i] != Noise || points[i].Weight <= 0 {
			continue
		}
		pos := sort.Search(len(coreIdx), func(k int) bool { return points[coreIdx[k]].Value >= points[i].Value })
		bestDist := eps + 1
		best := -1
		if pos < len(coreIdx) {
			if d := points[coreIdx[pos]].Value - points[i].Value; d < bestDist {
				best, bestDist = coreIdx[pos], d
			}
		}
		if pos > 0 {
			if d := points[i].Value - points[coreIdx[pos-1]].Value; d < bestDist {
				best, bestDist = coreIdx[pos-1], d
			}
		}
		if best >= 0 && bestDist <= eps {
			labels[i] = labels[best]
		}
	}
	return Result{Labels: labels, NumClusters: cluster + 1}
}

// WeightedInterval summarizes one cluster of a weighted 1-D clustering.
type WeightedInterval struct {
	Lo, Hi float64
	// Weight is the total weight of the cluster's points.
	Weight int
	// Points is the number of distinct values in the cluster.
	Points int
}

// WeightedIntervals summarizes a weighted clustering result per cluster.
func WeightedIntervals(points []WeightedPoint, r Result) []WeightedInterval {
	if r.NumClusters == 0 {
		return nil
	}
	out := make([]WeightedInterval, r.NumClusters)
	init := make([]bool, r.NumClusters)
	for i, lbl := range r.Labels {
		if lbl == Noise {
			continue
		}
		iv := &out[lbl]
		v := points[i].Value
		if !init[lbl] {
			iv.Lo, iv.Hi = v, v
			init[lbl] = true
		} else {
			if v < iv.Lo {
				iv.Lo = v
			}
			if v > iv.Hi {
				iv.Hi = v
			}
		}
		iv.Weight += points[i].Weight
		iv.Points++
	}
	return out
}
