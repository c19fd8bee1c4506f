// Package dbscantest holds the textbook all-pairs DBSCAN that tests use as
// the oracle for dbscan.Cluster, both in package dbscan and on the inputs
// segment mining builds. It imports nothing from dbscan, so dbscan's own
// tests can use it.
package dbscantest

import "math"

// Reference runs DBSCAN (Ester, Kriegel, Sander and Xu, KDD 1996) as first
// published: every neighborhood query scans all n points, points are
// visited in index order, and a cluster's expansion queue appends whole
// neighbor lists, duplicates included. It returns each point's cluster
// number, or -1 for noise, and the number of clusters.
func Reference(points [][]float64, eps float64, minPts int) (labels []int, clusters int) {
	n := len(points)
	labels = make([]int, n)
	for i := range labels {
		labels[i] = -1
	}
	visited := make([]bool, n)

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
		labels[i] = clusters
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
			if labels[j] == -1 {
				labels[j] = clusters
			}
		}
		clusters++
	}
	return labels, clusters
}

func euclid(a, b []float64) float64 {
	sum := 0.0
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}
