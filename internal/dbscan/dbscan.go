// Package dbscan implements the DBSCAN density-based clustering algorithm
// of Ester, Kriegel, Sander and Xu (KDD 1996), which Entropy/IP uses during
// segment mining (§4.3 of the paper): Cluster1DWeighted finds dense ranges
// of segment values (step (b)), and Cluster finds ranges of values that are
// uniformly distributed in the (value, count) histogram (step (c)).
//
// Cluster is exact grid DBSCAN (Gunawan 2013; de Berg, Gunawan and
// Roeloffzen, ISAAC 2017): it returns the labels of the textbook algorithm
// without building any point's neighbor list.
package dbscan

import (
	"fmt"
	"math"

	"entropyip/internal/stats"
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

const (
	// cellSlack widens grid cells past eps/2 so that rounding in x/side
	// never puts two points within eps three cells apart on an axis. The
	// rounding error of x/side is below 2^-22 cells while |x/side| < 2^30.
	cellSlack = 1 + 0x1p-20
	// maxCoord bounds |x|/eps, which keeps |x/side| below 2^30 and every
	// cell index, biased to be non-negative, within 32 bits.
	maxCoord = 0x1p29
	// minEps and maxEps keep the square of any coordinate difference near
	// eps clear of float64 underflow and overflow, where euclid would
	// stop agreeing with the per-axis distances the cells rely on.
	minEps, maxEps = 0x1p-500, 0x1p500
)

// Cluster runs DBSCAN on points of one or two coordinates using Euclidean
// distance, and returns the labels the textbook algorithm assigns when it
// visits points in index order:
//   - a point is core when at least minPts points, itself included, lie
//     within eps of it;
//   - clusters are the connected components of core points, two core
//     points within eps of each other being connected, numbered in order
//     of their smallest core index;
//   - a non-core point within eps of a core point is a border point and
//     takes the lowest cluster number among those core points; any other
//     point is Noise.
//
// "Within eps" is the float64 test euclid(p, q) <= eps throughout.
// Cluster decides it without testing all pairs. Points go into square
// cells of side eps/2 (widened by cellSlack). Two points of one cell are
// within eps by a wide margin, as a cell's diagonal is about 0.71·eps, so
// a cell holding minPts points makes all of them core, and core points
// sharing a cell are connected. Two points within eps lie at most two
// cells apart on each axis, so every other test looks only at the 5×5
// block of cells around a point's cell: a point of a sparser cell counts
// its neighbors there and stops at minPts; union-find merges two cells
// holding core points at the first core pair within eps; and a border
// point tests only the cells whose cluster would lower its label.
//
// eps must lie in [2^-500, 2^500], every point must have the same number
// of coordinates, one or two, and every coordinate must be finite and at
// most 2^29·eps in magnitude; Cluster panics otherwise.
func Cluster(points [][]float64, eps float64, minPts int) Result {
	n := len(points)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = Noise
	}
	if n == 0 {
		return Result{Labels: labels}
	}
	g := newGrid(points, eps)
	m := g.cells()
	within := func(p, q int32) bool { return euclid(points[p], points[q]) <= eps }

	// Core points.
	core := make([]bool, n)
	for c := range int32(m) {
		pts := g.points(c)
		if len(pts) >= minPts {
			for _, p := range pts {
				core[p] = true
			}
			continue
		}
		for _, p := range pts {
			count := len(pts)
		count:
			for _, d := range g.neighbors(c) {
				if d == c {
					continue
				}
				for _, q := range g.points(d) {
					if within(p, q) {
						if count++; count >= minPts {
							break count
						}
					}
				}
			}
			core[p] = count >= minPts
		}
	}

	// Connected components of cells holding core points.
	hasCore := make([]bool, m)
	for p, ok := range core {
		if ok {
			hasCore[g.cellOf[p]] = true
		}
	}
	parent := make([]int32, m)
	for c := range parent {
		parent[c] = int32(c)
	}
	find := func(c int32) int32 {
		for parent[c] != c {
			parent[c] = parent[parent[c]]
			c = parent[c]
		}
		return c
	}
	corePair := func(c, d int32) bool {
		for _, p := range g.points(c) {
			if !core[p] {
				continue
			}
			for _, q := range g.points(d) {
				if core[q] && within(p, q) {
					return true
				}
			}
		}
		return false
	}
	for c := range int32(m) {
		if !hasCore[c] {
			continue
		}
		for _, d := range g.neighbors(c) {
			if d <= c || !hasCore[d] {
				continue
			}
			if rc, rd := find(c), find(d); rc != rd && corePair(c, d) {
				parent[rd] = rc
			}
		}
	}

	// Cluster numbers in order of smallest core index; cellLabel holds
	// each cell's cluster, or Noise for cells without core points.
	cellLabel := make([]int, m)
	for c := range cellLabel {
		cellLabel[c] = Noise
	}
	clusters := 0
	for p, ok := range core {
		if !ok {
			continue
		}
		r := find(g.cellOf[p])
		if cellLabel[r] == Noise {
			cellLabel[r] = clusters
			clusters++
		}
		labels[p] = cellLabel[r]
	}
	for c := range cellLabel {
		if hasCore[c] {
			cellLabel[c] = cellLabel[find(int32(c))]
		}
	}

	// Border points.
	for p, ok := range core {
		if ok {
			continue
		}
		c := g.cellOf[p]
		best := Noise
		for _, d := range g.neighbors(c) {
			l := cellLabel[d]
			if l == Noise || (best != Noise && l >= best) {
				continue
			}
			if d == c {
				best = l
				continue
			}
			for _, q := range g.points(d) {
				if core[q] && within(int32(p), q) {
					best = l
					break
				}
			}
		}
		labels[p] = best
	}
	return Result{Labels: labels, NumClusters: clusters}
}

// grid groups point indices by occupied cell. Cells are numbered in (x, y)
// order of their cell coordinates, and the neighbors of cell c are the
// occupied cells at most two cells from it on each axis, c included.
type grid struct {
	order    []int32 // point indices grouped by cell, ascending within a cell
	start    []int32 // cell c holds order[start[c]:start[c+1]]
	cellOf   []int32 // cellOf[p] is the cell of point p
	adj      []int32 // cell c's neighbors are adj[adjStart[c]:adjStart[c+1]]
	adjStart []int32
}

func (g *grid) cells() int                { return len(g.start) - 1 }
func (g *grid) points(c int32) []int32    { return g.order[g.start[c]:g.start[c+1]] }
func (g *grid) neighbors(c int32) []int32 { return g.adj[g.adjStart[c]:g.adjStart[c+1]] }

// newGrid bins points into cells of side eps/2·cellSlack and links each
// cell to its occupied neighbors.
func newGrid(points [][]float64, eps float64) *grid {
	if !(eps >= minEps && eps <= maxEps) {
		panic(fmt.Sprintf("dbscan: eps %v is outside [2^-500, 2^500]", eps))
	}
	dim := len(points[0])
	if dim != 1 && dim != 2 {
		panic(fmt.Sprintf("dbscan: points have %d coordinates, want 1 or 2", dim))
	}
	n := len(points)
	side := eps / 2 * cellSlack
	limit := eps * maxCoord
	// cell returns point i's cell index on one axis; 1-D points lie on y = 0.
	cell := func(i, axis int) int64 {
		if axis >= dim {
			return 0
		}
		return int64(math.Floor(points[i][axis] / side))
	}
	minX, minY := int64(math.MaxInt64), int64(math.MaxInt64)
	for i, pt := range points {
		if len(pt) != dim {
			panic(fmt.Sprintf("dbscan: point %d has %d coordinates, point 0 has %d", i, len(pt), dim))
		}
		for _, x := range pt {
			if !(math.Abs(x) <= limit) {
				panic(fmt.Sprintf("dbscan: coordinate %v of point %d is not finite or exceeds 2^29·eps in magnitude", x, i))
			}
		}
		minX, minY = min(minX, cell(i, 0)), min(minY, cell(i, 1))
	}
	// A cell's key packs its x index into the high 32 bits and its y index
	// into the low 32, both biased so the lowest is 2: key order is (x, y)
	// order, and stepping two cells down stays in range.
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(cell(i, 0)-minX+2)<<32 | uint64(cell(i, 1)-minY+2)
	}

	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	stats.SortByKey(keys, order, nil, nil)
	g := &grid{order: order, cellOf: make([]int32, n)}
	// The distinct sorted keys are the cell keys. They are compacted into
	// the front of keys, which never overwrites a key not yet read.
	cellKeys := keys[:0]
	for k, p := range order {
		if k == 0 || keys[k] != cellKeys[len(cellKeys)-1] {
			cellKeys = append(cellKeys, keys[k])
			g.start = append(g.start, int32(k))
		}
		g.cellOf[p] = int32(len(cellKeys) - 1)
	}
	g.start = append(g.start, int32(n))

	// The neighbors of cell (x, y) in row x+dx are the cells with keys in
	// [(x+dx, y-2), (x+dx, y+2)]. Cells are visited in key order, so the
	// first candidate of each row only moves forward: row[dx+2] holds it.
	m := len(cellKeys)
	g.adjStart = make([]int32, 1, m+1)
	g.adj = make([]int32, 0, 9*m)
	var row [5]int
	for _, key := range cellKeys {
		for dx := range row {
			base := key + uint64(dx)<<32 - 2<<32 - 2
			k := row[dx]
			for k < m && cellKeys[k] < base {
				k++
			}
			row[dx] = k
			for ; k < m && cellKeys[k] <= base+4; k++ {
				g.adj = append(g.adj, int32(k))
			}
		}
		g.adjStart = append(g.adjStart, int32(len(g.adj)))
	}
	return g
}

func euclid(a, b []float64) float64 {
	sum := 0.0
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}
