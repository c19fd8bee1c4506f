// Package stats provides the small statistics substrate used by Entropy/IP:
// frequency tables over categorical values, quartiles and Tukey outlier
// detection (used by segment mining, §4.3 step (a)), histograms, the
// sampling helpers (uniform and stratified sampling) used to
// build training sets the way the paper does (§3, §5.1), and SortByKey,
// the radix sort that frequency tables, the ACR series and grid DBSCAN
// share.
package stats

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Freq is a frequency table over uint64-valued observations (segment values
// fit in a uint64; see internal/segment). It is one histogram sorted by
// value, built once by FreqOf, so ordered reads (Entries, Min, Max) cost
// nothing and removals are a binary search plus one shift.
type Freq struct {
	entries []Entry // ascending Value, every Count > 0
	total   int
}

// FreqOf builds a frequency table from the given observations, leaving
// values unchanged. When the OR of the values (a bound on the largest)
// is below 2^16 and below len(values), it counts them in a dense
// histogram of bound+1 slots and reads the nonzero slots off in order;
// the guard keeps a short input from scanning a histogram much larger
// than itself. Otherwise it sorts a copy with SortByKey and counts the
// runs. Both paths build the same table.
func FreqOf(values []uint64) *Freq {
	var bound uint64
	for _, v := range values {
		bound |= v
	}
	if bound < 1<<16 && bound < uint64(len(values)) && uint64(len(values)) <= math.MaxUint32 {
		return freqDense(values, bound)
	}
	sorted := slices.Clone(values)
	SortByKey[struct{}](sorted, nil, nil, nil)
	distinct := 0
	for i := range sorted {
		if i == 0 || sorted[i] != sorted[i-1] {
			distinct++
		}
	}
	f := &Freq{entries: make([]Entry, 0, distinct), total: len(sorted)}
	for i := 0; i < len(sorted); {
		j := i + 1
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		f.entries = append(f.entries, Entry{Value: sorted[i], Count: j - i})
		i = j
	}
	return f
}

// freqDense is FreqOf over values that are all at most bound: a count
// per slot, then one ascending pass that sizes the table and one that
// fills it. A uint32 count holds any slot because FreqOf caps
// len(values) at MaxUint32.
func freqDense(values []uint64, bound uint64) *Freq {
	hist := make([]uint32, bound+1)
	for _, v := range values {
		hist[v]++
	}
	distinct := 0
	for _, c := range hist {
		if c != 0 {
			distinct++
		}
	}
	f := &Freq{entries: make([]Entry, 0, distinct), total: len(values)}
	for v, c := range hist {
		if c != 0 {
			f.entries = append(f.entries, Entry{Value: uint64(v), Count: int(c)})
		}
	}
	return f
}

// search returns the index of the first entry with Value >= v and whether
// that entry holds v.
func (f *Freq) search(v uint64) (int, bool) {
	return slices.BinarySearchFunc(f.entries, v, func(e Entry, v uint64) int { return cmp.Compare(e.Value, v) })
}

// Remove deletes all observations of value v and returns how many there
// were. It is used by segment mining, which removes mined values from the
// remaining pool after each step.
func (f *Freq) Remove(v uint64) int {
	i, ok := f.search(v)
	if !ok {
		return 0
	}
	n := f.entries[i].Count
	f.entries = slices.Delete(f.entries, i, i+1)
	f.total -= n
	return n
}

// Total returns the total number of observations.
func (f *Freq) Total() int { return f.total }

// Distinct returns the number of distinct observed values.
func (f *Freq) Distinct() int { return len(f.entries) }

// Entry is a (value, count) pair.
type Entry struct {
	Value uint64
	Count int
}

// Entries returns (value, count) pairs in ascending value order. The
// slice is the table's own storage: it is valid until the next Remove or
// RemoveRange, and callers must not modify it.
func (f *Freq) Entries() []Entry { return slices.Clip(f.entries) }

// Min returns the smallest observed value; ok is false if the table is
// empty.
func (f *Freq) Min() (v uint64, ok bool) {
	if len(f.entries) == 0 {
		return 0, false
	}
	return f.entries[0].Value, true
}

// Max returns the largest observed value; ok is false if the table is
// empty.
func (f *Freq) Max() (v uint64, ok bool) {
	if len(f.entries) == 0 {
		return 0, false
	}
	return f.entries[len(f.entries)-1].Value, true
}

// span returns the index range [i, j) of the entries with
// lo <= value <= hi.
func (f *Freq) span(lo, hi uint64) (i, j int) {
	if lo > hi {
		return 0, 0
	}
	i, _ = f.search(lo)
	j, ok := f.search(hi)
	if ok {
		j++
	}
	return i, j
}

// RemoveRange deletes all observations with lo <= value <= hi and returns
// how many observations were removed.
func (f *Freq) RemoveRange(lo, hi uint64) int {
	i, j := f.span(lo, hi)
	removed := 0
	for _, e := range f.entries[i:j] {
		removed += e.Count
	}
	f.entries = slices.Delete(f.entries, i, j)
	f.total -= removed
	return removed
}

// Quartiles returns the first quartile, median and third quartile of the
// data using linear interpolation between order statistics (type 7, the
// same convention as numpy's default). It panics on empty input.
func Quartiles(data []float64) (q1, q2, q3 float64) {
	if len(data) == 0 {
		panic("stats: Quartiles of empty data")
	}
	s := append([]float64(nil), data...)
	sort.Float64s(s)
	return quantileSorted(s, 0.25), quantileSorted(s, 0.5), quantileSorted(s, 0.75)
}

// Quantile returns the q-quantile (0 <= q <= 1) of the data using linear
// interpolation. It panics on empty input or q outside [0,1].
func Quantile(data []float64, q float64) float64 {
	if len(data) == 0 {
		panic("stats: Quantile of empty data")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v out of range", q))
	}
	s := append([]float64(nil), data...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// TukeyUpperFence returns the classic upper outlier fence Q3 + k·IQR.
// The paper uses k = 1.5 to find unusually prevalent segment values.
func TukeyUpperFence(data []float64, k float64) float64 {
	q1, _, q3 := Quartiles(data)
	return q3 + k*(q3-q1)
}

// Mean returns the arithmetic mean of the data (0 for empty input).
func Mean(data []float64) float64 {
	if len(data) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range data {
		sum += v
	}
	return sum / float64(len(data))
}
