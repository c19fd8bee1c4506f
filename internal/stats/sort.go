package stats

// SortByKey sorts keys into ascending order in place and moves vals[i]
// with keys[i]; vals may be nil. The sort is stable: equal keys keep
// their relative order, so sorting by a secondary key and then by a
// primary one orders by both.
//
// It is an LSD radix sort over byte digits. A digit that every key shares
// needs no pass and is skipped; each other digit is counted inside its
// own pass, and the passes alternate between the input and one scratch
// copy of it. A non-nil vals must be as long as keys.
func SortByKey[T any](keys []uint64, vals []T) {
	n := len(keys)
	var diff uint64
	for _, k := range keys {
		diff |= k ^ keys[0]
	}
	src, srcVals := keys, vals
	var dst []uint64
	var dstVals []T
	for shift := 0; shift < 64; shift += 8 {
		if diff>>shift&0xff == 0 {
			continue // every key has this digit
		}
		if dst == nil {
			dst = make([]uint64, n)
			if vals != nil {
				dstVals = make([]T, n)
			}
		}
		var next [256]int
		for _, k := range src {
			next[k>>shift&0xff]++
		}
		sum := 0
		for d, c := range next {
			next[d] = sum
			sum += c
		}
		if vals == nil {
			for _, k := range src {
				d := k >> shift & 0xff
				dst[next[d]] = k
				next[d]++
			}
		} else {
			for i, k := range src {
				d := k >> shift & 0xff
				dst[next[d]] = k
				dstVals[next[d]] = srcVals[i]
				next[d]++
			}
		}
		src, dst = dst, src
		srcVals, dstVals = dstVals, srcVals
	}
	if n > 0 && &src[0] != &keys[0] {
		copy(keys, src)
		copy(vals, srcVals)
	}
}
