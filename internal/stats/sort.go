package stats

// SortByKey sorts keys into ascending order in place and moves vals[i]
// with keys[i]; vals may be nil. The sort is stable: equal keys keep
// their relative order, so sorting by a secondary key and then by a
// primary one orders by both.
//
// It is an LSD radix sort over byte digits. A digit that every key shares
// needs no pass and is skipped; each other digit is counted inside its
// own pass, and the passes alternate between the input and one scratch
// copy of it. The scratch is bufKeys and bufVals when they are at least
// as long as keys, so a caller sorting several times can reuse one pair;
// otherwise it is allocated. A non-nil vals must be as long as keys.
func SortByKey[T any](keys []uint64, vals []T, bufKeys []uint64, bufVals []T) {
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
			dst = scratch(bufKeys, n)
			if vals != nil {
				dstVals = scratch(bufVals, n)
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

// scratch returns buf's first n elements, or a new slice when buf is
// shorter than n.
func scratch[T any](buf []T, n int) []T {
	if len(buf) >= n {
		return buf[:n]
	}
	return make([]T, n)
}
