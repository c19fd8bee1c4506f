// Package parallel provides the bounded worker pools that the Entropy/IP
// training pipeline runs on. The parallel stages of model building —
// entropy profiling, ACR, per-segment mining and categorical encoding —
// are embarrassingly parallel over addresses or over segments; this
// package centralizes the scheduling so that each stage gets the same two
// guarantees:
//
//   - bounded concurrency: at most `workers` goroutines run user code, so
//     a training job inside eipserved's worker pool cannot oversubscribe
//     the machine beyond its configured share;
//   - deterministic results: work is either dispatched by index with
//     results stored at that index, or split into contiguous shards whose
//     partial results the caller merges in shard order — so the outcome is
//     bit-identical regardless of the worker count (the property the
//     model-determinism tests in internal/core assert).
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: values <= 0 select
// runtime.GOMAXPROCS(0) (all available cores).
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Shard is a contiguous index range [Start, End) of a larger input.
type Shard struct {
	Start, End int
}

// Len returns the number of indices in the shard.
func (s Shard) Len() int { return s.End - s.Start }

// Shards partitions [0, n) into at most `workers` contiguous, near-equal
// shards, in index order. It returns nil when n <= 0. workers <= 0 selects
// GOMAXPROCS.
func Shards(n, workers int) []Shard {
	if n <= 0 {
		return nil
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	out := make([]Shard, 0, w)
	// Distribute the remainder over the first n%w shards so sizes differ
	// by at most one.
	base, rem := n/w, n%w
	start := 0
	for i := 0; i < w; i++ {
		size := base
		if i < rem {
			size++
		}
		out = append(out, Shard{Start: start, End: start + size})
		start += size
	}
	return out
}

// ForEach invokes fn(worker, i) for every i in [0, n), running at most
// `workers` invocations concurrently. Indices are dispatched dynamically
// in ascending order, which balances skewed per-index costs (e.g.
// windowed entropy positions, segments of very different arity). worker
// numbers the goroutine running the call, in [0, Workers(workers)): calls
// with the same worker never overlap, so fn may keep per-worker scratch
// in a slice indexed by it. fn must be safe for concurrent invocation with distinct
// indices. With workers resolved to 1 (or n <= 1) everything runs on the
// calling goroutine as worker 0.
func ForEach(workers, n int, fn func(worker, i int)) {
	w := Workers(workers)
	if w > n {
		w = n
	}
	if n > 0 {
		trackBegin(w, n)
		defer trackEnd(w)
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(k, i)
			}
		}()
	}
	wg.Wait()
}

// MapShards runs work once per contiguous shard of [0, n) and returns the
// per-shard results in shard order, ready for a deterministic left-to-right
// merge by the caller.
func MapShards[T any](workers, n int, work func(s Shard) T) []T {
	shards := Shards(n, workers)
	out := make([]T, len(shards))
	if len(shards) > 0 {
		trackBegin(len(shards), len(shards))
		defer trackEnd(len(shards))
	}
	if len(shards) <= 1 {
		for i, s := range shards {
			out[i] = work(s)
		}
		return out
	}
	var wg sync.WaitGroup
	wg.Add(len(shards))
	for i, s := range shards {
		go func(i int, s Shard) {
			defer wg.Done()
			out[i] = work(s)
		}(i, s)
	}
	wg.Wait()
	return out
}
