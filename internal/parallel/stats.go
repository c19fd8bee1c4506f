package parallel

import "sync/atomic"

// Package-level scheduling counters, exported to the observability plane
// through Snapshot (eipserved renders them under eip_parallel_*). They
// are plain atomics so tracking costs two adds per dispatch call — noise
// next to the goroutines each call spawns — and the package keeps its
// zero dependencies.
var (
	statJobs    atomic.Uint64
	statTasks   atomic.Uint64
	statRunning atomic.Int64
)

// Stats is a snapshot of the package's scheduling counters.
type Stats struct {
	// Jobs counts dispatch calls (ForEach and MapShards).
	Jobs uint64 `json:"jobs"`
	// Tasks counts work units dispatched: indices for the per-index
	// primitives, shards for the sharded ones.
	Tasks uint64 `json:"tasks"`
	// Running is the number of workers currently executing user code
	// (including the calling goroutine of a sequential fallback).
	Running int64 `json:"running"`
}

// Snapshot returns the current scheduling counters.
func Snapshot() Stats {
	return Stats{
		Jobs:    statJobs.Load(),
		Tasks:   statTasks.Load(),
		Running: statRunning.Load(),
	}
}

// trackBegin/trackEnd bracket one dispatch call running `workers`
// concurrent executors over `tasks` work units. Passing workers to
// trackEnd through the deferred call keeps the pair allocation-free.
func trackBegin(workers, tasks int) {
	statJobs.Add(1)
	statTasks.Add(uint64(tasks))
	statRunning.Add(int64(workers))
}

func trackEnd(workers int) {
	statRunning.Add(int64(-workers))
}
