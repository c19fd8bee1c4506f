package main

import (
	"bytes"
	"crypto/sha256"
	"runtime"
	"time"

	"entropyip/internal/core"
	"entropyip/internal/dataset"
	"entropyip/internal/entropy"
	"entropyip/internal/ip6"
	"entropyip/internal/mra"
	"entropyip/internal/stats"
)

// trainWL turns a 100k-address S1 file (bytes in memory) into a saved
// model: dataset.ReadWorkers, core.Build, Model.Save. One op trains the
// file twice, at nproc workers and at one worker, so the op covers both
// the parallel pipeline and the sequential one (the ACR trie runs only at
// one worker). It is the only workload that exercises entropy, ACR,
// mining and learning; generation stays idle.
type trainWL struct {
	addrs   []ip6.Addr
	text    []byte
	workers []int
	// ref is the SHA-256 of the first saved model; every later build at
	// any worker count must save byte-identical JSON.
	ref     [32]byte
	haveRef bool
	// profileShare is the share of the "entropy" build stage that
	// entropy.NewProfileWorkers takes at each worker count (mra.NewWorkers
	// takes the rest), measured by direct calls before a traced window.
	profileShare map[int]float64
	// allocs and builds total the traced builds' heap allocation and
	// count per worker tag.
	allocs map[string]uint64
	builds map[string]int
}

func setupTrain(cfg config, _ string) (workload, error) {
	addrs, err := synthesize("S1", scaled(100_000, cfg.scale, 2000))
	if err != nil {
		return nil, err
	}
	// The seed orders the file; the model does not depend on the order.
	rng := stats.Split(cfg.seed, 5)
	rng.Shuffle(len(addrs), func(i, j int) { addrs[i], addrs[j] = addrs[j], addrs[i] })
	var buf bytes.Buffer
	if err := dataset.New("S1", addrs).Write(&buf); err != nil {
		return nil, err
	}
	return &trainWL{
		addrs:        addrs,
		text:         buf.Bytes(),
		workers:      []int{runtime.NumCPU(), 1},
		profileShare: map[int]float64{},
		allocs:       map[string]uint64{},
		builds:       map[string]int{},
	}, nil
}

// workerTag names a worker count in metric names: w1 for the sequential
// build, wN for nproc workers.
func workerTag(workers int) string {
	if workers == 1 {
		return "w1"
	}
	return "wN"
}

// stageLayer maps core.BuildStages names to layer span names; the
// "entropy" stage is split between entropy.profile and mra.acr.
var stageLayer = map[string]string{
	"segment": "segment.segment",
	"mine":    "mining.mine",
	"compile": "mining.compile",
	"encode":  "mining.encode",
	"learn":   "bayes.learn",
}

// build trains the file once and reports its latency and whether the saved
// model matches the reference. It starts from a collected heap, as a
// one-shot training command does, so no build pays for the garbage of the
// one before it.
func (w *trainWL) build(workers int, tr *tracer, op int) (time.Duration, bool, error) {
	tag := workerTag(workers)
	runtime.GC()
	var alloc0 uint64
	if tr != nil {
		alloc0 = allocBytes()
	}
	start := time.Now()
	root := tr.begin("train.build_"+tag, op, -1)
	sp := tr.begin("dataset.read", op, root)
	ds, err := dataset.ReadWorkers("S1", bytes.NewReader(w.text), workers)
	tr.end(sp)
	if err != nil {
		return 0, false, err
	}
	opts := core.Options{Workers: workers}
	buildSpan := -1
	if tr != nil {
		opts.OnStage = func(stage string, d time.Duration) {
			end := time.Now()
			begin := end.Add(-d)
			if stage == "entropy" {
				mid := begin.Add(time.Duration(float64(d) * w.profileShare[workers]))
				tr.record("entropy.profile", op, buildSpan, begin, mid)
				tr.record("mra.acr", op, buildSpan, mid, end)
				return
			}
			tr.record(stageLayer[stage], op, buildSpan, begin, end)
		}
	}
	buildSpan = tr.begin("core.build", op, root)
	m, err := core.Build(ds.Addrs, opts)
	tr.end(buildSpan)
	if err != nil {
		return 0, false, err
	}
	var out bytes.Buffer
	sp = tr.begin("core.save", op, root)
	err = m.Save(&out)
	tr.end(sp)
	lat := time.Since(start)
	tr.end(root)
	if err != nil {
		return 0, false, err
	}
	if tr != nil {
		w.allocs[tag] += allocBytes() - alloc0
		w.builds[tag]++
	}
	sum := sha256.Sum256(out.Bytes())
	if !w.haveRef {
		w.ref, w.haveRef = sum, true
	}
	return lat, sum == w.ref, nil
}

// pair is one op: a build at every worker count.
func (w *trainWL) pair(i int, tr *tracer) (time.Duration, int, error) {
	var lat time.Duration
	differ := 0
	for k, workers := range w.workers {
		l, same, err := w.build(workers, tr, i*len(w.workers)+k)
		if err != nil {
			return 0, 0, err
		}
		lat += l
		if !same {
			differ++
		}
	}
	return lat, differ, nil
}

func (w *trainWL) prepare(c *checks) error {
	_, differ, err := w.pair(0, nil)
	if err != nil {
		return err
	}
	c.expect(differ == 0, "train.workers_identical", "model JSON at %d and 1 workers is byte-identical", w.workers[0])
	return nil
}

func (w *trainWL) measure(d time.Duration, tr *tracer, c *checks) (*opStats, error) {
	if tr != nil {
		for _, workers := range w.workers {
			p := timeCalls(tr, "entropy.profile", 3, func() { entropy.NewProfileWorkers(w.addrs, workers) })
			a := timeCalls(tr, "mra.acr", 3, func() { mra.NewWorkers(w.addrs, workers) })
			w.profileShare[workers] = float64(p) / float64(p+a)
		}
	}
	builds, differ := 0, 0
	st, err := closedLoop(d, func(i int) (time.Duration, bool, error) {
		lat, diff, err := w.pair(i, tr)
		builds += len(w.workers)
		differ += diff
		return lat, diff == 0, err
	})
	if err != nil {
		return nil, err
	}
	c.expect(differ == 0, "train.reps_identical", "%d of %d builds saved JSON differing from the first", differ, builds)
	return st, nil
}

func (w *trainWL) layers(tr *tracer, st *opStats) (*layerReport, error) {
	rep := &layerReport{metrics: map[string]float64{}}
	// The table adds core.build's own time (Build outside its stages).
	rowLayers := append([]string{"core.build"}, trainLayers...)
	total := map[string]float64{}
	for _, tag := range []string{"w1", "wN"} {
		n := w.builds[tag]
		if n == 0 {
			continue
		}
		self := tr.selfTimes("train.build_" + tag)
		for _, l := range trainLayers {
			rep.metrics[l+"_ms_"+tag] = ms(self[l]) / float64(n)
		}
		rep.metrics["train.alloc_mb_"+tag] = float64(w.allocs[tag]) / float64(n) / (1 << 20)
		for _, l := range rowLayers {
			total[l] += ms(self[l])
		}
	}
	for _, l := range rowLayers {
		rep.rows = append(rep.rows, layerRow{Layer: l, MsPerOp: total[l] / float64(len(st.lat))})
	}
	// The rows are span self times inside the op, measured against the
	// op itself.
	rep.coverPct = 100 * sumRows(rep.rows) / st.meanMs()
	return rep, nil
}

func (w *trainWL) close() {}
