package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"entropyip/internal/core"
	"entropyip/internal/drift"
	"entropyip/internal/ingest"
	"entropyip/internal/ip6"
	"entropyip/internal/stats"
	"entropyip/internal/wire"
)

// observeWL drives the serving path with writes: binary observe POSTs of
// 1024 addresses each through one closed-loop client, at two copies of a
// 1K-trained S5 model. One copy receives held-out S5 addresses and stays
// healthy; the other first receives S5 and then C1 addresses, and drifts.
// One op posts a batch to each, so every op scores one healthy and one
// drifted window. With the default refresh options (evaluate every 1024
// accepted addresses) every POST scores drift on the 16k-address window,
// so wire decode, ingest, window encoding and drift scoring dominate while
// sampling and decode stay idle.
type observeWL struct {
	env    *env
	model  *core.Model
	s5, c1 []ip6.Addr
	// next rotates through each pool so successive POSTs differ.
	next map[string]int
	// batch is the reused POST payload.
	batch []ip6.Addr
	// evals and posts count the traced window's POSTs and the drift
	// evaluations they triggered.
	evals, posts int
	// probeCalls is how many calls the slower layer probes time.
	probeCalls int
}

const (
	// healthyModel receives S5 traffic, driftModel C1 traffic.
	healthyModel = "s5"
	driftModel   = "s5drift"
	observeBatch = 1024
	// observeFill is how many POSTs fill an empty default window.
	observeFill = ingest.DefaultWindowSize / observeBatch
)

func setupObserve(cfg config, dir string) (workload, error) {
	s5, err := synthesize("S5", scaled(20_000, cfg.scale, 3000))
	if err != nil {
		return nil, err
	}
	train, held := stats.SplitTrainTest(stats.Split(sampleSeed, 17), s5, 1000)
	m, err := core.Build(train, core.Options{})
	if err != nil {
		return nil, err
	}
	c1, err := synthesize("C1", scaled(20_000, cfg.scale, 2000))
	if err != nil {
		return nil, err
	}
	// The seed orders the observed traffic.
	rng := stats.Split(cfg.seed, 23)
	for _, pool := range [][]ip6.Addr{held, c1} {
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	}
	e, err := startEnv(dir, namedModel{healthyModel, m}, namedModel{driftModel, m})
	if err != nil {
		return nil, err
	}
	return &observeWL{
		env:        e,
		model:      m,
		s5:         held,
		c1:         c1,
		next:       map[string]int{},
		batch:      make([]ip6.Addr, observeBatch),
		probeCalls: scaled(32, cfg.scale, 4),
	}, nil
}

// fill copies the pool's next 1024 addresses (wrapping around) into
// w.batch.
func (w *observeWL) fill(pool string) []ip6.Addr {
	src := w.s5
	if pool == "c1" {
		src = w.c1
	}
	off := w.next[pool]
	for i := range w.batch {
		w.batch[i] = src[(off+i)%len(src)]
	}
	w.next[pool] = (off + observeBatch) % len(src)
	return w.batch
}

// post sends one batch from the pool to the model and reports its latency,
// whether it was accepted in full, and whether it triggered a drift
// evaluation.
func (w *observeWL) post(model, pool string) (time.Duration, bool, bool) {
	addrs := w.fill(pool)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	start := time.Now()
	res, err := w.env.client.Observe(ctx, model, addrs)
	lat := time.Since(start)
	if err != nil {
		return lat, false, false
	}
	return lat, res.Accepted == len(addrs), res.Evaluated
}

// fillWindow posts n untimed batches from the pool to the model.
func (w *observeWL) fillWindow(model, pool string, n int) error {
	for i := 0; i < n; i++ {
		if _, ok, _ := w.post(model, pool); !ok {
			return fmt.Errorf("observe POST to %s failed", model)
		}
	}
	return nil
}

// expectVerdict checks a model's drift state.
func (w *observeWL) expectVerdict(c *checks, name, model string, drifting bool) {
	s, _ := w.env.srv.Refresher().Status(model)
	detail := "no evaluation"
	if s.LastVerdict != nil {
		detail = fmt.Sprintf("%s: score %.3f after %d evaluations", model, s.LastVerdict.Report.Score, s.Evaluations)
	}
	c.expect(s.Drifting == drifting, name, "%s", detail)
}

// prepare fills both windows untimed and checks the verdicts along the
// drifting model's shift: not drifting on a window of S5 traffic, drifting
// once C1 traffic has replaced it (a full window plus the detector's
// consecutive trips).
func (w *observeWL) prepare(c *checks) error {
	if err := w.fillWindow(healthyModel, "s5", observeFill); err != nil {
		return err
	}
	if err := w.fillWindow(driftModel, "s5", observeFill); err != nil {
		return err
	}
	w.expectVerdict(c, "observe.s5_not_drifting", driftModel, false)
	if err := w.fillWindow(driftModel, "c1", observeFill+drift.DefaultConsecutive); err != nil {
		return err
	}
	w.expectVerdict(c, "observe.c1_drifting", driftModel, true)
	return nil
}

// measure times ops of one S5 POST to the healthy model and one C1 POST to
// the drifted one, and checks both verdicts held.
func (w *observeWL) measure(d time.Duration, tr *tracer, c *checks) (*opStats, error) {
	w.env.traced.Store(tr)
	defer w.env.traced.Store(nil)
	st, err := closedLoop(d, func(i int) (time.Duration, bool, error) {
		id := tr.begin("observe.op", i, -1)
		lat1, ok1, ev1 := w.post(healthyModel, "s5")
		lat2, ok2, ev2 := w.post(driftModel, "c1")
		tr.end(id)
		if tr != nil {
			w.posts += 2
			for _, ev := range []bool{ev1, ev2} {
				if ev {
					w.evals++
				}
			}
		}
		return lat1 + lat2, ok1 && ok2, nil
	})
	if err != nil {
		return nil, err
	}
	w.expectVerdict(c, "observe.healthy_held", healthyModel, false)
	w.expectVerdict(c, "observe.drift_held", driftModel, true)
	return st, nil
}

// observeBody encodes addresses as a binary observe body, as
// client.Observe does.
func observeBody(addrs []ip6.Addr) ([]byte, error) {
	var buf bytes.Buffer
	buf.Write(wire.AppendHeader(nil, wire.Header{Streams: 1}))
	ww := wire.NewWriter(&buf, 0, false, 0)
	for _, a := range addrs {
		if err := ww.AddAddr(a); err != nil {
			return nil, err
		}
	}
	if err := ww.End(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// layers times each layer an observe POST crosses by calling it directly,
// once with S5 and once with C1 traffic: the wire decode of a POST body,
// ingest into a window, the window snapshot, window encoding and drift
// scoring of a full window. An op's time is attributed as the S5 costs plus
// the C1 costs, fitted to the handler time the traced window measured; the
// client's body encode, the socket and the response decode stay
// unaccounted. The metrics are per POST.
func (w *observeWL) layers(tr *tracer, st *opStats) (*layerReport, error) {
	type costs struct {
		decode, add, snapshot, encode, score time.Duration
	}
	probe := func(pool string) (costs, error) {
		var c costs
		body, err := observeBody(w.fill(pool))
		if err != nil {
			return c, err
		}
		batch := make([]ip6.Addr, 0, observeBatch)
		var perr error
		c.decode = timeCalls(tr, "wire.obs_decode", 100, func() {
			batch = batch[:0]
			rd, err := wire.NewReader(bytes.NewReader(body))
			if err != nil {
				perr = err
				return
			}
			for {
				f, err := rd.Next()
				if err != nil {
					break
				}
				for i := 0; i < f.Count && f.Kind == wire.KindAddrs; i++ {
					batch = append(batch, f.Addr(i))
				}
			}
		}) / observeBatch
		if perr != nil {
			return c, perr
		}

		buf := ingest.New(ingest.Config{})
		for i := 0; i < observeFill; i++ {
			buf.AddBatch(w.fill(pool))
		}
		c.add = timeCalls(tr, "ingest.add", 4*observeFill, func() { buf.AddBatch(w.fill(pool)) }) / observeBatch
		c.snapshot = timeCalls(tr, "ingest.snapshot", 20, func() { buf.Snapshot() })
		window := buf.Snapshot()
		k := w.probeCalls
		c.encode = timeCalls(tr, "core.encode_window", k, func() { w.model.EncodeWindow(window) })
		c.score = timeCalls(tr, "drift.score", k, func() {
			if _, err := drift.Score(w.model, window); err != nil {
				perr = err
			}
		})
		return c, perr
	}
	var op costs // one S5 POST plus one C1 POST
	for _, pool := range []string{"s5", "c1"} {
		c, err := probe(pool)
		if err != nil {
			return nil, err
		}
		op.decode += c.decode
		op.add += c.add
		op.snapshot += c.snapshot
		op.encode += c.encode
		op.score += c.score
	}
	decode := ms(op.decode) * observeBatch
	add := ms(op.add) * observeBatch
	handler := handlerMsPerOp(tr, st)
	rep := &layerReport{
		metrics: map[string]float64{
			"wire.obs_decode_ns":       ns(op.decode) / 2,
			"ingest.add_ns":            ns(op.add) / 2,
			"ingest.snapshot_us":       us(op.snapshot) / 2,
			"core.encode_window_ms":    ms(op.encode) / 2,
			"drift.score_ms":           ms(op.score) / 2,
			"serve.observe_handler_ms": handler / 2,
			"drift.evals_per_post":     float64(w.evals) / float64(w.posts),
		},
	}
	rep.rows, rep.coverPct = fitRows([]layerRow{
		{Layer: "wire.obs_decode", MsPerOp: decode},
		{Layer: "ingest.add", MsPerOp: add},
		{Layer: "ingest.snapshot", MsPerOp: ms(op.snapshot)},
		{Layer: "core.encode_window", MsPerOp: ms(op.encode)},
		{Layer: "drift.score", MsPerOp: ms(op.score - op.encode)},
	}, handler)
	return rep, nil
}

func (w *observeWL) close() { w.env.close() }
