package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"entropyip/internal/core"
	"entropyip/internal/ip6"
	"entropyip/internal/scan"
	"entropyip/internal/serve"
	"entropyip/internal/stats"
	"entropyip/internal/wire"
	"entropyip/pkg/client"
)

// streamWL is the paper's scanning protocol (§5.5): a model trained on 1K
// R1 addresses becomes 1M candidates, pulled over the binary wire encoding
// through one closed-loop client; pull i uses seed+i. Sampling, decode,
// dedup, the ordered merge, wire encode and the socket do almost all the
// work; training is not involved. R1 is used because, unlike S1, S5 and
// C1, its candidates hit the held-out population at a non-trivial rate and
// find many new /64s.
type streamWL struct {
	seed     int64
	env      *env
	model    *core.Model
	universe *scan.Universe
	trainPfx *ip6.PrefixSet
	count    int
	// buf receives one pull's candidates (reused across pulls).
	buf []ip6.Addr
	// sum is the SHA-256 of the in-process candidate stream for seed.
	sum    [32]byte
	hitPct float64
	new64s int
	// ttfc, alloc and pulled record the traced pulls.
	ttfc   []float64
	alloc  uint64
	pulled int
}

const streamModel = "r1"

// genSubstreams mirrors core's fixed number of generator substreams: the
// sequential engine draws attempt k from substream k % genSubstreams,
// which the replay in layers reproduces.
const genSubstreams = 64

// sinkAddr keeps timed decode loops from being optimized away.
var sinkAddr ip6.Addr

func setupStream(cfg config, dir string) (workload, error) {
	pop, err := synthesize("R1", scaled(60_000, cfg.scale, 5000))
	if err != nil {
		return nil, err
	}
	train, test := stats.SplitTrainTest(stats.Split(sampleSeed, 17), pop, 1000)
	m, err := core.Build(train, core.Options{})
	if err != nil {
		return nil, err
	}
	e, err := startEnv(dir, namedModel{streamModel, m})
	if err != nil {
		return nil, err
	}
	count := scaled(1_000_000, cfg.scale, 1000)
	return &streamWL{
		seed:     cfg.seed,
		env:      e,
		model:    m,
		universe: scan.NewUniverse(test, scan.UniverseConfig{Seed: sampleSeed}),
		trainPfx: scan.TrainingPrefixSet(train),
		count:    count,
		buf:      make([]ip6.Addr, 0, count),
	}, nil
}

// pull streams one seed's candidates into w.buf.
func (w *streamWL) pull(seed int64) (lat, ttfc time.Duration, ok bool) {
	w.buf = w.buf[:0]
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	failed := false
	var first time.Time
	start := time.Now()
	_, err := w.env.client.Generate(ctx, streamModel,
		client.GenerateOptions{Count: w.count, Seed: &seed, Binary: true},
		func(ev client.Event) bool {
			switch ev.Kind {
			case client.KindCandidate:
				if len(w.buf) == 0 {
					first = time.Now()
				}
				w.buf = append(w.buf, ev.Addr)
			case client.KindStreamError:
				failed = true
			}
			return true
		})
	lat = time.Since(start)
	return lat, first.Sub(start), err == nil && !failed && len(w.buf) == w.count
}

// sumAddrs returns the SHA-256 of the addresses' 16-byte binary forms.
func sumAddrs(addrs []ip6.Addr) [32]byte {
	h := sha256.New()
	var tmp []byte
	for _, a := range addrs {
		tmp = a.AppendBinary(tmp[:0])
		h.Write(tmp)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// prepare pulls seed's stream once (warming the connection and the
// server) and checks it against in-process generation: the same SHA-256
// and exactly count unique candidates. The same pull gives the hit rate
// against the held-out universe.
func (w *streamWL) prepare(c *checks) error {
	_, _, ok := w.pull(w.seed)
	local := make([]ip6.Addr, 0, w.count)
	err := w.model.GenerateStream(core.GenerateOptions{Count: w.count, Seed: w.seed}, func(a ip6.Addr) bool {
		local = append(local, a)
		return true
	})
	if err != nil {
		return err
	}
	w.sum = sumAddrs(local)
	unique := ip6.NewSet(len(w.buf))
	unique.AddAll(w.buf)
	c.expect(ok && unique.Len() == w.count, "stream.count_unique", "%d candidates, %d unique, want %d", len(w.buf), unique.Len(), w.count)
	c.expect(sumAddrs(w.buf) == w.sum, "stream.sha256", "wire pull equals in-process GenerateStream for seed %d", w.seed)

	hits := 0
	newPfx := ip6.NewPrefixSet(0)
	for _, a := range w.buf {
		if w.universe.Active(a) {
			hits++
			if p := ip6.Prefix64(a); !w.trainPfx.Contains(p) {
				newPfx.Add(p)
			}
		}
	}
	w.hitPct = 100 * float64(hits) / float64(w.count)
	w.new64s = newPfx.Len()
	return nil
}

func (w *streamWL) measure(d time.Duration, tr *tracer, c *checks) (*opStats, error) {
	w.env.traced.Store(tr)
	defer w.env.traced.Store(nil)
	return closedLoop(d, func(i int) (time.Duration, bool, error) {
		// Each pull starts from a collected heap, so none pays for the
		// garbage of the one before it.
		runtime.GC()
		var alloc0 uint64
		if tr != nil {
			alloc0 = allocBytes()
		}
		id := tr.begin("stream.pull", i, -1)
		lat, ttfc, ok := w.pull(w.seed + int64(i))
		tr.end(id)
		if tr != nil {
			w.alloc += allocBytes() - alloc0
			w.pulled += len(w.buf)
			w.ttfc = append(w.ttfc, ms(ttfc))
		}
		return lat, ok, nil
	})
}

// layers replays the engine's sequential draw loop (sample, decode, dedup
// over 64 substreams) to count attempts and duplicate rejects, times each
// of those layers alone over as many draws, times in-process generation
// at nproc and one worker, and times the wire encoding both ways over the
// last pull's candidates. Generation's in-process wall time per pull is
// split between sampling, decode, dedup and the rest of the engine in
// proportion to their sequential cost: generation at one worker, whose
// draw loop the replay reproduces. The rows inside the handler are then
// fitted to the handler time the traced pulls measured.
func (w *streamWL) layers(tr *tracer, st *opStats) (*layerReport, error) {
	m := w.model
	sampler := m.Net.NewSampler()
	enc := m.Encoder()
	nv := sampler.NumVars()

	id := tr.begin("gen.replay", -1, -1)
	var rngs [genSubstreams]*rand.Rand
	bufs := make([]int, genSubstreams*nv)
	for i := range rngs {
		rngs[i] = stats.Split(w.seed, int64(i))
	}
	seen := ip6.NewSet(w.count)
	replayed := make([]ip6.Addr, 0, w.count)
	attempts, dups := 0, 0
	for len(replayed) < w.count && attempts < 20*w.count {
		s := attempts % genSubstreams
		attempts++
		a, err := enc.Decode(sampler.SampleInto(rngs[s], bufs[s*nv:(s+1)*nv]), rngs[s])
		if err != nil {
			return nil, err
		}
		if seen.Add(a) {
			replayed = append(replayed, a)
		} else {
			dups++
		}
	}
	tr.end(id)
	if sumAddrs(replayed) != w.sum {
		return nil, fmt.Errorf("sequential replay differs from GenerateStream for seed %d", w.seed)
	}

	const chunk = 1 << 16
	vecs := make([]int, chunk*nv)
	addrs := make([]ip6.Addr, chunk)
	set := ip6.NewSet(w.count)
	rng := stats.Split(w.seed, 1<<20)
	var tSample, tDecode, tDedup time.Duration
	for done := 0; done < attempts; done += chunk {
		k := attempts - done
		if k > chunk {
			k = chunk
		}
		tSample += timeCalls(tr, "bayes.sample", 1, func() {
			for j := 0; j < k; j++ {
				sampler.SampleInto(rng, vecs[j*nv:(j+1)*nv])
			}
		})
		var derr error
		tDecode += timeCalls(tr, "mining.decode", 1, func() {
			for j := 0; j < k && derr == nil; j++ {
				addrs[j], derr = enc.Decode(vecs[j*nv:(j+1)*nv], rng)
			}
		})
		if derr != nil {
			return nil, derr
		}
		tDedup += timeCalls(tr, "ip6.dedup", 1, func() {
			for j := 0; j < k; j++ {
				set.Add(addrs[j])
			}
		})
	}

	generate := func(workers int) (time.Duration, error) {
		var err error
		d := timeCalls(tr, fmt.Sprintf("core.generate_w%d", workers), 1, func() {
			err = m.GenerateStream(core.GenerateOptions{Count: w.count, Seed: w.seed, Workers: workers},
				func(ip6.Addr) bool { return true })
		})
		return d, err
	}
	genN, err := generate(0)
	if err != nil {
		return nil, err
	}
	gen1, err := generate(1)
	if err != nil {
		return nil, err
	}

	var wbuf bytes.Buffer
	// Frames as the server writes them: serve.DefaultFlushEvery records each.
	wbuf.Grow(wire.HeaderSize + len(w.buf)*16 + (len(w.buf)/serve.DefaultFlushEvery+2)*wire.FrameHeaderSize)
	var encErr error
	tEnc := timeCalls(tr, "wire.encode", 1, func() {
		wbuf.Write(wire.AppendHeader(nil, wire.Header{Streams: 1, Seed: w.seed}))
		ww := wire.NewWriter(&wbuf, 0, false, serve.DefaultFlushEvery)
		for _, a := range w.buf {
			if encErr = ww.AddAddr(a); encErr != nil {
				return
			}
		}
		encErr = ww.End()
	})
	if encErr != nil {
		return nil, encErr
	}
	decoded := 0
	var decErr error
	tDec := timeCalls(tr, "wire.decode", 1, func() {
		rd, err := wire.NewReader(bytes.NewReader(wbuf.Bytes()))
		if err != nil {
			decErr = err
			return
		}
		for {
			f, err := rd.Next()
			if err != nil {
				break
			}
			for i := 0; i < f.Count && f.Kind == wire.KindAddrs; i++ {
				sinkAddr = f.Addr(i)
				decoded++
			}
		}
	})
	if decErr != nil {
		return nil, decErr
	}

	cands := float64(w.count)
	draws := float64(attempts)
	rep := &layerReport{metrics: map[string]float64{
		"bayes.sample_ns":         ns(tSample) / draws,
		"mining.decode_ns":        ns(tDecode) / draws,
		"ip6.dedup_ns":            ns(tDedup) / draws,
		"gen.attempts_per_cand":   draws / cands,
		"gen.dup_reject_pct":      100 * float64(dups) / draws,
		"core.generate_ns":        ns(genN) / cands,
		"core.generate_w1_ns":     ns(gen1) / cands,
		"wire.encode_ns":          ns(tEnc) / float64(len(w.buf)),
		"wire.decode_ns":          ns(tDec) / float64(decoded),
		"stream.alloc_b_per_cand": float64(w.alloc) / float64(w.pulled),
		"stream.ttfc_ms":          percentile(w.ttfc, 0.5),
		"scan.hit_pct":            w.hitPct,
		"scan.new_64s":            float64(w.new64s),
	}}
	genMs := ms(genN)
	// Timed alone, the three layers may add up to more than the
	// sequential engine (cache effects); they then split all of it.
	seq := gen1
	if isolated := tSample + tDecode + tDedup; isolated > seq {
		seq = isolated
	}
	share := func(d time.Duration) float64 { return genMs * float64(d) / float64(seq) }
	// Generation and the wire encoding run inside the handler. The client
	// decodes the response while the handler is still streaming it, so its
	// decode overlaps the handler rather than adding to it.
	rep.rows, rep.coverPct = fitRows([]layerRow{
		{Layer: "bayes.sample", MsPerOp: share(tSample)},
		{Layer: "mining.decode", MsPerOp: share(tDecode)},
		{Layer: "ip6.dedup", MsPerOp: share(tDedup)},
		{Layer: "core.generate", MsPerOp: genMs - share(tSample+tDecode+tDedup)},
		{Layer: "wire.encode", MsPerOp: ms(tEnc)},
	}, handlerMsPerOp(tr, st))
	rep.overlap = []layerRow{{Layer: "wire.decode", MsPerOp: ms(tDec)}}
	return rep, nil
}

func (w *streamWL) close() { w.env.close() }
