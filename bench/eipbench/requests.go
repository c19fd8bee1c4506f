package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptrace"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"entropyip/internal/core"
	"entropyip/internal/ip6"
	"entropyip/internal/serve"
	"entropyip/internal/stats"
	"entropyip/internal/wire"
	"entropyip/pkg/client"
)

// requestsWL is independent scanners sending short requests: an open loop
// at a fixed rate with seeded Poisson arrivals, each request asking one of
// three 1K-trained models (S5, R1, C1) for 1000 candidates. Here the
// per-request set-up dominates — registry lookup, sampler compile, the
// conditional-sampling pass when evidence is set, the 64 generator
// substreams, and the tracing and metrics middleware — which the stream
// workload amortizes away. Latency runs from each request's due time, so
// a stall also counts against the requests queued behind it.
//
// The rate and the mix are assumptions, not measured client load: no
// record of real request traffic exists. The mix gives an equal share to
// each request shape the repository's generating client (cmd/eipgen) can
// send — binary, NDJSON, binary with evidence, binary /64 prefixes. The
// rate keeps a 2-core host about a third busy, so that the workload
// measures per-request cost rather than saturation even when other
// tenants slow the host. At twice the rate, such a slowdown pushes it
// into queueing that can double the median.
type requestsWL struct {
	seed   int64
	env    *env
	models []namedModel
	trains [][]ip6.Addr
	// labels are the segments evidence requests fix: each model's first
	// two.
	labels [][]string
	// windows counts measure calls; each draws its own arrival schedule.
	windows int64
	// probeCalls is how many calls each layer probe times.
	probeCalls int
	// traced holds the traced window's outcomes for the layer metrics.
	traced []reqOutcome
}

const (
	reqRate    = 200.0 // requests per second
	reqCount   = 1000  // candidates per request
	reqSLO     = 25 * time.Millisecond
	reqTimeout = 10 * time.Second
)

type reqClass int

const (
	classBinary reqClass = iota
	classNDJSON
	classEvidence
	classPrefixes
	numClasses
)

var classNames = [numClasses]string{"binary", "ndjson", "evidence", "prefixes"}

// reqSpec is one scheduled request.
type reqSpec struct {
	due      time.Duration
	model    int
	class    reqClass
	seed     int64
	evidence core.Evidence
}

// reqOutcome is what one request saw.
type reqOutcome struct {
	lat, late, connWait time.Duration
	n                   int
	ok                  bool
	// addrs keeps an evidence request's candidates for the check.
	addrs []ip6.Addr
}

func setupRequests(cfg config, dir string) (workload, error) {
	w := &requestsWL{seed: cfg.seed, probeCalls: scaled(40, cfg.scale, 4)}
	for _, name := range []string{"S5", "R1", "C1"} {
		train, err := synthesize(name, 1000)
		if err != nil {
			return nil, err
		}
		m, err := core.Build(train, core.Options{})
		if err != nil {
			return nil, err
		}
		w.models = append(w.models, namedModel{strings.ToLower(name), m})
		w.trains = append(w.trains, train)
		w.labels = append(w.labels, []string{m.Segments[0].Seg.Label, m.Segments[1].Seg.Label})
	}
	e, err := startEnv(dir, w.models...)
	if err != nil {
		return nil, err
	}
	w.env = e
	return w, nil
}

// schedule draws the arrivals of one window of length d. The classes take
// turns, so each has an equal share of every window.
func (w *requestsWL) schedule(d time.Duration) ([]reqSpec, error) {
	rng := stats.Split(w.seed, 100+w.windows)
	w.windows++
	var specs []reqSpec
	t := 0.0
	for {
		t += rng.ExpFloat64() / reqRate
		due := time.Duration(t * float64(time.Second))
		if due >= d && len(specs) > 0 {
			return specs, nil
		}
		s := reqSpec{due: due, model: rng.Intn(len(w.models)), class: reqClass(len(specs) % int(numClasses)), seed: rng.Int63()}
		if s.class == classEvidence {
			train := w.trains[s.model]
			ev, err := w.models[s.model].model.EvidenceFromAddr(train[rng.Intn(len(train))], w.labels[s.model]...)
			if err != nil {
				return nil, err
			}
			s.evidence = ev
		}
		specs = append(specs, s)
	}
}

// do sends one request at (or after) its due time.
func (w *requestsWL) do(start time.Time, s reqSpec, traced bool) reqOutcome {
	var out reqOutcome
	due := start.Add(s.due)
	sent := time.Now()
	out.late = sent.Sub(due)
	ctx, cancel := context.WithTimeout(context.Background(), reqTimeout)
	defer cancel()
	var gotConn atomic.Int64
	if traced {
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			GotConn: func(httptrace.GotConnInfo) { gotConn.Store(int64(time.Since(sent))) },
		})
	}
	seed := s.seed
	opts := client.GenerateOptions{
		Count:    reqCount,
		Seed:     &seed,
		Evidence: s.evidence,
		Prefixes: s.class == classPrefixes,
		Binary:   s.class != classNDJSON,
	}
	if s.evidence != nil {
		out.addrs = make([]ip6.Addr, 0, reqCount)
	}
	failed := false
	_, err := w.env.client.Generate(ctx, w.models[s.model].name, opts, func(ev client.Event) bool {
		switch ev.Kind {
		case client.KindCandidate:
			out.n++
			if out.addrs != nil {
				out.addrs = append(out.addrs, ev.Addr)
			}
		case client.KindStreamError:
			failed = true
		}
		return true
	})
	out.lat = time.Since(due)
	out.connWait = time.Duration(gotConn.Load())
	out.ok = err == nil && !failed && out.n == reqCount
	return out
}

func (w *requestsWL) prepare(c *checks) error {
	// One request of every class on every model warms connections and
	// server pools, and shows each class yields its full count.
	for mi := range w.models {
		for cl := reqClass(0); cl < numClasses; cl++ {
			s := reqSpec{model: mi, class: cl, seed: int64(mi)*10 + int64(cl)}
			if cl == classEvidence {
				ev, err := w.models[mi].model.EvidenceFromAddr(w.trains[mi][0], w.labels[mi]...)
				if err != nil {
					return err
				}
				s.evidence = ev
			}
			o := w.do(time.Now(), s, false)
			c.expect(o.ok, "requests.warmup_"+w.models[mi].name+"_"+classNames[cl], "%d of %d candidates", o.n, reqCount)
		}
	}
	return nil
}

func (w *requestsWL) measure(d time.Duration, tr *tracer, c *checks) (*opStats, error) {
	specs, err := w.schedule(d)
	if err != nil {
		return nil, err
	}
	outs := make([]reqOutcome, len(specs))
	var wg sync.WaitGroup
	w.env.traced.Store(tr)
	defer w.env.traced.Store(nil)
	start := time.Now()
	for i := range specs {
		if wait := time.Until(start.Add(specs[i].due)); wait > 0 {
			time.Sleep(wait)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i] = w.do(start, specs[i], tr != nil)
		}(i)
	}
	wg.Wait()

	st := &opStats{}
	checked, wrong := 0, 0
	for i, o := range outs {
		s := specs[i]
		st.record(classNames[s.class], o.lat, o.ok)
		due := start.Add(s.due)
		tr.record("requests.request", i, -1, due, due.Add(o.lat))
		for _, a := range o.addrs {
			checked++
			ev, err := w.models[s.model].model.EvidenceFromAddr(a, w.labels[s.model]...)
			if err != nil || !sameEvidence(ev, s.evidence) {
				wrong++
			}
		}
	}
	c.expect(wrong == 0, "requests.evidence_codes", "%d of %d evidence candidates carry other codes", wrong, checked)
	if tr != nil {
		w.traced = outs
	}
	return st, nil
}

func sameEvidence(a, b core.Evidence) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// evidenceIndex resolves label/code evidence to the network's variable
// and category indices, as generation does before compiling a
// conditional sampler.
func evidenceIndex(m *core.Model, ev core.Evidence) (map[int]int, error) {
	out := make(map[int]int, len(ev))
	for label, code := range ev {
		idx, sm, ok := m.SegmentByLabel(label)
		if !ok {
			return nil, fmt.Errorf("unknown segment %q", label)
		}
		for k, v := range sm.Values {
			if v.Code == code {
				out[idx] = k
			}
		}
	}
	return out, nil
}

// handlerRequest builds the generate request a client of the class sends.
func handlerRequest(name string, cl reqClass, seed int64, ev core.Evidence) (*http.Request, error) {
	body, err := json.Marshal(serve.GenerateRequest{Count: reqCount, Seed: &seed, Evidence: ev, Prefixes: cl == classPrefixes})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, "/v1/models/"+name+"/generate", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if cl != classNDJSON {
		req.Header.Set("Accept", wire.ContentType)
	}
	req.RemoteAddr = "127.0.0.1:1"
	return req, nil
}

// layers times each layer a request crosses by calling it directly on
// every model: the registry lookup, sampler compiles, 1000-candidate
// generation per class, and Server.ServeHTTP into a discarding writer per
// class. The probes are weighted by the traced window's class mix and
// fitted to the handler time the window measured; the socket, the client
// and queueing for a connection are what stays unaccounted.
func (w *requestsWL) layers(tr *tracer, st *opStats) (*layerReport, error) {
	k := w.probeCalls
	var reg, sampler, cond time.Duration
	var gen, handler [numClasses]time.Duration
	for mi, nm := range w.models {
		m := nm.model
		ev, err := m.EvidenceFromAddr(w.trains[mi][0], w.labels[mi]...)
		if err != nil {
			return nil, err
		}
		idx, err := evidenceIndex(m, ev)
		if err != nil {
			return nil, err
		}
		var perr error
		reg += timeCalls(tr, "registry.get", 5*k, func() {
			if _, _, err := w.env.reg.GetVersion(nm.name, 0); err != nil {
				perr = err
			}
		})
		sampler += timeCalls(tr, "bayes.new_sampler", 5*k, func() { m.Net.NewSampler() })
		cond += timeCalls(tr, "bayes.new_cond_sampler", k, func() {
			if _, err := m.Net.NewCondSampler(idx); err != nil {
				perr = err
			}
		})
		for cl := reqClass(0); cl < numClasses; cl++ {
			opts := core.GenerateOptions{Count: reqCount}
			if cl == classEvidence {
				opts.Evidence = ev
			}
			seed := int64(0)
			gen[cl] += timeCalls(tr, "core.generate_1k_"+classNames[cl], k, func() {
				seed++
				opts.Seed = seed
				var err error
				if cl == classPrefixes {
					err = m.GeneratePrefixesStream(opts, func(ip6.Prefix) bool { return true })
				} else {
					err = m.GenerateStream(opts, func(ip6.Addr) bool { return true })
				}
				if err != nil {
					perr = err
				}
			})
			reqs := make([]*http.Request, k)
			for i := range reqs {
				var clEv core.Evidence
				if cl == classEvidence {
					clEv = ev
				}
				if reqs[i], err = handlerRequest(nm.name, cl, int64(i), clEv); err != nil {
					return nil, err
				}
			}
			i := 0
			handler[cl] += timeCalls(tr, "serve.handler_"+classNames[cl], k, func() {
				dw := newDiscardWriter()
				w.env.srv.ServeHTTP(dw, reqs[i])
				if dw.status != http.StatusOK {
					perr = fmt.Errorf("handler probe: status %d", dw.status)
				}
				i++
			})
		}
		if perr != nil {
			return nil, perr
		}
	}
	n := time.Duration(len(w.models))
	reg, sampler, cond = reg/n, sampler/n, cond/n
	var share [numClasses]float64
	var genMix, handlerMix float64
	for cl := reqClass(0); cl < numClasses; cl++ {
		gen[cl] /= n
		handler[cl] /= n
		share[cl] = st.classShare(classNames[cl])
		genMix += share[cl] * ms(gen[cl])
		handlerMix += share[cl] * ms(handler[cl])
	}
	samplers := (1-share[classEvidence])*ms(sampler) + share[classEvidence]*ms(cond)

	var conn, late []float64
	slo := 0
	for _, o := range w.traced {
		conn = append(conn, ms(o.connWait))
		late = append(late, ms(o.late))
		if o.ok && o.lat <= reqSLO {
			slo++
		}
	}
	rep := &layerReport{
		metrics: map[string]float64{
			"registry.get_us":              us(reg),
			"bayes.new_sampler_us":         us(sampler),
			"bayes.new_cond_sampler_us":    us(cond),
			"core.generate_1k_us":          us(gen[classBinary]),
			"core.generate_1k_evidence_us": us(gen[classEvidence]),
			"serve.handler_us":             1000 * handlerMix,
			"loadgen.conn_wait_ms_p99":     percentile(conn, 0.99),
			"loadgen.late_ms_max":          percentile(late, 1),
			"loadgen.slo_pct":              100 * float64(slo) / float64(len(w.traced)),
		},
	}
	rep.rows, rep.coverPct = fitRows([]layerRow{
		{Layer: "registry.get", MsPerOp: ms(reg)},
		{Layer: "bayes.new_sampler", MsPerOp: samplers},
		{Layer: "core.generate", MsPerOp: genMix - samplers},
	}, handlerMsPerOp(tr, st))
	return rep, nil
}

func (w *requestsWL) close() { w.env.close() }
