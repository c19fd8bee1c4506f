package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync/atomic"
	"time"

	"entropyip/internal/core"
	"entropyip/internal/ip6"
	"entropyip/internal/registry"
	"entropyip/internal/serve"
	"entropyip/internal/stats"
	"entropyip/internal/synth"
	"entropyip/pkg/client"
)

// workload is one benchmark scenario over a set-up system.
type workload interface {
	// prepare runs untimed warm-up operations and the checks that need an
	// operation of their own.
	prepare(c *checks) error
	// measure runs operations for about d and records them. With a non-nil
	// tracer it also records spans around its calls into the layers, and
	// the record feeds layers.
	measure(d time.Duration, tr *tracer, c *checks) (*opStats, error)
	// layers runs a traced run's direct layer calls and returns the
	// per-layer metrics and the attribution of one op's time to layers.
	layers(tr *tracer, st *opStats) (*layerReport, error)
	close()
}

type workloadSpec struct {
	name  string
	setup func(cfg config, dir string) (workload, error)
}

// workloadSpecs are the workloads in the order -workload all runs them.
var workloadSpecs = []workloadSpec{
	{"train", setupTrain},
	{"stream", setupStream},
	{"requests", setupRequests},
	{"observe", setupObserve},
}

func workloadNames() []string {
	out := make([]string, len(workloadSpecs))
	for i, s := range workloadSpecs {
		out[i] = s.name
	}
	return out
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, s := range workloadSpecs {
		if s.name == name {
			return s, true
		}
	}
	return workloadSpec{}, false
}

// setupReps is how many times an untraced run sets the system up: half
// before the measured window, the last of which is the system measured,
// and half after it, so that setup_s, their median, spans the run rather
// than one moment of a shared host's changing load. A traced run, which
// does not report setup_s, sets up once.
const setupReps = 20

// runWorkload sets a workload up, measures it and, under -trace 1, runs the
// traced half and the layer probes.
func runWorkload(cfg config, name string) (*result, error) {
	spec, _ := workloadByName(name)
	dir, err := os.MkdirTemp(cfg.workdir, name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	setups := make([]float64, 0, reps)
	setUp := func() (workload, error) {
		// Every set-up starts from a collected heap, so none pays for the
		// garbage of the one before it.
		runtime.GC()
		start := time.Now()
		w, err := spec.setup(cfg, filepath.Join(dir, strconv.Itoa(len(setups))))
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		return w, nil
	}
	var w workload
	for len(setups) < (reps+1)/2 {
		if w != nil {
			w.close()
		}
		if w, err = setUp(); err != nil {
			return nil, err
		}
	}
	res, err := measureRun(cfg, name, w)
	w.close()
	if err != nil {
		return nil, err
	}
	for len(setups) < reps {
		if w, err = setUp(); err != nil {
			return nil, err
		}
		w.close()
	}
	if !cfg.trace {
		res.metrics["setup_s"] = percentile(setups, 0.5)
	}
	return res, nil
}

// measureRun runs a set-up workload's warm-up, checks and measured
// windows.
func measureRun(cfg config, name string, w workload) (*result, error) {
	c := &checks{}
	if err := w.prepare(c); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	d := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		// The untraced and the traced half share the run's time.
		d /= 2
	}
	plain, err := measureWithHeap(w, d, nil, c)
	if err != nil {
		return nil, err
	}
	res := &result{metrics: map[string]float64{}}
	if !cfg.trace {
		res.defs = endToEnd
		res.attempted, res.failed, res.samples = plain.attempted, plain.failed, len(plain.lat)
		res.classes = plain.classes
		res.metrics["op_p50_ms"] = percentile(plain.lat, 0.5)
		res.metrics["heap_p99_mb"] = plain.heapP99MB
	} else {
		tr := newTracer()
		traced, err := measureWithHeap(w, d, tr, c)
		if err != nil {
			return nil, err
		}
		rep, err := w.layers(tr, traced)
		if err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
		res.defs = perLayer
		res.attempted = plain.attempted + traced.attempted
		res.failed = plain.failed + traced.failed
		res.samples = len(traced.lat)
		res.classes = traced.classes
		for k, v := range rep.metrics {
			res.metrics[k] = v
		}
		res.table = newLayerTable(name, traced, rep)
		res.metrics["trace.unaccounted_pct"] = res.table.unaccountedPct()
		res.metrics["trace.layer_cover_pct"] = rep.coverPct
		if base := percentile(plain.lat, 0.5); base > 0 {
			res.metrics["trace.overhead_pct"] = 100 * (percentile(traced.lat, 0.5) - base) / base
		}
		path := filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-%d.json", name, cfg.seed))
		if err := tr.write(path, name, cfg.seed); err != nil {
			return nil, err
		}
	}
	res.checks = c.lines
	res.correct = !c.failed
	return res, nil
}

// opStats records the operations of one measured window.
type opStats struct {
	// lat holds each op's latency in milliseconds.
	lat       []float64
	attempted int
	failed    int
	// classes holds the latencies of each request class of the open
	// loop, which mixes classes.
	classes   map[string][]float64
	heapP99MB float64
}

// meanMs is the mean op latency.
func (s *opStats) meanMs() float64 {
	if len(s.lat) == 0 {
		return 0
	}
	total := 0.0
	for _, l := range s.lat {
		total += l
	}
	return total / float64(len(s.lat))
}

func (s *opStats) record(class string, lat time.Duration, ok bool) {
	s.attempted++
	s.lat = append(s.lat, ms(lat))
	if !ok {
		s.failed++
	}
	if class != "" {
		if s.classes == nil {
			s.classes = map[string][]float64{}
		}
		s.classes[class] = append(s.classes[class], ms(lat))
	}
}

// classShare is the share of ops in the class.
func (s *opStats) classShare(class string) float64 {
	return float64(len(s.classes[class])) / float64(len(s.lat))
}

// closedLoop runs op back to back until d has passed (at least once).
// Each op returns its own latency, so per-op bookkeeping stays untimed.
func closedLoop(d time.Duration, op func(i int) (lat time.Duration, ok bool, err error)) (*opStats, error) {
	st := &opStats{}
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < d; i++ {
		lat, ok, err := op(i)
		if err != nil {
			return nil, err
		}
		st.record("", lat, ok)
	}
	return st, nil
}

// measureWithHeap runs one measured window from a freshly collected heap
// and records the 99th percentile of the live heap, sampled every 10 ms.
// The maximum would be steadier on a large heap but not on a small one,
// where it depends on whether a collection ends while one request's
// buffers are live.
func measureWithHeap(w workload, d time.Duration, tr *tracer, c *checks) (*opStats, error) {
	runtime.GC()
	stop := make(chan struct{})
	p99 := make(chan float64)
	go func() {
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		var mb []float64
		for {
			metrics.Read(sample)
			mb = append(mb, float64(sample[0].Value.Uint64())/(1<<20))
			select {
			case <-stop:
				p99 <- percentile(mb, 0.99)
				return
			case <-tick.C:
			}
		}
	}()
	st, err := w.measure(d, tr, c)
	close(stop)
	p := <-p99
	if st != nil {
		st.heapP99MB = p
	}
	return st, err
}

// allocBytes returns the bytes the process has allocated on the heap so
// far.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// checks collects correctness check outcomes.
type checks struct {
	lines  []string
	failed bool
}

func (c *checks) expect(ok bool, name, format string, args ...interface{}) {
	status := "ok"
	if !ok {
		status = "FAILED"
		c.failed = true
	}
	c.lines = append(c.lines, fmt.Sprintf("%-26s %-6s %s", name, status, fmt.Sprintf(format, args...)))
}

// namedModel is a model the server is set up with.
type namedModel struct {
	name  string
	model *core.Model
}

// env is a running server with a client driving it over loopback.
type env struct {
	reg    *registry.Registry
	srv    *serve.Server
	hs     *http.Server
	served chan error
	tr     *http.Transport
	client *client.Client
	// traced, while set, records a handlerSpan around every request the
	// server handles: the server-side share of a traced window's ops.
	traced atomic.Pointer[tracer]
}

// handlerSpan names the span around each Server.ServeHTTP call.
const handlerSpan = "serve.handler"

func (e *env) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := e.traced.Load()
	id := tr.begin(handlerSpan, -1, -1)
	defer tr.end(id)
	e.srv.ServeHTTP(w, r)
}

// handlerMsPerOp is the server-side time per op of a traced window: the
// summed handler spans over the window's ops.
func handlerMsPerOp(tr *tracer, st *opStats) float64 {
	return ms(tr.selfTimes(handlerSpan)[handlerSpan]) / float64(len(st.lat))
}

// startEnv stores the models in a registry under dir and serves them on a
// 127.0.0.1 listener with the default serving options (admission off,
// default refresh loop). The client uses at most nproc connections.
func startEnv(dir string, models ...namedModel) (*env, error) {
	reg, err := registry.Open(dir, 0)
	if err != nil {
		return nil, err
	}
	for _, m := range models {
		if _, err := reg.Put(m.name, m.model); err != nil {
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &env{
		reg:    reg,
		srv:    serve.New(reg, serve.Options{}),
		served: make(chan error, 1),
	}
	e.hs = &http.Server{Handler: e, ReadHeaderTimeout: 10 * time.Second}
	go func() { e.served <- e.hs.Serve(ln) }()
	n := runtime.NumCPU()
	e.tr = &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true}
	e.client = client.New("http://"+ln.Addr().String(), &http.Client{Transport: e.tr})
	return e, nil
}

// close stops the server, waiting for its connections to finish.
func (e *env) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	e.srv.Drain()
	_ = e.hs.Shutdown(ctx) // a timeout leaves only idle keep-alives behind
	<-e.served
	e.tr.CloseIdleConnections()
}

// discardWriter is an http.ResponseWriter that drops the body, for timing
// Server.ServeHTTP without a socket.
type discardWriter struct {
	h      http.Header
	status int
}

func newDiscardWriter() *discardWriter {
	return &discardWriter{h: make(http.Header), status: http.StatusOK}
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(status int)      { d.status = status }
func (d *discardWriter) Flush()                      {}

// timeCalls runs fn k times inside one span and returns the mean time per
// call.
func timeCalls(tr *tracer, name string, k int, fn func()) time.Duration {
	id := tr.begin(name, -1, -1)
	start := time.Now()
	for i := 0; i < k; i++ {
		fn()
	}
	el := time.Since(start)
	tr.end(id)
	return el / time.Duration(k)
}

// networkSeed fixes the addressing plan of every synthetic network and
// sampleSeed the addresses drawn from it and the training splits, so runs
// with different benchmark seeds measure the same networks, training files
// and models, as the paper's evaluation works on fixed datasets. The
// benchmark seed draws what varies between uses of one deployed model: the
// order of the training file, the generation seeds, the request schedule
// and the order of the observed addresses. Models trained on different
// 1K samples differ by up to a third in generation and drift-scoring cost,
// which would otherwise swamp the run-to-run spread.
const (
	networkSeed = 1
	sampleSeed  = 1
)

// synthesize draws n unique addresses of the named synthetic network.
func synthesize(name string, n int) ([]ip6.Addr, error) {
	spec, ok := synth.ByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown dataset %q", name)
	}
	plan := spec.Build(networkSeed)
	if err := plan.Validate(); err != nil {
		return nil, fmt.Errorf("dataset %s: %w", name, err)
	}
	return plan.GenerateUnique(stats.Split(sampleSeed, 1000), n), nil
}

// scaled returns n times the input scale, at least min.
func scaled(n int, scale float64, min int) int {
	v := int(float64(n) * scale)
	if v < min {
		return min
	}
	return v
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ns(d time.Duration) float64 { return float64(d) }
