package core

import (
	"fmt"
	"math"
	"math/rand"

	"entropyip/internal/ip6"
	"entropyip/internal/parallel"
	"entropyip/internal/stats"
)

// GenerateOptions controls candidate generation.
type GenerateOptions struct {
	// Count is the number of candidates to generate (the paper uses 1M).
	Count int
	// Seed seeds the generator's randomness; generation is deterministic
	// for a fixed model, seed and options.
	Seed int64
	// Evidence optionally constrains generation to particular segment
	// values (e.g. only addresses within one mined /32 code).
	Evidence Evidence
	// Exclude is an optional set of addresses never to emit (typically the
	// training set, so that all candidates are "new").
	Exclude *ip6.Set
	// MaxAttemptsFactor bounds the work spent looking for unique, non-
	// excluded candidates: generation stops after Count×MaxAttemptsFactor
	// draws even if fewer than Count unique candidates were found.
	// Zero means the default of 20.
	MaxAttemptsFactor int
	// Stop, if non-nil, is polled before the first attempt and then every
	// stopPollInterval attempts (including during runs of duplicate or
	// excluded draws that emit nothing); generation halts when it returns
	// true. Servers use it to abandon work for disconnected clients. It
	// is called only from the merge loop on the calling goroutine, at
	// every worker count (parallel producers watch an internal done
	// channel, not Stop), so it need not be safe for concurrent use.
	Stop func() bool
	// Workers bounds the number of goroutines drawing candidates
	// (0 = GOMAXPROCS, 1 = fully sequential; values past the 64 logical
	// substreams act as 64). The candidate sequence is identical for
	// every worker count: draws come from a fixed number of logical
	// substreams that are merged in a worker-independent round-robin
	// order. This field and Options.Workers are the only places the
	// worker count is set: eipserved and the commands always pass 0, and
	// the serve API accepts and ignores a request's "workers" field.
	Workers int
}

// stopPollInterval is how many attempts pass between Stop polls.
const stopPollInterval = 1024

// genSubstreams is the fixed number of logical generator substreams. It
// is a constant — not the worker count — so that the ordered candidate
// sequence depends only on the model, seed and options, never on how
// many workers happened to run: substream i draws from
// stats.Split(seed, i), and the merged sequence interleaves substreams
// round-robin per attempt.
const genSubstreams = 64

// genParallelCutoff is the Count below which generation always runs
// sequentially: the parallel setup (one producer goroutine per
// substream, each eagerly filling batches) costs more draws than a
// small request needs. The emitted candidates are identical either way.
const genParallelCutoff = 1024

func (o GenerateOptions) maxAttempts() int {
	f := o.MaxAttemptsFactor
	if f <= 0 {
		f = 20
	}
	n := o.Count * f
	if n/f != o.Count { // overflow: effectively unbounded attempts
		return math.MaxInt
	}
	return n
}

// setCapacity bounds the dedup set's initial allocation: the set still
// grows to Count entries when generation gets that far, but a huge
// requested Count no longer pre-allocates hundreds of megabytes up front.
func setCapacity(count int) int {
	const max = 1 << 20
	if count > max {
		return max
	}
	return count
}

// drawFunc draws one candidate address using a stream-local rng and
// assignment buffer, leaving the drawn codes in buf. Implementations are
// safe for concurrent use as long as each goroutine owns its rng and buf.
type drawFunc func(rng *rand.Rand, buf []int) ip6.Addr

// newDraw compiles the model into a draw function: the network's sampler
// under the evidence — compiled from the CPTs when there is none, and
// otherwise from the elimination factors, whose variable-elimination work
// runs once here instead of once per variable per draw — fused with the
// compiled decoder, whose tables the drawn codes index directly. mask64
// truncates drawn addresses to their /64.
func (m *Model) newDraw(evidence map[int]int, mask64 bool) (drawFunc, error) {
	s, err := m.Net.NewCondSampler(evidence)
	if err != nil {
		return nil, err
	}
	dec := m.encoder.Decoder()
	return func(rng *rand.Rand, buf []int) ip6.Addr {
		a := dec.Decode(s.SampleInto(rng, buf), rng)
		if mask64 {
			a = ip6.Mask(a, 64)
		}
		return a
	}, nil
}

// genRun is one generation run: the compiled draw function plus the
// limits and sinks shared by the sequential and parallel executions.
type genRun struct {
	count       int
	maxAttempts int
	stop        func() bool
	draw        drawFunc
	excluded    func(ip6.Addr) bool
	yield       func(ip6.Addr) bool
	seed        int64
	workers     int
	bufLen      int
}

// generate is the engine shared by address and prefix generation: yield
// receives unique, non-excluded candidate addresses (masked to /64 when
// mask64 is set) until Count candidates were emitted, the attempt budget
// is exhausted, Stop reports true, or yield returns false. Every error is
// found while compiling the run; drawing cannot fail.
func (m *Model) generate(opts GenerateOptions, mask64 bool, excluded func(ip6.Addr) bool, yield func(ip6.Addr) bool) error {
	evidence, err := m.evidenceIndices(opts.Evidence)
	if err != nil {
		return err
	}
	draw, err := m.newDraw(evidence, mask64)
	if err != nil {
		return err
	}
	r := &genRun{
		count:       opts.Count,
		maxAttempts: opts.maxAttempts(),
		stop:        opts.Stop,
		draw:        draw,
		excluded:    excluded,
		yield:       yield,
		seed:        opts.Seed,
		workers:     parallel.Workers(opts.Workers),
		bufLen:      m.Net.NumVars(),
	}
	if r.workers > genSubstreams {
		r.workers = genSubstreams
	}
	if r.workers <= 1 || r.count < genParallelCutoff {
		r.runSequential()
	} else {
		r.runParallel()
	}
	return nil
}

// genBlock is the most attempts the merge takes in one round. It is at
// most genSubstreams, so a block draws from each substream at most once.
const genBlock = 64

// merge is the one consume loop every execution runs: attempt k takes
// the next draw of substream k % genSubstreams, and dedup, exclusion,
// the attempt budget and Stop all apply to that merged sequence. This
// round-robin order is the canonical candidate order, so any draw source
// that yields each substream's draws in sequence emits the same
// candidates.
//
// The merge works in blocks. fill hands it the draws of attempts first,
// first+1, … for the whole block. The block is clipped to the candidates
// still wanted, to the attempts still allowed and to the next multiple
// of stopPollInterval, where Stop is polled before the block is drawn.
// So the merge draws what a loop taking one attempt at a time would
// draw, draws nothing once Stop has returned true, and overdraws only
// when yield ends the run inside a block. The block then resolves in
// order, each attempt with its own exclusion check and Add.
func (r *genRun) merge(fill func(block []ip6.Addr, first int)) {
	seen := ip6.NewSet(setCapacity(r.count))
	var buf [genBlock]ip6.Addr
	emitted, attempts := 0, 0
	for emitted < r.count && attempts < r.maxAttempts {
		toPoll := stopPollInterval - attempts%stopPollInterval
		if toPoll == stopPollInterval && r.stop != nil && r.stop() {
			return
		}
		block := buf[:min(genBlock, r.count-emitted, r.maxAttempts-attempts, toPoll)]
		fill(block, attempts)
		for _, a := range block {
			attempts++
			if r.excluded(a) {
				continue
			}
			if seen.Add(a) {
				emitted++
				if !r.yield(a) {
					return
				}
			}
		}
	}
}

// runSequential is the single-goroutine execution: the merge draws each
// block inline from the substreams' rngs. The substream sources live in
// one array seeded in place, one allocation rather than one per
// substream; each draws exactly what stats.Split(seed, i) would.
func (r *genRun) runSequential() {
	var srcs [genSubstreams]stats.Source
	var rngs [genSubstreams]*rand.Rand
	for i := range srcs {
		srcs[i].Seed(stats.SplitSeed(r.seed, int64(i)))
		rngs[i] = rand.New(&srcs[i])
	}
	// The sampler overwrites every code of buf on each draw, so the
	// substreams can share one buffer.
	buf := make([]int, r.bufLen)
	r.merge(func(block []ip6.Addr, first int) {
		for i := range block {
			block[i] = r.draw(rngs[(first+i)%genSubstreams], buf)
		}
	})
}

// batchSize picks how many draws producers hand over at once: large
// enough to amortize channel traffic on big requests, small enough that
// tiny requests do not overdraw by much.
func (r *genRun) batchSize() int {
	b := r.count / (2 * genSubstreams)
	if b < 16 {
		b = 16
	}
	if b > 512 {
		b = 512
	}
	return b
}

// runParallel is the parallel execution: every substream produces its
// draws concurrently (at most workers of them computing at a time), and
// the merge pulls them from the producers' batches in its round-robin
// order — so the emitted candidates are byte-identical to the
// sequential ones.
func (r *genRun) runParallel() {
	done := make(chan struct{})
	defer close(done)
	sem := make(chan struct{}, r.workers)
	chans := make([]chan []ip6.Addr, genSubstreams)
	batch := r.batchSize()
	for i := range chans {
		chans[i] = make(chan []ip6.Addr, 2)
		go r.produce(i, chans[i], sem, done, batch)
	}
	var cur [genSubstreams][]ip6.Addr
	var idx [genSubstreams]int
	r.merge(func(block []ip6.Addr, first int) {
		for i := range block {
			s := (first + i) % genSubstreams
			if idx[s] == len(cur[s]) {
				cur[s] = <-chans[s]
				idx[s] = 0
			}
			block[i] = cur[s][idx[s]]
			idx[s]++
		}
	})
}

// produce draws full batches for one substream until done closes. The
// semaphore bounds how many substreams compute simultaneously (the
// Workers option); while blocked on a full output buffer a producer
// holds no semaphore slot.
func (r *genRun) produce(stream int, out chan<- []ip6.Addr, sem chan struct{}, done <-chan struct{}, batch int) {
	rng := stats.Split(r.seed, int64(stream))
	buf := make([]int, r.bufLen)
	for {
		select {
		case sem <- struct{}{}:
		case <-done:
			return
		}
		b := make([]ip6.Addr, batch)
		for i := range b {
			b[i] = r.draw(rng, buf)
		}
		<-sem
		select {
		case out <- b:
		case <-done:
			return
		}
	}
}

// GenerateStream draws unique candidate IPv6 addresses from the model's
// joint distribution (§5.5 of the paper) and hands each one to yield as
// soon as it is produced, without accumulating them. Generation stops when
// Count candidates have been emitted, the attempt budget is exhausted, or
// yield returns false. Memory use is bounded by the deduplication set plus a
// constant number of in-flight draw batches, which makes it suitable for
// streaming very large candidate lists over a network connection. The set
// holds 16 bytes per table slot at a load of at most 3/4: 21–43 bytes per
// emitted candidate, 32 MiB for 1M.
//
// The candidate sequence is identical to Generate's for the same model,
// seed and options, and identical for every Workers value.
func (m *Model) GenerateStream(opts GenerateOptions, yield func(ip6.Addr) bool) error {
	if opts.Count <= 0 {
		return fmt.Errorf("core: GenerateStream needs a positive Count")
	}
	excluded := func(ip6.Addr) bool { return false }
	if opts.Exclude != nil {
		excluded = opts.Exclude.Contains
	}
	return m.generate(opts, m.Opts.Prefix64Only, excluded, yield)
}

// Generate produces unique candidate IPv6 addresses drawn from the model's
// joint distribution (§5.5 of the paper). Candidates present in
// opts.Exclude are skipped. The number returned may be smaller than
// requested when the model's support is too small (e.g. a network whose
// addresses are nearly enumerable).
func (m *Model) Generate(opts GenerateOptions) ([]ip6.Addr, error) {
	if opts.Count <= 0 {
		return nil, fmt.Errorf("core: Generate needs a positive Count")
	}
	out := make([]ip6.Addr, 0, opts.Count)
	err := m.GenerateStream(opts, func(a ip6.Addr) bool {
		out = append(out, a)
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// GeneratePrefixesStream draws unique candidate /64 prefixes (§5.6 of the
// paper) and hands each one to yield as soon as it is produced. It works
// for both full models and Prefix64Only models: full models have their
// generated addresses truncated to /64 before deduplication. Stops under
// the same conditions as GenerateStream and shares its engine: drawn
// addresses are masked to their /64 and deduplicated as addresses, which
// is equivalent to deduplicating the /64 prefixes themselves.
func (m *Model) GeneratePrefixesStream(opts GenerateOptions, yield func(ip6.Prefix) bool) error {
	if opts.Count <= 0 {
		return fmt.Errorf("core: GeneratePrefixesStream needs a positive Count")
	}
	excluded := func(ip6.Addr) bool { return false }
	if opts.Exclude != nil {
		// Draws arrive masked to their /64, so one set of the masked
		// excluded addresses answers every attempt with Contains.
		ex := ip6.NewSet(opts.Exclude.Len())
		for _, a := range opts.Exclude.Slice() {
			ex.Add(ip6.Mask(a, 64))
		}
		excluded = ex.Contains
	}
	return m.generate(opts, true, excluded, func(a ip6.Addr) bool {
		return yield(ip6.Prefix64(a))
	})
}

// GeneratePrefixes produces unique candidate /64 prefixes (§5.6 of the
// paper). It works for both full models and Prefix64Only models: full
// models have their generated addresses truncated to /64 before dedup.
func (m *Model) GeneratePrefixes(opts GenerateOptions) ([]ip6.Prefix, error) {
	if opts.Count <= 0 {
		return nil, fmt.Errorf("core: GeneratePrefixes needs a positive Count")
	}
	out := make([]ip6.Prefix, 0, opts.Count)
	err := m.GeneratePrefixesStream(opts, func(p ip6.Prefix) bool {
		out = append(out, p)
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// outOfSupportPenalty is the extra log-probability (nats) charged, on top
// of the segment's domain-wide uniform density, for a value outside every
// mined element. The clamped encoding alone would assign such values the
// nearest code's full probability, which makes a stale model look like a
// good fit for traffic it cannot generate; the floor makes staleness
// visible instead.
var outOfSupportPenalty = math.Log(1e-12)

// outOfSupportLogProb is the log-density charged for an out-of-support
// value of a segment covering `width` nybbles: the uniform density over
// the segment's whole 16^width domain minus a fixed penalty. Anchoring at
// the domain size (not a constant) keeps the ordering invariant that
// matters for shadow evaluation: an out-of-support value always scores
// strictly worse than a value inside ANY mined element, however wide —
// with a constant floor, a range wider than the constant would score
// below "cannot generate this at all" and invert the staleness signal.
func outOfSupportLogProb(width int) float64 {
	return -float64(4*width)*math.Ln2 + outOfSupportPenalty
}

// WindowEncoding is the shared per-window encoding summary behind drift
// scoring and address-level likelihood, produced in one pass over the
// addresses.
type WindowEncoding struct {
	// CodeCounts[i][k] is how many addresses took code k of segment i.
	CodeCounts [][]int
	// Clamped[i] is how many addresses had a value outside segment i's
	// mined elements.
	Clamped []int
	// BNLogLikelihood is the Bayesian-network log-likelihood (nats) of
	// the addresses' categorical vectors (out-of-support values clamped
	// to the nearest code, as the compiled encoder does): each address's
	// total rounded to 2^-32 nats and summed exactly, so it does not
	// depend on the order of the addresses (WindowState).
	BNLogLikelihood float64
	// WithinLogDensity is the within-value log-density (nats), rounded
	// and summed the same way: 0 per exact value, -log w per range of
	// width w, and the out-of-support floor per clamped value.
	WithinLogDensity float64
}

// EncodeWindow encodes a window of addresses once, collecting everything
// drift scoring and AddressLogLikelihood need: a fresh WindowState with
// each address added. Drift scoring calls this on the ingest request
// path, so an address costs one read of its two 64-bit halves, a table
// lookup per segment in the compiled encoder (mining.CompiledEncoder) and
// one in the model's log-CPTs (bayes.Scorer). The allocations are per
// window and per segment, none per address.
func (m *Model) EncodeWindow(addrs []ip6.Addr) *WindowEncoding {
	s := m.NewWindowState()
	for _, a := range addrs {
		s.Add(a)
	}
	return s.Encoding()
}

// LogLikelihood returns the BN-plus-within-density log-likelihood (nats)
// of the encoded window.
func (w *WindowEncoding) LogLikelihood() float64 {
	return w.BNLogLikelihood + w.WithinLogDensity
}

// AddressLogLikelihood returns the total log-likelihood (nats) of the
// addresses at address level: the BN likelihood of each address's segment
// codes, plus the within-value density of the concrete value inside each
// mined element (exact values contribute log 1 = 0, a range of width w
// contributes -log w — the uniform density Generate actually samples
// from), with out-of-support values charged the outOfSupportLogProb floor
// instead of being silently clamped.
//
// Unlike the BN likelihood of clamped codes alone (BNLogLikelihood), this
// is comparable across models with different mined value sets, which is
// what shadow evaluation and the ablation benchmarks need when judging
// models against each other.
func (m *Model) AddressLogLikelihood(addrs []ip6.Addr) float64 {
	return m.EncodeWindow(addrs).LogLikelihood()
}

// MeanAddressLogLikelihood is AddressLogLikelihood per address — the
// size-independent fit score drift detection reports and shadow
// evaluation compares across model versions. It returns 0 for an empty
// slice.
func (m *Model) MeanAddressLogLikelihood(addrs []ip6.Addr) float64 {
	if len(addrs) == 0 {
		return 0
	}
	return m.AddressLogLikelihood(addrs) / float64(len(addrs))
}

// Marginals returns the unconditional distribution of every segment under
// the Bayesian network, in segment order — the model's own belief about
// how often each mined value code occurs, against which live observation
// windows are compared for drift. The distributions are constant for a
// model, so the variable-elimination pass runs on the first call and its
// result is kept (drift evaluation calls this on the ingest request
// path); the result must be treated as read-only.
//
// Unlike the encoder and scorer, the marginals are not built with the
// model: the pass can cost up to bayes' factor bound, and on an uploaded
// model too wide for exact inference it fails with
// bayes.ErrFactorTooLarge, while the model must still load, generate and
// score.
func (m *Model) Marginals() ([][]float64, error) { return m.marginals() }
