// Package admission implements per-tenant admission control for the
// serving plane: token-bucket limits on request rate and generation
// budget (candidates per second, so one huge generate request spends
// budget like a thousand small ones), bounded per-tenant concurrency
// slots with deadline-aware queueing and load shedding, and TTL
// eviction of idle tenants.
//
// The package is stdlib-only, like internal/obs, and is importable only
// from the serving plane (enforced by the layers analyzer — see
// docs/layers.json "admission-only-at-serving-plane"). It knows nothing
// about HTTP: the serving plane maps Decision values onto 429 responses
// with Retry-After, and scrapes Stats into eip_admission_* metrics.
//
// Shed ladder (DESIGN.md "Admission control"): a request is refused at
// the first gate it fails —
//
//  1. request rate   — the tenant's request token bucket is empty
//  2. generation budget — the tenant is still repaying candidate debt
//  3. queue full     — the tenant's slot-wait queue is at QueueDepth
//  4. deadline       — no slot freed up within MaxWait
//
// Every refusal carries a RetryAfter hint. Nothing in this package
// blocks unboundedly: slot waits are bounded by MaxWait (AcquireSlot)
// or by the request context (WaitSlot, used by stream producers that
// are already admitted and mid-response).
package admission

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Defaults used when Config fields are zero, and the fixed bounds of
// the tenant map.
const (
	// DefaultQueueDepth is how many slot waiters one tenant may have
	// queued beyond its running slots before further requests shed.
	DefaultQueueDepth = 32
	// DefaultMaxWait bounds how long an admission-gated request waits
	// for a tenant slot before shedding.
	DefaultMaxWait = 2 * time.Second
	// idleTTL is how long an idle tenant's state (bucket balances, slot
	// pool) survives before eviction, and how often a new tenant's
	// arrival sweeps the map.
	idleTTL = 5 * time.Minute
	// maxTenants softly caps the tenant map: reaching it triggers an
	// immediate eviction sweep, but a sweep that frees nothing (every
	// tenant active) still admits the new tenant — correctness over a
	// hard cap.
	maxTenants = 16384
)

// Config configures a Controller. The zero value disables every gate
// (New returns nil, and all Controller methods are nil-receiver-safe).
type Config struct {
	// RequestRate is the per-tenant steady-state request rate
	// (requests/second) admitted to rate-limited routes. Zero or
	// negative disables request-rate limiting. The bucket holds
	// max(1, 2*RequestRate) requests: the burst a tenant may issue back
	// to back after idling.
	RequestRate float64
	// GenBudget is the per-tenant generation budget in candidates per
	// second. The budget bucket lends: a request is admitted whenever
	// the tenant is not in debt, and its full candidate count is then
	// charged — possibly driving the balance negative — so one
	// count=10M request costs the same budget as a thousand count=10k
	// ones, paid off over the seconds that follow. Zero or negative
	// disables budget accounting. The bucket holds max(1, GenBudget)
	// candidates: one second of budget.
	GenBudget float64
	// TenantSlots is how many generation streams one tenant may run
	// concurrently. Zero or negative disables slot gating.
	TenantSlots int
	// QueueDepth bounds how many slot waiters one tenant may queue
	// beyond its running slots; requests beyond it shed immediately.
	// Zero means DefaultQueueDepth.
	QueueDepth int
	// MaxWait bounds how long an admission-gated request waits for a
	// slot before shedding. Zero means DefaultMaxWait.
	MaxWait time.Duration
	// Now overrides the clock for tests. Nil means time.Now.
	Now func() time.Time
}

// Enabled reports whether the configuration turns on any gate.
func (c Config) Enabled() bool {
	return c.RequestRate > 0 || c.GenBudget > 0 || c.TenantSlots > 0
}

func (c Config) queueDepth() int {
	if c.QueueDepth <= 0 {
		return DefaultQueueDepth
	}
	return c.QueueDepth
}

func (c Config) maxWait() time.Duration {
	if c.MaxWait <= 0 {
		return DefaultMaxWait
	}
	return c.MaxWait
}

func (c Config) requestBurst() float64 { return max(1, 2*c.RequestRate) }

func (c Config) genBurst() float64 { return max(1, c.GenBudget) }

// Shed reasons carried by refusing Decisions. The strings are stable:
// they label the eip_admission_shed_total metric and appear in error
// envelope messages.
const (
	ReasonRate      = "rate"       // request token bucket empty
	ReasonBudget    = "budget"     // generation budget in debt
	ReasonQueueFull = "queue_full" // tenant slot-wait queue at capacity
	ReasonDeadline  = "deadline"   // no slot freed within MaxWait
)

// Decision is the outcome of one admission gate.
type Decision struct {
	// OK is true when the request may proceed.
	OK bool
	// Reason is the shed reason (Reason* constants) when OK is false.
	Reason string
	// RetryAfter is the earliest time the same request could plausibly
	// succeed, for the Retry-After response header. Zero when OK.
	RetryAfter time.Duration
}

// admitted is the Decision every gate returns on a nil Controller.
var admitted = Decision{OK: true}

// bucket is a token bucket over a monotonic-enough clock. rate<=0 means
// the bucket is disabled and always admits. Guarded by the owning
// tenant's mutex.
type bucket struct {
	rate   float64 // tokens per second
	burst  float64 // capacity
	tokens float64 // current balance; negative = debt (lending buckets)
	last   time.Time
}

// refill advances the bucket to now.
func (b *bucket) refill(now time.Time) {
	if elapsed := now.Sub(b.last).Seconds(); elapsed > 0 {
		b.tokens += elapsed * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
}

// take admits when n whole tokens are available and spends them.
func (b *bucket) take(now time.Time, n float64) (bool, time.Duration) {
	if b.rate <= 0 {
		return true, 0
	}
	b.refill(now)
	if b.tokens >= n {
		b.tokens -= n
		return true, 0
	}
	return false, durationFor(n-b.tokens, b.rate)
}

// lend admits whenever the bucket is not in debt and charges the full
// n, letting the balance go negative: large charges are paid off by
// future refills instead of being unadmittable outright.
func (b *bucket) lend(now time.Time, n float64) (bool, time.Duration) {
	if b.rate <= 0 {
		return true, 0
	}
	b.refill(now)
	if b.tokens < 0 {
		return false, durationFor(-b.tokens, b.rate)
	}
	b.tokens -= n
	return true, 0
}

// durationFor converts a token deficit at a refill rate into a wait.
func durationFor(tokens, rate float64) time.Duration {
	d := time.Duration(tokens / rate * float64(time.Second))
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// tenant is one tenant's limiter state. Buckets are mutex-guarded; the
// slot pool is a channel semaphore with an atomically counted bounded
// wait queue.
type tenant struct {
	mu  sync.Mutex
	req bucket
	gen bucket

	// lastSeen is the UnixNano of the tenant's latest gate check; the
	// eviction sweep compares it against the idle cutoff.
	lastSeen atomic.Int64

	// slots holds one token per running stream (nil when slot gating is
	// disabled); waiters counts goroutines queued for a slot, bounded
	// by QueueDepth for AcquireSlot callers.
	slots   chan struct{}
	waiters atomic.Int32
}

// busy reports whether the tenant holds slots or has waiters — such a
// tenant is never evicted, so a release never races a teardown.
func (t *tenant) busy() bool {
	return (t.slots != nil && len(t.slots) > 0) || t.waiters.Load() > 0
}

// Controller is the admission-control state over all tenants. A nil
// Controller admits everything (every method is nil-receiver-safe), so
// callers hold one field and never branch on "is admission on".
type Controller struct {
	cfg Config
	now func() time.Time

	mu        sync.RWMutex
	tenants   map[string]*tenant
	lastSweep time.Time

	// Monotonic counters for Stats (scraped into eip_admission_*).
	admitted     atomic.Uint64
	shedRate     atomic.Uint64
	shedBudget   atomic.Uint64
	shedQueue    atomic.Uint64
	shedDeadline atomic.Uint64
	genCharged   atomic.Uint64
	genRefunded  atomic.Uint64
	evictions    atomic.Uint64
	queueDepth   atomic.Int64 // current slot waiters across tenants
}

// New returns a Controller for the config, or nil when the config
// enables no gate — the nil Controller admits everything at zero cost.
func New(cfg Config) *Controller {
	if !cfg.Enabled() {
		return nil
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	return &Controller{
		cfg:       cfg,
		now:       now,
		tenants:   make(map[string]*tenant),
		lastSweep: now(),
	}
}

// tenant returns the key's state, creating (and possibly sweeping) on
// first sight. The read path is one RLock'd map hit.
func (c *Controller) tenant(key string) *tenant {
	now := c.now()
	c.mu.RLock()
	t := c.tenants[key]
	c.mu.RUnlock()
	if t == nil {
		c.mu.Lock()
		if t = c.tenants[key]; t == nil {
			c.maybeSweepLocked(now)
			t = &tenant{
				req: bucket{rate: c.cfg.RequestRate, burst: c.cfg.requestBurst(), tokens: c.cfg.requestBurst(), last: now},
				gen: bucket{rate: c.cfg.GenBudget, burst: c.cfg.genBurst(), tokens: c.cfg.genBurst(), last: now},
			}
			if c.cfg.TenantSlots > 0 {
				t.slots = make(chan struct{}, c.cfg.TenantSlots)
			}
			c.tenants[key] = t
		}
		c.mu.Unlock()
	}
	t.lastSeen.Store(now.UnixNano())
	return t
}

// maybeSweepLocked evicts idle tenants when the map hit maxTenants or
// idleTTL has passed since the last sweep. Tenants holding slots or
// with queued waiters survive regardless of age. Eviction order does
// not matter (every victim is equally expired), so the map-range
// nondeterminism is fine.
func (c *Controller) maybeSweepLocked(now time.Time) {
	if len(c.tenants) < maxTenants && now.Sub(c.lastSweep) < idleTTL {
		return
	}
	c.lastSweep = now
	cutoff := now.Add(-idleTTL).UnixNano()
	for k, t := range c.tenants {
		if t.lastSeen.Load() < cutoff && !t.busy() {
			delete(c.tenants, k)
			c.evictions.Add(1)
		}
	}
}

// AllowRequest runs the request-rate gate for one inbound request.
func (c *Controller) AllowRequest(key string) Decision {
	if c == nil {
		return admitted
	}
	t := c.tenant(key)
	if c.cfg.RequestRate > 0 {
		t.mu.Lock()
		ok, wait := t.req.take(c.now(), 1)
		t.mu.Unlock()
		if !ok {
			c.shedRate.Add(1)
			return Decision{Reason: ReasonRate, RetryAfter: wait}
		}
	}
	c.admitted.Add(1)
	return admitted
}

// ChargeGenerate runs the generation-budget gate: admitted requests are
// charged their full candidate count (lending semantics — see
// Config.GenBudget), refused ones are told when the debt clears.
func (c *Controller) ChargeGenerate(key string, candidates int) Decision {
	if c == nil || c.cfg.GenBudget <= 0 || candidates <= 0 {
		return admitted
	}
	t := c.tenant(key)
	t.mu.Lock()
	ok, wait := t.gen.lend(c.now(), float64(candidates))
	t.mu.Unlock()
	if !ok {
		c.shedBudget.Add(1)
		return Decision{Reason: ReasonBudget, RetryAfter: wait}
	}
	c.genCharged.Add(uint64(candidates))
	return admitted
}

// RefundGenerate returns candidates to the tenant's budget when an
// already-charged request sheds at a later gate (queue full, deadline)
// without generating anything. The balance is clamped at burst, so a
// refund can repay debt but never mint extra credit.
func (c *Controller) RefundGenerate(key string, candidates int) {
	if c == nil || c.cfg.GenBudget <= 0 || candidates <= 0 {
		return
	}
	t := c.tenant(key)
	t.mu.Lock()
	t.gen.refill(c.now())
	t.gen.tokens += float64(candidates)
	if t.gen.tokens > t.gen.burst {
		t.gen.tokens = t.gen.burst
	}
	t.mu.Unlock()
	c.genRefunded.Add(uint64(candidates))
}

// noRelease is the release function of gates that held nothing.
func noRelease() {}

// AcquireSlot claims one of the tenant's concurrency slots, queueing up
// to MaxWait behind the tenant's own running work. It sheds immediately
// when the tenant's wait queue is at QueueDepth, and at the deadline
// when no slot frees up — so a saturating tenant accumulates 429s, not
// goroutines. The returned release must be called exactly once (it is
// never nil, even on refusal).
func (c *Controller) AcquireSlot(ctx context.Context, key string) (func(), Decision) {
	if c == nil || c.cfg.TenantSlots <= 0 {
		return noRelease, admitted
	}
	t := c.tenant(key)
	release := func() { <-t.slots }
	select {
	case t.slots <- struct{}{}:
		return release, admitted
	default:
	}
	maxWait := c.cfg.maxWait()
	if int(t.waiters.Add(1)) > c.cfg.queueDepth() {
		t.waiters.Add(-1)
		c.shedQueue.Add(1)
		return noRelease, Decision{Reason: ReasonQueueFull, RetryAfter: maxWait}
	}
	c.queueDepth.Add(1)
	defer func() {
		t.waiters.Add(-1)
		c.queueDepth.Add(-1)
	}()
	timer := time.NewTimer(maxWait)
	defer timer.Stop()
	select {
	case t.slots <- struct{}{}:
		return release, admitted
	case <-timer.C:
		c.shedDeadline.Add(1)
		return noRelease, Decision{Reason: ReasonDeadline, RetryAfter: maxWait}
	case <-ctx.Done():
		// The client is gone; nothing will read a 429. Report deadline
		// so the caller's error path still accounts the shed.
		c.shedDeadline.Add(1)
		return noRelease, Decision{Reason: ReasonDeadline, RetryAfter: maxWait}
	}
}

// WaitSlot claims a tenant slot for a stream producer that is already
// admitted and mid-response: it waits as long as the request context
// lives (the response is streaming, so there is no 429 to send) and
// returns false only when the context dies first. Waiters count toward
// the tenant's queue depth, so an admitted batch saturating its own
// slots pushes the tenant's NEXT requests into queue-full sheds instead
// of piling up more work.
func (c *Controller) WaitSlot(ctx context.Context, key string) (func(), bool) {
	if c == nil || c.cfg.TenantSlots <= 0 {
		return noRelease, true
	}
	t := c.tenant(key)
	release := func() { <-t.slots }
	select {
	case t.slots <- struct{}{}:
		return release, true
	default:
	}
	t.waiters.Add(1)
	c.queueDepth.Add(1)
	defer func() {
		t.waiters.Add(-1)
		c.queueDepth.Add(-1)
	}()
	select {
	case t.slots <- struct{}{}:
		return release, true
	case <-ctx.Done():
		return noRelease, false
	}
}

// Stats is a point-in-time snapshot of the controller's counters, for
// the eip_admission_* collectors on /metrics.
type Stats struct {
	// Tenants is the number of tenants currently tracked.
	Tenants int
	// QueueDepth is the number of goroutines currently waiting for a
	// tenant slot, across all tenants.
	QueueDepth int
	// SlotsInUse is the number of running streams holding tenant slots.
	SlotsInUse int
	// Admitted counts requests that passed the rate gate.
	Admitted uint64
	// ShedRate/ShedBudget/ShedQueueFull/ShedDeadline count refusals by
	// shed reason.
	ShedRate      uint64
	ShedBudget    uint64
	ShedQueueFull uint64
	ShedDeadline  uint64
	// GenCharged is the cumulative candidate count charged to budgets;
	// GenRefunded is the part returned by later-gate sheds.
	GenCharged  uint64
	GenRefunded uint64
	// Evicted counts idle tenants removed by TTL sweeps.
	Evicted uint64
}

// Stats snapshots the controller. Counters are read independently, so
// a snapshot under load may be one step out of sync with itself — fine
// for a scrape. Nil-receiver-safe (returns zeros).
func (c *Controller) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	st := Stats{
		Admitted:      c.admitted.Load(),
		ShedRate:      c.shedRate.Load(),
		ShedBudget:    c.shedBudget.Load(),
		ShedQueueFull: c.shedQueue.Load(),
		ShedDeadline:  c.shedDeadline.Load(),
		GenCharged:    c.genCharged.Load(),
		GenRefunded:   c.genRefunded.Load(),
		Evicted:       c.evictions.Load(),
		QueueDepth:    int(c.queueDepth.Load()),
	}
	c.mu.RLock()
	st.Tenants = len(c.tenants)
	for _, t := range c.tenants {
		if t.slots != nil {
			st.SlotsInUse += len(t.slots)
		}
	}
	c.mu.RUnlock()
	return st
}
