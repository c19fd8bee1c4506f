package drift

import (
	"fmt"
	"sync"
)

// Defaults used when Config fields are zero.
const (
	DefaultEnter       = 0.15
	DefaultConsecutive = 2
	DefaultMinWindow   = 256
)

// Config configures a Detector. The thresholds implement hysteresis: a
// model enters the drifting state only after Consecutive evaluations at or
// above Enter, and leaves it only when the score falls to Exit or below —
// so a score oscillating around one threshold cannot flap the verdict (and
// with it, retraining) on and off.
type Config struct {
	// Enter is the score at or above which an evaluation counts toward
	// drift. Zero means DefaultEnter.
	Enter float64
	// Exit is the score at or below which a drifting model recovers.
	// Zero means Enter/2. Exit must not exceed Enter.
	Exit float64
	// Consecutive is how many successive evaluations must reach Enter
	// before the detector trips. Zero means DefaultConsecutive.
	Consecutive int
	// MinWindow is the smallest window the detector will judge; smaller
	// windows are ignored (their noise would defeat the thresholds).
	// Zero means DefaultMinWindow; negative means no minimum.
	MinWindow int
}

func (c Config) enter() float64 {
	if c.Enter <= 0 {
		return DefaultEnter
	}
	return c.Enter
}

func (c Config) exit() float64 {
	if c.Exit <= 0 {
		return c.enter() / 2
	}
	if c.Exit > c.enter() {
		return c.enter()
	}
	return c.Exit
}

func (c Config) consecutive() int {
	if c.Consecutive <= 0 {
		return DefaultConsecutive
	}
	return c.Consecutive
}

func (c Config) minWindow() int {
	if c.MinWindow == 0 {
		return DefaultMinWindow
	}
	if c.MinWindow < 0 {
		return 0
	}
	return c.MinWindow
}

// Verdict is the detector's judgement of one evaluation.
type Verdict struct {
	// Drifting is the detector's state after this evaluation.
	Drifting bool `json:"drifting"`
	// Entered is true exactly when this evaluation tripped the detector.
	Entered bool `json:"entered"`
	// Exited is true exactly when this evaluation cleared it.
	Exited bool `json:"exited"`
	// Skipped is true when the window was below MinWindow and the
	// evaluation changed nothing.
	Skipped bool `json:"skipped"`
	// Reason says what drove the verdict, for logs and status endpoints.
	Reason string `json:"reason,omitempty"`
	// Report is the score this verdict judged.
	Report Report `json:"report"`
}

// Detector folds a stream of drift reports into a drifting/healthy state
// with hysteresis. It is safe for concurrent use.
type Detector struct {
	cfg Config

	mu       sync.Mutex
	drifting bool
	hot      int // consecutive evaluations at or above Enter
	evals    int
}

// NewDetector returns a Detector with the given configuration.
func NewDetector(cfg Config) *Detector { return &Detector{cfg: cfg} }

// Observe judges one drift report.
func (d *Detector) Observe(rep Report) Verdict {
	d.mu.Lock()
	defer d.mu.Unlock()
	v := Verdict{Drifting: d.drifting, Report: rep}
	if rep.Window < d.cfg.minWindow() {
		v.Skipped = true
		v.Reason = fmt.Sprintf("window %d below minimum %d", rep.Window, d.cfg.minWindow())
		return v
	}
	d.evals++

	enter, exit := d.cfg.enter(), d.cfg.exit()
	switch {
	case rep.Score >= enter:
		d.hot++
		if !d.drifting && d.hot >= d.cfg.consecutive() {
			d.drifting = true
			v.Entered = true
		}
		v.Reason = fmt.Sprintf("score %.3f >= enter %.3f (%d/%d)", rep.Score, enter, d.hot, d.cfg.consecutive())
	case d.drifting && rep.Score <= exit:
		d.drifting = false
		d.hot = 0
		v.Exited = true
		v.Reason = fmt.Sprintf("score %.3f <= exit %.3f", rep.Score, exit)
	default:
		d.hot = 0
		if d.drifting {
			v.Reason = fmt.Sprintf("score %.3f between exit %.3f and enter %.3f: still drifting", rep.Score, exit, enter)
		} else {
			v.Reason = fmt.Sprintf("score %.3f below enter %.3f", rep.Score, enter)
		}
	}
	v.Drifting = d.drifting
	return v
}

// Reset clears the drifting state — called after a model rotation.
func (d *Detector) Reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.drifting = false
	d.hot = 0
}

// State reports the current drifting flag and how many windows have been
// evaluated.
func (d *Detector) State() (drifting bool, evals int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.drifting, d.evals
}
