// Package drift scores how far a live window of observed IPv6 addresses
// has diverged from the distribution a trained Entropy/IP model encodes,
// and turns the scores into rotate/keep verdicts with hysteresis.
//
// The paper models a snapshot of an operator's addressing plan and itself
// observes that operators run several plan variants that change over time
// (§5.2): a served model goes stale. Scoring compares three views of the
// same window, all deterministic for a fixed window:
//
//   - per-segment Jensen–Shannon (and smoothed KL) divergence between the
//     window's mined-value-code distribution and the model's own BN
//     marginals — the distribution candidate generation actually samples;
//   - per-segment Jensen–Shannon divergence between the window's
//     per-nybble value histograms (entropy.Profile counts) and the
//     training set's, aggregated over each segment's nybble range — a
//     model-structure-free view that catches shifts the mined codes
//     absorb (e.g. a range value whose interior distribution moved);
//   - the mean per-address Bayesian-network log-likelihood of the window
//     under the model, the fit score shadow evaluation compares across
//     model versions.
//
// The top-level Score is the maximum per-segment divergence: one shifted
// segment (a new subnet block, a changed IID style) is a stale model even
// when the other segments still fit.
package drift

import (
	"fmt"

	"entropyip/internal/core"
	"entropyip/internal/entropy"
	"entropyip/internal/ip6"
)

// SegmentScore is the divergence of one model segment.
type SegmentScore struct {
	// Label is the segment letter (A, B, ...).
	Label string `json:"label"`
	// Start and Width give the segment's nybble range.
	Start int `json:"start"`
	Width int `json:"width"`
	// CodeJS is the Jensen–Shannon divergence (bits, in [0,1]) between
	// the window's value-code distribution and the model's BN marginal.
	CodeJS float64 `json:"code_js"`
	// CodeKL is the smoothed KL divergence D(window ‖ model) in bits.
	CodeKL float64 `json:"code_kl"`
	// NybbleJS is the mean Jensen–Shannon divergence over the segment's
	// nybble-value histograms (window vs training set), or 0 when the
	// model predates persisted training histograms (HasNybble false).
	NybbleJS float64 `json:"nybble_js"`
	// HasNybble reports whether NybbleJS could be computed.
	HasNybble bool `json:"has_nybble"`
	// Clamped is the fraction of window addresses whose value in this
	// segment fell outside every mined value and had to be clamped to the
	// nearest one — direct evidence of novel values.
	Clamped float64 `json:"clamped"`
}

// Max returns the segment's strongest divergence signal.
func (s SegmentScore) Max() float64 {
	m := s.CodeJS
	if s.HasNybble && s.NybbleJS > m {
		m = s.NybbleJS
	}
	return m
}

// Report is the drift score of one window against one model. It is a pure
// function of (model, window): scoring the same window twice yields an
// identical report.
type Report struct {
	// Window is the number of addresses scored.
	Window int `json:"window"`
	// Segments holds one score per model segment, in address order.
	Segments []SegmentScore `json:"segments"`
	// Score is the maximum per-segment divergence — the number the
	// detector thresholds. In [0, 1].
	Score float64 `json:"score"`
	// MeanCodeJS is the mean per-segment code divergence, a smoother
	// companion to the max.
	MeanCodeJS float64 `json:"mean_code_js"`
	// MeanLogLikelihood is the per-address log-likelihood (nats) of the
	// window under the model, at address level: BN likelihood of the
	// segment codes plus within-value density, with a floor penalty for
	// values outside the mined support (core.AddressLogLikelihood) — so a
	// model that cannot generate the window's values scores visibly
	// worse, not silently the same via clamping.
	MeanLogLikelihood float64 `json:"mean_log_likelihood"`
}

// Score computes the drift report of a window of observed addresses
// against a model. An empty window yields a zero report. For Prefix64Only
// models the window is masked to /64 network identifiers and deduplicated
// first by core.Options.Transform, the transform core.Build applies to its
// training set, so the observed distribution is per-prefix like the
// model's marginals, not weighted by each prefix's traffic volume
// (Report.Window then counts unique prefixes).
//
// Score is the one-shot path: it encodes the whole window. Window keeps
// the same report up to date for a live ingest buffer, and Score is the
// oracle it must match bit for bit.
func Score(m *core.Model, window []ip6.Addr) (Report, error) {
	window = m.Opts.Transform(window)
	if len(window) == 0 {
		return Report{}, nil
	}
	// One pass over the window collects the code histograms, the clamp
	// counts AND the address-level likelihood terms, so the window is
	// encoded exactly once.
	enc := m.EncodeWindow(window)
	var nyb nybbleCounts
	if hasNybble(m) {
		for _, a := range window {
			nyb.add(a, 1)
		}
	}
	return report(m, len(window), enc, &nyb)
}

// nybbleCounts is the window's per-nybble value histogram, the counts
// entropy.NewProfile would collect.
type nybbleCounts [ip6.NybbleCount][16]int

// add counts address a d times (d is -1 to uncount it).
func (c *nybbleCounts) add(a ip6.Addr, d int) {
	for i, b := range a {
		c[2*i][b>>4] += d
		c[2*i+1][b&0x0f] += d
	}
}

// hasNybble reports whether the model carries the training set's
// per-nybble histograms (models saved before entropy_counts load
// without).
func hasNybble(m *core.Model) bool {
	return m.Profile != nil && m.Profile.N > 0 && profileHasCounts(m.Profile)
}

// report builds the drift report of an n-address window from its encoding
// summary and, when the model carries training histograms, its per-nybble
// counts. Score and Window share it, so a report depends only on these
// inputs, however they were collected.
func report(m *core.Model, n int, enc *core.WindowEncoding, nyb *nybbleCounts) (Report, error) {
	rep := Report{Window: n}
	if n == 0 {
		return rep, nil
	}
	marginals, err := m.Marginals()
	if err != nil {
		return rep, fmt.Errorf("drift: model marginals: %w", err)
	}
	withNybble := hasNybble(m)
	sumJS := 0.0
	rep.Segments = make([]SegmentScore, len(m.Segments))
	for i, sm := range m.Segments {
		obs := entropy.Distribution(enc.CodeCounts[i])
		ss := SegmentScore{
			Label:  sm.Seg.Label,
			Start:  sm.Seg.Start,
			Width:  sm.Seg.Width,
			CodeJS: entropy.JensenShannon(obs, marginals[i]),
			CodeKL: entropy.KLDivergence(obs, marginals[i], 0),
		}
		ss.Clamped = float64(enc.Clamped[i]) / float64(n)
		if withNybble {
			ss.HasNybble = true
			js := 0.0
			for j := sm.Seg.Start; j < sm.Seg.Start+sm.Seg.Width && j < ip6.NybbleCount; j++ {
				js += entropy.JensenShannon(
					entropy.Distribution(nyb[j][:]),
					entropy.Distribution(m.Profile.Counts[j][:]),
				)
			}
			ss.NybbleJS = js / float64(sm.Seg.Width)
		}
		rep.Segments[i] = ss
		sumJS += ss.CodeJS
		if s := ss.Max(); s > rep.Score {
			rep.Score = s
		}
	}
	if len(rep.Segments) > 0 {
		rep.MeanCodeJS = sumJS / float64(len(rep.Segments))
	}
	rep.MeanLogLikelihood = enc.LogLikelihood() / float64(n)
	return rep, nil
}

// MeanLogLikelihood returns the mean address-level log-likelihood of the
// window under the model after the same Prefix64Only masking/dedup Score
// applies — the number Report.MeanLogLikelihood holds. Shadow evaluation
// and detector baselines must use this (not core.MeanAddressLogLikelihood
// directly) so rotation-time baselines are on the same scale as every
// later evaluation.
func MeanLogLikelihood(m *core.Model, window []ip6.Addr) float64 {
	return m.MeanAddressLogLikelihood(m.Opts.Transform(window))
}

// profileHasCounts reports whether the profile carries per-nybble value
// histograms (false for models loaded from files that predate them).
func profileHasCounts(p *entropy.Profile) bool {
	for i := range p.Counts {
		for _, c := range p.Counts[i] {
			if c > 0 {
				return true
			}
		}
	}
	return false
}

// String renders the report compactly for logs.
func (r Report) String() string {
	worst := ""
	best := 0.0
	for _, s := range r.Segments {
		if m := s.Max(); m >= best {
			best, worst = m, s.Label
		}
	}
	return fmt.Sprintf("drift score=%.3f (worst segment %s) meanJS=%.3f meanLL=%.2f window=%d",
		r.Score, worst, r.MeanCodeJS, r.MeanLogLikelihood, r.Window)
}
