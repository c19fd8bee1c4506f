// Package entropyip is the public facade of the Entropy/IP reproduction:
// a system that discovers the structure of IPv6 address sets by combining
// per-nybble entropy analysis, entropy-based segmentation, per-segment
// value mining and a Bayesian network over segment codes, and that uses the
// resulting model to explore addressing plans and to generate candidate
// targets for active scanning (Foremski, Plonka, Berger — "Entropy/IP:
// Uncovering Structure in IPv6 Addresses", IMC 2016).
//
// The facade re-exports the stable subset of the internal packages through
// type aliases, so that example programs and downstream users interact with
// a single import path:
//
//	addrs, _ := entropyip.ParseAddrs(lines)
//	model, _ := entropyip.Analyze(addrs, entropyip.Options{})
//	dists, _ := model.Browse(nil)
//	cands, _ := model.Generate(entropyip.GenerateOptions{Count: 100000})
//
// See the examples directory for complete programs and DESIGN.md for the
// mapping between packages and the paper's sections.
package entropyip

import (
	"fmt"
	"io"
	"net/http"

	"entropyip/internal/core"
	"entropyip/internal/dataset"
	"entropyip/internal/drift"
	"entropyip/internal/ingest"
	"entropyip/internal/ip6"
	"entropyip/internal/registry"
	"entropyip/internal/serve"
	"entropyip/internal/synth"
)

// Addr is a 128-bit IPv6 address.
type Addr = ip6.Addr

// Prefix is a CIDR prefix.
type Prefix = ip6.Prefix

// Set is a collection of unique addresses.
type Set = ip6.Set

// Model is a trained Entropy/IP model.
type Model = core.Model

// Options configures model building; the zero value reproduces the paper's
// configuration. Options.Workers bounds training parallelism (0 = all
// cores); the trained model is bit-identical for any worker count.
type Options = core.Options

// GenerateOptions controls candidate generation. Workers bounds the
// goroutines drawing candidates (0 = all cores); the emitted candidate
// sequence is byte-identical for any worker count.
type GenerateOptions = core.GenerateOptions

// Evidence conditions the model on segment values by code, e.g.
// Evidence{"J": "J1"}.
type Evidence = core.Evidence

// SegmentDistribution is one row of the conditional probability browser.
type SegmentDistribution = core.SegmentDistribution

// Dataset is a named collection of unique addresses.
type Dataset = dataset.Dataset

// ParseAddr parses an IPv6 address in any RFC 4291 textual form or the
// fixed-width 32-hex-character form.
func ParseAddr(s string) (Addr, error) { return ip6.ParseAddr(s) }

// ParseAddrBytes is ParseAddr over a byte slice, for line-oriented
// readers that should not convert each line to a string; it does not
// allocate and does not retain b. Addr's append-style formatters
// (AppendString, AppendHex, AppendExpanded) are the matching output
// primitives.
func ParseAddrBytes(b []byte) (Addr, error) { return ip6.ParseAddrBytes(b) }

// ParseDatasetLine parses one line of an address file (whitespace,
// '#' comments and /len prefix notation handled) from a byte slice
// without allocating; ok is false for blank and comment lines.
func ParseDatasetLine(line []byte) (a Addr, ok bool, err error) {
	return dataset.ParseLineBytes(line)
}

// MustParseAddr is like ParseAddr but panics on error.
func MustParseAddr(s string) Addr { return ip6.MustParseAddr(s) }

// ParsePrefix parses a prefix in "addr/len" notation.
func ParsePrefix(s string) (Prefix, error) { return ip6.ParsePrefix(s) }

// ParseAddrs parses a list of address strings, failing on the first
// malformed entry.
func ParseAddrs(lines []string) ([]Addr, error) {
	out := make([]Addr, 0, len(lines))
	for i, l := range lines {
		a, err := ip6.ParseAddr(l)
		if err != nil {
			return nil, fmt.Errorf("entropyip: address %d: %w", i, err)
		}
		out = append(out, a)
	}
	return out, nil
}

// Analyze trains an Entropy/IP model on the given addresses.
func Analyze(addrs []Addr, opts Options) (*Model, error) { return core.Build(addrs, opts) }

// LoadModel reads a model previously written with Model.Save.
func LoadModel(r io.Reader) (*Model, error) { return core.Load(r) }

// ReadDataset parses addresses from r, one per line ('#' comments allowed).
func ReadDataset(name string, r io.Reader) (*Dataset, error) { return dataset.Read(name, r) }

// LoadDataset reads a dataset file from disk.
func LoadDataset(path string) (*Dataset, error) { return dataset.LoadFile(path) }

// SyntheticDatasets lists the names of the built-in synthetic dataset
// archetypes that stand in for the paper's real-world datasets
// (S1-S5, R1-R5, C1-C5, AS, AR, AC, AT).
func SyntheticDatasets() []string { return synth.Names() }

// Synthesize generates n unique addresses from the named built-in
// archetype; n <= 0 selects the archetype's default size.
func Synthesize(name string, n int, seed int64) ([]Addr, error) {
	return synth.Generate(name, n, seed)
}

// NewSet returns an empty address set with the given capacity hint.
func NewSet(capacity int) *Set { return ip6.NewSet(capacity) }

// Prefix64 returns the /64 prefix ("subnet") containing the address, the
// unit used when counting newly discovered networks.
func Prefix64(a Addr) Prefix { return ip6.Prefix64(a) }

// Prefix32 re-exports below this line belong to the serving subsystem: the
// versioned model registry and the HTTP API of the eipserved daemon.

// Registry is a named, versioned store of trained models: an in-memory LRU
// of decoded models over a disk directory of Model.Save files. Safe for
// concurrent use.
type Registry = registry.Registry

// ModelInfo describes one stored model version.
type ModelInfo = registry.Info

// RegistryStats is a snapshot of registry cache behaviour.
type RegistryStats = registry.Stats

// ServeOptions configures the HTTP serving layer.
type ServeOptions = serve.Options

// PutModelRequest is the body of PUT /v1/models/{name}: either a
// serialized model upload or an address set to train on.
type PutModelRequest = serve.PutModelRequest

// PutModelResponse acknowledges a stored model version.
type PutModelResponse = serve.PutModelResponse

// ListModelsResponse is the body of GET /v1/models.
type ListModelsResponse = serve.ListModelsResponse

// BrowseRequest is one conditional-probability query against a served
// model — a click state of the paper's browser.
type BrowseRequest = serve.BrowseRequest

// BrowseResponse carries the posterior distribution of every segment.
type BrowseResponse = serve.BrowseResponse

// GenerateRequest asks a served model for candidate addresses or /64
// prefixes, streamed back as NDJSON. Omitting Seed (nil) makes the
// server derive a random one and echo it in the X-Seed response header.
// The server generates on all cores; the worker count is set only
// through Options.Workers and GenerateOptions.Workers, and a request's
// "workers" field is accepted and ignored.
type GenerateRequest = serve.GenerateRequest

// GenerateItem is one line of the NDJSON candidate stream.
type GenerateItem = serve.GenerateItem

// HealthResponse is the body of GET /healthz.
type HealthResponse = serve.HealthResponse

// OpenRegistry opens (creating if needed) a model registry rooted at dir,
// keeping up to cacheSize decoded models in memory (<= 0 selects the
// default).
func OpenRegistry(dir string, cacheSize int) (*Registry, error) {
	return registry.Open(dir, cacheSize)
}

// NewServeHandler returns the HTTP handler of the model-serving API over
// the given registry — the handler cmd/eipserved mounts, usable directly
// with net/http or httptest.
func NewServeHandler(reg *Registry, opts ServeOptions) http.Handler {
	return serve.New(reg, opts)
}

// Prefix32 returns the /32 prefix containing the address, the smallest
// block registries allocate to operators.
func Prefix32(a Addr) Prefix { return ip6.Prefix32(a) }

// Re-exports below this line belong to the online ingest + drift
// subsystem: streaming observation buffers, divergence scoring between a
// live address window and a served model, and the automatic refresh loop.

// IngestConfig configures a streaming observation buffer: the size of
// its sliding window and an optional per-/64 cap.
type IngestConfig = ingest.Config

// IngestBuffer is a bounded, concurrent buffer of observed addresses.
type IngestBuffer = ingest.Buffer

// IngestStats is a snapshot of an observation buffer's counters.
type IngestStats = ingest.Stats

// DriftConfig sets drift thresholds and hysteresis for a Detector.
type DriftConfig = drift.Config

// DriftReport is the divergence score of one observation window against
// one model (per-segment Jensen–Shannon/KL plus mean log-likelihood).
type DriftReport = drift.Report

// DriftDetector folds a stream of drift reports into a drifting/healthy
// state with hysteresis.
type DriftDetector = drift.Detector

// DriftVerdict is a detector's judgement of one evaluation.
type DriftVerdict = drift.Verdict

// RefreshOptions configures the serving daemon's observe → score →
// retrain → shadow-evaluate → rotate loop (ServeOptions.Refresh).
type RefreshOptions = serve.RefreshOptions

// DriftStatus is the observable refresh-loop state of one served model
// (the body of GET /v1/models/{name}/drift).
type DriftStatus = serve.DriftStatus

// ObserveResponse is the body of POST /v1/models/{name}/observe.
type ObserveResponse = serve.ObserveResponse

// NewIngestBuffer returns a bounded concurrent observation buffer.
func NewIngestBuffer(cfg IngestConfig) *IngestBuffer { return ingest.New(cfg) }

// DriftScore computes the drift report of a window of observed addresses
// against a model; it is deterministic for a fixed window.
func DriftScore(m *Model, window []Addr) (DriftReport, error) {
	return drift.Score(m, window)
}

// NewDriftDetector returns a detector with the given thresholds.
func NewDriftDetector(cfg DriftConfig) *DriftDetector { return drift.NewDetector(cfg) }
