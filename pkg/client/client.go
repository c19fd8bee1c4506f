// Package client is the Go client of the Entropy/IP serving API. It
// speaks both response encodings of POST /v1/models/{name}/generate —
// NDJSON and the framed binary format of internal/wire — demultiplexes
// batch (multi-stream) responses, pushes observations back over the
// binary encoding, and turns v1 error envelopes into typed *APIError
// values.
//
// The two generate encodings yield the identical event sequence for the
// same request, so callers pick purely on transport cost: binary moves a
// candidate in 16 bytes instead of ~40 bytes of JSON and skips text
// formatting on both ends.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"entropyip/internal/ip6"
	"entropyip/internal/obs/trace"
	"entropyip/internal/wire"
)

// Client talks to one Entropy/IP server. The zero value is not usable;
// call New.
type Client struct {
	base string
	hc   *http.Client
	// retry/retryOn hold the WithRetry policy; off by default, so a 429
	// surfaces immediately unless the caller opted in.
	retry   RetryPolicy
	retryOn bool
}

// New returns a Client for the server at baseURL (e.g.
// "http://localhost:8080"). A nil httpClient uses http.DefaultClient.
// Options (e.g. WithRetry) refine behavior.
func New(baseURL string, httpClient *http.Client, opts ...Option) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	c := &Client{base: strings.TrimRight(baseURL, "/"), hc: httpClient}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// WithTrace returns ctx carrying a fresh client-minted trace context and
// the trace ID it will propagate. Every request the Client makes with the
// returned context sends the same trace ID in its traceparent header, so
// a multi-request round (generate, scan, feed results back) appears as
// one connected trace in the server's flight recorder — retrievable via
// GET /v1/debug/traces?trace_id=<returned ID>. The minted context is
// sampled, which the server honors as a forced keep.
func WithTrace(ctx context.Context) (context.Context, string) {
	sc := trace.NewSpanContext()
	return trace.ContextWithRemote(ctx, sc), sc.TraceID.String()
}

// traceparent injects the outbound W3C traceparent header when ctx
// carries a trace (from WithTrace, or a server-side span upstream).
func traceparent(ctx context.Context, req *http.Request) {
	if sc := trace.Outbound(ctx); sc.IsValid() {
		req.Header.Set("Traceparent", trace.Traceparent(sc))
	}
}

// APIError is a non-2xx answer decoded from the v1 error envelope.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Code is the stable machine-matchable error class ("invalid_request",
	// "not_found", ...).
	Code string
	// Message is the human-readable description.
	Message string
	// RequestID names the server-side log records of this request.
	RequestID string
	// TraceID keys the server's flight recorder (/v1/debug/traces) and
	// trace_id log attribute.
	TraceID string
}

func (e *APIError) Error() string {
	if e.RequestID != "" {
		return fmt.Sprintf("server: %s (%s, status %d, request %s)", e.Message, e.Code, e.Status, e.RequestID)
	}
	return fmt.Sprintf("server: %s (%s, status %d)", e.Message, e.Code, e.Status)
}

// decodeAPIError turns a non-2xx response into an *APIError.
func decodeAPIError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var envelope struct {
		Error struct {
			Code      string `json:"code"`
			Message   string `json:"message"`
			RequestID string `json:"request_id"`
			TraceID   string `json:"trace_id"`
		} `json:"error"`
	}
	e := &APIError{Status: resp.StatusCode}
	if json.Unmarshal(body, &envelope) == nil && envelope.Error.Message != "" {
		e.Code = envelope.Error.Code
		e.Message = envelope.Error.Message
		e.RequestID = envelope.Error.RequestID
		e.TraceID = envelope.Error.TraceID
	} else {
		e.Message = strings.TrimSpace(string(body))
		if e.Message == "" {
			e.Message = resp.Status
		}
	}
	return e
}

// StreamSpec is one stream of a batch generate request.
type StreamSpec struct {
	Count             int               `json:"count"`
	Seed              *int64            `json:"seed,omitempty"`
	Evidence          map[string]string `json:"evidence,omitempty"`
	MaxAttemptsFactor int               `json:"max_attempts_factor,omitempty"`
}

// GenerateOptions configures one generate call. Leave Streams nil for a
// single stream described by Count/Seed/Evidence/MaxAttemptsFactor; set
// it for a batch request (the single-stream fields must then stay zero).
type GenerateOptions struct {
	// Count, Seed, Evidence, MaxAttemptsFactor describe the single
	// stream when Streams is nil.
	Count             int
	Seed              *int64
	Evidence          map[string]string
	MaxAttemptsFactor int
	// Streams switches to a batch request.
	Streams []StreamSpec
	// Version selects a model version; 0 means latest.
	Version int
	// Prefixes requests candidate /64 prefixes instead of addresses.
	Prefixes bool
	// Binary selects the framed binary response encoding.
	Binary bool
}

// EventKind discriminates generate stream events.
type EventKind int

const (
	// KindCandidate is one generated address or prefix.
	KindCandidate EventKind = iota
	// KindStreamEnd marks a stream's clean completion (a stream shorter
	// than its count means the model's support was exhausted).
	KindStreamEnd
	// KindStreamError marks a stream that failed mid-way; Err carries
	// the server's message. Other streams of a batch keep going.
	KindStreamError
)

// Event is one demultiplexed element of a generate response.
type Event struct {
	// Kind says what the event is.
	Kind EventKind
	// Stream is the stream index (always 0 on single-stream requests).
	Stream int
	// Addr is the candidate address (address mode, KindCandidate).
	Addr ip6.Addr
	// Prefix is the candidate prefix (prefix mode, KindCandidate).
	Prefix ip6.Prefix
	// Err is the server's error message (KindStreamError).
	Err string
}

// GenerateResult summarizes a completed generate call.
type GenerateResult struct {
	// Seeds are the effective per-stream seeds from X-Seed; replaying
	// them reproduces each stream exactly.
	Seeds []int64
	// Encoding is the negotiated response encoding ("ndjson"/"binary").
	Encoding string
	// ModelVersion is the version that generated the stream.
	ModelVersion int
	// Candidates counts KindCandidate events delivered.
	Candidates int64
	// TraceID is the server's trace of this request (X-Trace-Id header,
	// or the binary stream's Trace frame), for /v1/debug/traces lookups.
	TraceID string
}

// generateRequest mirrors serve.GenerateRequest.
type generateRequest struct {
	Version           int               `json:"version,omitempty"`
	Count             int               `json:"count,omitempty"`
	Seed              *int64            `json:"seed,omitempty"`
	Evidence          map[string]string `json:"evidence,omitempty"`
	Prefixes          bool              `json:"prefixes,omitempty"`
	MaxAttemptsFactor int               `json:"max_attempts_factor,omitempty"`
	Streams           []StreamSpec      `json:"streams,omitempty"`
}

// Generate streams candidates from the model, invoking yield for every
// event in arrival order until the response ends or yield returns false.
// Events of one stream arrive in the model's deterministic order;
// streams of a batch interleave.
func (c *Client) Generate(ctx context.Context, model string, opts GenerateOptions, yield func(Event) bool) (*GenerateResult, error) {
	body, err := json.Marshal(generateRequest{
		Version:           opts.Version,
		Count:             opts.Count,
		Seed:              opts.Seed,
		Evidence:          opts.Evidence,
		Prefixes:          opts.Prefixes,
		MaxAttemptsFactor: opts.MaxAttemptsFactor,
		Streams:           opts.Streams,
	})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, "POST",
		c.base+"/v1/models/"+url.PathEscape(model)+"/generate", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	traceparent(ctx, req)
	if opts.Binary {
		req.Header.Set("Accept", wire.ContentType)
	} else {
		req.Header.Set("Accept", "application/x-ndjson")
	}
	resp, err := c.do(req, body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeAPIError(resp)
	}

	res := &GenerateResult{
		Encoding: resp.Header.Get("X-Encoding"),
		TraceID:  resp.Header.Get("X-Trace-Id"),
	}
	res.ModelVersion, _ = strconv.Atoi(resp.Header.Get("X-Model-Version"))
	for _, part := range strings.Split(resp.Header.Get("X-Seed"), ",") {
		if seed, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64); err == nil {
			res.Seeds = append(res.Seeds, seed)
		}
	}
	if strings.EqualFold(resp.Header.Get("Content-Type"), wire.ContentType) {
		err = decodeBinaryStream(resp.Body, res, yield)
	} else {
		err = decodeNDJSONStream(resp.Body, opts.Prefixes, res, yield)
	}
	return res, err
}

// decodeBinaryStream demultiplexes a framed binary generate response.
func decodeBinaryStream(body io.Reader, res *GenerateResult, yield func(Event) bool) error {
	rd, err := wire.NewReader(bufio.NewReaderSize(body, 32<<10))
	if err != nil {
		return fmt.Errorf("decoding binary response: %w", err)
	}
	for {
		f, err := rd.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("decoding binary response: %w", err)
		}
		switch f.Kind {
		case wire.KindAddrs:
			for i := 0; i < f.Count; i++ {
				res.Candidates++
				if !yield(Event{Kind: KindCandidate, Stream: f.Stream, Addr: f.Addr(i)}) {
					return nil
				}
			}
		case wire.KindPrefixes:
			for i := 0; i < f.Count; i++ {
				res.Candidates++
				if !yield(Event{Kind: KindCandidate, Stream: f.Stream, Prefix: f.Prefix(i)}) {
					return nil
				}
			}
		case wire.KindSeed:
			// Seeds are already in res.Seeds via X-Seed.
		case wire.KindTrace:
			// The in-band copy of the trace ID; authoritative when the
			// stream was saved to disk and replayed without its headers.
			if res.TraceID == "" {
				res.TraceID = trace.TraceID(f.TraceID()).String()
			}
		case wire.KindEnd:
			if !yield(Event{Kind: KindStreamEnd, Stream: f.Stream}) {
				return nil
			}
		case wire.KindError:
			if !yield(Event{Kind: KindStreamError, Stream: f.Stream, Err: f.Message()}) {
				return nil
			}
		}
	}
}

// generateLine mirrors serve.GenerateItem, for both single-stream and
// batch ({"stream":i,...}) lines.
type generateLine struct {
	Addr   string `json:"addr"`
	Prefix string `json:"prefix"`
	Error  string `json:"error"`
	Stream *int   `json:"stream"`
	Done   bool   `json:"done"`
}

// decodeNDJSONStream demultiplexes an NDJSON generate response into the
// same event sequence the binary decoder produces: batch done lines and
// the single stream's clean EOF both become KindStreamEnd.
func decodeNDJSONStream(body io.Reader, prefixes bool, res *GenerateResult, yield func(Event) bool) error {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	single := true
	failed := false
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		ev, tagged, err := decodeNDJSONLine(line, prefixes)
		if err != nil {
			return err
		}
		if tagged {
			single = false
		}
		switch ev.Kind {
		case KindCandidate:
			res.Candidates++
		case KindStreamError:
			failed = true
		}
		if !yield(ev) {
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	// A single NDJSON stream has no done marker: clean EOF without an
	// error trailer is the stream's end.
	if single && !failed {
		yield(Event{Kind: KindStreamEnd})
	}
	return nil
}

var (
	addrLineOpen   = []byte(`{"addr":"`)
	prefixLineOpen = []byte(`{"prefix":"`)
	lineClose      = []byte(`"}`)
)

// decodeNDJSONLine decodes one generate line into its event; tagged
// reports a batch line's stream tag. The single-stream candidate line the
// server writes, exactly {"addr":"…"} (or {"prefix":"…"} in prefix mode),
// is parsed in place when its value is plain printable ASCII without '"'
// or '\', so that JSON decoding would return the value's bytes
// unchanged. Every other line — batch, done and error lines, and anything
// escaped or spaced — goes through decodeJSONLine, which gives the same
// event or error for the lines the fast path takes.
func decodeNDJSONLine(line []byte, prefixes bool) (ev Event, tagged bool, err error) {
	open := addrLineOpen
	if prefixes {
		open = prefixLineOpen
	}
	if len(line) >= len(open)+len(lineClose) && bytes.HasPrefix(line, open) && bytes.HasSuffix(line, lineClose) {
		v := line[len(open) : len(line)-len(lineClose)]
		if plainJSONString(v) {
			ev, err = parseCandidate(v, prefixes)
			return ev, false, err
		}
	}
	return decodeJSONLine(line, prefixes)
}

// plainJSONString reports whether v, between JSON quotes, decodes to
// itself: printable ASCII with no quote or backslash.
func plainJSONString(v []byte) bool {
	for _, c := range v {
		if c < 0x20 || c > 0x7e || c == '"' || c == '\\' {
			return false
		}
	}
	return true
}

// decodeJSONLine is decodeNDJSONLine for any line, through encoding/json.
func decodeJSONLine(line []byte, prefixes bool) (ev Event, tagged bool, err error) {
	var item generateLine
	if err := json.Unmarshal(line, &item); err != nil {
		return ev, false, fmt.Errorf("decoding NDJSON line %q: %w", line, err)
	}
	switch {
	case item.Error != "":
		ev = Event{Kind: KindStreamError, Err: item.Error}
	case item.Done:
		ev = Event{Kind: KindStreamEnd}
	case prefixes:
		ev, err = parseCandidate([]byte(item.Prefix), true)
	default:
		ev, err = parseCandidate([]byte(item.Addr), false)
	}
	if item.Stream != nil {
		ev.Stream = *item.Stream
		tagged = true
	}
	return ev, tagged, err
}

// parseCandidate turns a candidate line's address or prefix into its
// event.
func parseCandidate(v []byte, prefixes bool) (Event, error) {
	ev := Event{Kind: KindCandidate}
	var err error
	if prefixes {
		if ev.Prefix, err = ip6.ParsePrefix(string(v)); err != nil {
			return ev, fmt.Errorf("server sent bad prefix %q: %w", v, err)
		}
	} else if ev.Addr, err = ip6.ParseAddrBytes(v); err != nil {
		return ev, fmt.Errorf("server sent bad address %q: %w", v, err)
	}
	return ev, nil
}

// ObserveResult summarizes an observe call (the drift details of the
// full response body are available server-side via GET drift).
type ObserveResult struct {
	// Accepted is how many addresses entered the model's window.
	Accepted int `json:"accepted"`
	// Invalid is how many inputs the server rejected (always 0 over the
	// binary encoding, which cannot carry malformed addresses).
	Invalid int `json:"invalid"`
	// Evaluated is true when the batch triggered a drift evaluation.
	Evaluated bool `json:"evaluated"`
	// TraceID is the server's trace of this request (X-Trace-Id header).
	TraceID string `json:"-"`
}

// Observe pushes observed addresses into the model's ingest window over
// the framed binary encoding.
func (c *Client) Observe(ctx context.Context, model string, addrs []ip6.Addr) (*ObserveResult, error) {
	var buf bytes.Buffer
	buf.Grow(wire.HeaderSize + len(addrs)*16 + (len(addrs)/wire.MaxFrameRecords+1)*wire.FrameHeaderSize + wire.FrameHeaderSize)
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
	req, err := http.NewRequestWithContext(ctx, "POST",
		c.base+"/v1/models/"+url.PathEscape(model)+"/observe", bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", wire.ContentType)
	traceparent(ctx, req)
	resp, err := c.do(req, buf.Bytes())
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeAPIError(resp)
	}
	var out ObserveResult
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("decoding observe response: %w", err)
	}
	out.TraceID = resp.Header.Get("X-Trace-Id")
	return &out, nil
}
