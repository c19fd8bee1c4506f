// Package wire implements the framed binary encoding of the Entropy/IP
// serving API: raw 16-byte addresses in length-prefixed frames behind a
// fixed header, negotiated on /generate and /observe via the
// application/x-entropyip-addrs media type.
//
// The text encodings (NDJSON, dataset lines) spend most of the serving
// plane's cycles formatting and parsing hexadecimal text — ~40 bytes and
// a zero-run scan per address each way. The binary encoding is a memcpy:
// a candidate address costs its 16 network-order bytes (17 with a prefix
// length), so a scanner fleet pulls candidates at line rate and pushes
// observations back the same way.
//
// # Stream layout
//
//	+----------------------+
//	| header (16 bytes)    |  once per HTTP body
//	+----------------------+
//	| frame | frame | ...  |  until End/Error frame or clean EOF
//	+----------------------+
//
// Header (16 bytes, all multi-byte fields big-endian):
//
//	offset size field
//	0      4    magic "EIP6"
//	4      1    version (currently 1)
//	5      1    flags (bit 0: prefixes, bit 1: batch)
//	6      2    streams: number of interleaved streams N (1 unless batch)
//	8      8    seed of stream 0, echoed for replay (0 on /observe bodies)
//
// Frame (4-byte header + payload):
//
//	offset size field
//	0      1    kind
//	1      1    stream index (0..N-1)
//	2      2    count
//	4      -    payload
//
// Frame kinds:
//
//	kind     count meaning        payload
//	Addrs    addresses           count × 16-byte address
//	Prefixes prefixes            count × (16-byte address + 1 length byte)
//	Seed     1                   8-byte seed of this stream (batch mode)
//	End      0                   stream completed (short = support exhausted)
//	Error    message length      UTF-8 error message; stream failed
//	Trace    1                   16-byte W3C trace ID correlating this body
//	                             with server logs and /v1/debug/traces
//
// A Trace frame is metadata, not data: decoders that predate it treat an
// unknown kind as ErrBadFrame, so writers only emit it when the peer
// negotiated wire version >= 1 (this package's first public version
// already decodes it; the frame was added before any cross-version
// deployment existed).
//
// Frames of different streams interleave arbitrarily; frames of one
// stream are in order. A reader demultiplexes on the stream index. Data
// frames carry at most MaxFrameRecords records, so a frame's payload is
// bounded and a decoder can reuse one fixed buffer.
//
// Ownership follows the pooled-buffer rules of DESIGN.md §7: a Writer
// owns one frame buffer for its lifetime and flushes complete frames to
// its sink, and a Reader's Frame payload aliases the Reader's internal
// buffer — both are reusable via Reset so steady state is 0 allocs/op in
// each direction.
package wire

import (
	"errors"
	"fmt"
	"io"

	"entropyip/internal/ip6"
)

// Magic identifies an Entropy/IP binary stream. It doubles as a
// file signature for candidate sets saved to disk.
var Magic = [4]byte{'E', 'I', 'P', '6'}

// Version is the current wire-format version. Readers reject other
// versions rather than guessing.
const Version = 1

// ContentType is the negotiated media type of the binary encoding.
const ContentType = "application/x-entropyip-addrs"

// Header flags.
const (
	// FlagPrefixes marks a stream of /len-prefixed candidates (17-byte
	// records) instead of plain addresses.
	FlagPrefixes = 1 << 0
	// FlagBatch marks a multi-stream (batch generate) body; per-stream
	// seeds arrive in Seed frames.
	FlagBatch = 1 << 1

	flagsKnown = FlagPrefixes | FlagBatch
)

// Frame kinds.
const (
	KindAddrs    = 0x01
	KindPrefixes = 0x02
	KindSeed     = 0x03
	KindEnd      = 0x04
	KindError    = 0x05
	KindTrace    = 0x06
)

const (
	// HeaderSize is the fixed stream header length in bytes.
	HeaderSize = 16
	// FrameHeaderSize is the per-frame header length in bytes.
	FrameHeaderSize = 4
	// MaxFrameRecords caps the records in one data frame, bounding a
	// frame's payload (MaxFrameRecords × 17 bytes) so decoders run on one
	// fixed buffer.
	MaxFrameRecords = 4096
	// MaxStreams caps the stream count of a batch body at what the
	// 1-byte frame stream index can address.
	MaxStreams = 256

	addrSize    = 16
	prefixSize  = 17
	maxPayload  = MaxFrameRecords * prefixSize
	maxErrorLen = 1<<16 - 1
)

// Errors returned by Reader. ErrBadMagic specifically means the body is
// not a binary stream at all (e.g. text posted with the wrong
// Content-Type), which servers map to 400 with a pointed message.
var (
	ErrBadMagic    = errors.New("wire: bad magic (not an Entropy/IP binary stream)")
	ErrBadVersion  = errors.New("wire: unsupported wire-format version")
	ErrBadFlags    = errors.New("wire: unknown header flag bits")
	ErrBadStreams  = errors.New("wire: invalid stream count")
	ErrBadFrame    = errors.New("wire: malformed frame")
	ErrFrameTooBig = errors.New("wire: frame exceeds MaxFrameRecords")
)

// Header is the decoded fixed stream header.
type Header struct {
	// Flags holds the Flag* bits.
	Flags uint8
	// Streams is the number of interleaved streams (1 unless FlagBatch).
	Streams int
	// Seed is stream 0's generation seed, echoed for replay; 0 on bodies
	// that carry observations rather than generated candidates.
	Seed int64
}

// Prefixes reports whether the stream carries /len-prefixed records.
func (h Header) Prefixes() bool { return h.Flags&FlagPrefixes != 0 }

// Batch reports whether the stream is a multi-stream batch body.
func (h Header) Batch() bool { return h.Flags&FlagBatch != 0 }

// AppendHeader appends the 16-byte stream header to dst.
func AppendHeader(dst []byte, h Header) []byte {
	dst = append(dst, Magic[0], Magic[1], Magic[2], Magic[3], Version, h.Flags)
	dst = append(dst, byte(h.Streams>>8), byte(h.Streams))
	seed := uint64(h.Seed)
	return append(dst,
		byte(seed>>56), byte(seed>>48), byte(seed>>40), byte(seed>>32),
		byte(seed>>24), byte(seed>>16), byte(seed>>8), byte(seed))
}

// ParseHeader decodes and validates a 16-byte stream header.
func ParseHeader(b []byte) (Header, error) {
	if len(b) < HeaderSize {
		return Header{}, fmt.Errorf("%w: header truncated at %d bytes", ErrBadMagic, len(b))
	}
	if b[0] != Magic[0] || b[1] != Magic[1] || b[2] != Magic[2] || b[3] != Magic[3] {
		return Header{}, ErrBadMagic
	}
	if b[4] != Version {
		return Header{}, fmt.Errorf("%w: got %d, support %d", ErrBadVersion, b[4], Version)
	}
	h := Header{Flags: b[5]}
	if h.Flags&^uint8(flagsKnown) != 0 {
		return Header{}, fmt.Errorf("%w: 0x%02x", ErrBadFlags, h.Flags)
	}
	h.Streams = int(b[6])<<8 | int(b[7])
	if h.Streams < 1 || h.Streams > MaxStreams {
		return Header{}, fmt.Errorf("%w: %d (want 1..%d)", ErrBadStreams, h.Streams, MaxStreams)
	}
	if h.Streams > 1 && !h.Batch() {
		return Header{}, fmt.Errorf("%w: %d streams without batch flag", ErrBadStreams, h.Streams)
	}
	var seed uint64
	for _, c := range b[8:16] {
		seed = seed<<8 | uint64(c)
	}
	h.Seed = int64(seed)
	return h, nil
}

// Writer encodes one stream's frames into a single internal buffer and
// hands complete frames to its sink. It buffers up to MaxFrameRecords
// records (or BatchEvery, if smaller) before emitting a data frame, so
// the per-record cost is an append plus an amortized sink write. The
// zero Writer is not usable; call Reset first. Writers are reusable —
// the serving plane pools them — and never allocate after the first
// Reset grows the buffer.
//
// The sink receives each frame as one Write call (header and payload
// together), so several Writers may share one mutex-guarded sink and
// their frames interleave without tearing.
type Writer struct {
	sink io.Writer
	// buf holds the frame under construction: FrameHeaderSize bytes
	// reserved for the header, then the payload so far.
	buf      []byte
	stream   uint8
	kind     uint8 // data-frame kind for this writer's records
	count    int   // records in buf
	perFrame int   // records per emitted frame
	recSize  int
}

// NewWriter returns a Writer for one stream. batchEvery bounds records
// per frame; 0 means MaxFrameRecords. Prefer pooling Writers and calling
// Reset over constructing per request.
func NewWriter(sink io.Writer, stream int, prefixes bool, batchEvery int) *Writer {
	w := &Writer{}
	w.Reset(sink, stream, prefixes, batchEvery)
	return w
}

// Reset reinitializes the Writer for a new stream, keeping its buffer.
func (w *Writer) Reset(sink io.Writer, stream int, prefixes bool, batchEvery int) {
	if stream < 0 || stream >= MaxStreams {
		panic(fmt.Sprintf("wire: stream index %d out of range", stream))
	}
	if batchEvery <= 0 || batchEvery > MaxFrameRecords {
		batchEvery = MaxFrameRecords
	}
	w.sink = sink
	w.stream = uint8(stream)
	w.kind, w.recSize = KindAddrs, addrSize
	if prefixes {
		w.kind, w.recSize = KindPrefixes, prefixSize
	}
	w.perFrame = batchEvery
	need := FrameHeaderSize + batchEvery*w.recSize
	if cap(w.buf) < need {
		w.buf = make([]byte, 0, need)
	}
	w.buf = w.buf[:FrameHeaderSize]
	w.count = 0
}

// AddAddr appends one address record, flushing a full frame to the sink.
func (w *Writer) AddAddr(a ip6.Addr) error {
	w.buf = a.AppendBinary(w.buf)
	w.count++
	if w.count >= w.perFrame {
		return w.Flush()
	}
	return nil
}

// AddPrefix appends one prefix record, flushing a full frame to the sink.
func (w *Writer) AddPrefix(p ip6.Prefix) error {
	w.buf = p.AppendBinary(w.buf)
	w.count++
	if w.count >= w.perFrame {
		return w.Flush()
	}
	return nil
}

// Flush emits the buffered records, if any, as one data frame.
func (w *Writer) Flush() error {
	if w.count == 0 {
		return nil
	}
	w.buf[0] = w.kind
	w.buf[1] = w.stream
	w.buf[2] = byte(w.count >> 8)
	w.buf[3] = byte(w.count)
	_, err := w.sink.Write(w.buf)
	w.buf = w.buf[:FrameHeaderSize]
	w.count = 0
	return err
}

// Seed emits a Seed frame announcing this stream's generation seed.
// Batch bodies send one before the stream's first data frame.
func (w *Writer) Seed(seed int64) error {
	if err := w.Flush(); err != nil {
		return err
	}
	// Built in w.buf, not a stack array: a local passed through the sink
	// interface escapes and would cost one allocation per call.
	s := uint64(seed)
	w.buf = append(w.buf[:0], KindSeed, w.stream, 0, 1,
		byte(s>>56), byte(s>>48), byte(s>>40), byte(s>>32),
		byte(s>>24), byte(s>>16), byte(s>>8), byte(s))
	_, err := w.sink.Write(w.buf)
	w.buf = w.buf[:FrameHeaderSize]
	return err
}

// AppendTraceFrame appends a complete Trace frame carrying the request's
// 16-byte W3C trace ID to dst, so binary-stream consumers can correlate a
// mid-stream Error frame with server logs and /v1/debug/traces. Servers
// write it with the stream header, before any data frame.
func AppendTraceFrame(dst []byte, stream int, id [16]byte) []byte {
	dst = append(dst, KindTrace, byte(stream), 0, 1)
	return append(dst, id[:]...)
}

// End flushes pending records and emits the stream's End frame.
func (w *Writer) End() error {
	if err := w.Flush(); err != nil {
		return err
	}
	w.buf = append(w.buf[:0], KindEnd, w.stream, 0, 0)
	_, err := w.sink.Write(w.buf)
	w.buf = w.buf[:FrameHeaderSize]
	return err
}

// Error flushes pending records and emits an Error frame carrying msg
// (truncated to 64 KiB - 1). The stream is over after an Error frame.
func (w *Writer) Error(msg string) error {
	if err := w.Flush(); err != nil {
		return err
	}
	if len(msg) > maxErrorLen {
		msg = msg[:maxErrorLen]
	}
	w.buf = w.buf[:0]
	w.buf = append(w.buf, KindError, w.stream, byte(len(msg)>>8), byte(len(msg)))
	w.buf = append(w.buf, msg...)
	_, err := w.sink.Write(w.buf)
	w.buf = w.buf[:FrameHeaderSize]
	w.count = 0
	return err
}

// Frame is one decoded frame. Payload aliases the Reader's internal
// buffer: it is valid until the next Next or Reset call and must be
// copied to be retained.
type Frame struct {
	Kind    uint8
	Stream  int
	Count   int
	Payload []byte
}

// Addr returns data record i of an Addrs frame.
func (f Frame) Addr(i int) ip6.Addr {
	a, _ := ip6.AddrFromBinary(f.Payload[i*addrSize:])
	return a
}

// Prefix returns data record i of a Prefixes frame.
func (f Frame) Prefix(i int) ip6.Prefix {
	p, _ := ip6.PrefixFromBinary(f.Payload[i*prefixSize:])
	return p
}

// Seed returns the seed of a Seed frame.
func (f Frame) Seed() int64 {
	var s uint64
	for _, c := range f.Payload[:8] {
		s = s<<8 | uint64(c)
	}
	return int64(s)
}

// Message returns the message of an Error frame.
func (f Frame) Message() string { return string(f.Payload) }

// TraceID returns the 16-byte trace ID of a Trace frame.
func (f Frame) TraceID() [16]byte {
	var id [16]byte
	copy(id[:], f.Payload)
	return id
}

// Reader decodes a binary stream from an io.Reader into one fixed
// internal buffer. The zero Reader is not usable; call Reset, which
// reads and validates the header. Readers are reusable and allocate
// nothing after their buffer reaches maxPayload.
type Reader struct {
	src io.Reader
	hdr Header
	buf []byte
}

// NewReader returns a Reader over src after decoding its header.
func NewReader(src io.Reader) (*Reader, error) {
	r := &Reader{}
	if err := r.Reset(src); err != nil {
		return nil, err
	}
	return r, nil
}

// Reset points the Reader at a new source and decodes its header,
// keeping the internal buffer.
func (r *Reader) Reset(src io.Reader) error {
	if cap(r.buf) < maxPayload {
		r.buf = make([]byte, maxPayload)
	}
	r.buf = r.buf[:cap(r.buf)]
	r.src = src
	buf := r.buf[:HeaderSize]
	if _, err := io.ReadFull(src, buf); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return fmt.Errorf("%w: short header", ErrBadMagic)
		}
		return err
	}
	h, err := ParseHeader(buf)
	if err != nil {
		return err
	}
	r.hdr = h
	return nil
}

// Header returns the stream header decoded by Reset.
func (r *Reader) Header() Header { return r.hdr }

// Next decodes the next frame. It returns io.EOF on a clean end of the
// source at a frame boundary; any other truncation is ErrBadFrame. The
// returned Frame's Payload aliases the Reader's buffer.
func (r *Reader) Next() (Frame, error) {
	hdr := r.buf[:FrameHeaderSize]
	if _, err := io.ReadFull(r.src, hdr); err != nil {
		if err == io.EOF {
			return Frame{}, io.EOF
		}
		if err == io.ErrUnexpectedEOF {
			return Frame{}, fmt.Errorf("%w: truncated frame header", ErrBadFrame)
		}
		return Frame{}, err
	}
	f := Frame{
		Kind:   hdr[0],
		Stream: int(hdr[1]),
		Count:  int(hdr[2])<<8 | int(hdr[3]),
	}
	if f.Stream >= r.hdr.Streams {
		return Frame{}, fmt.Errorf("%w: stream index %d of %d", ErrBadFrame, f.Stream, r.hdr.Streams)
	}
	var payload int
	switch f.Kind {
	case KindAddrs:
		if f.Count > MaxFrameRecords {
			return Frame{}, fmt.Errorf("%w: %d addresses", ErrFrameTooBig, f.Count)
		}
		if f.Count == 0 {
			return Frame{}, fmt.Errorf("%w: empty data frame", ErrBadFrame)
		}
		payload = f.Count * addrSize
	case KindPrefixes:
		if f.Count > MaxFrameRecords {
			return Frame{}, fmt.Errorf("%w: %d prefixes", ErrFrameTooBig, f.Count)
		}
		if f.Count == 0 {
			return Frame{}, fmt.Errorf("%w: empty data frame", ErrBadFrame)
		}
		payload = f.Count * prefixSize
	case KindSeed:
		if f.Count != 1 {
			return Frame{}, fmt.Errorf("%w: seed frame count %d", ErrBadFrame, f.Count)
		}
		payload = 8
	case KindEnd:
		if f.Count != 0 {
			return Frame{}, fmt.Errorf("%w: end frame count %d", ErrBadFrame, f.Count)
		}
	case KindError:
		payload = f.Count // count is the message byte length
	case KindTrace:
		if f.Count != 1 {
			return Frame{}, fmt.Errorf("%w: trace frame count %d", ErrBadFrame, f.Count)
		}
		payload = 16
	default:
		return Frame{}, fmt.Errorf("%w: unknown kind 0x%02x", ErrBadFrame, f.Kind)
	}
	if payload > 0 {
		f.Payload = r.buf[:payload]
		if _, err := io.ReadFull(r.src, f.Payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return Frame{}, fmt.Errorf("%w: truncated payload", ErrBadFrame)
			}
			// A real source error (size cap, network): surface it as-is so
			// callers can map it (e.g. http.MaxBytesError to 413).
			return Frame{}, err
		}
	}
	if f.Kind == KindPrefixes {
		// Validate every record's length byte here so consumers can index
		// records without per-record error handling.
		for i := 0; i < f.Count; i++ {
			if bits := f.Payload[i*prefixSize+addrSize]; bits > 128 {
				return Frame{}, fmt.Errorf("%w: prefix length %d", ErrBadFrame, bits)
			}
		}
	}
	return f, nil
}
