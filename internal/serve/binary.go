package serve

import (
	"fmt"
	"net/http"
	"strings"

	"entropyip/internal/wire"
)

// This file is the encoding negotiation between NDJSON and the framed
// binary encoding of internal/wire (Accept on generate, Content-Type on
// observe). Generate responses in either encoding come from the one
// producer loop in generate.go, whose binary side is wireSink; observe
// bodies in either encoding go through the one ingest loop in
// observe.go, whose binary side is binaryBody.

// encoding is a negotiated request/response encoding.
type encoding int

const (
	encNDJSON encoding = iota
	encBinary
)

// Row indexes into Server.encRequests (columns are the encoding values).
const (
	routeGenerate = 0
	routeObserve  = 1
)

func (e encoding) String() string {
	if e == encBinary {
		return "binary"
	}
	return "ndjson"
}

// contentType returns the media type the encoding is served under.
func (e encoding) contentType() string {
	if e == encBinary {
		return wire.ContentType
	}
	return "application/x-ndjson"
}

// negotiateGenerateEncoding picks the generate response encoding from
// the Accept header. The binary type wins whenever it appears; an absent
// or wildcard Accept keeps the NDJSON default; an Accept that admits
// neither encoding is a 406. Quality parameters are ignored — a client
// that sends q-values still gets the most capable encoding it listed.
func negotiateGenerateEncoding(r *http.Request) (encoding, error) {
	accept := r.Header.Get("Accept")
	if accept == "" {
		return encNDJSON, nil
	}
	ndjsonOK := false
	for rest := accept; rest != ""; {
		var part string
		part, rest, _ = strings.Cut(rest, ",")
		if i := strings.IndexByte(part, ';'); i >= 0 {
			part = part[:i]
		}
		part = strings.TrimSpace(part)
		switch {
		case strings.EqualFold(part, wire.ContentType):
			return encBinary, nil
		case strings.EqualFold(part, "application/x-ndjson"),
			strings.EqualFold(part, "application/json"),
			strings.EqualFold(part, "application/*"),
			part == "*/*":
			ndjsonOK = true
		}
	}
	if ndjsonOK {
		return encNDJSON, nil
	}
	return 0, fmt.Errorf("Accept %q admits no supported encoding (application/x-ndjson, %s)", accept, wire.ContentType)
}

// isBinaryContentType reports whether a request body is declared as the
// binary wire encoding.
func isBinaryContentType(ct string) bool {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.EqualFold(strings.TrimSpace(ct), wire.ContentType)
}
