package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"

	"entropyip/internal/wire"
)

func mustMarshalIndent(v interface{}) []byte {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		panic(err) // the document is build-time static; failure is a bug
	}
	return b
}

// The OpenAPI document and docs/API.md are both rendered from the
// hand-maintained apiOperations table below — one source of truth for
// the API surface. TestOpenAPIRoutesMatchMux diffs the table against the
// patterns actually registered on the mux (so a new handler cannot ship
// undocumented), and TestAPIDocsInSync pins docs/API.md to the rendered
// markdown (regenerate with UPDATE_API_DOCS=1 go test ./internal/serve
// -run APIDocs).

// apiOperation describes one route of the v1 API.
type apiOperation struct {
	// Method and Path form the mux pattern ("POST /v1/models/{name}/generate").
	Method, Path string
	// Summary is the one-line description.
	Summary string
	// Description elaborates (markdown in docs, plain text in the spec).
	Description string
	// RequestTypes lists accepted request content types (nil: no body).
	RequestTypes []string
	// ResponseTypes lists possible success response content types.
	ResponseTypes []string
	// Statuses lists the statuses this route answers with.
	Statuses []int
}

const (
	ctJSON   = "application/json"
	ctNDJSON = "application/x-ndjson"
)

// apiOperations is the API surface, in documentation order.
var apiOperations = []apiOperation{
	{
		Method: "GET", Path: "/v1/models",
		Summary:       "List models",
		Description:   "Returns the latest version of every model, sorted by name.",
		ResponseTypes: []string{ctJSON},
		Statuses:      []int{200, 429},
	},
	{
		Method: "GET", Path: "/v1/models/{name}",
		Summary:       "Model info",
		Description:   "Returns the latest version's info plus every stored version, oldest first.",
		ResponseTypes: []string{ctJSON},
		Statuses:      []int{200, 404, 429},
	},
	{
		Method: "GET", Path: "/v1/models/{name}/model",
		Summary:       "Download the serialized model",
		Description:   "Streams the stored model document (the core.Save format). `?version=N` selects a version; absent or 0 means latest. The `X-Model-Version` response header names the version served.",
		ResponseTypes: []string{ctJSON},
		Statuses:      []int{200, 400, 404, 429},
	},
	{
		Method: "PUT", Path: "/v1/models/{name}",
		Summary:       "Upload or train a model",
		Description:   "Body carries either `model` (a pre-trained document) or `addresses` (a training set built server-side on a bounded worker pool; 503 with Retry-After when the training queue is full).",
		RequestTypes:  []string{ctJSON},
		ResponseTypes: []string{ctJSON},
		Statuses:      []int{201, 400, 413, 422, 429, 500, 503},
	},
	{
		Method: "DELETE", Path: "/v1/models/{name}",
		Summary:     "Delete all versions of a model",
		Description: "Removes every stored version and the model's ingest/drift state.",
		Statuses:    []int{204, 404, 429},
	},
	{
		Method: "POST", Path: "/v1/models/{name}/browse",
		Summary:       "Conditional probability query",
		Description:   "One click state of the paper's conditional probability browser: posts evidence (fixed segment values), returns every segment's posterior distribution.",
		RequestTypes:  []string{ctJSON},
		ResponseTypes: []string{ctJSON},
		Statuses:      []int{200, 400, 404, 429},
	},
	{
		Method: "POST", Path: "/v1/models/{name}/generate",
		Summary: "Stream candidate addresses or prefixes",
		Description: "Streams generated candidates with bounded server memory. The `Accept` header negotiates the response encoding: NDJSON (default) or the framed binary wire format (`" + wire.ContentType + "`, 16 bytes per address). " +
			"A request with `streams` is a batch: every entry is an independently-seeded stream and the response interleaves all of them with per-stream framing (binary frame stream indexes, or `{\"stream\":i,...}` NDJSON lines ending in `{\"stream\":i,\"done\":true}`). " +
			"Response headers: `X-Seed` (effective seed(s), comma-joined), `X-Encoding` (`ndjson`/`binary`), `X-Model-Version`. 406 when `Accept` admits neither encoding.",
		RequestTypes:  []string{ctJSON},
		ResponseTypes: []string{ctNDJSON, wire.ContentType},
		Statuses:      []int{200, 400, 404, 406, 413, 429},
	},
	{
		Method: "POST", Path: "/v1/models/{name}/observe",
		Summary: "Ingest observed addresses",
		Description: "Feeds observed traffic into the model's ingest window for drift detection and (when configured) automatic refresh. The request `Content-Type` selects the body decoding: NDJSON / bare dataset lines (default; malformed lines are counted, not fatal), or the framed binary wire format (`" + wire.ContentType + "`; malformed framing rejects the request). " +
			"Responds with accept/invalid counts and the model's drift status; `X-Encoding` names the decoded encoding.",
		RequestTypes:  []string{ctNDJSON, wire.ContentType},
		ResponseTypes: []string{ctJSON},
		Statuses:      []int{200, 400, 404, 413, 429},
	},
	{
		Method: "GET", Path: "/v1/models/{name}/drift",
		Summary:       "Drift status",
		Description:   "Returns the model's drift state (ingest window, divergence scores, refresh history).",
		ResponseTypes: []string{ctJSON},
		Statuses:      []int{200, 404, 429},
	},
	{
		Method: "GET", Path: "/v1/debug/traces",
		Summary: "Flight-recorder traces",
		Description: "The in-process flight recorder's retained request traces (tail-sampled: errors, panics, shadow-rejected rotations and slow requests are always kept; the rest probabilistically). " +
			"Without parameters, lists retained traces newest first (`?limit=N` caps the listing, default 50). With `?trace_id=<32 hex>` — the value of the `X-Trace-Id` response header, the `trace_id` error-envelope field, or a metrics exemplar — returns that trace's full span tree, or 404 if the recorder no longer holds it.",
		ResponseTypes: []string{ctJSON},
		Statuses:      []int{200, 400, 404},
	},
	{
		Method: "GET", Path: "/v1/healthz",
		Summary:       "Liveness and build info",
		Description:   "Liveness and build version: `status` (always `ok`, also while the server drains) and `version`; every metric is on `/metrics`. Also served at `/healthz`.",
		ResponseTypes: []string{ctJSON},
		Statuses:      []int{200},
	},
	{
		Method: "GET", Path: "/v1/openapi.json",
		Summary:       "This API description",
		Description:   "The OpenAPI 3.0 document of the v1 API, rendered from the same source as docs/API.md.",
		ResponseTypes: []string{ctJSON},
		Statuses:      []int{200},
	},
}

// specRoutePatterns returns the mux patterns the spec documents,
// "METHOD /path", sorted.
func specRoutePatterns() []string {
	out := make([]string, len(apiOperations))
	for i, op := range apiOperations {
		out[i] = op.Method + " " + op.Path
	}
	sort.Strings(out)
	return out
}

// openAPIDocument builds the OpenAPI 3.0 document as marshal-ready maps.
// Bodies are documented loosely (the Go types in this package are the
// schema of record); the document's value is the route list, the content
// types and the error envelope, which automated clients key on.
func openAPIDocument() map[string]interface{} {
	errorSchema := map[string]interface{}{
		"type": "object",
		"properties": map[string]interface{}{
			"error": map[string]interface{}{
				"type": "object",
				"properties": map[string]interface{}{
					"code":       map[string]interface{}{"type": "string", "description": "stable machine-matchable class: invalid_request, not_found, not_acceptable, payload_too_large, unsupported_media_type, unprocessable, rate_limited, internal, unavailable"},
					"message":    map[string]interface{}{"type": "string"},
					"request_id": map[string]interface{}{"type": "string", "description": "matches the X-Request-Id response header"},
				},
				"required": []string{"code", "message"},
			},
		},
		"required": []string{"error"},
	}
	paths := map[string]interface{}{}
	for _, op := range apiOperations {
		item, _ := paths[op.Path].(map[string]interface{})
		if item == nil {
			item = map[string]interface{}{}
			paths[op.Path] = item
		}
		responses := map[string]interface{}{}
		for _, status := range op.Statuses {
			resp := map[string]interface{}{"description": http.StatusText(status)}
			var types []string
			if status < 400 {
				types = op.ResponseTypes
			} else {
				types = []string{ctJSON} // the error envelope
			}
			if len(types) > 0 && status != 204 {
				content := map[string]interface{}{}
				for _, ct := range types {
					schema := map[string]interface{}{"type": "object"}
					if status >= 400 {
						schema = map[string]interface{}{"$ref": "#/components/schemas/Error"}
					} else if ct != ctJSON {
						schema = map[string]interface{}{"type": "string", "format": "binary"}
					}
					content[ct] = map[string]interface{}{"schema": schema}
				}
				resp["content"] = content
			}
			responses[fmt.Sprint(status)] = resp
		}
		operation := map[string]interface{}{
			"summary":     op.Summary,
			"description": op.Description,
			"responses":   responses,
		}
		if len(op.RequestTypes) > 0 {
			content := map[string]interface{}{}
			for _, ct := range op.RequestTypes {
				schema := map[string]interface{}{"type": "object"}
				if ct != ctJSON {
					schema = map[string]interface{}{"type": "string", "format": "binary"}
				}
				content[ct] = map[string]interface{}{"schema": schema}
			}
			operation["requestBody"] = map[string]interface{}{"content": content}
		}
		if strings.Contains(op.Path, "{name}") {
			operation["parameters"] = []interface{}{map[string]interface{}{
				"name": "name", "in": "path", "required": true,
				"schema": map[string]interface{}{"type": "string"},
			}}
		}
		item[strings.ToLower(op.Method)] = operation
	}
	return map[string]interface{}{
		"openapi": "3.0.3",
		"info": map[string]interface{}{
			"title":       "Entropy/IP serving API",
			"version":     "1",
			"description": "Model registry, conditional-probability browsing, candidate generation and traffic observation for Entropy/IP models. Non-2xx responses all carry the Error envelope; streaming routes negotiate NDJSON or the framed binary wire encoding.",
		},
		"paths": paths,
		"components": map[string]interface{}{
			"schemas": map[string]interface{}{"Error": errorSchema},
		},
	}
}

// openAPIBytes caches the rendered document; the spec is static per
// process.
var openAPIBytes struct {
	once sync.Once
	body []byte
}

func (s *Server) handleOpenAPI(w http.ResponseWriter, r *http.Request) {
	openAPIBytes.once.Do(func() {
		openAPIBytes.body = mustMarshalIndent(openAPIDocument())
	})
	w.Header().Set("Content-Type", ctJSON)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(openAPIBytes.body)
}

// renderAPIMarkdown renders docs/API.md from the same operations table
// the OpenAPI document is built from.
func renderAPIMarkdown() []byte {
	var b strings.Builder
	b.WriteString("# Entropy/IP serving API\n\n")
	b.WriteString("<!-- Generated from internal/serve/openapi.go — do not edit by hand.\n")
	b.WriteString("     Regenerate: UPDATE_API_DOCS=1 go test ./internal/serve -run APIDocs -->\n\n")
	b.WriteString("The HTTP API of `eipserved`. The same definitions are served live at\n")
	b.WriteString("`GET /v1/openapi.json`. All request/response bodies are JSON unless a\n")
	b.WriteString("route says otherwise; streaming routes negotiate NDJSON or the framed\n")
	b.WriteString("binary wire encoding (`" + wire.ContentType + "`, see README\n")
	b.WriteString("\"Wire protocol\").\n\n")
	b.WriteString("## Errors\n\n")
	b.WriteString("Every non-2xx response carries one body shape, the v1 error envelope:\n\n")
	b.WriteString("```json\n{\"error\": {\"code\": \"not_found\", \"message\": \"...\", \"request_id\": \"req-42\"}}\n```\n\n")
	b.WriteString("`code` is a stable machine-matchable class (`invalid_request`,\n")
	b.WriteString("`not_found`, `not_acceptable`, `payload_too_large`,\n")
	b.WriteString("`unsupported_media_type`, `unprocessable`, `rate_limited`, `internal`,\n")
	b.WriteString("`unavailable`); `message` is human-readable and free to change;\n")
	b.WriteString("`request_id` matches the `X-Request-Id` response header and the\n")
	b.WriteString("server's structured logs.\n")
	b.WriteString("Earlier releases answered with ad-hoc `{\"error\": \"<string>\"}` bodies —\n")
	b.WriteString("those shapes are gone; match on the envelope.\n\n")
	b.WriteString("## Admission control\n\n")
	b.WriteString("With admission control configured (see `eipserved -rate-limit`,\n")
	b.WriteString("`-gen-budget`, `-queue-depth`, `-tenant-slots`), every `/v1/models`\n")
	b.WriteString("route is gated per tenant. Tenant identity is the `X-Tenant` request\n")
	b.WriteString("header (1–64 bytes of `[A-Za-z0-9._-]`), falling back to the client\n")
	b.WriteString("IP. A request refused at any gate — request rate, generation budget,\n")
	b.WriteString("queue full, or slot-wait deadline — answers `429` with the\n")
	b.WriteString("`rate_limited` envelope code and a `Retry-After` header (whole\n")
	b.WriteString("seconds) hinting when to retry; `pkg/client` honors it via\n")
	b.WriteString("`WithRetry`. Health, metrics and introspection routes are never\n")
	b.WriteString("gated.\n\n")
	b.WriteString("## Routes\n\n")
	b.WriteString("| Route | Summary | Statuses |\n|---|---|---|\n")
	for _, op := range apiOperations {
		statuses := make([]string, len(op.Statuses))
		for i, st := range op.Statuses {
			statuses[i] = fmt.Sprint(st)
		}
		fmt.Fprintf(&b, "| `%s %s` | %s | %s |\n", op.Method, op.Path, op.Summary, strings.Join(statuses, ", "))
	}
	b.WriteString("\n")
	for _, op := range apiOperations {
		fmt.Fprintf(&b, "### `%s %s`\n\n%s\n\n", op.Method, op.Path, op.Description)
		if len(op.RequestTypes) > 0 {
			fmt.Fprintf(&b, "Request: `%s`.\n", strings.Join(op.RequestTypes, "`, `"))
		}
		if len(op.ResponseTypes) > 0 {
			fmt.Fprintf(&b, "Response: `%s`.\n", strings.Join(op.ResponseTypes, "`, `"))
		}
		b.WriteString("\n")
	}
	return []byte(b.String())
}
