package obs

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"
)

func TestParseLevel(t *testing.T) {
	cases := map[string]slog.Level{
		"debug":   slog.LevelDebug,
		"info":    slog.LevelInfo,
		"":        slog.LevelInfo,
		"warn":    slog.LevelWarn,
		"warning": slog.LevelWarn,
		"error":   slog.LevelError,
	}
	for in, want := range cases {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel(loud) did not error")
	}
}

func TestNewLoggerJSON(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, "json", slog.LevelInfo)
	l.Debug("hidden")
	l.Info("served", "route", "GET /v1/models", "status", 200)
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("output is not one JSON object: %v\n%s", err, buf.String())
	}
	if rec["msg"] != "served" || rec["route"] != "GET /v1/models" || rec["status"] != float64(200) {
		t.Fatalf("unexpected record: %v", rec)
	}
}

func TestNewLoggerTextLevel(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, "text", slog.LevelWarn)
	l.Info("hidden")
	l.Warn("shown")
	out := buf.String()
	if strings.Contains(out, "hidden") || !strings.Contains(out, "shown") {
		t.Fatalf("level filtering broken:\n%s", out)
	}
}

func TestNopLoggerDiscards(t *testing.T) {
	l := NopLogger()
	if l.Enabled(nil, slog.LevelError) { //nolint:staticcheck // nil ctx fine for Enabled
		t.Fatal("NopLogger claims to be enabled")
	}
	l.Error("nothing happens")
}

func TestNextRequestIDUnique(t *testing.T) {
	a, b := NextRequestID(), NextRequestID()
	if a == b {
		t.Fatalf("request IDs collide: %s", a)
	}
	if !strings.Contains(a, "-") {
		t.Fatalf("unexpected ID shape: %s", a)
	}
}
