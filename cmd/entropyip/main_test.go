package main

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestWriteStages(t *testing.T) {
	var buf bytes.Buffer
	stages := []stageTime{{"entropy", 100 * time.Millisecond}, {"learn", 300 * time.Millisecond}}
	if err := writeStages(&buf, stages); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"entropy", "25.0%", "learn", "75.0%", "total", "400ms"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}
