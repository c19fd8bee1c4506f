package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// definition is the part of BENCHMARK.json the smoke test compares the
// command's output with.
type definition struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []defMetric `json:"end_to_end"`
	PerLayer []defMetric `json:"per_layer"`
}

type defMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readDefinition(t *testing.T) definition {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var def definition
	if err := json.Unmarshal(b, &def); err != nil {
		t.Fatal(err)
	}
	return def
}

// TestDefinitionMatchesCommand checks that BENCHMARK.json lists exactly
// the workloads the command runs.
func TestDefinitionMatchesCommand(t *testing.T) {
	def := readDefinition(t)
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, command runs %s", got, want)
	}
}

// TestWorkloadsPrintDefinedMetrics runs all four workloads at a tiny scale,
// untraced and traced, and checks that each prints every metric
// BENCHMARK.json lists for the mode, with its unit, and nothing else, and
// that every correctness check passes.
func TestWorkloadsPrintDefinedMetrics(t *testing.T) {
	def := readDefinition(t)
	for _, mode := range []struct {
		trace string
		want  map[string]string
	}{
		{"0", units(def.EndToEnd)},
		{"1", units(def.PerLayer)},
	} {
		var stdout, stderr bytes.Buffer
		args := []string{"-workload", "all", "-seconds", "0.2", "-scale", "0.01", "-trace", mode.trace, "-workdir", t.TempDir()}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("-trace %s: exit %d\n%s\n%s", mode.trace, code, stdout.String(), stderr.String())
		}
		summaries := 0
		for _, line := range strings.Split(stdout.String(), "\n") {
			switch {
			case strings.HasPrefix(line, "{"):
				summaries++
				var s summary
				if err := json.Unmarshal([]byte(line), &s); err != nil {
					t.Fatalf("-trace %s: summary line %q: %v", mode.trace, line, err)
				}
				if !s.Correct || s.Attempted < 1 || s.Failed != 0 {
					t.Errorf("-trace %s: summary %+v", mode.trace, s)
				}
				if len(s.Metrics) != len(mode.want) {
					t.Errorf("-trace %s: %d metrics in the summary, BENCHMARK.json lists %d", mode.trace, len(s.Metrics), len(mode.want))
				}
				for name, unit := range mode.want {
					if m, ok := s.Metrics[name]; !ok || m.Unit != unit {
						t.Errorf("-trace %s: metric %s missing or not in %s: %+v", mode.trace, name, unit, m)
					}
				}
			case strings.HasPrefix(line, "  metric "):
				f := strings.Fields(line)
				if len(f) != 4 || mode.want[f[1]] != f[3] {
					t.Errorf("-trace %s: printed %q, not a metric BENCHMARK.json lists with that unit", mode.trace, line)
				}
			}
		}
		if summaries != len(def.Workloads) {
			t.Errorf("-trace %s: %d summary lines, want %d", mode.trace, summaries, len(def.Workloads))
		}
	}
}

func units(defs []defMetric) map[string]string {
	out := make(map[string]string, len(defs))
	for _, d := range defs {
		out[d.Name] = d.Unit
	}
	return out
}

// TestQuartilesExclusive pins the quartile rule to Python's
// statistics.quantiles(data, n=4).
func TestQuartilesExclusive(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	// == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartilesExclusive([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
