// Package hotpathtest is the golden fixture for the hotpath analyzer.
// The test config declares AppendRecord and Metrics.panicked zero-alloc
// entry points and Handle a warm handler. It also names Renamed and
// Gone.Handle, which this package does not declare: a stale name is
// reported at the package clause instead of silently switching its check
// off.
package hotpathtest // want `entry point \S+\.Renamed matches no function` `warm function \S+\.Gone\.Handle matches no function`

import (
	"encoding/json"
	"fmt"
	"strconv"
)

// AppendRecord is the declared entry point; the strict contract follows
// every intra-package call made from it.
func AppendRecord(dst []byte, v int) []byte {
	dst = strconv.AppendInt(dst, int64(v), 10)
	dst = append(dst, mustEncode(v)...)
	return helper(dst, v)
}

func helper(dst []byte, v int) []byte {
	s := fmt.Sprintf("%04d", v) // want `fmt\.Sprintf on the zero-alloc path helper`
	for i := 0; i < 2; i++ {
		scratch := make([]byte, 8) // want `make inside a loop on the zero-alloc path helper`
		_ = scratch
	}
	return append(dst, s...)
}

func mustEncode(v int) []byte {
	b, err := json.Marshal(v) // want `encoding/json on the zero-alloc path mustEncode`
	if err != nil {
		// A fmt call consumed directly by panic is terminal, not steady
		// state, and stays legal even on the strict tier.
		panic(fmt.Sprintf("encode %d: %v", v, err))
	}
	return b
}

// Handle is the declared warm handler; only its own body is checked.
func Handle(lines [][]byte) string {
	out := ""
	dec := json.NewDecoder(nil)
	_ = dec // a per-request decoder outside any loop is legal here
	for _, line := range lines {
		var v struct{ A string }
		if err := json.Unmarshal(line, &v); err != nil { // want `encoding/json inside a loop on the warm handler Handle`
			continue
		}
		out += v.A // want `string concatenation inside a loop on the warm handler Handle`
	}
	summarize(lines)
	return fmt.Sprint(len(lines), out) // want `fmt\.Sprint on the warm handler Handle`
}

// summarize is called from Handle but is neither an entry point nor a
// warm handler: the warm tier does not follow calls.
func summarize(lines [][]byte) string {
	return fmt.Sprintf("%d lines", len(lines))
}

// panics is package-level state the strict tier must not grow.
var panics []string

// Metrics mirrors a request middleware whose panic accounting is a
// declared entry point.
type Metrics struct{ count int }

func (m *Metrics) panicked(route string) {
	m.count++
	panics = append(panics, route) // want `append to a package-level variable on the zero-alloc path Metrics\.panicked`
	local := append([]string(nil), route)
	_ = local
}

// HandleJustified shows the escape hatch on a warm handler.
func HandleJustified(n int) string {
	return fmt.Sprintf("%d", n) //eip:alloc-ok fixture: one-off summary line per request
}
