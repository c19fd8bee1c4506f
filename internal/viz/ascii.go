// Package viz renders Entropy/IP analysis results for humans: ASCII plots
// for terminals, SVG plots of entropy and ACR per nybble (the panels of
// Figs. 1, 6, 7-10 of the paper), the Bayesian-network structure as
// Graphviz DOT (Fig. 2), the windowed-entropy heat map (Fig. 5), and the
// conditional probability browser as a standalone HTML page (Figs. 1b/c).
package viz

import (
	"fmt"
	"strings"

	"entropyip/internal/core"
	"entropyip/internal/ip6"
)

// ASCIIEntropy renders the per-nybble entropy (and, when acr is non-nil,
// the 4-bit ACR) as a fixed-width text chart with one column per nybble,
// suitable for terminals and logs.
func ASCIIEntropy(h []float64, acr []float64, segments []string) string {
	const rows = 10
	var b strings.Builder
	n := len(h)
	if n > ip6.NybbleCount {
		n = ip6.NybbleCount
	}
	// Segment header line (letters aligned to their starting nybble).
	if len(segments) > 0 {
		line := make([]byte, n)
		for i := range line {
			line[i] = ' '
		}
		for i, lbl := range segments {
			if i < n && len(lbl) > 0 {
				line[i] = lbl[0]
			}
		}
		b.WriteString("      ")
		b.Write(line)
		b.WriteByte('\n')
	}
	for row := rows; row >= 1; row-- {
		threshold := float64(row) / rows
		fmt.Fprintf(&b, "%4.1f |", threshold)
		for i := 0; i < n; i++ {
			ch := byte(' ')
			if h[i] >= threshold-1e-9 {
				ch = '#'
			} else if acr != nil && i < len(acr) && acr[i] >= threshold-1e-9 {
				ch = '.'
			}
			b.WriteByte(ch)
		}
		b.WriteByte('\n')
	}
	b.WriteString("     +")
	b.WriteString(strings.Repeat("-", n))
	b.WriteString("\n      bits 0")
	b.WriteString(strings.Repeat(" ", n-12))
	b.WriteString("bits 128\n")
	b.WriteString("      legend: # entropy, . 4-bit ACR\n")
	return b.String()
}

// ASCIIBrowser renders the conditional probability browser (the per-segment
// value distributions) as a text table: one block per segment, one line per
// mined value with a probability bar.
func ASCIIBrowser(dists []core.SegmentDistribution) string {
	var b strings.Builder
	for _, d := range dists {
		fmt.Fprintf(&b, "segment %s\n", d.Label)
		for _, e := range d.Entries {
			bar := strings.Repeat("█", int(e.Prob*30+0.5))
			fmt.Fprintf(&b, "  %-6s %-36s %6.2f%% %s\n", e.Code, e.Display, e.Prob*100, bar)
		}
	}
	return b.String()
}
