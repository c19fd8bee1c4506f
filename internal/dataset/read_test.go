package dataset

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"entropyip/internal/ip6"
)

// bigInput synthesizes a dataset file body with comments, blank lines,
// trailing annotations, prefix notation, CRLF line ends and duplicates —
// every shape Read accepts.
func bigInput(lines int) string {
	var sb strings.Builder
	sb.WriteString("# synthetic dataset\n\n")
	for i := 0; i < lines; i++ {
		switch i % 6 {
		case 0:
			fmt.Fprintf(&sb, "2001:db8:%x::%x\n", i%0xffff, i)
		case 1:
			fmt.Fprintf(&sb, "2001:db8:%x::%x  # trailing comment\n", i%0xffff, i)
		case 2:
			fmt.Fprintf(&sb, "2001:db8:%x::%x/64\n", i%0xffff, i)
		case 3:
			sb.WriteString("2001:db8::dead:beef\n") // duplicate every 6 lines
		case 4:
			fmt.Fprintf(&sb, "2001:db8:%x::%x\r\n", i%0xffff, i)
		default:
			fmt.Fprintf(&sb, "20010db8%024x\n", i)
		}
	}
	return sb.String()
}

// chunkInput returns a file body of n address lines, with a comment
// every 1,000 lines. The addresses are distinct except that the first of
// the second chunk repeats the last of the first, and the last line
// repeats the first; at n = readChunk+1 the last line is the one address
// in the second chunk.
func chunkInput(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		if i%1000 == 0 {
			sb.WriteString("# block\n")
		}
		v := i
		switch {
		case i == n-1:
			v = 0
		case i == readChunk:
			v = readChunk - 1
		}
		fmt.Fprintf(&sb, "2001:db8:%x::%x\n", v%7, v)
	}
	return sb.String()
}

// TestReadMatchesLineParse asserts Read is a per-line ParseLineBytes
// followed by ip6.Dedup: same addresses, same order, same dedup. The
// inputs hold every line shape, and address counts at Read's chunk
// boundary.
func TestReadMatchesLineParse(t *testing.T) {
	inputs := map[string]string{"big": bigInput(20_000)}
	for _, n := range []int{readChunk - 1, readChunk, readChunk + 1, 2*readChunk + 1} {
		inputs[fmt.Sprintf("%d addresses", n)] = chunkInput(n)
	}
	for name, input := range inputs {
		var want []ip6.Addr
		for _, line := range strings.Split(input, "\n") {
			a, ok, err := ParseLineBytes([]byte(line))
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				want = append(want, a)
			}
		}
		want = ip6.Dedup(want)
		got, err := Read(name, strings.NewReader(input))
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != len(want) {
			t.Fatalf("%s: %d addresses, want %d", name, got.Len(), len(want))
		}
		for i := range want {
			if got.Addrs[i] != want[i] {
				t.Fatalf("%s: address %d = %v, want %v", name, i, got.Addrs[i], want[i])
			}
		}
	}
}

// TestReadErrorLine asserts Read reports the first malformed line and
// ignores later bad lines.
func TestReadErrorLine(t *testing.T) {
	var sb strings.Builder
	badLine := 0
	lineNo := 0
	for i := 0; i < 15_000; i++ {
		lineNo++
		if i == 9000 {
			sb.WriteString("not-an-address\n")
			badLine = lineNo
			continue
		}
		if i == 14_000 {
			sb.WriteString("also!bad\n")
			continue
		}
		fmt.Fprintf(&sb, "2001:db8::%x\n", i)
	}
	wantFrag := fmt.Sprintf("line %d", badLine)
	_, err := Read("bad", strings.NewReader(sb.String()))
	if err == nil || !strings.Contains(err.Error(), wantFrag) {
		t.Fatalf("err = %v, want %s", err, wantFrag)
	}
}

func TestReadEmpty(t *testing.T) {
	d, err := Read("empty", strings.NewReader("# only comments\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 0 {
		t.Fatalf("Len = %d, want 0", d.Len())
	}
}

// readBenchInput is 100k distinct colon-form lines, the shape train
// writes: a /32 and /48 fixed, low groups varying.
func readBenchInput(n int) []byte {
	var buf []byte
	for i := 0; i < n; i++ {
		a := ip6.MustParseAddr(fmt.Sprintf("2001:db8:%x:%x::%x:%x", i%97, i%4099, i>>8, i*2654435761%0xffff))
		buf = a.AppendString(buf)
		buf = append(buf, '\n')
	}
	return buf
}

// BenchmarkRead100k is the CI-gated cost of reading an address file:
// 100k lines through Read, including dedup.
func BenchmarkRead100k(b *testing.B) {
	input := readBenchInput(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Read("bench", bytes.NewReader(input)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseLineBytes is the CI-gated per-line cost shared by Read,
// tail ingest and /observe; its zero-allocation contract is gated too.
func BenchmarkParseLineBytes(b *testing.B) {
	lines := bytes.Split(bytes.TrimSuffix(readBenchInput(1024), []byte("\n")), []byte("\n"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ParseLineBytes(lines[i%len(lines)]); err != nil {
			b.Fatal(err)
		}
	}
}
