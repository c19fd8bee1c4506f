// Package dataset handles on-disk IPv6 address datasets: files with one
// address per line (any textual form, '#' comments allowed), read and
// written with deduplication (§3). The paper's train/test split and
// stratified per-/32 sampling (§5.1) live in package stats.
package dataset

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"

	"entropyip/internal/ip6"
)

// Dataset is a named collection of unique IPv6 addresses.
type Dataset struct {
	// Name identifies the dataset (e.g. "S1").
	Name string
	// Addrs holds the unique addresses in load or generation order.
	Addrs []ip6.Addr
}

// New builds a dataset from addresses, removing duplicates while keeping
// first-occurrence order.
func New(name string, addrs []ip6.Addr) *Dataset {
	return &Dataset{Name: name, Addrs: ip6.Dedup(addrs)}
}

// Len returns the number of unique addresses.
func (d *Dataset) Len() int { return len(d.Addrs) }

// Set returns the addresses as a membership set.
func (d *Dataset) Set() *ip6.Set {
	s := ip6.NewSet(len(d.Addrs))
	s.AddAll(d.Addrs)
	return s
}

// MaxLineBytes bounds the length of one input line everywhere NDJSON and
// dataset text flows into the system (dataset.Read, ingest.TailFile, the
// /observe handler): longer lines are an input error, never an unbounded
// buffer. It matches the historical bufio.Scanner cap.
const MaxLineBytes = 1 << 20

// Read parses addresses from r, one per line, in one sequential pass.
// Lines are read as ParseLineBytes defines them: blank and '#' lines are
// skipped, and any form accepted by ip6.ParseAddr is allowed, including
// the fixed-width 32-hex-character form. Duplicates are removed, keeping
// first-occurrence order. The first malformed line fails the read with
// its line number. Each line is parsed in the scanner's reused buffer
// into fixed-size chunks, which are never copied to grow; once the count
// is known, one pass moves the chunks through a set and an output sized
// for it.
func Read(name string, r io.Reader) (*Dataset, error) {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 64*1024), MaxLineBytes)
	var chunks [][]ip6.Addr
	var cur []ip6.Addr
	n, lineNo := 0, 0
	for scanner.Scan() {
		lineNo++
		a, ok, err := ParseLineBytes(scanner.Bytes())
		if err != nil {
			return nil, fmt.Errorf("dataset %s: line %d: %w", name, lineNo, err)
		}
		if !ok {
			continue
		}
		if len(cur) == cap(cur) {
			if cur != nil {
				chunks = append(chunks, cur)
			}
			cur = make([]ip6.Addr, 0, readChunk)
		}
		cur = append(cur, a)
		n++
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("dataset %s: %w", name, err)
	}
	chunks = append(chunks, cur)
	seen := ip6.NewSet(n)
	addrs := make([]ip6.Addr, 0, n)
	for i, c := range chunks {
		for _, a := range c {
			if seen.Add(a) {
				addrs = append(addrs, a)
			}
		}
		chunks[i] = nil // let the collector have it back
	}
	return &Dataset{Name: name, Addrs: addrs}, nil
}

// readChunk is the number of addresses in each of Read's chunks (64 KiB).
const readChunk = 4096

// ReadWorkers is Read. The worker count is ignored: reading is sequential.
// It remains for callers that still pass one.
func ReadWorkers(name string, r io.Reader, workers int) (*Dataset, error) {
	return Read(name, r)
}

// ParseLineBytes normalizes and parses one line of an address file:
// whitespace is trimmed, trailing comments and /len prefix notation are
// dropped, and the remainder is parsed as ip6.ParseAddrBytes does. ok is
// false for blank and comment ('#') lines. It is the single line-format
// definition shared by Read, streaming ingest (tail mode) and the
// /observe handler; it does not allocate and does not retain raw, so
// bufio.Scanner/Reader slices can be passed straight in.
func ParseLineBytes(raw []byte) (a ip6.Addr, ok bool, err error) {
	line := bytes.TrimSpace(raw)
	if len(line) == 0 || line[0] == '#' {
		return ip6.Addr{}, false, nil
	}
	// The address ends at the first space or tab (a trailing comment) or
	// '/' (prefix notation; the length is ignored), where the parser's
	// own walk stops.
	a, err = ip6.ParseAddrField(line)
	if err != nil {
		return ip6.Addr{}, false, err
	}
	return a, true, nil
}

// Write writes the dataset to w in canonical form, one address per line,
// preceded by a comment header.
func (d *Dataset) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# dataset %s: %d unique IPv6 addresses\n", d.Name, len(d.Addrs)); err != nil {
		return err
	}
	line := make([]byte, 0, 64)
	for _, a := range d.Addrs {
		line = a.AppendString(line[:0])
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LoadFile reads a dataset from the named file; the dataset name is the
// file path.
func LoadFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(path, f)
}

// SaveFile writes the dataset to the named file, creating or truncating it.
func (d *Dataset) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := d.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
