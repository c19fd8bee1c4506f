package segment

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"entropyip/internal/entropy"
	"entropyip/internal/ip6"
)

// profileFor builds an entropy profile directly from synthetic per-nybble
// entropies by constructing the smallest Profile that works for Segments:
// only H is consulted by the segmentation algorithm.
func profileFor(h []float64) *entropy.Profile {
	p := &entropy.Profile{N: 1}
	copy(p.H[:], h)
	return p
}

func flatProfile(v float64) *entropy.Profile {
	h := make([]float64, ip6.NybbleCount)
	for i := range h {
		h[i] = v
	}
	return profileFor(h)
}

func TestSegmentsForcedBoundariesOnly(t *testing.T) {
	// Flat entropy: only the forced cuts at bits 32 and 64 apply.
	sg := Segments(flatProfile(0.4), Config{})
	if err := sg.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(sg.Segments) != 3 {
		t.Fatalf("segments = %v", sg)
	}
	want := []struct{ start, width int }{{0, 8}, {8, 8}, {16, 16}}
	for i, w := range want {
		s := sg.Segments[i]
		if s.Start != w.start || s.Width != w.width {
			t.Errorf("segment %d = %v, want start %d width %d", i, s, w.start, w.width)
		}
	}
	if sg.Segments[0].Label != "A" || sg.Segments[2].Label != "C" {
		t.Error("labels wrong")
	}
	if sg.Covered() != 32 {
		t.Errorf("Covered = %d", sg.Covered())
	}
}

func TestSegmentsThresholdCrossing(t *testing.T) {
	// Entropy jumps from 0 to 0.8 at nybble 20 -> expect a cut there.
	h := make([]float64, ip6.NybbleCount)
	for i := 20; i < 32; i++ {
		h[i] = 0.8
	}
	sg := Segments(profileFor(h), Config{})
	if err := sg.Validate(); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range sg.Segments {
		if s.Start == 20 {
			found = true
		}
	}
	if !found {
		t.Errorf("expected a segment starting at nybble 20: %v", sg)
	}
}

func TestSegmentsHysteresisSuppressesSmallChanges(t *testing.T) {
	// A small wiggle around a threshold must not create a new segment:
	// 0.49 -> 0.52 crosses 0.5 but |diff| = 0.03 < Th.
	h := make([]float64, ip6.NybbleCount)
	for i := range h {
		h[i] = 0.49
	}
	for i := 20; i < 32; i++ {
		h[i] = 0.52
	}
	sg := Segments(profileFor(h), Config{})
	for _, s := range sg.Segments {
		if s.Start == 20 {
			t.Errorf("hysteresis should suppress cut at 20: %v", sg)
		}
	}
	// The paper's example: 0.49 -> 0.55 (crosses 0.5 and exceeds Th).
	for i := 20; i < 32; i++ {
		h[i] = 0.55
	}
	sg = Segments(profileFor(h), Config{})
	if _, ok := findStart(sg, 20); !ok {
		t.Errorf("expected cut at 20 for 0.49->0.55: %v", sg)
	}
	// And 0.49 -> 0.29 (crosses 0.3 downward).
	for i := 20; i < 32; i++ {
		h[i] = 0.29
	}
	sg = Segments(profileFor(h), Config{})
	if _, ok := findStart(sg, 20); !ok {
		t.Errorf("expected cut at 20 for 0.49->0.29: %v", sg)
	}
}

func findStart(sg *Segmentation, start int) (Segment, bool) {
	for _, s := range sg.Segments {
		if s.Start == start {
			return s, true
		}
	}
	return Segment{}, false
}

func TestSegmentsNoCrossingWithoutThreshold(t *testing.T) {
	// 0.6 -> 0.8 crosses no threshold (none between 0.6 and 0.8), so no cut
	// even though the change is large.
	h := make([]float64, ip6.NybbleCount)
	for i := range h {
		h[i] = 0.6
	}
	for i := 24; i < 32; i++ {
		h[i] = 0.8
	}
	sg := Segments(profileFor(h), Config{})
	if _, ok := findStart(sg, 24); ok {
		t.Errorf("no threshold between 0.6 and 0.8; cut unexpected: %v", sg)
	}
}

func TestSegmentsMaxNybble(t *testing.T) {
	sg := Segments(flatProfile(0.2), Config{MaxNybble: 16})
	if err := sg.Validate(); err != nil {
		t.Fatal(err)
	}
	if sg.Covered() != 16 {
		t.Errorf("Covered = %d, want 16", sg.Covered())
	}
	for _, s := range sg.Segments {
		if s.End() > 16 {
			t.Errorf("segment %v extends past nybble 16", s)
		}
	}
}

func TestSegmentsCustomConfig(t *testing.T) {
	// Disable hysteresis and use a single threshold.
	h := make([]float64, ip6.NybbleCount)
	for i := 10; i < 32; i++ {
		h[i] = 0.06
	}
	sg := Segments(profileFor(h), Config{Thresholds: []float64{0.05}, Hysteresis: -1, ForcedBoundaries: []int{64}})
	if _, ok := findStart(sg, 10); !ok {
		t.Errorf("expected cut at 10: %v", sg)
	}
	if _, ok := findStart(sg, 8); ok {
		t.Errorf("boundary at 32 bits should not be forced here: %v", sg)
	}
	if _, ok := findStart(sg, 16); !ok {
		t.Errorf("boundary at 64 bits should be forced: %v", sg)
	}
	// Invalid forced boundaries are ignored.
	sg = Segments(flatProfile(0.1), Config{ForcedBoundaries: []int{30, 0, 128, -4}})
	if len(sg.Segments) != 2 {
		// Only the 16-nybble cap splits the address (at nybble 16).
		t.Errorf("unexpected segmentation %v", sg)
	}
}

func TestSegmentsNeverWiderThan16(t *testing.T) {
	f := func(raw [32]uint8, seed int64) bool {
		h := make([]float64, ip6.NybbleCount)
		for i, v := range raw {
			h[i] = float64(v) / 255
		}
		sg := Segments(profileFor(h), Config{})
		if err := sg.Validate(); err != nil {
			return false
		}
		return sg.Covered() == ip6.NybbleCount
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSegmentValueRoundTrip(t *testing.T) {
	sg := Segments(flatProfile(0.4), Config{})
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		var b [16]byte
		rng.Read(b[:])
		a := ip6.AddrFrom16(b)
		vals := sg.Values(a)
		back, err := sg.Assemble(vals)
		if err != nil {
			t.Fatal(err)
		}
		if back != a {
			t.Fatalf("round trip failed: %v != %v", back, a)
		}
	}
}

func TestAssembleErrors(t *testing.T) {
	sg := Segments(flatProfile(0.4), Config{})
	if _, err := sg.Assemble([]uint64{1}); err == nil {
		t.Error("expected length mismatch error")
	}
	vals := make([]uint64, len(sg.Segments))
	vals[0] = 1 << 60 // segment 0 has width 8 nybbles = 32 bits
	if _, err := sg.Assemble(vals); err == nil {
		t.Error("expected overflow error")
	}
}

func TestSegmentAccessors(t *testing.T) {
	s := Segment{Label: "B", Start: 8, Width: 2}
	if s.StartBit() != 32 || s.EndBit() != 40 || s.End() != 10 {
		t.Error("bit accessors wrong")
	}
	if s.String() != "B(32-40)" {
		t.Errorf("String = %q", s.String())
	}
	a := ip6.MustParseAddr("2001:db8:42ff::1")
	if s.Value(a) != 0x42 {
		t.Errorf("Value = %x", s.Value(a))
	}
	if s.MaxValue() != 0xff {
		t.Errorf("MaxValue = %x", s.MaxValue())
	}
	if s.FormatValue(0x7) != "07" {
		t.Errorf("FormatValue = %q", s.FormatValue(7))
	}
	full := Segment{Start: 16, Width: 16}
	if full.MaxValue() != ^uint64(0) {
		t.Error("full-width MaxValue should be all ones")
	}
}

func TestLabel(t *testing.T) {
	cases := map[int]string{0: "A", 1: "B", 25: "Z", 26: "AA", 27: "AB", 51: "AZ", 52: "BA", -1: "?"}
	for i, want := range cases {
		if got := Label(i); got != want {
			t.Errorf("Label(%d) = %q, want %q", i, got, want)
		}
	}
}

func TestFindAndAt(t *testing.T) {
	sg := Segments(flatProfile(0.4), Config{})
	if s, ok := sg.Find("B"); !ok || s.Start != 8 {
		t.Errorf("Find(B) = %v, %v", s, ok)
	}
	if _, ok := sg.Find("Z"); ok {
		t.Error("Find(Z) should fail")
	}
	if s, ok := sg.At(20); !ok || s.Label != "C" {
		t.Errorf("At(20) = %v, %v", s, ok)
	}
	if _, ok := sg.At(99); ok {
		t.Error("At(99) should fail")
	}
}

func TestSegmentationString(t *testing.T) {
	sg := Segments(flatProfile(0.4), Config{})
	s := sg.String()
	if !strings.HasPrefix(s, "A(0-32) B(32-64)") && !strings.Contains(s, "A(0-32)") {
		t.Errorf("String = %q", s)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	sg := Segments(flatProfile(0.4), Config{})
	bad := &Segmentation{Segments: append([]Segment(nil), sg.Segments...)}
	bad.Segments[1].Start = 9
	if err := bad.Validate(); err == nil {
		t.Error("expected validation error for gap")
	}
	bad2 := &Segmentation{Segments: []Segment{{Label: "A", Start: 0, Width: 20}}}
	if err := bad2.Validate(); err == nil {
		t.Error("expected validation error for width > 16")
	}
	bad3 := &Segmentation{Segments: []Segment{{Label: "X", Start: 0, Width: 4}}}
	if err := bad3.Validate(); err == nil {
		t.Error("expected validation error for wrong label")
	}
}

func TestSegmentsOnRealProfile(t *testing.T) {
	// End-to-end: constant /64 prefix with random IIDs must produce a
	// segmentation with a boundary at nybble 16 and high-entropy segments
	// only below it.
	rng := rand.New(rand.NewSource(9))
	base := ip6.MustParseAddr("2001:db8:10:13::")
	addrs := make([]ip6.Addr, 5000)
	for i := range addrs {
		addrs[i] = base.SetField(16, 16, rng.Uint64())
	}
	p := entropy.NewProfile(addrs)
	sg := Segments(p, Config{})
	if err := sg.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, ok := findStart(sg, 16); !ok {
		t.Errorf("expected forced boundary at nybble 16: %v", sg)
	}
	for _, s := range sg.Segments {
		if s.End() <= 16 && s.MeanEntropy > 0.3 {
			t.Errorf("network segment %v should have low entropy (%v)", s, s.MeanEntropy)
		}
		if s.Start >= 16 && s.MeanEntropy < 0.9 {
			t.Errorf("IID segment %v should have high entropy (%v)", s, s.MeanEntropy)
		}
	}
}
