package ingest

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"entropyip/internal/ip6"
)

func addr(t *testing.T, s string) ip6.Addr {
	t.Helper()
	a, err := ip6.ParseAddr(s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestBufferWindowSlides(t *testing.T) {
	b := New(Config{WindowSize: 4})
	for i := 0; i < 10; i++ {
		if !offer(b, addr(t, fmt.Sprintf("2001:db8::%d", i+1))) {
			t.Fatalf("Add %d rejected", i)
		}
	}
	snap := b.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("window = %d addresses, want 4", len(snap))
	}
	seen := ip6.SetOf(snap...)
	for i := 7; i <= 10; i++ {
		if !seen.Contains(addr(t, fmt.Sprintf("2001:db8::%d", i))) {
			t.Errorf("window lost recent address ::%d", i)
		}
	}
	st := b.Stats()
	if st.Observed != 10 || st.Accepted != 10 || st.Evicted != 6 {
		t.Errorf("stats = %+v, want observed=10 accepted=10 evicted=6", st)
	}
}

func TestBufferPer64CapKeepsNewest(t *testing.T) {
	b := New(Config{WindowSize: 100, MaxPer64: 2})
	// 5 addresses in one /64: only 2 window slots, holding the NEWEST two
	// (a capped prefix's slots must not freeze on its first addresses).
	for i := 0; i < 5; i++ {
		if !offer(b, addr(t, fmt.Sprintf("2001:db8:0:1::%d", i+1))) {
			t.Fatalf("Add %d rejected", i)
		}
	}
	// Another /64 is unaffected.
	offer(b, addr(t, "2001:db8:0:2::1"))
	st := b.Stats()
	if st.Accepted != 6 || st.Deduped != 3 {
		t.Errorf("stats = %+v, want accepted=6 deduped=3", st)
	}
	if st.Window != 3 {
		t.Errorf("window = %d, want 3 (2 capped + 1 other)", st.Window)
	}
	if st.Prefixes64 != 2 {
		t.Errorf("prefixes64 = %d, want 2", st.Prefixes64)
	}
	seen := ip6.SetOf(b.Snapshot()...)
	for _, want := range []string{"2001:db8:0:1::4", "2001:db8:0:1::5", "2001:db8:0:2::1"} {
		if !seen.Contains(addr(t, want)) {
			t.Errorf("window lost %s", want)
		}
	}
	if seen.Contains(addr(t, "2001:db8:0:1::1")) {
		t.Error("capped prefix kept its oldest entry instead of the newest")
	}
}

func TestBufferPer64CapSlotsReleasedOnEviction(t *testing.T) {
	b := New(Config{WindowSize: 2, MaxPer64: 2})
	offer(b, addr(t, "2001:db8:0:1::1"))
	offer(b, addr(t, "2001:db8:0:1::2"))
	// Capped: replaces ::1 in place.
	if !offer(b, addr(t, "2001:db8:0:1::3")) {
		t.Fatal("capped add should replace, not reject")
	}
	// Ring eviction by another /64 must release the first prefix's slot
	// accounting so later adds of that prefix take normal slots again.
	offer(b, addr(t, "2001:db8:0:2::1"))
	offer(b, addr(t, "2001:db8:0:2::2"))
	offer(b, addr(t, "2001:db8:0:1::4"))
	st := b.Stats()
	if st.Window != 2 {
		t.Fatalf("window = %d, want 2", st.Window)
	}
	if st.Deduped != 1 {
		t.Errorf("deduped = %d, want 1 (only the in-place replacement)", st.Deduped)
	}
	if !ip6.SetOf(b.Snapshot()...).Contains(addr(t, "2001:db8:0:1::4")) {
		t.Error("window lost the newest address")
	}
}

func TestBufferConcurrentAddSnapshot(t *testing.T) {
	b := New(Config{WindowSize: 1024, MaxPer64: 4})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				offer(b, addr(t, fmt.Sprintf("2001:db8:%x:%x::%x", w, i%32, i+1)))
				if i%64 == 0 {
					_ = b.Snapshot()
					_ = b.Stats()
				}
			}
		}(w)
	}
	wg.Wait()
	st := b.Stats()
	if st.Observed != 16000 {
		t.Errorf("observed = %d, want 16000", st.Observed)
	}
	if st.Window > 1024 {
		t.Errorf("window = %d exceeds capacity 1024", st.Window)
	}
	if st.Accepted != st.Observed {
		t.Errorf("accepted %d != observed %d (capped adds replace, never drop)", st.Accepted, st.Observed)
	}
}

// skewedAddrs returns n addresses whose /64 prefixes follow a Zipf law
// over 512 prefixes, the heavy-hitter shape live traffic has.
func skewedAddrs(n int) []ip6.Addr {
	rng := rand.New(rand.NewSource(1))
	z := rand.NewZipf(rng, 1.2, 1, 511)
	out := make([]ip6.Addr, n)
	for i := range out {
		out[i] = ip6.AddrFromUint64s(0x20010db800000000|z.Uint64()<<8, rng.Uint64())
	}
	return out
}

func TestBufferWindowIndependentOfGOMAXPROCS(t *testing.T) {
	addrs := skewedAddrs(40_000)
	for _, maxPer64 := range []int{0, 8} {
		var snaps [2][]ip6.Addr
		for i, procs := range []int{1, 8} {
			prev := runtime.GOMAXPROCS(procs)
			b := New(Config{WindowSize: 4096, MaxPer64: maxPer64})
			b.AddBatch(addrs)
			snaps[i] = b.Snapshot()
			runtime.GOMAXPROCS(prev)
		}
		if !slices.Equal(snaps[0], snaps[1]) {
			t.Errorf("MaxPer64=%d: window under GOMAXPROCS(1) differs from GOMAXPROCS(8)", maxPer64)
		}
	}
}

func TestBufferWindowHoldsLastWindowSizeAdds(t *testing.T) {
	addrs := skewedAddrs(10_050)
	b := New(Config{WindowSize: 1000})
	b.AddBatch(addrs)
	snap := b.Snapshot()
	if len(snap) != 1000 {
		t.Fatalf("window = %d addresses, want 1000", len(snap))
	}
	got := ip6.SetOf(snap...)
	want := ip6.SetOf(addrs[len(addrs)-1000:]...)
	if got.Len() != want.Len() {
		t.Fatalf("window holds %d distinct addresses, want %d", got.Len(), want.Len())
	}
	for _, a := range addrs[len(addrs)-1000:] {
		if !got.Contains(a) {
			t.Fatalf("window lost recent address %s", a)
		}
	}
}

// TestBufferDrainReportsChangedSlots replays Drain's reports onto a copy
// of the window kept by the caller: after every batch, the copy must equal
// the snapshot, each reported previous address must be what the copy held
// in that slot, and no slot may be reported twice in one drain. Every
// fifth round starts over from DrainAll.
func TestBufferDrainReportsChangedSlots(t *testing.T) {
	addrs := skewedAddrs(12_000)
	for _, maxPer64 := range []int{0, 3} {
		b := New(Config{WindowSize: 1000, MaxPer64: maxPer64})
		var mirror []ip6.Addr
		drain := func() int {
			filled := len(mirror)
			seen := map[int]bool{}
			for _, c := range b.Drain(nil) {
				if seen[c.Slot] {
					t.Fatalf("MaxPer64=%d: slot %d reported twice", maxPer64, c.Slot)
				}
				seen[c.Slot] = true
				for c.Slot >= len(mirror) {
					mirror = append(mirror, ip6.Addr{})
				}
				if c.HadPrev != (c.Slot < filled) || c.Prev != mirror[c.Slot] {
					t.Fatalf("MaxPer64=%d: slot %d reported previous %s (had %v), mirror holds %s",
						maxPer64, c.Slot, c.Prev, c.HadPrev, mirror[c.Slot])
				}
				mirror[c.Slot] = c.Cur
			}
			return len(seen)
		}
		// Nothing is recorded before the first drain, which reports the
		// whole window.
		b.AddBatch(addrs[:1500])
		if n, want := drain(), b.Len(); n != want {
			t.Fatalf("MaxPer64=%d: first drain reported %d slots, want %d", maxPer64, n, want)
		}
		for i, round := 1500, 1; i < len(addrs); i, round = i+700, round+1 {
			b.AddBatch(addrs[i:min(i+700, len(addrs))])
			if round%5 == 0 {
				mirror = b.DrainAll()
			} else if n := drain(); n > 1000 {
				t.Fatalf("MaxPer64=%d: drain reported %d slots of 1000", maxPer64, n)
			}
			if !slices.Equal(mirror, b.Snapshot()) {
				t.Fatalf("MaxPer64=%d: after %d adds the drained copy differs from the snapshot", maxPer64, i+700)
			}
		}
		if n := drain(); n != 0 {
			t.Errorf("MaxPer64=%d: drain with no writes reported %d slots", maxPer64, n)
		}
	}
}

// TestBufferDrainFillingWindow covers slots that were empty at the last
// drain: they come back without a previous address, even when written
// twice before the next drain.
func TestBufferDrainFillingWindow(t *testing.T) {
	b := New(Config{WindowSize: 8, MaxPer64: 1})
	if got := b.DrainAll(); len(got) != 0 {
		t.Fatalf("empty buffer drained %d addresses", len(got))
	}
	offer(b, addr(t, "2001:db8:0:1::1"))
	offer(b, addr(t, "2001:db8:0:1::2")) // same /64: replaces slot 0
	offer(b, addr(t, "2001:db8:0:2::1"))
	want := []Change{
		{Slot: 0, Cur: addr(t, "2001:db8:0:1::2")},
		{Slot: 1, Cur: addr(t, "2001:db8:0:2::1")},
	}
	if got := b.Drain(nil); !slices.Equal(got, want) {
		t.Errorf("drain = %+v, want %+v", got, want)
	}
	offer(b, addr(t, "2001:db8:0:1::3"))
	want = []Change{{Slot: 0, Prev: want[0].Cur, HadPrev: true, Cur: addr(t, "2001:db8:0:1::3")}}
	if got := b.Drain(nil); !slices.Equal(got, want) {
		t.Errorf("drain = %+v, want %+v", got, want)
	}
}

// offer adds one address to the window.
func offer(b *Buffer, a ip6.Addr) bool { return b.AddBatch([]ip6.Addr{a}) == 1 }
