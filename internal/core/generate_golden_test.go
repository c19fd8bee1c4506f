package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"entropyip/internal/ip6"
	"entropyip/internal/synth"
)

// TestGenerateGoldenHashes pins the exact unconditional candidate
// sequences of GenerateStream and GeneratePrefixesStream on a 1k-trained
// S5 model: Count 1000 takes the sequential path, Count 5000 at one and
// two workers the parallel one, each for seeds 1, 0 and -7. Unlike
// TestGenerateMatchesReferenceDecode, which replays through stats.Split,
// these hashes do not move with the substream generator, so a change to
// Split or to the source behind it that alters one draw fails here.
func TestGenerateGoldenHashes(t *testing.T) {
	// Both worker counts of Count 5000 must hit the same hash, so the
	// keys leave the worker count out.
	golden := map[string]string{
		"addr/n1000/s1":    "cb7c5fa27be922af2c11a9fe48d0a40b7e4ca5b20248ba410d1c23c84b77560a",
		"addr/n1000/s0":    "b63a40d21b9ea64db8535b2462724c2238aac0e78e93b54b1f11038e4a6c8155",
		"addr/n1000/s-7":   "fad2e181168aad40b576c074482b1613bef84572cdf95c3df1fb4353d539fda9",
		"addr/n5000/s1":    "d31b93870dc108144e98e2da70dc511b8be58f3ec78d4a7f1a0a8bf5fac2a9e2",
		"addr/n5000/s0":    "94b45f8de458259d5f1b8044adbd7e1c40e8913b38b0a5f3fcf8a97a47a7982a",
		"addr/n5000/s-7":   "4056063446dcbf372210336da2632e81fad387482f0224a382fad5eb24f9ee43",
		"prefix/n1000/s1":  "8dd23edc44147bb37724b65e84a64e6768459f2da46ae8a0db2a4ea183bce397",
		"prefix/n1000/s0":  "f00383a61608724ee41959e67c5e20c3c57d4fee48ef0cce8e05617a32c8d6c5",
		"prefix/n1000/s-7": "cbad558b7951d5b31f1e88e991f5e5e5957fcabb2e8ad2166ba8dfc21fad7a39",
		"prefix/n5000/s1":  "044225a4e19bd2b8852dd3295ba72adc8051adac35a4daa08e068b6275a621cb",
		"prefix/n5000/s0":  "c2681b60dcd919af8ceb39e9376d604f1b9e57bd3958ee3af39cae1783d77ccc",
		"prefix/n5000/s-7": "ce90e92515fcd705b05587e581ea67f1a4fc16e67e5c6fa557d4ad20e2927ffa",
	}
	addrs, err := synth.Generate("S5", 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Build(addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	runs := []struct{ count, workers int }{{1000, 1}, {5000, 1}, {5000, 2}}
	for _, run := range runs {
		for _, seed := range []int64{1, 0, -7} {
			opts := GenerateOptions{Count: run.count, Seed: seed, Workers: run.workers}
			key := fmt.Sprintf("n%d/s%d", run.count, seed)

			h := sha256.New()
			n := 0
			err := m.GenerateStream(opts, func(a ip6.Addr) bool {
				b := a.Bytes()
				h.Write(b[:])
				n++
				return true
			})
			if err != nil {
				t.Fatalf("addr/%s w%d: %v", key, run.workers, err)
			}
			if n != run.count {
				t.Fatalf("addr/%s w%d: %d candidates, want %d", key, run.workers, n, run.count)
			}
			checkGolden(t, golden, "addr/"+key, run.workers, h.Sum(nil))

			h.Reset()
			err = m.GeneratePrefixesStream(opts, func(p ip6.Prefix) bool {
				h.Write(p.AppendString(nil))
				h.Write([]byte{'\n'})
				return true
			})
			if err != nil {
				t.Fatalf("prefix/%s w%d: %v", key, run.workers, err)
			}
			checkGolden(t, golden, "prefix/"+key, run.workers, h.Sum(nil))
		}
	}
}

func checkGolden(t *testing.T, golden map[string]string, key string, workers int, sum []byte) {
	t.Helper()
	if got := hex.EncodeToString(sum); got != golden[key] {
		t.Errorf("%s w%d: SHA-256 = %s, want %s", key, workers, got, golden[key])
	}
}

// TestGeneratePrefixesExcludeGoldenHash pins prefix generation with an
// Exclude set: every /64 covering an excluded address is skipped. Count
// 2000 takes the sequential path at one worker and the parallel one at
// four; both must hit the same hash. Without the Exclude set 113 of the
// first 2000 prefixes fall in an excluded /64, so the set is exercised.
func TestGeneratePrefixesExcludeGoldenHash(t *testing.T) {
	const want = "0b7ef393e4ebe558b009d3f42ebe0761451defca9deab380ff38e460a7e0b395"
	addrs, err := synth.Generate("S5", 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Build(addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	exclude := ip6.SetOf(addrs...)
	excluded := make(map[ip6.Prefix]bool)
	for _, a := range addrs {
		excluded[ip6.Prefix64(a)] = true
	}
	for _, workers := range []int{1, 4} {
		opts := GenerateOptions{Count: 2000, Seed: 3, Workers: workers, Exclude: exclude}
		h := sha256.New()
		n := 0
		err := m.GeneratePrefixesStream(opts, func(p ip6.Prefix) bool {
			if excluded[p] {
				t.Fatalf("w%d: emitted excluded prefix %v", workers, p)
			}
			h.Write(p.AppendString(nil))
			h.Write([]byte{'\n'})
			n++
			return true
		})
		if err != nil {
			t.Fatalf("w%d: %v", workers, err)
		}
		if n != opts.Count {
			t.Fatalf("w%d: %d prefixes, want %d", workers, n, opts.Count)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("w%d: SHA-256 = %s, want %s", workers, got, want)
		}
	}
}
