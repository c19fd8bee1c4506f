package synth

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestCatalogGoldenHashes pins every archetype's default-size population
// byte for byte: the SHA-256 of the 16-byte forms of Generate(name, 0,
// seed), in order, at seeds 1 and 2. Synthesis feeds every model, report
// and benchmark workload, so a change to plan evaluation, the generators
// or the rng draws that moves one address fails here. A change that is
// meant to alter the catalog updates these hashes and says why.
func TestCatalogGoldenHashes(t *testing.T) {
	golden := map[string][2]string{
		"S1": {"65dd6b5b85d1ee100ba2a045cbe269933d294b3692965556029e57087d17604f",
			"7ca40aaf26bfd94a841960da7c545f5546441998be7af7f3af3c56cc597ac831"},
		"S2": {"0d5cc731fed6b226b74791a1f604050c2c24d7cdc326362ffbaa14bf263f8118",
			"67350b886f551d6a3facc37bc1680537ece48eebb25b19bc2617768f6241ee72"},
		"S3": {"1d84e6cd5160d4abf24b14f8f29a0faabb9cea7d5bb0ab27c534eb77abcf351f",
			"b6eeecb1554a119baba2f9d46fa88b074088e86d6639bf0c6f56670e5b9a03cd"},
		"S4": {"e179f8e2d0fea65480d5ae8bf6766ecc67f1fcbb98c9dc62d2b9ab0e6d903287",
			"c0bbc7afb73838b6576a22d700723ab227747c117ab7a3ffe674e131e148a44e"},
		"S5": {"19d69613ea1fe5ce11613cc818059da88c5dd90a81af8f00553ee486f569f8a8",
			"564a518996c305a5230eb1ae5a9c9c2da0c0b23a4b9acbc3b85743d900963393"},
		"R1": {"8bd230dae4597b74c1e64ac817a4bdb6b43ca3e3d51856c2dd87db5c3aff3b32",
			"47371a4093705c3571f5161344c7d0dcf34aebda39408180596c134f22377cdf"},
		"R2": {"3e9bb384e9c0c3157bc8b4f6a62bc8d3d5392b9ca90bcaff8e76a5e59640272e",
			"940e64f0188cf5cd2e3080e15b264a87f7d10ebc33c76f4c4617c7a2d43f0bb3"},
		"R3": {"69aa35aafd5a2c9b97452db0e4c93958b1090a4a6d99a73272700f687d3d754e",
			"b94ce729a09bdbccd05034b6893f3674b7cc685cb0189ebe50670ba8f1c78f20"},
		"R4": {"3b25edb1fa493310439abe3cfa594fd1882bb0a0160d8c536997da8e49d30405",
			"08dd870fb7de2be9c2ed689b26145979e200df1a48b1b97efc18e974e6ea5fd6"},
		"R5": {"aa0bc18c99d23c417f33230086004353b7e60f0fc933fe49e6a526df97dcb5d1",
			"01c249541de514b6019e4ebd3bdf66e3f06db3fd8af16f3f6a0594f58886b25c"},
		"C1": {"f3605c02aa94c35d98c58f0ee38408e10ebf1e4465eab165e8aca4f842c16676",
			"eb1c1218d05766e7d3ec6cd64f99ad2f64cb439443d177e8f00b743e00ba383e"},
		"C2": {"af0f731294135947881010e49ad5647dd5a512e5e9adffc3c1ce731e9e0357df",
			"a54bbfc60a159e0caf0ea0e9af40474958f2f39660e1ea637b4dfecce1e4c74e"},
		"C3": {"a6d573e73e6f3096cf701243ba3c608e7bd83bccf6fb2dc2156ab19e4c38c19c",
			"22d6042c40e429a73c3e5926748b82cc18678ec3f4214e1a5630525eeceb2127"},
		"C4": {"85054fe1ac800e78292173238cb2718e1373fa90c061e4e51405ad586eb0280a",
			"24ee66d4a40dcd81af2c675d0b125c2592218176d86d278814960f00cdeb52a7"},
		"C5": {"eef60414d424c61021e17704b071dc8c56d9ea7723b1f99741be7bfe6d33b23b",
			"f3cf63ec0c1b584310f918835407a367c594e568d41b5e1feac146c6bb8d726c"},
		"AS": {"e37cf4d8c767f97646211b3e8d8599f8fcb35a0611bf73a9119a8f56422dd01f",
			"35ebd8014dc86ca97d3f0626ce375f7d612c35ed2cad6e5aa233e8d6fbb01a65"},
		"AR": {"47a29c2a1e9b11da3d6f0d33bdbb6dc80038c24f0229a2e820c99b7c38e63220",
			"3ec7acbe62215d89de7e000c7a2411f46c8ef06013540d05f5f8cb3ea5509eba"},
		"AC": {"4afacb98bd751b54f16edf4fbc7cdf27a05d954a9396bb44516955ef9a13981a",
			"a284c1019f7506be5cc565fd705524ef1942ca0eca2728db3295e9c892ad80c8"},
		"AT": {"b6afa1b30b8d5d1356c1b4f81bf297a1416e5c64308fae83646e1754256cfa23",
			"22a6893b9d7d1fed871efacabf169c47d721578d585ab5d852bc9968d0606117"},
	}
	for _, name := range Names() {
		for i, seed := range []int64{1, 2} {
			addrs, err := Generate(name, 0, seed)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			for _, a := range addrs {
				h.Write(a[:])
			}
			got := hex.EncodeToString(h.Sum(nil))
			if want := golden[name][i]; got != want {
				t.Errorf("%s seed %d: SHA-256 = %s, want %s", name, seed, got, want)
			}
		}
	}
}
