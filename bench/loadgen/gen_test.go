package loadgen

import (
	"bytes"
	"math"
	"testing"
)

var testSpec = Spec{Keys: 4096, ValueSize: 64, Conns: 2, Depth: 16, GetShare: 0.5, Zipf: 0.99}

// wireStream is the first n requests of a generator as the server
// would receive them.
func wireStream(spec Spec, seed uint64, conn, n int) []byte {
	g := NewGen(spec, seed, conn)
	var out, val []byte
	for i := 0; i < n; i++ {
		r := g.Next()
		if r.Op == OpGet {
			out = AppendGet(out, g.Name(r.Key))
		} else {
			val = AppendValue(val[:0], r.Key, r.Ver, spec.ValueSize)
			out = AppendSet(out, g.Name(r.Key), val)
		}
	}
	return out
}

func TestStreamIsAFunctionOfSeedAndConnection(t *testing.T) {
	a := wireStream(testSpec, 7, 0, 3000)
	if b := wireStream(testSpec, 7, 0, 3000); !bytes.Equal(a, b) {
		t.Fatal("same seed and connection produced different request bytes")
	}
	if b := wireStream(testSpec, 8, 0, 3000); bytes.Equal(a, b) {
		t.Fatal("a different seed produced the same request bytes")
	}
	if b := wireStream(testSpec, 7, 1, 3000); bytes.Equal(a, b) {
		t.Fatal("a different connection produced the same request bytes")
	}
}

func TestKeysBelongToOneConnection(t *testing.T) {
	for conn := 0; conn < testSpec.Conns; conn++ {
		g := NewGen(testSpec, 1, conn)
		if len(g.Owned()) != testSpec.Keys/testSpec.Conns {
			t.Fatalf("conn %d owns %d keys", conn, len(g.Owned()))
		}
		for i := 0; i < 5000; i++ {
			if r := g.Next(); r.Key%testSpec.Conns != conn {
				t.Fatalf("conn %d drew key %d, another connection's", conn, r.Key)
			}
		}
	}
}

func TestGetExpectsLatestSet(t *testing.T) {
	g := NewGen(testSpec, 3, 0)
	latest := map[int]uint32{}
	for i := 0; i < 20000; i++ {
		r := g.Next()
		switch r.Op {
		case OpSet:
			prev := latest[r.Key]
			if prev == 0 {
				prev = 1 // the preload
			}
			if r.Ver != prev+1 {
				t.Fatalf("set of key %d carries v%d after v%d", r.Key, r.Ver, prev)
			}
			latest[r.Key] = r.Ver
		case OpGet:
			want := latest[r.Key]
			if want == 0 {
				want = 1
			}
			if r.Ver != want {
				t.Fatalf("get of key %d expects v%d, latest set was v%d", r.Key, r.Ver, want)
			}
		}
		if g.Issued(r.Key) != r.Ver {
			t.Fatalf("Issued(%d) = %d, request carried v%d", r.Key, g.Issued(r.Key), r.Ver)
		}
	}
}

func TestZipfShape(t *testing.T) {
	const n, s = 2048, 0.99
	cdf := ZipfCDF(n, s)
	if math.Abs(cdf[n-1]-1) > 1e-12 {
		t.Fatalf("CDF ends at %v, want 1", cdf[n-1])
	}
	for r := 1; r < n; r++ {
		if cdf[r] <= cdf[r-1] {
			t.Fatalf("CDF not increasing at rank %d", r)
		}
	}
	// Rank r's weight is 1/(r+1)^s: rank 0 is 2^s times rank 1.
	if got, want := cdf[0]/(cdf[1]-cdf[0]), math.Pow(2, s); math.Abs(got-want) > 1e-9 {
		t.Fatalf("rank 0 : rank 1 = %v, want %v", got, want)
	}

	// The generator's draws follow it: hottest key's share within a
	// tenth of the law's, and far above uniform's 1/n.
	spec := testSpec
	spec.Conns, spec.Keys, spec.GetShare = 1, n, 1
	g := NewGen(spec, 11, 0)
	counts := map[int]int{}
	const draws = 400000
	for i := 0; i < draws; i++ {
		counts[g.Next().Key]++
	}
	hot := float64(counts[g.Owned()[0]]) / draws
	if math.Abs(hot-cdf[0])/cdf[0] > 0.1 {
		t.Fatalf("hottest key drew %.4f of requests, the law says %.4f", hot, cdf[0])
	}
	if hot < 50.0/n {
		t.Fatalf("hottest key's share %.4f is not skewed (uniform is %.4f)", hot, 1.0/n)
	}

	spec.Zipf = 0
	g = NewGen(spec, 11, 0)
	counts = map[int]int{}
	for i := 0; i < draws; i++ {
		counts[g.Next().Key]++
	}
	for k, c := range counts {
		if share := float64(c) / draws; share > 3.0/n {
			t.Fatalf("uniform draw gave key %d a share of %.5f", k, share)
		}
	}
}

func TestValueRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		k   int
		ver uint32
	}{{0, 1}, {17, 42}, {4095, 4294967295}} {
		val := AppendValue(nil, tc.k, tc.ver, 64)
		if len(val) != 64 {
			t.Fatalf("value is %d bytes, want 64", len(val))
		}
		k, ver, ok := ParseValue(val, 64)
		if !ok || k != tc.k || ver != tc.ver {
			t.Fatalf("ParseValue(%q) = %d, %d, %v", val, k, ver, ok)
		}
		val[40] ^= 1
		if _, _, ok := ParseValue(val, 64); ok {
			t.Fatalf("a flipped filler byte still parsed as exact")
		}
	}
	if got := string(AppendValue(nil, 17, 42, 64)[:17]); got != "00017:0000000042:" {
		t.Fatalf("value header %q", got)
	}
	if KeyName(17) != "bk00017" {
		t.Fatalf("KeyName(17) = %q", KeyName(17))
	}
}
