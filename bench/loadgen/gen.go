// Package loadgen generates the benchmark's key/value traffic, speaks
// the memcached text protocol to ptmserve, and checks every reply. It
// imports nothing from the program under test: the server sees only
// the bytes this package writes to its socket.
package loadgen

import (
	"math"
	"math/rand/v2"
	"sort"
	"strconv"
)

// Spec is one workload's traffic shape.
type Spec struct {
	Keys      int     // keyspace size, preloaded during set-up
	ValueSize int     // bytes per value
	Conns     int     // connections; key k belongs to connection k % Conns
	Depth     int     // closed loop: requests each connection keeps in flight
	GetShare  float64 // fraction of requests that are gets
	Zipf      float64 // key skew exponent; 0 draws keys uniformly
	RateHz    float64 // open loop: requests per second over all connections, on a fixed schedule; 0 = closed loop
	MaxOut    int     // open loop: cap on requests in flight per connection
}

// Op is a request kind.
type Op uint8

const (
	OpSet Op = iota
	OpGet
)

// Req is one generated request. For a set, Ver is the version written;
// for a get, the version the reply must carry (the latest set issued
// before it on the same connection).
type Req struct {
	Op  Op
	Key int
	Ver uint32
}

// Gen is one connection's deterministic request stream. The stream
// depends only on (seed, connection index, Spec).
type Gen struct {
	rng      *rand.Rand
	getShare float64
	keys     []int     // owned keys; index = popularity rank under Zipf
	names    []string  // per key id: its wire name, built once
	cdf      []float64 // Zipf cumulative weights over ranks; nil = uniform
	issued   []uint32  // per key id: last version issued by a set
}

// NewGen builds connection conn's generator. Every key starts at
// version 1, the version Preload writes.
func NewGen(spec Spec, seed uint64, conn int) *Gen {
	g := &Gen{
		rng:      rand.New(rand.NewPCG(seed, uint64(conn)+1)),
		getShare: spec.GetShare,
		issued:   make([]uint32, spec.Keys),
		names:    make([]string, spec.Keys),
	}
	for k := conn; k < spec.Keys; k += spec.Conns {
		g.keys = append(g.keys, k)
		g.issued[k] = 1
		g.names[k] = KeyName(k)
	}
	// Popularity rank is a seeded shuffle of the owned keys, so the hot
	// keys land on different server shards from seed to seed.
	g.rng.Shuffle(len(g.keys), func(i, j int) { g.keys[i], g.keys[j] = g.keys[j], g.keys[i] })
	if spec.Zipf > 0 {
		g.cdf = ZipfCDF(len(g.keys), spec.Zipf)
	}
	return g
}

// ZipfCDF returns the cumulative distribution of a Zipf law with
// exponent s over ranks 0..n-1 (weight of rank r is 1/(r+1)^s).
func ZipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for r := range cdf {
		sum += 1 / math.Pow(float64(r+1), s)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	return cdf
}

// Next draws the next request and advances the key's version on a set.
func (g *Gen) Next() Req {
	isGet := g.rng.Float64() < g.getShare
	var rank int
	if g.cdf == nil {
		rank = g.rng.IntN(len(g.keys))
	} else {
		rank = sort.SearchFloat64s(g.cdf, g.rng.Float64())
		if rank >= len(g.keys) {
			rank = len(g.keys) - 1
		}
	}
	k := g.keys[rank]
	if isGet {
		return Req{Op: OpGet, Key: k, Ver: g.issued[k]}
	}
	g.issued[k]++
	return Req{Op: OpSet, Key: k, Ver: g.issued[k]}
}

// Issued reports the last version a set carried for key k (1 if only
// the preload wrote it).
func (g *Gen) Issued(k int) uint32 { return g.issued[k] }

// Name is key k's wire name; k must be one of Owned.
func (g *Gen) Name(k int) string { return g.names[k] }

// Owned lists the keys this generator draws from.
func (g *Gen) Owned() []int { return g.keys }

// KeyName is key k on the wire: "bk" and five digits.
func KeyName(k int) string { return string(appendPadded([]byte("bk"), uint64(k), 5)) }

// appendPadded appends v in decimal, zero-padded to width digits,
// without allocating (the generator runs on the cores the server
// needs).
func appendPadded(dst []byte, v uint64, width int) []byte {
	var digits [20]byte
	i := len(digits)
	for ; v > 0 || i == len(digits); v /= 10 {
		i--
		digits[i] = '0' + byte(v%10)
	}
	for n := len(digits) - i; n < width; n++ {
		dst = append(dst, '0')
	}
	return append(dst, digits[i:]...)
}

// AppendValue appends the size-byte value of (key, version): a
// readable "key:version:" header, then filler derived from both, so a
// reply can be checked byte for byte and a value read after a crash
// names the version that survived.
func AppendValue(dst []byte, k int, ver uint32, size int) []byte {
	start := len(dst)
	dst = append(appendPadded(dst, uint64(k), 5), ':')
	dst = append(appendPadded(dst, uint64(ver), 10), ':')
	x := uint64(k)<<32 | uint64(ver)
	for len(dst)-start < size {
		// splitmix64
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		for i := 0; i < 8 && len(dst)-start < size; i++ {
			dst = append(dst, 'a'+byte(z&15))
			z >>= 4
		}
	}
	return dst[:start+size]
}

// ParseValue recovers (key, version) from a value and reports whether
// the whole value is the one AppendValue makes for them.
func ParseValue(val []byte, size int) (k int, ver uint32, ok bool) {
	if len(val) < 17 || val[5] != ':' || val[16] != ':' {
		return 0, 0, false
	}
	k, kerr := strconv.Atoi(string(val[:5]))
	v, verr := strconv.ParseUint(string(val[6:16]), 10, 32)
	if kerr != nil || verr != nil {
		return 0, 0, false
	}
	return k, uint32(v), string(AppendValue(nil, k, uint32(v), size)) == string(val)
}
