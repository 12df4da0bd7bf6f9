package simtime

// Rand is a small, fast, deterministic pseudo-random generator
// (splitmix64) used by workloads so that experiment results are
// reproducible and independent of math/rand seeding behaviour.
// Each simulated thread owns its own Rand; it is not safe for
// concurrent use.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed. Two generators with
// the same seed produce identical sequences.
func NewRand(seed uint64) *Rand {
	return &Rand{state: seed*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D}
}

// SplitMix64Next steps the SplitMix64 stream whose state is *state and
// returns its next output. Every deterministic coin in the repo —
// workload generators, trace sampling, crashcheck op parameters,
// client jitter, soak kill timing — is this one function.
func SplitMix64Next(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// SplitMix64 is the stateless form — the first output of the stream
// seeded x — used as a hash of x.
func SplitMix64(x uint64) uint64 { return SplitMix64Next(&x) }

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 { return SplitMix64Next(&r.state) }

// Intn returns a pseudo-random int in [0, n). n must be positive.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("simtime: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a pseudo-random uint64 in [0, n). n must be positive.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("simtime: Uint64n with zero n")
	}
	return r.Uint64() % n
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}
