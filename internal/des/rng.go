package des

import "math"

// RNG is a small, fast, deterministic random number generator
// (xoshiro256** seeded via splitmix64). The simulator cannot use
// math/rand's global state because independent subsystems (workload
// generation, jitter models) must draw from independent, reproducible
// streams.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded deterministically from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	// splitmix64 to spread the seed across the state.
	x := seed
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Split derives an independent stream from this generator. It is used to
// give each subsystem its own stream so that adding draws in one place does
// not perturb another.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("des: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Range returns a uniform value in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Exp returns an exponentially distributed value with the given rate
// (mean 1/rate). Used for Poisson inter-arrival times.
func (r *RNG) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("des: Exp with non-positive rate")
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u) / rate
}

// Weibull returns a Weibull-distributed value with the given shape and
// scale. Weibull inter-arrivals model the bursty submission patterns seen
// in production batch traces.
func (r *RNG) Weibull(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("des: Weibull with non-positive parameter")
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return scale * math.Pow(-math.Log(u), 1/shape)
}

// LogUniform returns a value distributed uniformly in log space over
// [lo, hi]. Job sizes in batch traces are approximately log-uniform.
func (r *RNG) LogUniform(lo, hi float64) float64 {
	if lo <= 0 || hi < lo {
		panic("des: LogUniform with invalid bounds")
	}
	return math.Exp(r.Range(math.Log(lo), math.Log(hi)))
}

// PowerOfTwo returns a uniformly chosen power of two in [lo, hi]. Node
// requests in HPC traces cluster strongly on powers of two.
func (r *RNG) PowerOfTwo(lo, hi int) int {
	if lo <= 0 || hi < lo {
		panic("des: PowerOfTwo with invalid bounds")
	}
	var choices []int
	for p := 1; p <= hi; p *= 2 {
		if p >= lo {
			choices = append(choices, p)
		}
	}
	if len(choices) == 0 {
		return lo
	}
	return choices[r.Intn(len(choices))]
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}
