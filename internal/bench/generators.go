// Package bench implements the workload generators and measurement harness
// behind every table and figure of the paper's evaluation: db_bench-style
// micro workloads (fillrandom, fillseq, readrandom, mixed ratios), the YCSB
// core workloads A–F, and a Mixgraph-style approximation of Facebook's
// production key-value traffic.
package bench

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
)

// KeyGen produces fixed-width keys over a key space.
type KeyGen struct {
	keySize int
}

// NewKeyGen returns a generator of keySize-byte keys (minimum 16 to fit the
// formatted index).
func NewKeyGen(keySize int) *KeyGen {
	if keySize < 16 {
		keySize = 16
	}
	return &KeyGen{keySize: keySize}
}

// Key renders key index n. Keys are zero-padded so lexicographic order
// matches numeric order (as db_bench does).
func (g *KeyGen) Key(n uint64) []byte {
	k := make([]byte, g.keySize)
	copy(k, fmt.Sprintf("%016d", n))
	for i := 16; i < g.keySize; i++ {
		k[i] = 'x'
	}
	return k
}

// ValueGen produces pseudo-random values that are deliberately hard to
// compress and easy to verify (each value embeds its key index).
type ValueGen struct {
	size int
	pool []byte
}

// NewValueGen returns a generator of size-byte values.
func NewValueGen(size int, seed int64) *ValueGen {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]byte, 1<<20)
	for i := range pool {
		pool[i] = byte(rng.Intn(26)) + 'a'
	}
	return &ValueGen{size: size, pool: pool}
}

// Value renders the value for key index n into a fresh slice.
func (v *ValueGen) Value(n uint64) []byte {
	out := make([]byte, v.size)
	off := int(n*31) % (len(v.pool) - v.size)
	if off < 0 {
		off = 0
	}
	copy(out, v.pool[off:off+v.size])
	// Stamp the key index for verification.
	if v.size >= 16 {
		copy(out, fmt.Sprintf("%016d", n))
	}
	return out
}

// Zipfian implements the YCSB zipfian generator (theta = 0.99 by default),
// which stdlib's rand.Zipf cannot express (it requires s > 1).
type Zipfian struct {
	mu    sync.Mutex
	rng   *rand.Rand
	items uint64
	theta float64
	alpha float64
	zetan float64
	eta   float64
	zeta2 float64
}

// NewZipfian returns a zipfian generator over [0, items) with the YCSB
// default skew.
func NewZipfian(items uint64, seed int64) *Zipfian {
	return NewZipfianTheta(items, 0.99, seed)
}

// NewZipfianTheta returns a zipfian generator with explicit theta.
func NewZipfianTheta(items uint64, theta float64, seed int64) *Zipfian {
	z := &Zipfian{
		rng:   rand.New(rand.NewSource(seed)),
		items: items,
		theta: theta,
	}
	z.zeta2 = zetaStatic(2, theta)
	z.zetan = zetaStatic(items, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(items), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z
}

func zetaStatic(n uint64, theta float64) float64 {
	// Exact up to 10k items, then a standard integral approximation keeps
	// construction O(1) for large key spaces.
	if n <= 10000 {
		var sum float64
		for i := uint64(1); i <= n; i++ {
			sum += 1 / math.Pow(float64(i), theta)
		}
		return sum
	}
	sum := zetaStatic(10000, theta)
	// Integral of x^-theta from 10000 to n.
	sum += (math.Pow(float64(n), 1-theta) - math.Pow(10000, 1-theta)) / (1 - theta)
	return sum
}

// Next returns the next zipfian-distributed index in [0, items). Hot items
// are the low indexes; callers typically hash/scramble them across the key
// space.
func (z *Zipfian) Next() uint64 {
	z.mu.Lock()
	u := z.rng.Float64()
	z.mu.Unlock()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < 1.0+math.Pow(0.5, z.theta) {
		return 1
	}
	return uint64(float64(z.items) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// ScrambledNext spreads the zipfian head across the key space with an FNV
// mix, as YCSB's scrambled zipfian does.
func (z *Zipfian) ScrambledNext() uint64 {
	return fnvMix(z.Next()) % z.items
}

func fnvMix(x uint64) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < 8; i++ {
		h ^= (x >> (8 * i)) & 0xff
		h *= prime
	}
	return h
}

// Pareto samples value sizes from a (bounded) generalized Pareto
// distribution, matching Mixgraph's observation that production value sizes
// follow a Pareto with a small mean.
type Pareto struct {
	mu    sync.Mutex
	rng   *rand.Rand
	scale float64
	shape float64
	min   int
	max   int
}

// NewPareto returns a sampler with the given scale/shape bounded to
// [min, max] bytes.
func NewPareto(scale, shape float64, min, max int, seed int64) *Pareto {
	return &Pareto{rng: rand.New(rand.NewSource(seed)), scale: scale, shape: shape, min: min, max: max}
}

// Next samples one size.
func (p *Pareto) Next() int {
	p.mu.Lock()
	u := p.rng.Float64()
	p.mu.Unlock()
	// Inverse CDF of the generalized Pareto (location = min).
	v := float64(p.min) + p.scale*(math.Pow(1-u, -p.shape)-1)/p.shape
	n := int(v)
	if n < p.min {
		n = p.min
	}
	if n > p.max {
		n = p.max
	}
	return n
}
