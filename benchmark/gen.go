package main

import (
	"encoding/binary"
	"math"
)

// Input generators. Everything here is a pure function of --seed: the same
// seed gives the same key order, the same operation mix and the same value
// bytes, and the engine under test only ever sees the generated inputs.

const (
	keyLen   = 20 // "user" + 16 decimal digits
	valueLen = 256
)

// splitmix64 is the generators' only source of randomness: stateless, so a
// value can be regenerated from (seed, key, version) long after it was
// written, and stable across Go releases (math/rand makes no such promise
// for its unseeded helpers).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rng is a splitmix64 sequence. Each client gets its own stream so adding a
// client does not shift the inputs of the others.
type rng struct{ s uint64 }

func newRNG(seed, stream uint64) *rng {
	return &rng{s: splitmix64(seed ^ splitmix64(stream))}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return splitmix64(r.s)
}

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int {
	return int((r.next() >> 32) * uint64(n) >> 32)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// perm returns a seeded permutation of [0, n): the load order.
func (r *rng) perm(n int) []int32 {
	p := make([]int32, n)
	for i := range p {
		j := r.intn(i + 1)
		p[i] = p[j]
		p[j] = int32(i)
	}
	return p
}

// appendKey appends the key of index idx ("user" + 16 digits) to dst.
func appendKey(dst []byte, idx int) []byte {
	var d [16]byte
	for i := len(d) - 1; i >= 0; i-- {
		d[i] = byte('0' + idx%10)
		idx /= 10
	}
	return append(append(dst, "user"...), d[:]...)
}

// fillValue writes the value of (seed, key idx, version ver) into dst, which
// must be valueLen bytes. The version travels in the first four bytes, so a
// reader holding only the value can regenerate and compare every byte, and a
// check that knows which version it last wrote can also detect a stale or
// lost update — without it every overwrite would store identical bytes and a
// dropped write would be invisible.
func fillValue(dst []byte, seed uint64, idx int, ver uint32) {
	binary.LittleEndian.PutUint32(dst, ver)
	s := splitmix64(seed ^ uint64(idx)*0xd6e8feb86659fd93 ^ uint64(ver)<<40)
	for off := 4; off < valueLen; off += 4 {
		s += 0x9e3779b97f4a7c15
		binary.LittleEndian.PutUint32(dst[off:], uint32(splitmix64(s)))
	}
}

// checkValue reports the version v carries and whether every byte of v is
// what fillValue produces for that version.
func checkValue(v []byte, seed uint64, idx int) (uint32, bool) {
	if len(v) != valueLen {
		return 0, false
	}
	var want [valueLen]byte
	ver := binary.LittleEndian.Uint32(v)
	fillValue(want[:], seed, idx, ver)
	return ver, string(want[:]) == string(v)
}

// zipf draws ranks in [0, n) with P(rank) ∝ 1/(rank+1)^theta, by the Gray et
// al. method YCSB uses (math/rand's Zipf needs an exponent above 1; YCSB's
// 0.99 is below it).
type zipf struct {
	n                 float64
	theta, alpha, eta float64
	zetan             float64
}

func newZipf(n int, theta float64) *zipf {
	zeta := func(m int) float64 {
		var s float64
		for i := 1; i <= m; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	z := &zipf{n: float64(n), theta: theta, alpha: 1 / (1 - theta), zetan: zeta(n)}
	z.eta = (1 - math.Pow(2/z.n, 1-theta)) / (1 - zeta(2)/z.zetan)
	return z
}

func (z *zipf) rank(u float64) int {
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	r := int(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if r >= int(z.n) {
		r = int(z.n) - 1
	}
	return r
}

// keyStream yields key indexes for one client: uniform, or zipfian with the
// ranks scattered over the key space by a seeded hash (YCSB's scrambled
// zipfian) so the hot keys are not neighbours in one SST block.
type keyStream struct {
	r    *rng
	n    int
	z    *zipf // nil = uniform
	salt uint64
}

func newKeyStream(seed, stream uint64, n int, zipfian bool) *keyStream {
	ks := &keyStream{r: newRNG(seed, stream), n: n, salt: splitmix64(seed)}
	if zipfian {
		ks.z = newZipf(n, 0.99)
	}
	return ks
}

func (ks *keyStream) next() int {
	if ks.z == nil {
		return ks.r.intn(ks.n)
	}
	return int(splitmix64(uint64(ks.z.rank(ks.r.float()))^ks.salt) % uint64(ks.n))
}
