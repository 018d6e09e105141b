package main

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"shield/internal/lsm"
	"shield/internal/resp"
)

// Closed-loop clients: each issues its next operation only when the previous
// one has returned, checks every value it reads, and keeps every latency
// sample exactly.

const pipelineDepth = 16

// samples holds latencies in nanoseconds, one entry per operation. uint32
// saturates at 4.29 s, far above anything a healthy run produces.
type samples []uint32

func (s *samples) add(d time.Duration) {
	ns := max(0, min(d.Nanoseconds(), math.MaxUint32))
	*s = append(*s, uint32(ns))
}

func (s samples) sortedInPlace() samples {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func (s samples) sorted() samples { return append(samples(nil), s...).sortedInPlace() }

// quantileUS is the nearest-rank q-quantile of sorted samples, in µs; 0 when
// there are none.
func (s samples) quantileUS(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(s[i]) / 1e3
}

// topQuantile is the highest of p99, p99.9, ... that still has at least ten
// samples beyond it — the tail the sample can support.
func (s samples) topQuantile() float64 {
	top := 0.0
	for _, q := range []float64{0.99, 0.999, 0.9999, 0.99999} {
		if float64(len(s))*(1-q) >= 10 {
			top = q
		}
	}
	return top
}

// keyspace is the generators' view of the store: for each key, the version
// last written, which is all that is needed to regenerate its value.
type keyspace struct {
	seed      uint64
	n         int
	ver       []atomic.Uint32
	userBytes atomic.Int64 // key+value bytes of every write issued
}

func newKeyspace(seed uint64, n int) *keyspace {
	return &keyspace{seed: seed, n: n, ver: make([]atomic.Uint32, n)}
}

// write returns the next version of key idx and accounts its bytes.
func (ks *keyspace) write(idx int) uint32 {
	ks.userBytes.Add(keyLen + valueLen)
	return ks.ver[idx].Add(1)
}

// tally counts operations and those that failed, were refused, or returned
// anything but the expected bytes.
type tally struct{ attempted, failed int64 }

var cmdGET, cmdSET = []byte("GET"), []byte("SET")

// engineClient drives one engine in-process (mono-*, ds-ycsbb).
type engineClient struct {
	ks     *keyspace
	env    *engineEnv // env.db changes on reopen
	t      *tracer
	stream *keyStream
	mix    *rng
	getPct int

	puts, gets   samples
	nPuts, nGets int64
	tally
	key [keyLen]byte
	val [valueLen]byte
}

// do executes one operation and returns the time it completed. With a single
// writer every Get must return exactly the last version written.
func (c *engineClient) do(idx int, get bool) time.Time {
	key := appendKey(c.key[:0], idx)
	c.attempted++
	if get {
		c.nGets++
		sp := c.t.begin(spOpGet, lsm.FileKindOther)
		t0 := time.Now()
		v, err := c.env.db.Get(key)
		t1 := time.Now()
		sp.end(len(v))
		c.gets.add(t1.Sub(t0))
		if ver, ok := checkValue(v, c.ks.seed, idx); err != nil || !ok || ver != c.ks.ver[idx].Load() {
			c.failed++
		}
		return t1
	}
	c.nPuts++
	fillValue(c.val[:], c.ks.seed, idx, c.ks.write(idx))
	sp := c.t.begin(spOpPut, lsm.FileKindOther)
	t0 := time.Now()
	err := c.env.db.Put(key, c.val[:])
	t1 := time.Now()
	sp.end(valueLen)
	c.puts.add(t1.Sub(t0))
	if err != nil {
		c.failed++
	}
	return t1
}

func (c *engineClient) next() time.Time {
	return c.do(c.stream.next(), c.mix.intn(100) < c.getPct)
}

// respClient drives the server over one connection, pipelineDepth commands
// per round trip (served-ycsba). While two connections run, connection id
// writes only keys of its own parity (see next), so every key has a single
// writer and a well-defined last version.
type respClient struct {
	ks     *keyspace
	id     int
	cl     *resp.Client
	t      *tracer
	stream *keyStream
	mix    *rng
	getPct int

	// quiescent is set once no writer is running: every GET, not just those
	// of this connection's own keys, must then return the exact last version.
	quiescent bool

	batches      samples
	nPuts, nGets int64
	tally
	slots [pipelineDepth]struct {
		idx  int
		get  bool
		want uint32 // exact version expected; 0 = any version issued so far
	}
	keys    [pipelineDepth][keyLen]byte
	vals    [pipelineDepth][valueLen]byte
	replies [pipelineDepth]resp.Value
}

// roundTrip sends n commands chosen by pick in one pipeline, reads the n
// replies, and checks them. It returns the completion time; an error means
// the connection is unusable.
func (c *respClient) roundTrip(n int, pick func() (idx int, get bool)) (time.Time, error) {
	for i := 0; i < n; i++ {
		idx, get := pick()
		s := &c.slots[i]
		s.get, s.want = get, 0
		if get {
			c.nGets++
			if c.quiescent || idx&1 == c.id {
				s.want = c.ks.ver[idx].Load()
			}
		} else {
			c.nPuts++
			fillValue(c.vals[i][:], c.ks.seed, idx, c.ks.write(idx))
		}
		s.idx = idx
		appendKey(c.keys[i][:0], idx)
	}

	// The span covers encoding too: a batch with many SETs outgrows the
	// client's 4 KiB write buffer and starts reaching the server before
	// Flush, so timing from Flush would start the clock late on some
	// batches and not on others.
	sp := c.t.begin(spOpBatch, lsm.FileKindOther)
	t0 := time.Now()
	err := c.exchange(n)
	t1 := time.Now()
	sp.end(n)
	if err != nil {
		return time.Time{}, err
	}
	c.batches.add(t1.Sub(t0))

	c.attempted += int64(n)
	for i := 0; i < n; i++ {
		s, v := &c.slots[i], c.replies[i]
		ok := v.Kind == resp.KindStatus
		if s.get {
			var ver uint32
			ver, ok = checkValue(v.Str, c.ks.seed, s.idx)
			ok = ok && v.Kind == resp.KindBulk && ver >= 1 && ver <= c.ks.ver[s.idx].Load() && (s.want == 0 || ver == s.want)
		}
		if !ok {
			c.failed++
		}
	}
	return t1, nil
}

// exchange sends the n prepared commands and collects their replies.
func (c *respClient) exchange(n int) error {
	for i := 0; i < n; i++ {
		var err error
		if c.slots[i].get {
			err = c.cl.Send(cmdGET, c.keys[i][:])
		} else {
			err = c.cl.Send(cmdSET, c.keys[i][:], c.vals[i][:])
		}
		if err != nil {
			return err
		}
	}
	if err := c.cl.Flush(); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		v, err := c.cl.Recv()
		if err != nil {
			return err
		}
		c.replies[i] = v
	}
	return nil
}

func (c *respClient) next() (time.Time, error) {
	return c.roundTrip(pipelineDepth, func() (int, bool) {
		idx, get := c.stream.next(), c.mix.intn(100) < c.getPct
		if !get {
			idx = idx&^1 | c.id
		}
		return idx, get
	})
}

func dialRESP(addr string) (*resp.Client, error) {
	cl, err := resp.Dial(addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial server: %w", err)
	}
	cl.Timeout = 30 * time.Second
	return cl, nil
}
