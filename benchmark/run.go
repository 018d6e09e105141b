package main

import (
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"time"

	"shield/internal/core"
	"shield/internal/lsm"
	"shield/internal/metrics"
	"shield/internal/vfs"
)

// One run of one workload: set-up, warm-up, a measured window, and the
// checks. Untraced runs measure for --seconds and report the end-to-end
// metrics; traced runs execute a fixed operation count under the span
// decorators and report the per-layer metrics.

const (
	reopenCycles = 31
	verifyKeys   = 1000
	warmupShare  = 0.15 // of --seconds, before every measured window
	refShare     = 0.30 // of --seconds: the untraced reference window of a traced run
)

type runConfig struct {
	seed     uint64
	seconds  float64
	trace    bool
	mode     core.Mode
	scale    float64 // multiplies the workloads' key counts; 1 outside the smoke test
	setups   int     // untraced: how many times set-up runs, for the setup_s median
	traceOut string
}

type runResult struct {
	tally
	metrics map[string]float64
	// notes are printed beside the metrics and never gated: sample counts,
	// the tail percentile the sample supports, and the cross-checks.
	notes map[string]any
}

type runner struct {
	spec *workloadSpec
	cfg  runConfig
	keys int

	t     *tracer
	st    *stack
	ks    *keyspace
	eng   *engineClient
	conns []*respClient

	loaded             tally     // served: what the load connection did
	reopenMS           []float64 // every restart cycle of every set-up
	secHits, secMisses int64     // secure-cache counters when the reopen cycles began
}

func runWorkload(spec *workloadSpec, cfg runConfig) (*runResult, error) {
	r := &runner{spec: spec, cfg: cfg}
	r.keys = int(float64(spec.keys)*cfg.scale) &^ 1 // even: the RESP clients split keys by parity
	if r.keys < 2*pipelineDepth {
		r.keys = 2 * pipelineDepth
	}
	if cfg.trace {
		return r.runTraced()
	}
	return r.runUntraced()
}

func (r *runner) window(share float64) time.Duration {
	return time.Duration(r.cfg.seconds * share * float64(time.Second))
}

// setup builds the deployment, loads every key once in seeded random order,
// compacts to a quiescent tree, restarts the engines reopenCycles times, and
// connects the clients. It returns how long all of that took.
func (r *runner) setup() (time.Duration, error) {
	t0 := time.Now()
	st, err := buildStack(r.spec.kind, r.cfg.mode, r.t, int64(r.cfg.seed))
	if err != nil {
		return 0, err
	}
	r.st = st
	r.ks = newKeyspace(r.cfg.seed, r.keys)
	r.eng, r.conns = nil, nil

	order := newRNG(r.cfg.seed, 1).perm(r.keys)
	if r.spec.kind == stackServed {
		// Load through the wire so keys land on the shard the server's own
		// hash picks; the reopen cycles below then need the server down.
		if err := st.serve(); err != nil {
			return 0, err
		}
		loader, err := r.dial(0)
		if err != nil {
			return 0, err
		}
		for i := 0; i < len(order); i += pipelineDepth {
			j := i
			if _, err := loader.roundTrip(min(pipelineDepth, len(order)-i), func() (int, bool) {
				j++
				return int(order[j-1]), false
			}); err != nil {
				return 0, fmt.Errorf("load: %w", err)
			}
		}
		r.loaded = loader.tally
		if err := loader.cl.Close(); err != nil {
			return 0, err
		}
		if err := st.stopServing(); err != nil {
			return 0, err
		}
	} else {
		r.eng = &engineClient{
			ks: r.ks, env: st.engines[0], t: r.t, getPct: r.spec.getPct,
			stream: newKeyStream(r.cfg.seed, 2, r.keys, r.spec.zipfian),
			mix:    newRNG(r.cfg.seed, 3),
		}
		for _, idx := range order {
			r.eng.do(int(idx), false)
		}
		r.eng.puts = r.eng.puts[:0]
	}
	if err := st.settle(); err != nil {
		return 0, err
	}

	if st.cache != nil {
		r.secHits, r.secMisses = st.cache.Stats()
	}
	r.t.enable(true)
	first := appendKey(nil, 0)
	for i := 0; i < reopenCycles; i++ {
		d, err := st.reopen(first)
		if err != nil {
			return 0, fmt.Errorf("reopen: %w", err)
		}
		r.reopenMS = append(r.reopenMS, float64(d)/float64(time.Millisecond))
	}
	r.t.enable(false)

	if r.spec.kind == stackServed {
		if err := st.serve(); err != nil {
			return 0, err
		}
		for id := 0; id < 2; id++ {
			c, err := r.dial(id)
			if err != nil {
				return 0, err
			}
			r.conns = append(r.conns, c)
		}
	}
	return time.Since(t0), nil
}

func (r *runner) dial(id int) (*respClient, error) {
	cl, err := dialRESP(r.st.srv.Addr())
	if err != nil {
		return nil, err
	}
	return &respClient{
		ks: r.ks, id: id, cl: cl, t: r.t, getPct: r.spec.getPct,
		stream: newKeyStream(r.cfg.seed, uint64(10+id), r.keys, r.spec.zipfian),
		mix:    newRNG(r.cfg.seed, uint64(20+id)),
	}, nil
}

func (r *runner) teardown() error {
	if r.st == nil {
		return nil
	}
	var err error
	for _, c := range r.conns {
		if cerr := c.cl.Close(); err == nil {
			err = cerr
		}
	}
	if cerr := r.st.close(); err == nil {
		err = cerr
	}
	r.st = nil
	return err
}

// drive runs the clients for d, or, when ops > 0, until they have issued
// exactly ops operations between them.
func (r *runner) drive(d time.Duration, ops int) error {
	if r.eng != nil {
		if ops > 0 {
			for i := 0; i < ops; i++ {
				r.eng.next()
			}
			return nil
		}
		for end := time.Now().Add(d); r.eng.next().Before(end); {
		}
		return nil
	}
	errs := make([]error, len(r.conns))
	var wg sync.WaitGroup
	for i, c := range r.conns {
		wg.Add(1)
		go func(i int, c *respClient) {
			defer wg.Done()
			end := time.Now().Add(d)
			for n := 0; ; n += pipelineDepth {
				if ops > 0 && n >= ops/len(r.conns) {
					return
				}
				t, err := c.next()
				if err != nil {
					errs[i] = err
					return
				}
				if ops == 0 && !t.Before(end) {
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("connection lost: %w", err)
		}
	}
	return nil
}

func (r *runner) resetSamples() {
	if r.eng != nil {
		r.eng.puts, r.eng.gets = r.eng.puts[:0], r.eng.gets[:0]
	}
	for _, c := range r.conns {
		c.batches = c.batches[:0]
	}
}

// latencies returns the sorted samples gathered since the last reset.
func (r *runner) latencies() (puts, gets, batches samples) {
	if r.eng != nil {
		return r.eng.puts.sorted(), r.eng.gets.sorted(), nil
	}
	for _, c := range r.conns {
		batches = append(batches, c.batches...)
	}
	return nil, nil, batches.sorted()
}

func (r *runner) tallies() (t tally, gets, puts int64) {
	if r.eng != nil {
		return r.eng.tally, r.eng.nGets, r.eng.nPuts
	}
	t = r.loaded
	for _, c := range r.conns {
		t.attempted += c.attempted
		t.failed += c.failed
		gets += c.nGets
		puts += c.nPuts
	}
	return t, gets, puts
}

// counters is everything read at a window edge; metrics are differences of two.
type counters struct {
	at                 time.Time
	ops, gets, puts    int64
	userBytes          int64
	eng                lsm.Metrics
	base, vfs          vfs.Snapshot
	commit             metrics.EngineSnapshot
	net                metrics.NetSnapshot
	mem                runtime.MemStats
	gcCPU              float64 // seconds
	sets, batches      int64   // server: SETs routed, engine batches committed
	srvErrors          int64
	secHits, secMisses int64
	spans              int
}

func (r *runner) snap() counters {
	c := counters{
		userBytes: r.ks.userBytes.Load(),
		eng:       r.st.engineMetrics(),
		base:      r.st.baseStats(),
		vfs:       r.st.vfsStats(),
		commit:    metrics.Engine.Snapshot(),
		net:       metrics.Net.Snapshot(),
	}
	var t tally
	t, c.gets, c.puts = r.tallies()
	c.ops = t.attempted
	if r.st.srv != nil {
		for _, s := range r.st.srv.Stats() {
			c.sets += s.Sets
			c.batches += s.WriteBatches
			c.srvErrors += s.Errors
		}
	}
	if r.st.cache != nil {
		c.secHits, c.secMisses = r.st.cache.Stats()
	}
	if r.t != nil {
		c.spans = len(r.t.recorded())
	}
	runtime.ReadMemStats(&c.mem)
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() == rtmetrics.KindFloat64 {
		c.gcCPU = s[0].Value.Float64()
	}
	c.at = time.Now()
	return c
}

// verify re-reads verifyKeys sampled keys through the client path after the
// run; each must hold exactly the last version written to it.
func (r *runner) verify() error {
	pick := newRNG(r.cfg.seed, 4)
	n := min(verifyKeys, r.keys)
	if r.eng != nil {
		for i := 0; i < n; i++ {
			r.eng.do(pick.intn(r.keys), true)
		}
		return nil
	}
	c := r.conns[0]
	c.quiescent = true
	for i := 0; i < n; i += pipelineDepth {
		if _, err := c.roundTrip(min(pipelineDepth, n-i), func() (int, bool) { return pick.intn(r.keys), true }); err != nil {
			return fmt.Errorf("verify: %w", err)
		}
	}
	return nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else if n > 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return 0
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// primary returns the samples op_p50_us/op_p99_us report: round trips on the
// served workload, otherwise Gets if the workload reads at all, else Puts.
func (r *runner) primary(puts, gets, batches samples) samples {
	switch {
	case r.eng == nil:
		return batches
	case r.spec.getPct > 0:
		return gets
	}
	return puts
}

func (r *runner) runUntraced() (res *runResult, err error) {
	defer func() {
		if terr := r.teardown(); err == nil {
			err = terr
		}
	}()

	var setupS []float64
	for i := 0; i < r.cfg.setups; i++ {
		if err := r.teardown(); err != nil {
			return nil, err
		}
		d, err := r.setup()
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, d.Seconds())
	}

	// Collect the two discarded deployments now, so that every run enters
	// its window with the same heap and the same garbage-collector pacing.
	runtime.GC()
	if err := r.drive(r.window(warmupShare), 0); err != nil {
		return nil, err
	}
	r.resetSamples()
	before := r.snap()
	if err := r.drive(r.window(1), 0); err != nil {
		return nil, err
	}
	after := r.snap()
	puts, gets, batches := r.latencies()
	lat := r.primary(puts, gets, batches)

	// Write amplification from the empty store to the end of the window:
	// load, load compaction, warm-up and window. mono-readmiss writes
	// nothing after the load, so for it this is the bulk-load cost.
	writeAmp := ratio(float64(after.base.BytesWritten), float64(after.userBytes))

	if err := r.st.settle(); err != nil {
		return nil, err
	}
	atRest, err := r.st.baseBytes()
	if err != nil {
		return nil, err
	}
	if err := r.verify(); err != nil {
		return nil, err
	}

	t, _, _ := r.tallies()
	res = &runResult{tally: t, notes: map[string]any{}}
	res.metrics = map[string]float64{
		"setup_s":   median(setupS),
		"ops_s":     float64(after.ops-before.ops) / after.at.Sub(before.at).Seconds(),
		"op_p50_us": lat.quantileUS(0.50),
		"op_p99_us": lat.quantileUS(0.99),
		"write_amp": writeAmp,
		"space_amp": ratio(float64(atRest), float64(r.keys*(keyLen+valueLen))),
		"reopen_ms": median(r.reopenMS),
	}
	if net := after.net.Sub(before.net); net.Retries+net.Failovers > 0 {
		// A retried request is a stall the engine did not cause; the run is
		// sick and its numbers are not the stack's.
		res.failed += net.Retries + net.Failovers
		res.notes["netretry"] = net.String()
	}
	if q := lat.topQuantile(); q > 0 {
		res.notes["op_samples"] = len(lat)
		res.notes["op_tail"] = fmt.Sprintf("p%.6g = %.1f us", q*100, lat.quantileUS(q))
	}
	return res, nil
}
