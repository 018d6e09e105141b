// Command shield-bench drives a running shield-server over RESP with
// concurrent pipelined client connections and prints one report row:
//
//	shield-bench -net 127.0.0.1:6399 -clients 8 -pipeline 16 -ops 30000 -read-pct 50
//
// It exits non-zero when any command failed (an -ERR reply or a dead
// connection) or fewer commands completed than -ops asked for, so a smoke
// run that drives it fails when the server does. The paper's workloads are
// measured by benchmark/ (BENCHMARK.json).
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"shield/internal/metrics"
	"shield/internal/resp"
)

func main() {
	var (
		netAddr  = flag.String("net", "", "address of the shield-server to drive")
		clients  = flag.Int("clients", 8, "concurrent client connections")
		pipeline = flag.Int("pipeline", 16, "commands per pipelined round trip")
		netOps   = flag.Int("ops", 100000, "total command count across clients")
		valSize  = flag.Int("value-size", 100, "value size in bytes")
		readPct  = flag.Int("read-pct", 50, "GET percentage of the mix (0-100)")
	)
	flag.Parse()
	if *netAddr == "" {
		fmt.Fprintln(os.Stderr, "usage: shield-bench -net ADDR [-clients N] [-pipeline N] [-ops N] [-value-size N] [-read-pct N]")
		os.Exit(2)
	}
	w := NetWorkload{
		Addr:      *netAddr,
		Clients:   *clients,
		Pipeline:  *pipeline,
		NumOps:    *netOps,
		ValueSize: *valSize,
		ReadPct:   *readPct,
	}
	res, err := RunNet(w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shield-bench:", err)
		os.Exit(1)
	}
	fmt.Println(res)
	if err := res.check(w.withDefaults()); err != nil {
		fmt.Fprintln(os.Stderr, "shield-bench:", err)
		os.Exit(1)
	}
}

// NetWorkload parameterizes one network benchmark run.
type NetWorkload struct {
	// Addr is the shield-server address to drive. Required.
	Addr string

	// Clients is the number of concurrent connections. Default 8.
	Clients int

	// Pipeline is the number of commands sent per round trip. Default 16.
	Pipeline int

	// NumOps is the total command count across all clients. Default 10000.
	NumOps int

	// ValueSize is the SET value size in bytes. Default 100.
	ValueSize int

	// ReadPct is the percentage of GETs in the mix (0–100).
	ReadPct int
}

// The key space is NumOps keys of keySize bytes; every client draws from it
// with its own seeded generator.
const (
	keySize = 16
	seed    = 42
)

func (w NetWorkload) withDefaults() NetWorkload {
	if w.Clients <= 0 {
		w.Clients = 8
	}
	if w.Pipeline <= 0 {
		w.Pipeline = 16
	}
	if w.NumOps <= 0 {
		w.NumOps = 10000
	}
	if w.ValueSize == 0 {
		w.ValueSize = 100
	}
	return w
}

// NetResult is the output of one network run. P50/P99 are per-command
// latencies: each pipelined batch's round-trip time divided by the commands
// it carried, so numbers are comparable across pipeline depths.
type NetResult struct {
	Clients   int
	Pipeline  int
	Ops       int64
	Sets      int64
	Gets      int64
	OpsPerSec float64
	P50       time.Duration
	P99       time.Duration
	Errors    int64 // -ERR replies plus transport failures
}

// String renders one report row.
func (r NetResult) String() string {
	return fmt.Sprintf("%-28s %10d ops %12.0f ops/sec  p50=%-10v p99=%-10v clients=%d pipeline=%d errors=%d",
		"net-mixed", r.Ops, r.OpsPerSec, r.P50, r.P99, r.Clients, r.Pipeline, r.Errors)
}

// check fails a run that counted an error or completed fewer commands than
// w asked for (a client that died stops claiming batches).
func (r NetResult) check(w NetWorkload) error {
	if r.Errors > 0 {
		return fmt.Errorf("%d commands or connections failed", r.Errors)
	}
	if r.Ops < int64(w.NumOps) {
		return fmt.Errorf("%d of %d commands completed", r.Ops, w.NumOps)
	}
	return nil
}

// RunNet drives the server at w.Addr with w.Clients concurrent pipelined
// connections issuing a ReadPct/100 GET / SET mix over a shared key space.
// It returns an error only when a connection cannot be established; per-op
// failures are counted in NetResult.Errors.
func RunNet(w NetWorkload) (NetResult, error) {
	w = w.withDefaults()
	if w.Addr == "" {
		return NetResult{}, fmt.Errorf("NetWorkload.Addr is required")
	}

	// Fail fast if the server is unreachable, before spawning the fleet.
	probe, err := resp.Dial(w.Addr, 5*time.Second)
	if err != nil {
		return NetResult{}, err
	}
	if v, err := probe.Do("PING"); err != nil {
		probe.Close() //nolint:errcheck
		return NetResult{}, fmt.Errorf("PING %s: %w", w.Addr, err)
	} else if v.IsError() {
		probe.Close() //nolint:errcheck
		return NetResult{}, fmt.Errorf("PING %s rejected: %s", w.Addr, v.Str)
	}
	probe.Close() //nolint:errcheck

	vg := newValueGen(w.ValueSize, seed)
	hist := &metrics.Histogram{}
	var histMu sync.Mutex
	var sets, gets, errs atomic.Int64
	var next atomic.Uint64
	var wg sync.WaitGroup

	start := time.Now()
	for c := 0; c < w.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := resp.Dial(w.Addr, 10*time.Second)
			if err != nil {
				errs.Add(1)
				return
			}
			defer cl.Close() //nolint:errcheck
			rng := rand.New(rand.NewSource(seed + int64(c)*7919))
			// Merged however the client ends, so Ops counts every batch
			// answered before a failure too.
			local := &metrics.Histogram{}
			defer func() {
				histMu.Lock()
				hist.Merge(local)
				histMu.Unlock()
			}()
			for {
				// Claim the next batch of command indexes.
				lo := next.Add(uint64(w.Pipeline)) - uint64(w.Pipeline)
				if lo >= uint64(w.NumOps) {
					break
				}
				n := w.Pipeline
				if rem := int(uint64(w.NumOps) - lo); rem < n {
					n = rem
				}
				nGet, err := sendBatch(cl, vg, rng, w, n)
				if err != nil {
					errs.Add(1)
					return
				}
				batchStart := time.Now()
				if err := cl.Flush(); err != nil {
					errs.Add(1)
					return
				}
				for i := 0; i < n; i++ {
					v, err := cl.Recv()
					if err != nil {
						errs.Add(1)
						return
					}
					if v.IsError() {
						errs.Add(1)
					}
				}
				perOp := time.Since(batchStart) / time.Duration(n)
				for i := 0; i < n; i++ {
					local.Record(perOp)
				}
				gets.Add(int64(nGet))
				sets.Add(int64(n - nGet))
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	return NetResult{
		Clients:   w.Clients,
		Pipeline:  w.Pipeline,
		Ops:       hist.Count(),
		Sets:      sets.Load(),
		Gets:      gets.Load(),
		OpsPerSec: float64(hist.Count()) / elapsed.Seconds(),
		P50:       hist.Quantile(0.50),
		P99:       hist.Quantile(0.99),
		Errors:    errs.Load(),
	}, nil
}

// sendBatch queues n commands on cl (unflushed) and reports how many were
// GETs.
func sendBatch(cl *resp.Client, vg *valueGen, rng *rand.Rand, w NetWorkload, n int) (int, error) {
	nGet := 0
	for i := 0; i < n; i++ {
		k := rng.Uint64() % uint64(w.NumOps)
		if rng.Intn(100) < w.ReadPct {
			nGet++
			if err := cl.Send([]byte("GET"), key(k)); err != nil {
				return nGet, err
			}
		} else {
			if err := cl.Send([]byte("SET"), key(k), vg.value(k)); err != nil {
				return nGet, err
			}
		}
	}
	return nGet, nil
}

// key renders key index n as keySize bytes, zero-padded so lexicographic
// order matches numeric order (as db_bench does).
func key(n uint64) []byte {
	return []byte(fmt.Sprintf("%0*d", keySize, n))
}

// valueGen produces pseudo-random values that are deliberately hard to
// compress and easy to verify (each value embeds its key index).
type valueGen struct {
	size int
	pool []byte
}

// newValueGen returns a generator of size-byte values.
func newValueGen(size int, seed int64) *valueGen {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]byte, 1<<20)
	for i := range pool {
		pool[i] = byte(rng.Intn(26)) + 'a'
	}
	return &valueGen{size: size, pool: pool}
}

// value renders the value for key index n into a fresh slice.
func (v *valueGen) value(n uint64) []byte {
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
