package bench

// Network benchmark: drives a running shield-server over RESP with N
// concurrent pipelined client connections, so serving-layer throughput and
// latency (parse + shard routing + group commit + reply) land in the same
// harness as the engine-level workloads. Used against a live server
// (shield-bench -net).

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"shield/internal/metrics"
	"shield/internal/resp"
)

// NetWorkload parameterizes one network benchmark run.
type NetWorkload struct {
	// Name labels the run in reports; defaults to "net-mixed".
	Name string

	// Addr is the shield-server address to drive. Required.
	Addr string

	// Clients is the number of concurrent connections. Default 8.
	Clients int

	// Pipeline is the number of commands sent per round trip. Default 16.
	Pipeline int

	// NumOps is the total command count across all clients. Default 10000.
	NumOps int

	// KeyCount, KeySize, ValueSize, ReadPct, Seed mirror Workload.
	KeyCount  uint64
	KeySize   int
	ValueSize int
	ReadPct   int // percentage of GETs in the mix (0–100)
	Seed      int64
}

func (w NetWorkload) withDefaults() NetWorkload {
	if w.Name == "" {
		w.Name = "net-mixed"
	}
	if w.Clients <= 0 {
		w.Clients = 8
	}
	if w.Pipeline <= 0 {
		w.Pipeline = 16
	}
	if w.NumOps <= 0 {
		w.NumOps = 10000
	}
	if w.KeyCount == 0 {
		w.KeyCount = uint64(w.NumOps)
	}
	if w.KeySize == 0 {
		w.KeySize = 16
	}
	if w.ValueSize == 0 {
		w.ValueSize = 100
	}
	if w.Seed == 0 {
		w.Seed = 42
	}
	return w
}

// NetResult is the output of one network run. P50/P99 are per-command
// latencies: each pipelined batch's round-trip time divided by the commands
// it carried, so numbers are comparable across pipeline depths.
type NetResult struct {
	Name      string
	Clients   int
	Pipeline  int
	Ops       int64
	Sets      int64
	Gets      int64
	Elapsed   time.Duration
	OpsPerSec float64
	P50       time.Duration
	P99       time.Duration
	Errors    int64 // -ERR replies plus transport failures
}

// String renders one report row.
func (r NetResult) String() string {
	return fmt.Sprintf("%-28s %10d ops %12.0f ops/sec  p50=%-10v p99=%-10v clients=%d pipeline=%d errors=%d",
		r.Name, r.Ops, r.OpsPerSec, r.P50, r.P99, r.Clients, r.Pipeline, r.Errors)
}

// RunNet drives the server at w.Addr with w.Clients concurrent pipelined
// connections issuing a ReadPct/100 GET / SET mix over a shared key space.
// It returns an error only when a connection cannot be established; per-op
// failures are counted in NetResult.Errors.
func RunNet(w NetWorkload) (NetResult, error) {
	w = w.withDefaults()
	if w.Addr == "" {
		return NetResult{}, fmt.Errorf("bench: NetWorkload.Addr is required")
	}

	// Fail fast if the server is unreachable, before spawning the fleet.
	probe, err := resp.Dial(w.Addr, 5*time.Second)
	if err != nil {
		return NetResult{}, fmt.Errorf("bench: %w", err)
	}
	if v, err := probe.Do("PING"); err != nil {
		probe.Close() //nolint:errcheck
		return NetResult{}, fmt.Errorf("bench: PING %s: %w", w.Addr, err)
	} else if v.IsError() {
		probe.Close() //nolint:errcheck
		return NetResult{}, fmt.Errorf("bench: PING %s rejected: %s", w.Addr, v.Str)
	}
	probe.Close() //nolint:errcheck

	kg := NewKeyGen(w.KeySize)
	vg := NewValueGen(w.ValueSize, w.Seed)
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
			rng := rand.New(rand.NewSource(w.Seed + int64(c)*7919))
			local := &metrics.Histogram{}
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
				nGet, err := sendBatch(cl, kg, vg, rng, w, n)
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
			histMu.Lock()
			hist.Merge(local)
			histMu.Unlock()
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	return NetResult{
		Name:      w.Name,
		Clients:   w.Clients,
		Pipeline:  w.Pipeline,
		Ops:       hist.Count(),
		Sets:      sets.Load(),
		Gets:      gets.Load(),
		Elapsed:   elapsed,
		OpsPerSec: float64(hist.Count()) / elapsed.Seconds(),
		P50:       hist.Quantile(0.50),
		P99:       hist.Quantile(0.99),
		Errors:    errs.Load(),
	}, nil
}

// sendBatch queues n commands on cl (unflushed) and reports how many were
// GETs.
func sendBatch(cl *resp.Client, kg *KeyGen, vg *ValueGen, rng *rand.Rand, w NetWorkload, n int) (int, error) {
	nGet := 0
	for i := 0; i < n; i++ {
		k := rng.Uint64() % w.KeyCount
		if rng.Intn(100) < w.ReadPct {
			nGet++
			if err := cl.Send([]byte("GET"), kg.Key(k)); err != nil {
				return nGet, err
			}
		} else {
			if err := cl.Send([]byte("SET"), kg.Key(k), vg.Value(k)); err != nil {
				return nGet, err
			}
		}
	}
	return nGet, nil
}
