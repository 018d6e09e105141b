package bench

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"shield/internal/lsm"
	"shield/internal/metrics"
)

// DB is the slice of the engine API the harness drives.
type DB interface {
	Put(key, value []byte) error
	Delete(key []byte) error
	Get(key []byte) ([]byte, error)
	NewIter() (*lsm.Iterator, error)
	Flush() error
}

// Workload parameterizes one benchmark run, mirroring db_bench's knobs.
type Workload struct {
	// Name labels the run in reports.
	Name string

	// NumOps is the total operation count across all threads.
	NumOps int

	// KeyCount is the key-space size (existing keys for read workloads).
	KeyCount uint64

	// KeySize and ValueSize are the db_bench defaults (16 / 100 bytes)
	// when zero.
	KeySize   int
	ValueSize int

	// ReadPct is the read percentage for mixed workloads (0–100).
	ReadPct int

	// Threads is the number of client goroutines (db_bench's --threads).
	Threads int

	// Seed makes runs reproducible.
	Seed int64
}

func (w Workload) withDefaults() Workload {
	if w.KeySize == 0 {
		w.KeySize = 16
	}
	if w.ValueSize == 0 {
		w.ValueSize = 100
	}
	if w.Threads == 0 {
		w.Threads = 1
	}
	if w.Seed == 0 {
		w.Seed = 42
	}
	if w.KeyCount == 0 {
		w.KeyCount = uint64(w.NumOps)
	}
	return w
}

// Result is the harness output for one run.
type Result struct {
	Name      string
	Ops       int64
	Elapsed   time.Duration
	OpsPerSec float64
	Mean      time.Duration
	P50       time.Duration
	P99       time.Duration
	Errors    int64

	// Net is the delta of the process-wide network fault-tolerance
	// counters over this run: how much retrying, failover, and degraded
	// operation the workload needed.
	Net metrics.NetSnapshot

	// Recovery is the delta of the process-wide crash-recovery counters
	// over this run: WAL replay work, torn-tail truncations, quarantined
	// files, and scrub verification (non-zero when the workload reopens
	// databases).
	Recovery metrics.RecoverySnapshot

	// Jobs is the delta of the background-job scheduler counters over this
	// run: compactions claimed, peak concurrency, compaction I/O volume,
	// and write-stall time spent waiting on debt.
	Jobs metrics.JobsSnapshot

	// Engine is the delta of the process-wide foreground engine counters
	// over this run: committed writes vs commit-path WAL fsyncs (the
	// group-commit ratio), how often concurrent writers coalesced, and
	// prefix-bloom seek outcomes.
	Engine metrics.EngineSnapshot
}

// String renders one report row.
func (r Result) String() string {
	s := fmt.Sprintf("%-28s %10d ops %12.0f ops/sec  mean=%-10v p50=%-10v p99=%-10v",
		r.Name, r.Ops, r.OpsPerSec, r.Mean, r.P50, r.P99)
	if r.Net.Any() {
		s += "  [" + r.Net.String() + "]"
	}
	if r.Recovery.Any() {
		s += "  [" + r.Recovery.String() + "]"
	}
	if r.Jobs.Any() {
		s += "  [" + r.Jobs.String() + "]"
	}
	if r.Engine.Any() {
		s += "  [" + r.Engine.String() + "]"
	}
	return s
}

// opFunc performs one operation for index i on behalf of thread t.
type opFunc func(t int, i uint64, rng *rand.Rand) error

// run drives NumOps operations across w.Threads goroutines, timing each op.
func run(w Workload, fn opFunc) Result {
	w = w.withDefaults()
	hist := &metrics.Histogram{}
	var next atomic.Uint64
	var errs atomic.Int64
	var wg sync.WaitGroup

	netBefore := metrics.Net.Snapshot()
	recBefore := metrics.Recovery.Snapshot()
	jobsBefore := metrics.Jobs.Snapshot()
	engBefore := metrics.Engine.Snapshot()
	start := time.Now()
	for t := 0; t < w.Threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(w.Seed + int64(t)*7919))
			local := &metrics.Histogram{}
			for {
				i := next.Add(1) - 1
				if i >= uint64(w.NumOps) {
					break
				}
				opStart := time.Now()
				if err := fn(t, i, rng); err != nil {
					errs.Add(1)
				}
				local.Record(time.Since(opStart))
			}
			hist.Merge(local)
		}(t)
	}
	wg.Wait()
	elapsed := time.Since(start)

	return Result{
		Name:      w.Name,
		Ops:       hist.Count(),
		Elapsed:   elapsed,
		OpsPerSec: float64(hist.Count()) / elapsed.Seconds(),
		Mean:      hist.Mean(),
		P50:       hist.Quantile(0.50),
		P99:       hist.Quantile(0.99),
		Errors:    errs.Load(),
		Net:       metrics.Net.Snapshot().Sub(netBefore),
		Recovery:  metrics.Recovery.Snapshot().Sub(recBefore),
		Jobs:      metrics.Jobs.Snapshot().Sub(jobsBefore),
		Engine:    metrics.Engine.Snapshot().Sub(engBefore),
	}
}

// FillRandom writes NumOps random keys (db_bench fillrandom).
func FillRandom(db DB, w Workload) Result {
	w = w.withDefaults()
	if w.Name == "" {
		w.Name = "fillrandom"
	}
	kg := NewKeyGen(w.KeySize)
	vg := NewValueGen(w.ValueSize, w.Seed)
	return run(w, func(t int, i uint64, rng *rand.Rand) error {
		n := rng.Uint64() % w.KeyCount
		return db.Put(kg.Key(n), vg.Value(n))
	})
}

// ReadRandom reads NumOps uniformly random existing keys (db_bench
// readrandom). Missing keys are not errors when the preload was random
// (collisions leave holes), so only unexpected failures count.
func ReadRandom(db DB, w Workload) Result {
	w = w.withDefaults()
	if w.Name == "" {
		w.Name = "readrandom"
	}
	kg := NewKeyGen(w.KeySize)
	return run(w, func(t int, i uint64, rng *rand.Rand) error {
		n := rng.Uint64() % w.KeyCount
		_, err := db.Get(kg.Key(n))
		if err != nil && !errors.Is(err, lsm.ErrNotFound) {
			return err
		}
		return nil
	})
}

// MixedRatio performs ReadPct% reads and the rest writes over the key space
// (db_bench readrandomwriterandom).
func MixedRatio(db DB, w Workload) Result {
	w = w.withDefaults()
	if w.Name == "" {
		w.Name = fmt.Sprintf("mixed-r%d", w.ReadPct)
	}
	kg := NewKeyGen(w.KeySize)
	vg := NewValueGen(w.ValueSize, w.Seed)
	return run(w, func(t int, i uint64, rng *rand.Rand) error {
		n := rng.Uint64() % w.KeyCount
		if rng.Intn(100) < w.ReadPct {
			_, err := db.Get(kg.Key(n))
			if err != nil && !errors.Is(err, lsm.ErrNotFound) {
				return err
			}
			return nil
		}
		return db.Put(kg.Key(n), vg.Value(n))
	})
}

// Preload fills the database with exactly KeyCount sequential keys and
// flushes, establishing the read set for read benchmarks.
func Preload(db DB, w Workload) error {
	w = w.withDefaults()
	kg := NewKeyGen(w.KeySize)
	vg := NewValueGen(w.ValueSize, w.Seed)
	for n := uint64(0); n < w.KeyCount; n++ {
		if err := db.Put(kg.Key(n), vg.Value(n)); err != nil {
			return err
		}
	}
	return db.Flush()
}

// Mixgraph approximates the paper's Mixgraph macro benchmark: zipfian key
// popularity, Pareto-distributed small values (mean ≈ 37 bytes), and a
// production-like op mix of ~80% Get, 15% Put, 5% short scans.
func Mixgraph(db DB, w Workload) Result {
	w = w.withDefaults()
	if w.Name == "" {
		w.Name = "mixgraph"
	}
	kg := NewKeyGen(w.KeySize)
	zipf := NewZipfian(w.KeyCount, w.Seed)
	sizes := NewPareto(16.0, 0.2, 10, 1024, w.Seed)
	vg := NewValueGen(2048, w.Seed)
	return run(w, func(t int, i uint64, rng *rand.Rand) error {
		n := zipf.ScrambledNext()
		switch r := rng.Intn(100); {
		case r < 80:
			_, err := db.Get(kg.Key(n))
			if err != nil && !errors.Is(err, lsm.ErrNotFound) {
				return err
			}
			return nil
		case r < 95:
			v := vg.Value(n)
			return db.Put(kg.Key(n), v[:sizes.Next()])
		default:
			it, err := db.NewIter()
			if err != nil {
				return err
			}
			defer it.Close()
			for ok, steps := it.SeekGE(kg.Key(n)), 0; ok && steps < 10; ok, steps = it.Next(), steps+1 {
			}
			return it.Err()
		}
	})
}
