package experiments

import (
	"fmt"
	"time"

	"shield/internal/bench"
	"shield/internal/compactsvc"
	"shield/internal/core"
	"shield/internal/dstore"
	"shield/internal/kds"
	"shield/internal/lsm"
	"shield/internal/vfs"
)

func init() {
	register("fig15", "Compaction policies with offloaded compaction", runFig15)
	register("table3", "I/O distribution by server for compaction styles", runTable3)
	register("fig16", "Impact of KDS latency (offloaded compaction)", runFig16)
	register("fig17", "Increasing dataset sizes (disaggregated storage)", runFig17)
	register("fig18", "Sensitivity to CPU, memory, and network bandwidth", runFig18)
	register("fig19", "Disaggregated storage baseline (fillrandom, readrandom, mixgraph)", runFig19)
	register("fig20", "Mixed ratios in disaggregated storage", runFig20)
	register("fig21", "YCSB in disaggregated storage", runFig21)
	register("fig22", "Offloaded compaction baseline", runFig22)
	register("fig23", "Mixed ratios with offloaded compaction", runFig23)
	register("fig24", "YCSB with offloaded compaction", runFig24)
}

// dsParams shapes one disaggregated deployment.
type dsParams struct {
	// linkLatency and linkBandwidth emulate the compute<->storage network
	// (the paper's 1 Gbps switch).
	linkLatency   time.Duration
	linkBandwidth int64

	// offload ships compactions to a worker on the storage node.
	offload bool

	// kdsLatency is the synthetic KDS service time (SSToolkit ≈ 2750 µs).
	kdsLatency time.Duration

	// engine overrides engineOpts() when non-nil.
	engine *lsm.Options

	// chunk/threads tune SHIELD's compaction encryption.
	chunk   int
	threads int
}

func defaultDSParams() dsParams {
	// The paper's testbed pushes ~50M-op workloads over a 1 Gbps switch,
	// making the link the fillrandom bottleneck. Our workloads are ~1000×
	// smaller, so the emulated link is scaled down proportionally (to
	// ~100 Mbps) to preserve the network-bound regime; fig18(c) sweeps
	// bandwidth explicitly.
	return dsParams{
		linkLatency:   200 * time.Microsecond,
		linkBandwidth: 12 << 20,
	}
}

// dsEngineOpts shrinks the memtable and level targets so the scaled-down DS
// workloads still produce realistic flush/compaction pressure on the
// emulated link.
func dsEngineOpts() lsm.Options {
	return lsm.Options{
		MemtableSize:        256 << 10,
		BaseLevelSize:       1 << 20,
		TargetFileSize:      512 << 10,
		L0CompactionTrigger: 4,
		MaxBackgroundJobs:   2,
	}
}

// dsDeployment is a full disaggregated topology on loopback.
type dsDeployment struct {
	db        *lsm.DB
	computeIO *vfs.CountingFS // compute-side (network) I/O
	workerIO  *vfs.CountingFS // storage-local I/O by the compaction worker
	storage   *dstore.Server
	worker    *compactsvc.Worker
	kdsStore  *kds.Store
	closers   []func()
}

func (d *dsDeployment) Close() {
	if d.db != nil {
		d.db.Close()
	}
	for i := len(d.closers) - 1; i >= 0; i-- {
		d.closers[i]()
	}
}

// openDS builds: storage node (MemFS + dstore server with the emulated
// link), a network KDS, optionally an offloaded-compaction worker
// co-located with storage, and the compute-node DB reaching storage through
// the dstore client.
func openDS(v variant, p dsParams) (*dsDeployment, error) {
	dep := &dsDeployment{}
	fail := func(err error) (*dsDeployment, error) {
		dep.Close()
		return nil, err
	}

	baseFS := vfs.NewMem()
	storage, err := dstore.NewServer(baseFS, "127.0.0.1:0", p.linkLatency, p.linkBandwidth)
	if err != nil {
		return fail(err)
	}
	dep.storage = storage
	dep.closers = append(dep.closers, func() { storage.Close() })

	cfg := core.Config{
		Mode:                v.mode,
		WALBufferSize:       v.walBuf,
		PlaintextWAL:        v.sstOnly,
		CompactionChunkSize: p.chunk,
		EncryptionThreads:   p.threads,
	}

	var workerWrapper lsm.FileWrapper = lsm.NopWrapper{}
	if v.mode == core.ModeSHIELD {
		dep.kdsStore = kds.NewStore(kds.Policy{MaxFetches: 0, Latency: p.kdsLatency})
		dep.kdsStore.Authorize("compute-1")
		dep.kdsStore.Authorize("compaction-worker-1")
		kdsSrv, err := kds.NewServer(dep.kdsStore, "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		dep.closers = append(dep.closers, func() { kdsSrv.Close() })

		computeKDS := kds.NewClient("compute-1", kdsSrv.Addr())
		dep.closers = append(dep.closers, func() { computeKDS.Close() })
		cfg.KDS = computeKDS

		if p.offload {
			workerKDS := kds.NewClient("compaction-worker-1", kdsSrv.Addr())
			dep.closers = append(dep.closers, func() { workerKDS.Close() })
			workerCfg := core.Config{
				Mode:                core.ModeSHIELD,
				FS:                  baseFS,
				KDS:                 workerKDS,
				CompactionChunkSize: p.chunk,
				EncryptionThreads:   p.threads,
			}
			workerWrapper, err = workerCfg.BuildWrapper()
			if err != nil {
				return fail(err)
			}
		}
	}

	opts := dsEngineOpts()
	if p.engine != nil {
		opts = *p.engine
	}

	remote, err := dstore.Dial(storage.Addr(), 4)
	if err != nil {
		return fail(err)
	}
	dep.closers = append(dep.closers, func() { remote.Close() })

	if p.offload {
		orch, err := compactsvc.NewOrchestrator(remote, "127.0.0.1:0", compactsvc.OrchestratorConfig{})
		if err != nil {
			return fail(err)
		}
		dep.closers = append(dep.closers, func() { orch.Close() })
		dep.workerIO = vfs.NewCounting(baseFS)
		worker := compactsvc.NewWorker(dep.workerIO, workerWrapper, "compaction-worker-1", orch.Addr(),
			compactsvc.WorkerConfig{PollEvery: 2 * time.Millisecond})
		dep.worker = worker
		dep.closers = append(dep.closers, func() { worker.Close() })
		opts.Compactor = orch
	}
	dep.computeIO = vfs.NewCounting(remote)
	cfg.FS = dep.computeIO

	db, err := core.Open("db", cfg, opts)
	if err != nil {
		return fail(err)
	}
	dep.db = db
	return dep, nil
}

// runDSVariants runs fn per variant on fresh DS deployments.
func runDSVariants(opt Options, variants []variant, p dsParams, fn func(*dsDeployment, variant) (bench.Result, error)) error {
	var baseline float64
	for i, v := range variants {
		dep, err := openDS(v, p)
		if err != nil {
			return err
		}
		r, err := fn(dep, v)
		dep.Close()
		if err != nil {
			return err
		}
		r.Name = v.name + ":" + r.Name
		if i == 0 {
			baseline = r.OpsPerSec
		}
		report(opt.Out, r, baselineIf(i > 0, baseline))
	}
	return nil
}

// dsVariants is the paper's DS comparison (EncFS is excluded: Section 6.4
// notes it is incompatible with the HDFS-plugin deployment).
var dsVariants = []variant{vNone, vShield, vShieldBuf}

// ---- Figure 15 ----

func runFig15(opt Options) error {
	styles := []lsm.CompactionStyle{lsm.CompactionLeveled, lsm.CompactionUniversal, lsm.CompactionFIFO}
	for _, style := range styles {
		fmt.Fprintf(opt.Out, " style=%v:\n", style)
		p := defaultDSParams()
		p.offload = true
		opts := dsEngineOpts()
		opts.CompactionStyle = style
		opts.FIFOMaxTableSize = 8 << 20
		if style == lsm.CompactionUniversal {
			opts.L0CompactionTrigger = 6
		}
		p.engine = &opts

		w := bench.Workload{NumOps: opt.ops(20_000)}
		if err := runDSVariants(opt, []variant{vNone, vShieldBuf}, p, func(dep *dsDeployment, v variant) (bench.Result, error) {
			return bench.FillRandom(dep.db, w), nil
		}); err != nil {
			return err
		}
		if style == lsm.CompactionFIFO {
			fmt.Fprintln(opt.Out, "  (readrandom omitted for FIFO: early keys are dropped, as in the paper)")
			continue
		}
		rw := bench.Workload{NumOps: opt.ops(10_000), KeyCount: uint64(opt.ops(20_000))}
		if err := runDSVariants(opt, []variant{vNone, vShieldBuf}, p, func(dep *dsDeployment, v variant) (bench.Result, error) {
			if err := bench.Preload(dep.db, rw); err != nil {
				return bench.Result{}, err
			}
			return bench.ReadRandom(dep.db, rw), nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// ---- Table 3 ----

func runTable3(opt Options) error {
	styles := []lsm.CompactionStyle{lsm.CompactionLeveled, lsm.CompactionUniversal, lsm.CompactionFIFO}
	fmt.Fprintf(opt.Out, "  %-10s | compute W/R (MiB) | compaction-server W/R (MiB) | ratio compute:worker\n", "style")
	for _, style := range styles {
		p := defaultDSParams()
		p.offload = true
		opts := dsEngineOpts()
		opts.CompactionStyle = style
		opts.FIFOMaxTableSize = 8 << 20
		if style == lsm.CompactionUniversal {
			opts.L0CompactionTrigger = 6
		}
		p.engine = &opts

		dep, err := openDS(vShieldBuf, p)
		if err != nil {
			return err
		}
		w := bench.Workload{NumOps: opt.ops(40_000)}
		bench.FillRandom(dep.db, w)
		dep.db.Flush()
		dep.db.CompactRange()

		cio := dep.computeIO.Stats.Snapshot()
		wio := dep.workerIO.Stats.Snapshot()
		dep.Close()

		mib := func(n int64) float64 { return float64(n) / (1 << 20) }
		total := func(s vfs.Snapshot) float64 { return mib(s.BytesWritten + s.BytesRead) }
		ratio := 0.0
		if total(cio) > 0 {
			ratio = total(wio) / total(cio)
		}
		fmt.Fprintf(opt.Out, "  %-10v | %8.1f / %-8.1f | %8.1f / %-8.1f | 1:%.1f\n",
			style, mib(cio.BytesWritten), mib(cio.BytesRead),
			mib(wio.BytesWritten), mib(wio.BytesRead), ratio)
	}
	return nil
}

// ---- Figure 16 ----

func runFig16(opt Options) error {
	w := bench.Workload{NumOps: opt.ops(20_000)}
	for _, lat := range []time.Duration{0, time.Millisecond, 2750 * time.Microsecond, 5 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond} {
		p := defaultDSParams()
		p.offload = true
		p.kdsLatency = lat
		dep, err := openDS(vShieldBuf, p)
		if err != nil {
			return err
		}
		r := bench.FillRandom(dep.db, w)
		dep.Close()
		r.Name = fmt.Sprintf("SHIELD kds-latency=%v", lat)
		report(opt.Out, r, 0)
	}
	return nil
}

// ---- Figure 17 ----

func runFig17(opt Options) error {
	base := opt.ops(20_000)
	for _, mult := range []int{1, 2, 5, 10} {
		n := base * mult
		fmt.Fprintf(opt.Out, " dataset=%d KV-pairs (value=240B):\n", n)
		w := bench.Workload{NumOps: n, ValueSize: 240}
		if err := runDSVariants(opt, []variant{vNone, vShieldBuf}, defaultDSParams(), func(dep *dsDeployment, v variant) (bench.Result, error) {
			return bench.FillRandom(dep.db, w), nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// ---- Figure 18 ----

func runFig18(opt Options) error {
	w := bench.Workload{NumOps: opt.ops(20_000)}

	fmt.Fprintln(opt.Out, " (a) CPU (background jobs + encryption threads):")
	for _, cpus := range []int{1, 2, 4, 8} {
		p := defaultDSParams()
		p.offload = true
		p.threads = cpus
		opts := dsEngineOpts()
		opts.MaxBackgroundJobs = cpus + 1
		p.engine = &opts
		dep, err := openDS(vShieldBuf, p)
		if err != nil {
			return err
		}
		r := bench.FillRandom(dep.db, w)
		dep.Close()
		r.Name = fmt.Sprintf("SHIELD cpus=%d", cpus)
		report(opt.Out, r, 0)
	}

	fmt.Fprintln(opt.Out, " (b) Memory (memtable + block cache):")
	for _, mb := range []int64{1, 4, 16} {
		p := defaultDSParams()
		p.offload = true
		opts := dsEngineOpts()
		opts.MemtableSize = mb << 19 // half the budget to the memtable
		opts.BlockCacheSize = mb << 19
		p.engine = &opts
		dep, err := openDS(vShieldBuf, p)
		if err != nil {
			return err
		}
		r := bench.FillRandom(dep.db, w)
		dep.Close()
		r.Name = fmt.Sprintf("SHIELD mem=%dMiB", mb)
		report(opt.Out, r, 0)
	}

	fmt.Fprintln(opt.Out, " (c) Network bandwidth:")
	for _, mbps := range []int64{100, 1000, 10000} {
		p := defaultDSParams()
		p.offload = true
		p.linkBandwidth = mbps << 20 / 8
		dep, err := openDS(vShieldBuf, p)
		if err != nil {
			return err
		}
		r := bench.FillRandom(dep.db, w)
		dep.Close()
		r.Name = fmt.Sprintf("SHIELD bw=%dMbps", mbps)
		report(opt.Out, r, 0)
	}
	return nil
}

// ---- Figures 19–24 ----

func runDSBaseline(opt Options, offload bool) error {
	p := defaultDSParams()
	p.offload = offload

	writeW := bench.Workload{NumOps: opt.ops(20_000)}
	readW := bench.Workload{NumOps: opt.ops(10_000), KeyCount: uint64(opt.ops(20_000))}
	mixW := bench.Workload{NumOps: opt.ops(8_000), KeyCount: uint64(opt.ops(20_000))}

	fmt.Fprintln(opt.Out, " fillrandom:")
	if err := runDSVariants(opt, dsVariants, p, func(dep *dsDeployment, v variant) (bench.Result, error) {
		return bench.FillRandom(dep.db, writeW), nil
	}); err != nil {
		return err
	}
	fmt.Fprintln(opt.Out, " readrandom (preloaded):")
	if err := runDSVariants(opt, dsVariants, p, func(dep *dsDeployment, v variant) (bench.Result, error) {
		if err := bench.Preload(dep.db, readW); err != nil {
			return bench.Result{}, err
		}
		return bench.ReadRandom(dep.db, readW), nil
	}); err != nil {
		return err
	}
	fmt.Fprintln(opt.Out, " mixgraph (preloaded):")
	return runDSVariants(opt, dsVariants, p, func(dep *dsDeployment, v variant) (bench.Result, error) {
		if err := bench.Preload(dep.db, mixW); err != nil {
			return bench.Result{}, err
		}
		return bench.Mixgraph(dep.db, mixW), nil
	})
}

func runDSRatios(opt Options, offload bool) error {
	p := defaultDSParams()
	p.offload = offload
	for _, ratio := range []int{0, 25, 50, 75, 90, 100} {
		fmt.Fprintf(opt.Out, " read%%=%d:\n", ratio)
		w := bench.Workload{
			NumOps:   opt.ops(10_000),
			KeyCount: uint64(opt.ops(20_000)),
			ReadPct:  ratio,
		}
		if err := runDSVariants(opt, []variant{vNone, vShieldBuf}, p, func(dep *dsDeployment, v variant) (bench.Result, error) {
			if err := bench.Preload(dep.db, w); err != nil {
				return bench.Result{}, err
			}
			return bench.MixedRatio(dep.db, w), nil
		}); err != nil {
			return err
		}
	}
	return nil
}

func runDSYCSB(opt Options, offload bool) error {
	p := defaultDSParams()
	p.offload = offload
	load := bench.Workload{KeyCount: uint64(opt.ops(5_000)), ValueSize: 1024}
	runW := bench.Workload{NumOps: opt.ops(3_000), KeyCount: load.KeyCount, ValueSize: 1024}
	for _, kind := range bench.AllYCSB {
		fmt.Fprintf(opt.Out, " YCSB-%c:\n", kind)
		if err := runDSVariants(opt, []variant{vNone, vShieldBuf}, p, func(dep *dsDeployment, v variant) (bench.Result, error) {
			if err := bench.YCSBLoad(dep.db, load); err != nil {
				return bench.Result{}, err
			}
			return bench.YCSB(dep.db, kind, runW), nil
		}); err != nil {
			return err
		}
	}
	return nil
}

func runFig19(opt Options) error { return runDSBaseline(opt, false) }
func runFig20(opt Options) error { return runDSRatios(opt, false) }
func runFig21(opt Options) error { return runDSYCSB(opt, false) }
func runFig22(opt Options) error { return runDSBaseline(opt, true) }
func runFig23(opt Options) error { return runDSRatios(opt, true) }
func runFig24(opt Options) error { return runDSYCSB(opt, true) }
