package experiments

import (
	"fmt"
	"time"

	"shield/internal/bench"
	"shield/internal/core"
	"shield/internal/crypt"
	"shield/internal/vfs"
)

func init() {
	register("table1", "Comparison of designs (measured degradation ranges)", runTable1)
	register("fig4", "Encryption vs file-write cost; overhead share by write size", runFig4)
	register("table2", "Impact of encryption for WAL-writes", runTable2)
	register("fig7", "Monolith micro/macro baseline (fillrandom, readrandom, mixgraph)", runFig7)
	register("fig8", "Mixed read/write ratios: throughput and p99 (monolith)", runFig8)
	register("fig9", "YCSB A-F (monolith)", runFig9)
	register("fig10", "Sensitivity: value size", runFig10)
	register("fig11", "Sensitivity: writer threads", runFig11)
	register("fig12", "Sensitivity: background threads", runFig12)
	register("fig13", "Sensitivity: chunk size and encryption threads (compaction time)", runFig13)
	register("fig14", "Sensitivity: WAL buffer size", runFig14)
}

// fillWorkload is the common random-write workload (db_bench fillrandom
// defaults: 16-byte keys, 100-byte values).
func fillWorkload(opt Options) bench.Workload {
	return bench.Workload{NumOps: opt.ops(100_000)}
}

// runVariants runs fn for each variant on a fresh monolithic deployment and
// reports overhead vs the first (baseline) variant.
func runVariants(opt Options, variants []variant, fn func(*deployment, variant) (bench.Result, error)) ([]bench.Result, error) {
	var results []bench.Result
	var baseline float64
	for i, v := range variants {
		dep, err := openMonolith(v, engineOpts())
		if err != nil {
			return nil, err
		}
		r, err := fn(dep, v)
		dep.Close()
		if err != nil {
			return nil, err
		}
		r.Name = v.name + ":" + r.Name
		if i == 0 {
			baseline = r.OpsPerSec
		}
		report(opt.Out, r, baselineIf(i > 0, baseline))
		results = append(results, r)
	}
	return results, nil
}

func baselineIf(cond bool, v float64) float64 {
	if cond {
		return v
	}
	return 0
}

// ---- Table 1 ----

func runTable1(opt Options) error {
	// Measure the fillrandom (worst-case) degradation of both designs and
	// print the qualitative comparison table with measured ranges.
	w := fillWorkload(opt)
	results, err := runVariants(opt, []variant{vNone, vEncFS, vShield, vEncFSBuf, vShieldBuf},
		func(dep *deployment, v variant) (bench.Result, error) {
			return bench.FillRandom(dep.db, w), nil
		})
	if err != nil {
		return err
	}
	base := results[0].OpsPerSec
	deg := func(i int) float64 { return (base - results[i].OpsPerSec) / base * 100 }
	fmt.Fprintf(opt.Out, "\n  %-22s %-8s %-10s %-12s %-14s %s\n",
		"Design", "DS", "At-Rest", "DEK practices", "Data-in-Use", "Write degradation")
	fmt.Fprintf(opt.Out, "  %-22s %-8s %-10s %-12s %-14s %s\n",
		"No-Encryption", "n/a", "no", "n/a", "no", "0% (baseline)")
	fmt.Fprintf(opt.Out, "  %-22s %-8s %-10s %-12s %-14s %s\n",
		"Enclave solutions", "no", "partial", "no", "yes", "340-1500% (reported by paper)")
	fmt.Fprintf(opt.Out, "  %-22s %-8s %-10s %-12s %-14s 0-%.0f%% (buffered: %.0f%%)\n",
		"Instance-level (EncFS)", "yes", "yes", "no", "no", deg(1), deg(3))
	fmt.Fprintf(opt.Out, "  %-22s %-8s %-10s %-12s %-14s 0-%.0f%% (buffered: %.0f%%)\n",
		"SHIELD", "yes", "yes", "yes", "no", deg(2), deg(4))
	return nil
}

// ---- Figure 4 ----

func runFig4(opt Options) error {
	// (a) Cost of a one-shot encryption (full initialization + AES-CTR)
	// vs appending the same bytes to a file, across write sizes.
	key, err := crypt.NewDEK()
	if err != nil {
		return err
	}
	iv, err := crypt.NewIV()
	if err != nil {
		return err
	}
	fs := vfs.NewOS()
	dir, cleanup, err := tempDir()
	if err != nil {
		return err
	}
	defer cleanup()

	sizes := []int{64, 256, 1024, 4096, 16 << 10, 64 << 10, 256 << 10, 1 << 20}
	iters := opt.ops(2000)
	fmt.Fprintf(opt.Out, "  %-10s %-14s %-14s %-10s\n", "size", "encrypt/op", "file-write/op", "enc/write")
	for _, size := range sizes {
		n := iters
		if size >= 64<<10 {
			n = iters / 16
		}
		src := make([]byte, size)
		dst := make([]byte, size)

		encStart := time.Now()
		for i := 0; i < n; i++ {
			if err := crypt.EncryptAt(key, iv, dst, src, int64(i*size)); err != nil {
				return err
			}
		}
		encPer := time.Since(encStart) / time.Duration(n)

		f, err := fs.Create(dir + "/fig4a.bin") //shield:nosyncdir benchmark scratch file, removed right below; durability is not measured
		if err != nil {
			return err
		}
		wrStart := time.Now()
		for i := 0; i < n; i++ {
			if _, err := f.Write(src); err != nil {
				return err
			}
		}
		wrPer := time.Since(wrStart) / time.Duration(n)
		f.Close()
		fs.Remove(dir + "/fig4a.bin")

		fmt.Fprintf(opt.Out, "  %-10d %-14v %-14v %.2fx\n", size, encPer, wrPer,
			float64(encPer)/float64(wrPer))
	}

	// (b) Encryption share of a WAL write for small KV sizes: time a write
	// (copy into a memory file, the analog of the OS buffer) with and
	// without per-write encryption.
	fmt.Fprintf(opt.Out, "\n  %-10s %-16s %-16s %s\n", "kv-size", "plain write/op", "enc write/op", "enc overhead")
	mem := vfs.NewMem()
	for _, size := range []int{50, 100, 250, 500, 1000, 4000} {
		src := make([]byte, size)
		n := iters * 4

		pf, _ := mem.Create("plain") //shield:nosyncdir in-memory FS; directory durability has no meaning here
		plainStart := time.Now()
		for i := 0; i < n; i++ {
			pf.Write(src)
		}
		plainPer := time.Since(plainStart) / time.Duration(n)
		pf.Close()

		// Every write pays a full encryption initialization (key schedule +
		// CTR setup), as an unbuffered WAL writer that re-keys per write
		// would; BufferedWriter keys once per file, so it is not used here.
		ef, _ := mem.Create("enc") //shield:nosyncdir in-memory FS; directory durability has no meaning here
		dst := make([]byte, size)
		encStart := time.Now()
		for i := 0; i < n; i++ {
			if err := crypt.EncryptAt(key, iv, dst, src, int64(i*size)); err != nil {
				return err
			}
			ef.Write(dst)
		}
		encPer := time.Since(encStart) / time.Duration(n)
		ef.Close()

		fmt.Fprintf(opt.Out, "  %-10d %-16v %-16v %+.0f%%\n", size, plainPer, encPer,
			(float64(encPer)-float64(plainPer))/float64(plainPer)*100)
	}
	return nil
}

// ---- Table 2 ----

func runTable2(opt Options) error {
	w := fillWorkload(opt)
	variants := []variant{
		vNone,
		{name: "Encrypted SST", mode: core.ModeSHIELD, sstOnly: true},
		{name: "Encrypted All (SST & WAL)", mode: core.ModeSHIELD},
	}
	_, err := runVariants(opt, variants, func(dep *deployment, v variant) (bench.Result, error) {
		r := bench.FillRandom(dep.db, w)
		r.Name = "fillrandom"
		return r, nil
	})
	return err
}

// ---- Figure 7 ----

func runFig7(opt Options) error {
	writeW := fillWorkload(opt)
	readW := bench.Workload{NumOps: opt.ops(50_000), KeyCount: uint64(opt.ops(100_000))}
	mixW := bench.Workload{NumOps: opt.ops(20_000), KeyCount: uint64(opt.ops(100_000))}

	fmt.Fprintln(opt.Out, " fillrandom:")
	if _, err := runVariants(opt, monolithVariants, func(dep *deployment, v variant) (bench.Result, error) {
		return bench.FillRandom(dep.db, writeW), nil
	}); err != nil {
		return err
	}

	fmt.Fprintln(opt.Out, " readrandom (preloaded):")
	if _, err := runVariants(opt, monolithVariants, func(dep *deployment, v variant) (bench.Result, error) {
		if err := bench.Preload(dep.db, readW); err != nil {
			return bench.Result{}, err
		}
		return bench.ReadRandom(dep.db, readW), nil
	}); err != nil {
		return err
	}

	fmt.Fprintln(opt.Out, " mixgraph (preloaded):")
	_, err := runVariants(opt, monolithVariants, func(dep *deployment, v variant) (bench.Result, error) {
		if err := bench.Preload(dep.db, mixW); err != nil {
			return bench.Result{}, err
		}
		return bench.Mixgraph(dep.db, mixW), nil
	})
	return err
}

// ---- Figure 8 ----

func runFig8(opt Options) error {
	ratios := []int{0, 25, 50, 75, 90, 100}
	variants := []variant{vNone, vEncFS, vShield}
	for _, ratio := range ratios {
		fmt.Fprintf(opt.Out, " read%%=%d:\n", ratio)
		w := bench.Workload{
			NumOps:   opt.ops(30_000),
			KeyCount: uint64(opt.ops(100_000)),
			ReadPct:  ratio,
		}
		if _, err := runVariants(opt, variants, func(dep *deployment, v variant) (bench.Result, error) {
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

// ---- Figure 9 ----

func runFig9(opt Options) error {
	load := bench.Workload{KeyCount: uint64(opt.ops(20_000)), ValueSize: 1024}
	runW := bench.Workload{
		NumOps:    opt.ops(10_000),
		KeyCount:  load.KeyCount,
		ValueSize: 1024,
	}
	for _, kind := range bench.AllYCSB {
		fmt.Fprintf(opt.Out, " YCSB-%c:\n", kind)
		if _, err := runVariants(opt, monolithVariants, func(dep *deployment, v variant) (bench.Result, error) {
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

// ---- Figure 10 ----

func runFig10(opt Options) error {
	variants := []variant{vNone, vEncFS, vShield, vEncFSBuf, vShieldBuf}
	for _, vs := range []int{50, 100, 250, 500, 1000} {
		fmt.Fprintf(opt.Out, " value=%dB:\n", vs)
		w := bench.Workload{NumOps: opt.ops(60_000), ValueSize: vs}
		if _, err := runVariants(opt, variants, func(dep *deployment, v variant) (bench.Result, error) {
			return bench.FillRandom(dep.db, w), nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// ---- Figure 11 ----

func runFig11(opt Options) error {
	variants := []variant{vNone, vShield, vShieldBuf}
	for _, threads := range []int{1, 2, 4, 8} {
		fmt.Fprintf(opt.Out, " writer-threads=%d (16 background jobs):\n", threads)
		w := bench.Workload{NumOps: opt.ops(60_000), Threads: threads}
		opts := engineOpts()
		opts.MaxBackgroundJobs = 16
		for i, v := range variants {
			dep, err := openOn(v, vfs.NewMem(), opts, 0)
			if err != nil {
				return err
			}
			r := bench.FillRandom(dep.db, w)
			dep.Close()
			r.Name = v.name + ":fillrandom"
			report(opt.Out, r, 0)
			_ = i
		}
	}
	return nil
}

// ---- Figure 12 ----

func runFig12(opt Options) error {
	for _, jobs := range []int{2, 4, 8} {
		fmt.Fprintf(opt.Out, " background-jobs=%d (4 writer threads):\n", jobs)
		w := bench.Workload{NumOps: opt.ops(60_000), Threads: 4}
		opts := engineOpts()
		opts.MaxBackgroundJobs = jobs
		for _, v := range []variant{vNone, vShieldBuf} {
			dep, err := openOn(v, vfs.NewMem(), opts, 0)
			if err != nil {
				return err
			}
			r := bench.FillRandom(dep.db, w)
			dep.Close()
			r.Name = v.name + ":fillrandom"
			report(opt.Out, r, 0)
		}
	}
	return nil
}

// ---- Figure 13 ----

func runFig13(opt Options) error {
	// Compaction wall time for SHIELD as the encryption chunk size and
	// thread count vary, vs the EncFS and plaintext baselines.
	prep := func(dep *deployment) error {
		w := bench.Workload{NumOps: opt.ops(80_000)}
		if r := bench.FillRandom(dep.db, w); r.Errors > 0 {
			return fmt.Errorf("fill errors: %d", r.Errors)
		}
		return dep.db.Flush()
	}
	timeCompact := func(dep *deployment) (time.Duration, error) {
		start := time.Now()
		if err := dep.db.CompactRange(); err != nil {
			return 0, err
		}
		return time.Since(start), nil
	}

	for _, v := range []variant{vNone, vEncFS} {
		dep, err := openMonolith(v, engineOpts())
		if err != nil {
			return err
		}
		if err := prep(dep); err != nil {
			dep.Close()
			return err
		}
		d, err := timeCompact(dep)
		dep.Close()
		if err != nil {
			return err
		}
		fmt.Fprintf(opt.Out, "  %-28s compaction=%v\n", v.name, d.Round(time.Millisecond))
	}

	for _, threads := range []int{1, 2, 4} {
		for _, chunk := range []int{4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 2 << 20} {
			fs := vfs.NewMem()
			cfg := core.Config{
				Mode:                core.ModeSHIELD,
				FS:                  fs,
				CompactionChunkSize: chunk,
				EncryptionThreads:   threads,
			}
			store := newBenchKDS()
			cfg.KDS = store
			db, err := core.Open("db", cfg, engineOpts())
			if err != nil {
				return err
			}
			dep := &deployment{db: db}
			if err := prep(dep); err != nil {
				dep.Close()
				return err
			}
			d, err := timeCompact(dep)
			dep.Close()
			if err != nil {
				return err
			}
			fmt.Fprintf(opt.Out, "  SHIELD chunk=%-8d threads=%d  compaction=%v\n",
				chunk, threads, d.Round(time.Millisecond))
		}
	}
	return nil
}

// ---- Figure 14 ----

func runFig14(opt Options) error {
	w := fillWorkload(opt)
	// Baseline once.
	dep, err := openMonolith(vNone, engineOpts())
	if err != nil {
		return err
	}
	base := bench.FillRandom(dep.db, w)
	dep.Close()
	base.Name = "RocksDB:fillrandom"
	report(opt.Out, base, 0)

	for _, buf := range []int{0, 128, 256, 512, 1024, 2048} {
		for _, mode := range []core.Mode{core.ModeEncFS, core.ModeSHIELD} {
			v := variant{name: fmt.Sprintf("%s buf=%d", mode, buf), mode: mode, walBuf: buf}
			dep, err := openMonolith(v, engineOpts())
			if err != nil {
				return err
			}
			r := bench.FillRandom(dep.db, w)
			dep.Close()
			r.Name = v.name
			report(opt.Out, r, base.OpsPerSec)
		}
	}
	return nil
}
