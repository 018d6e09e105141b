package main

import (
	"fmt"
	"runtime"
	"time"

	"shield/internal/lsm"
	"shield/internal/vfs"
)

// The traced run and the per-layer metrics computed from it.

func (r *runner) runTraced() (res *runResult, err error) {
	defer func() {
		if terr := r.teardown(); err == nil {
			err = terr
		}
	}()

	ops := int(float64(r.spec.tracedOpsPerSec)*r.cfg.seconds) &^ (2*pipelineDepth - 1)
	if ops < 2*pipelineDepth {
		ops = 2 * pipelineDepth
	}
	// An operation records three to five spans and background work adds its
	// own; a buffer that fills anyway fails the run rather than hiding it.
	r.t = newTracer(ops*8 + 1<<20)

	if _, err := r.setup(); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	res = &runResult{metrics: map[string]float64{}, notes: map[string]any{}}
	m := res.metrics

	cal := r.window(refShare / 3)
	if m["resp.parse_ns_per_cmd"], m["resp.encode_ns_per_reply"], err = calibrateRESP(cal / 2); err != nil {
		return nil, err
	}
	if m["crypt.seal_mb_s"], m["crypt.open_mb_s"], err = calibrateCrypt(cal / 2); err != nil {
		return nil, err
	}
	if m["calib.plain_put_ops_s"], m["calib.plain_get_ops_s"], err = calibratePlain(r.cfg.seed, r.keys, cal); err != nil {
		return nil, err
	}

	// Reference: the same stack, decorators in place but recording nothing.
	if err := r.drive(r.window(warmupShare), 0); err != nil {
		return nil, err
	}
	r.resetSamples()
	refBefore := r.snap()
	if err := r.drive(r.window(refShare), 0); err != nil {
		return nil, err
	}
	refAfter := r.snap()
	puts, gets, batches := r.latencies()
	m["client.put_p50_us"], m["client.put_p99_us"] = puts.quantileUS(0.5), puts.quantileUS(0.99)
	m["client.get_p50_us"], m["client.get_p99_us"] = gets.quantileUS(0.5), gets.quantileUS(0.99)
	m["client.batch_p50_us"], m["client.batch_p99_us"] = batches.quantileUS(0.5), batches.quantileUS(0.99)
	refOpsS := float64(refAfter.ops-refBefore.ops) / refAfter.at.Sub(refBefore.at).Seconds()

	if r.spec.getPct == 100 {
		if err := r.repeatCheck(res.notes); err != nil {
			return nil, err
		}
	}

	r.t.enable(true)
	before := r.snap()
	if err := r.drive(0, ops); err != nil {
		return nil, err
	}
	after := r.snap()
	r.t.enable(false)

	if err := r.verify(); err != nil {
		return nil, err
	}
	res.tally, _, _ = r.tallies()

	// Tear down before reading the span buffer: closing the engines and
	// servers is what guarantees no goroutine is still finishing a span.
	crashImages := r.crashImages()
	st := r.st
	if err := r.teardown(); err != nil {
		return nil, err
	}
	if err := r.checkDurability(st, crashImages, res); err != nil {
		return nil, err
	}

	spans := r.t.recorded()
	vfsReadSpans := r.layerMetrics(m, st, before, after, analyze(spans))
	tracedOpsS := float64(after.ops-before.ops) / after.at.Sub(before.at).Seconds()
	m["trace.overhead_frac"] = 1 - ratio(tracedOpsS, refOpsS)
	m["trace.spans"] = float64(len(spans))
	if d := r.t.dropped.Load(); d > 0 {
		res.failed += d
		res.notes["trace.dropped"] = d
	}
	res.failed += int64(m["netretry.retries"] + m["netretry.failovers"] + m["kds.errors"] + m["server.errors"])
	r.crossChecks(m, after.vfs.Sub(before.vfs).ReadOps, vfsReadSpans, res.notes)

	if r.cfg.traceOut != "" {
		if err := writeTrace(r.cfg.traceOut, spans); err != nil {
			return nil, fmt.Errorf("trace-out: %w", err)
		}
	}
	return res, nil
}

// repeatCheck runs the same short read-only sequence twice, restarting the
// engine before each pass, and notes whether the device-side counts repeat
// exactly. On a read-only workload they must: one client, no background
// work, a cold cache each time. A decorator that loses or double-counts
// calls, or an engine change that makes reads nondeterministic, shows here.
func (r *runner) repeatCheck(notes map[string]any) error {
	n := min(2000, r.keys)
	pass := func() ([3]int64, error) {
		if _, err := r.st.reopen(appendKey(nil, 0)); err != nil {
			return [3]int64{}, err
		}
		stream := newKeyStream(r.cfg.seed, 6, r.keys, r.spec.zipfian)
		io0, lo := r.st.vfsStats(), len(r.t.recorded())
		r.t.enable(true)
		for i := 0; i < n; i++ {
			r.eng.do(stream.next(), true)
		}
		r.t.enable(false)
		out := [3]int64{r.st.vfsStats().Sub(io0).ReadOps}
		for _, s := range r.t.recorded()[lo:] {
			switch s.name {
			case spCrypt + fRead:
				out[1]++
			case spVFS + fRead:
				out[2]++
			}
		}
		return out, nil
	}
	a, err := pass()
	if err != nil {
		return err
	}
	b, err := pass()
	if err != nil {
		return err
	}
	notes["repeat_exact"] = a == b
	notes["repeat_counts"] = fmt.Sprintf("%d gets: vfs.read_ops %d/%d, crypt reads %d/%d, vfs read spans %d/%d", n, a[0], b[0], a[1], b[1], a[2], b[2])
	r.resetSamples()
	return nil
}

// crashImages captures, for the traced served run, what each shard's base
// filesystem would hold after a power cut now: every reply has been
// received, so every SET issued has been acknowledged as synced.
func (r *runner) crashImages() []*vfs.CrashImage {
	var imgs []*vfs.CrashImage
	for _, c := range r.st.crash {
		imgs = append(imgs, c.Snapshot())
	}
	return imgs
}

// checkDurability reopens the strict crash images (unsynced bytes and
// unsynced directory entries gone) and requires every key to read back at
// the last version a client was told was written.
func (r *runner) checkDurability(st *stack, imgs []*vfs.CrashImage, res *runResult) error {
	if len(imgs) == 0 {
		return nil
	}
	var dbs []*lsm.DB
	for i, img := range imgs {
		env := *st.engines[i]
		env.t = nil
		env.cfg.FS = vfs.NewCrashFrom(img, false, int64(r.cfg.seed))
		if err := env.open(); err != nil {
			return fmt.Errorf("reopen crash image of %s: %w", env.dir, err)
		}
		defer env.db.Close() //nolint:errcheck // read-only use of a scratch image
		dbs = append(dbs, env.db)
	}
	lost := 0
	for idx := 0; idx < r.keys; idx++ {
		key := appendKey(nil, idx)
		ok := false
		for _, db := range dbs { // a key lives on exactly one shard
			if v, err := db.Get(key); err == nil {
				ver, valid := checkValue(v, r.cfg.seed, idx)
				ok = valid && ver == r.ks.ver[idx].Load()
				break
			}
		}
		res.attempted++
		if !ok {
			lost++
		}
	}
	res.failed += int64(lost)
	res.notes["durability"] = fmt.Sprintf("%d of %d keys at their last acknowledged version after a strict crash image reopen", r.keys-lost, r.keys)
	return nil
}

// usP50 is the median of s in µs. s is sorted in place.
func usP50(s samples) float64 { return s.sortedInPlace().quantileUS(0.5) }

// layerMetrics fills m from the counters at the edges of the traced window
// and from the spans. Window metrics use the spans begun inside the window;
// core.*, kds.* and seccache.* also cover the reopen cycles of set-up, which
// is where files are opened and DEKs resolved.
func (r *runner) layerMetrics(m map[string]float64, st *stack, before, after counters, a *analysis) (vfsReadSpans int64) {
	dt := after.at.Sub(before.at).Seconds()
	ops := float64(after.ops - before.ops)
	gets := float64(after.gets - before.gets)
	puts := float64(after.puts - before.puts)
	user := float64(after.userBytes - before.userBytes)
	eng := after.eng
	addMetrics(&eng, before.eng, -1)
	io, base := after.vfs.Sub(before.vfs), after.base.Sub(before.base)

	m["client.window_write_amp"] = ratio(float64(base.BytesWritten), user)

	m["lsm.wal_syncs_per_write"] = ratio(float64(eng.WALSyncs), float64(eng.Writes))
	commit := after.commit.Sub(before.commit)
	m["lsm.grouped_writers_frac"] = ratio(float64(commit.GroupedWriters), float64(commit.Writes))
	m["lsm.stall_frac"] = ratio(eng.StallTime.Seconds(), dt)
	m["lsm.flushes"] = float64(eng.Flushes)
	m["lsm.compactions"] = float64(eng.Compactions)
	m["lsm.compaction_read_per_user_byte"] = ratio(float64(eng.CompactionRead), user)
	m["lsm.compaction_written_per_user_byte"] = ratio(float64(eng.CompactionWritten), user)
	m["lsm.wal_bytes_per_user_byte"] = ratio(float64(eng.WALWritten), user)

	m["cache.hit_rate"] = ratio(float64(eng.BlockCacheHits), float64(eng.BlockCacheHits+eng.BlockCacheMisses))
	m["cache.misses_per_get"] = ratio(float64(eng.BlockCacheMisses), gets)

	m["vfs.write_ops_per_op"] = ratio(float64(io.WriteOps), ops)
	m["vfs.write_bytes_per_user_byte"] = ratio(float64(io.BytesWritten), user)
	m["vfs.read_ops_per_get"] = ratio(float64(io.ReadOps), gets)
	m["vfs.read_bytes_per_get"] = ratio(float64(io.BytesRead), gets)
	m["vfs.syncs_per_write"] = ratio(float64(io.Syncs), puts)
	m["vfs.creates"] = float64(io.Creates)

	m["server.write_batches_per_set"] = ratio(float64(after.batches-before.batches), float64(after.sets-before.sets))
	m["server.errors"] = float64(after.srvErrors - before.srvErrors)

	net := after.net.Sub(before.net)
	m["netretry.retries"], m["netretry.failovers"] = float64(net.Retries), float64(net.Failovers)

	m["proc.allocs_per_op"] = ratio(float64(after.mem.Mallocs-before.mem.Mallocs), ops)
	m["proc.alloc_bytes_per_op"] = ratio(float64(after.mem.TotalAlloc-before.mem.TotalAlloc), ops)
	m["proc.gc_cpu_frac"] = ratio(after.gcCPU-before.gcCPU, dt*float64(runtime.GOMAXPROCS(0)))
	m["proc.heap_inuse_mb"] = float64(after.mem.HeapInuse) / 1e6

	secHits, secMisses := float64(after.secHits-r.secHits), float64(after.secMisses-r.secMisses)
	m["seccache.hit_rate"] = ratio(secHits, secHits+secMisses)
	m["seccache.misses"] = secMisses

	// Spans.
	var (
		putSelf, getSelf, cryptReadSelf    samples
		vfsRead, vfsWrite, srvRead         samples
		wrapCreate, wrapOpen               samples
		kdsCreate, kdsFetch                samples
		batchNS, engineNS, opNS, fgSelfNS  int64
		cryptWriteSelf, cryptWriteBytes    [2]int64 // wal, sst
		cryptReads, innerReads             int64
		cryptReadBytes, innerReadBytes     int64
		fgVFSReads, bgBusyNS, cmdsInBatchs int64
	)
	for i := range a.spans {
		s := &a.spans[i]
		// Whole-run spans: files opened and keys resolved mostly at restart.
		switch s.name {
		case spCrypt + fCreate:
			wrapCreate.add(time.Duration(s.dur()))
		case spCrypt + fOpen:
			wrapOpen.add(time.Duration(s.dur()))
		case spKDSCreate:
			kdsCreate.add(time.Duration(s.dur()))
		case spKDSFetch:
			kdsFetch.add(time.Duration(s.dur()))
		}
		if i < before.spans || i >= after.spans {
			continue
		}
		fg := a.foreground(i)
		if fg {
			if a.self[i] > 0 {
				fgSelfNS += a.self[i]
			}
			if s.parent < 0 {
				opNS += s.dur()
			}
		} else if s.parent < 0 && s.name < spVFS {
			bgBusyNS += s.dur()
		}
		switch s.name {
		case spOpPut, spEngineWrite:
			putSelf.add(time.Duration(a.self[i]))
		case spOpGet, spEngineGet:
			getSelf.add(time.Duration(a.self[i]))
		case spOpBatch:
			batchNS += s.dur()
			cmdsInBatchs += int64(s.bytes)
		case spCrypt + fWrite, spCrypt + fSync, spCrypt + fClose:
			if k := lsm.FileKind(s.kind); k == lsm.FileKindWAL || k == lsm.FileKindSST {
				cryptWriteSelf[k] += a.self[i]
				if s.name == spCrypt+fWrite {
					cryptWriteBytes[k] += int64(s.bytes)
				}
			}
		case spCrypt + fRead:
			cryptReads++
			cryptReadBytes += int64(s.bytes)
			cryptReadSelf.add(time.Duration(a.self[i]))
		case spVFS + fReadSeq:
			vfsReadSpans++
		case spVFS + fRead:
			vfsReadSpans++
			vfsRead.add(time.Duration(s.dur()))
			if s.parent >= 0 && a.spans[s.parent].name == spCrypt+fRead {
				innerReads++
				innerReadBytes += int64(s.bytes)
			}
			if fg {
				fgVFSReads++
			}
		case spVFS + fWrite:
			vfsWrite.add(time.Duration(s.dur()))
		case spSrv + fRead:
			srvRead.add(time.Duration(s.dur()))
		}
		if s.name == spEngineGet || s.name == spEngineWrite {
			engineNS += s.dur()
		}
	}

	m["lsm.put_self_us_p50"] = usP50(putSelf)
	m["lsm.get_self_us_p50"] = usP50(getSelf)
	m["lsm.bg_io_busy_frac"] = ratio(float64(bgBusyNS)/1e9, dt)
	m["server.self_us_per_cmd"] = ratio(float64(batchNS-engineNS)/1e3, float64(cmdsInBatchs))
	m["core.wrap_create_us_p50"], m["core.wrap_creates"] = usP50(wrapCreate), float64(len(wrapCreate))
	m["core.wrap_open_us_p50"], m["core.wrap_opens"] = usP50(wrapOpen), float64(len(wrapOpen))
	m["crypt.write_self_us_per_mb.wal"] = ratio(float64(cryptWriteSelf[lsm.FileKindWAL])/1e3, float64(cryptWriteBytes[lsm.FileKindWAL])/1e6)
	m["crypt.write_self_us_per_mb.sst"] = ratio(float64(cryptWriteSelf[lsm.FileKindSST])/1e3, float64(cryptWriteBytes[lsm.FileKindSST])/1e6)
	m["crypt.read_self_us_p50"] = usP50(cryptReadSelf)
	m["crypt.inner_reads_per_read"] = ratio(float64(innerReads), float64(cryptReads))
	m["crypt.read_bytes_amp"] = ratio(float64(innerReadBytes), float64(cryptReadBytes))
	m["kds.create_us_p50"], m["kds.creates"] = usP50(kdsCreate), float64(len(kdsCreate))
	m["kds.fetch_us_p50"], m["kds.fetches"] = usP50(kdsFetch), float64(len(kdsFetch))
	m["kds.errors"] = 0
	if st.kdsT != nil {
		m["kds.errors"] = float64(st.kdsT.errors.Load())
	}
	m["vfs.read_us_p50"] = usP50(vfsRead)
	m["vfs.write_us_p50"] = usP50(vfsWrite)
	m["trace.attributed_frac"] = ratio(float64(fgSelfNS), float64(opNS))

	for _, name := range []string{"dstore.rtt_us_p50", "dstore.rtt_us_p99", "dstore.round_trips_per_get",
		"dstore.server_fs_us_p50", "dstore.net_self_us_p50", "dstore.server_read_ops_per_get"} {
		m[name] = 0
	}
	if r.spec.kind == stackDS {
		// Every positional read on the compute-side FS is one request and
		// one response on the wire.
		m["dstore.rtt_us_p50"], m["dstore.rtt_us_p99"] = usP50(vfsRead), vfsRead.quantileUS(0.99)
		m["dstore.round_trips_per_get"] = ratio(float64(fgVFSReads), gets)
		m["dstore.server_fs_us_p50"] = usP50(srvRead)
		m["dstore.net_self_us_p50"] = m["dstore.rtt_us_p50"] - m["dstore.server_fs_us_p50"]
		m["dstore.server_read_ops_per_get"] = ratio(float64(base.ReadOps), gets)
	}
	return vfsReadSpans
}

// crossChecks notes identities that must hold between numbers measured by
// different means. They are printed with the traced metrics so that a wrong
// decorator is caught rather than trusted.
func (r *runner) crossChecks(m map[string]float64, countedReads, readSpans int64, notes map[string]any) {
	// Equal when nothing runs in the background; a read in flight at a
	// window edge can differ by a few otherwise.
	notes["check.vfs_reads"] = fmt.Sprintf("CountingFS counted %d reads in the window, the vfs decorator recorded %d read spans", countedReads, readSpans)
	if r.spec.kind == stackDS {
		notes["check.round_trips"] = fmt.Sprintf("dstore.round_trips_per_get %.3f vs crypt.inner_reads_per_read %.3f x cache.misses_per_get %.3f = %.3f",
			m["dstore.round_trips_per_get"], m["crypt.inner_reads_per_read"], m["cache.misses_per_get"],
			m["crypt.inner_reads_per_read"]*m["cache.misses_per_get"])
	}
}
