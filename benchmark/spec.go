package main

// The benchmark's contract: workloads and metrics, by name. BENCHMARK.json at
// the repository root carries the same lists for the driver; the smoke test
// fails if the two ever differ, so a metric cannot be renamed in one place
// only. README.md says what each metric means and which end-to-end metric
// each per-layer one is expected to move.

type metricSpec struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

type workloadSpec struct {
	name string
	why  string
	kind stackKind

	keys    int  // preloaded before the run; scaled down by the smoke test
	getPct  int  // share of operations that read
	zipfian bool // key popularity; uniform otherwise

	// tracedOpsPerSec sizes the traced run: it executes exactly
	// tracedOpsPerSec × --seconds operations, a count (not a duration) so
	// that every count-valued per-layer metric repeats for a given seed.
	tracedOpsPerSec int
}

var workloads = []workloadSpec{
	{
		name: "mono-fill", kind: stackMono, keys: 200_000, getPct: 0, tracedOpsPerSec: 60_000,
		why: "1 client overwriting uniform-random keys of a compacted 200k-key tree, WAL unsynced: commit, WAL seal, flush, compaction and sealed SST writers do the work; reads only serve compaction",
	},
	{
		name: "mono-readmiss", kind: stackMono, keys: 200_000, getPct: 100, tracedOpsPerSec: 30_000,
		why: "1 client reading uniform-random keys of a quiescent, reopened 55 MB tree behind an 8 MiB cache: nearly every Get is a sealed-block read and AEAD open; the write path is idle and must not move",
	},
	{
		name: "served-ycsba", kind: stackServed, keys: 20_000, getPct: 50, zipfian: true, tracedOpsPerSec: 40_000,
		why: "2 RESP connections, pipeline 16, 50/50 GET/SET zipfian over 20k keys that fit memtable and cache, Sync on: resp, dispatch, write folding and group commit do the work; the crypt read path is bypassed",
	},
	{
		name: "ds-ycsbb", kind: stackDS, keys: 80_000, getPct: 95, tracedOpsPerSec: 20_000,
		why: "1 client, 95/5 Get/Put uniform over 80k keys (22 MB against an 8 MiB cache), engine over loopback dstore with network KDS and seccache: storage round trips per miss, not AEAD CPU, set the latency",
	},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// endToEnd is reported by every workload with tracing off. op_* is the
// latency of the workload's primary operation: Put on mono-fill, Get on
// mono-readmiss and ds-ycsbb, one 16-command round trip on served-ycsba.
//
// The bounds are three times the widest run-to-run spread seen on the 2-core
// sandbox (README.md, Steadiness), capped at the contract's 0.25: its
// single-thread speed wanders by about a tenth over tens of seconds, which no
// amount of in-run averaging removes, so every timing sits at the cap.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_s", "ops/s", "higher", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"op_p99_us", "us", "lower", 0.25},
	{"write_amp", "ratio", "lower", 0.10},
	{"space_amp", "ratio", "lower", 0.02},
	{"reopen_ms", "ms", "lower", 0.25},
}

// perLayer is reported by every workload with tracing on. A layer that is
// not in a workload's path reports 0.
var perLayer = []metricSpec{
	{name: "client.put_p50_us", unit: "us", better: "lower"},
	{name: "client.put_p99_us", unit: "us", better: "lower"},
	{name: "client.get_p50_us", unit: "us", better: "lower"},
	{name: "client.get_p99_us", unit: "us", better: "lower"},
	{name: "client.batch_p50_us", unit: "us", better: "lower"},
	{name: "client.batch_p99_us", unit: "us", better: "lower"},
	{name: "client.window_write_amp", unit: "ratio", better: "lower"},

	{name: "resp.parse_ns_per_cmd", unit: "ns", better: "lower"},
	{name: "resp.encode_ns_per_reply", unit: "ns", better: "lower"},

	{name: "server.self_us_per_cmd", unit: "us", better: "lower"},
	{name: "server.write_batches_per_set", unit: "ratio", better: "lower"},
	{name: "server.errors", unit: "count", better: "lower"},

	{name: "lsm.put_self_us_p50", unit: "us", better: "lower"},
	{name: "lsm.get_self_us_p50", unit: "us", better: "lower"},
	{name: "lsm.wal_syncs_per_write", unit: "ratio", better: "lower"},
	{name: "lsm.grouped_writers_frac", unit: "ratio", better: "higher"},
	{name: "lsm.stall_frac", unit: "ratio", better: "lower"},
	{name: "lsm.flushes", unit: "count", better: "lower"},
	{name: "lsm.compactions", unit: "count", better: "lower"},
	{name: "lsm.compaction_read_per_user_byte", unit: "ratio", better: "lower"},
	{name: "lsm.compaction_written_per_user_byte", unit: "ratio", better: "lower"},
	{name: "lsm.wal_bytes_per_user_byte", unit: "ratio", better: "lower"},
	{name: "lsm.bg_io_busy_frac", unit: "ratio", better: "lower"},

	{name: "cache.hit_rate", unit: "ratio", better: "higher"},
	{name: "cache.misses_per_get", unit: "ratio", better: "lower"},

	{name: "core.wrap_create_us_p50", unit: "us", better: "lower"},
	{name: "core.wrap_open_us_p50", unit: "us", better: "lower"},
	{name: "core.wrap_creates", unit: "count", better: "lower"},
	{name: "core.wrap_opens", unit: "count", better: "lower"},

	{name: "crypt.write_self_us_per_mb.wal", unit: "us/MB", better: "lower"},
	{name: "crypt.write_self_us_per_mb.sst", unit: "us/MB", better: "lower"},
	{name: "crypt.read_self_us_p50", unit: "us", better: "lower"},
	{name: "crypt.inner_reads_per_read", unit: "ratio", better: "lower"},
	{name: "crypt.read_bytes_amp", unit: "ratio", better: "lower"},
	{name: "crypt.seal_mb_s", unit: "MB/s", better: "higher"},
	{name: "crypt.open_mb_s", unit: "MB/s", better: "higher"},

	{name: "kds.create_us_p50", unit: "us", better: "lower"},
	{name: "kds.fetch_us_p50", unit: "us", better: "lower"},
	{name: "kds.creates", unit: "count", better: "lower"},
	{name: "kds.fetches", unit: "count", better: "lower"},
	{name: "kds.errors", unit: "count", better: "lower"},

	{name: "seccache.hit_rate", unit: "ratio", better: "higher"},
	{name: "seccache.misses", unit: "count", better: "lower"},

	{name: "vfs.write_ops_per_op", unit: "ratio", better: "lower"},
	{name: "vfs.write_bytes_per_user_byte", unit: "ratio", better: "lower"},
	{name: "vfs.read_ops_per_get", unit: "ratio", better: "lower"},
	{name: "vfs.read_bytes_per_get", unit: "B", better: "lower"},
	{name: "vfs.syncs_per_write", unit: "ratio", better: "lower"},
	{name: "vfs.creates", unit: "count", better: "lower"},
	{name: "vfs.read_us_p50", unit: "us", better: "lower"},
	{name: "vfs.write_us_p50", unit: "us", better: "lower"},

	{name: "dstore.rtt_us_p50", unit: "us", better: "lower"},
	{name: "dstore.rtt_us_p99", unit: "us", better: "lower"},
	{name: "dstore.round_trips_per_get", unit: "ratio", better: "lower"},
	{name: "dstore.server_fs_us_p50", unit: "us", better: "lower"},
	{name: "dstore.net_self_us_p50", unit: "us", better: "lower"},
	{name: "dstore.server_read_ops_per_get", unit: "ratio", better: "lower"},

	{name: "netretry.retries", unit: "count", better: "lower"},
	{name: "netretry.failovers", unit: "count", better: "lower"},

	{name: "proc.allocs_per_op", unit: "count", better: "lower"},
	{name: "proc.alloc_bytes_per_op", unit: "B", better: "lower"},
	{name: "proc.gc_cpu_frac", unit: "ratio", better: "lower"},
	{name: "proc.heap_inuse_mb", unit: "MB", better: "lower"},

	{name: "calib.plain_put_ops_s", unit: "ops/s", better: "higher"},
	{name: "calib.plain_get_ops_s", unit: "ops/s", better: "higher"},

	{name: "trace.overhead_frac", unit: "ratio", better: "lower"},
	{name: "trace.attributed_frac", unit: "ratio", better: "higher"},
	{name: "trace.spans", unit: "count", better: "lower"},
}
