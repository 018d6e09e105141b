package compactsvc_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"shield/internal/compactsvc"
	"shield/internal/core"
	"shield/internal/dstore"
	"shield/internal/kds"
	"shield/internal/lsm"
	"shield/internal/seccache"
	"shield/internal/vfs"
)

// TestOffloadedCompactionEndToEnd stands up the full DS topology on
// loopback: a storage node (dstore server over a MemFS), a compute-node DB
// reaching it through the dstore client, a shared KDS, and an
// offloaded-compaction worker co-located with the storage node that
// resolves DEKs via file-metadata DEK-IDs.
func TestOffloadedCompactionEndToEnd(t *testing.T) {
	storageFS := vfs.NewMem()

	// Storage node.
	storage, err := dstore.NewServer(storageFS, "127.0.0.1:0", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer storage.Close()

	// Decentralized KDS: one store behind a network front end.
	kdsStore := kds.NewStore(kds.Policy{MaxFetches: 1})
	kdsStore.Authorize("compute-1")
	kdsStore.Authorize("compaction-worker-1")
	kdsSrv, err := kds.NewServer(kdsStore, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer kdsSrv.Close()

	// Offloaded-compaction worker: its own KDS identity and secure cache,
	// direct (local) access to the storage node's filesystem.
	workerKDS := kds.NewClient("compaction-worker-1", kdsSrv.Addr())
	defer workerKDS.Close()
	workerCache, err := seccache.Open(vfs.NewMem(), "worker-cache.bin", []byte("worker-pass"))
	if err != nil {
		t.Fatal(err)
	}
	workerCfg := core.Config{
		Mode:  core.ModeSHIELD,
		FS:    storage.LocalFS(),
		KDS:   workerKDS,
		Cache: workerCache,
	}
	workerWrapper, err := workerCfg.BuildWrapper()
	if err != nil {
		t.Fatal(err)
	}
	// Compute node: DB over the remote FS, compactions enqueued into an
	// orchestrator that the storage-side worker polls.
	remoteFS, err := dstore.Dial(storage.Addr(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer remoteFS.Close()
	computeKDS := kds.NewClient("compute-1", kdsSrv.Addr())
	defer computeKDS.Close()

	orch, err := compactsvc.NewOrchestrator(remoteFS, "127.0.0.1:0", compactsvc.OrchestratorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer orch.Close()
	worker := compactsvc.NewWorker(storage.LocalFS(), workerWrapper, "compaction-worker-1", orch.Addr(),
		compactsvc.WorkerConfig{PollEvery: 5 * time.Millisecond})
	defer worker.Close()

	// The compute node keeps a durable secure cache: with one-time DEK
	// provisioning, a restart must resolve worker-created DEKs from the
	// cache, because the KDS will not hand them out twice.
	computeCacheFS := vfs.NewMem()
	computeCache, err := seccache.Open(computeCacheFS, "compute-cache.bin", []byte("compute-pass"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{
		Mode:          core.ModeSHIELD,
		FS:            remoteFS,
		KDS:           computeKDS,
		Cache:         computeCache,
		WALBufferSize: 512,
	}
	opts := lsm.Options{
		MemtableSize:        64 << 10,
		BaseLevelSize:       128 << 10,
		TargetFileSize:      64 << 10,
		L0CompactionTrigger: 2,
		Compactor:           orch,
	}
	db, err := core.Open("db", cfg, opts)
	if err != nil {
		t.Fatal(err)
	}

	const n = 8000
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%06d", i%3000)
		v := fmt.Sprintf("value-%06d-%d", i, i*31)
		if err := db.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.CompactRange(); err != nil {
		t.Fatal(err)
	}

	// The orchestrator's counters, not the worker's: the worker counts a job
	// only after the orchestrator has replied to its result, by which time
	// the engine may have installed the edit and CompactRange returned.
	st := orch.Stats()
	if st.Completed == 0 {
		t.Fatal("no compaction jobs reached the offloaded worker")
	}
	if st.BytesRead == 0 || st.BytesWritten == 0 {
		t.Fatalf("worker moved no bytes (in=%d out=%d)", st.BytesRead, st.BytesWritten)
	}

	// The compute node must read data the worker re-encrypted under fresh
	// DEKs, resolved through DEK-IDs + KDS (one-time foreign fetch).
	for i := 0; i < 3000; i += 113 {
		k := fmt.Sprintf("key-%06d", i)
		v, err := db.Get([]byte(k))
		if err != nil {
			t.Fatalf("Get(%s) after offloaded compaction: %v", k, err)
		}
		if len(v) == 0 {
			t.Fatalf("empty value for %s", k)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen (cold restart of compute node): a fresh wrapper resolves the
	// worker-created DEKs from the reloaded secure cache, since one-time
	// provisioning blocks a second KDS fetch.
	cache2, err := seccache.Open(computeCacheFS, "compute-cache.bin", []byte("compute-pass"))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cache = cache2
	db2, err := core.Open("db", cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if _, err := db2.Get([]byte("key-000777")); err != nil {
		t.Fatalf("after reopen: %v", err)
	}
}

// TestOffloadedCompactionPlaintext runs the same topology without
// encryption, isolating the job-shipping path.
func TestOffloadedCompactionPlaintext(t *testing.T) {
	storageFS := vfs.NewMem()
	storage, err := dstore.NewServer(storageFS, "127.0.0.1:0", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer storage.Close()
	remoteFS, err := dstore.Dial(storage.Addr(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer remoteFS.Close()
	orch, err := compactsvc.NewOrchestrator(remoteFS, "127.0.0.1:0", compactsvc.OrchestratorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer orch.Close()
	worker := compactsvc.NewWorker(storage.LocalFS(), lsm.NopWrapper{}, "worker-1", orch.Addr(),
		compactsvc.WorkerConfig{PollEvery: 5 * time.Millisecond})
	defer worker.Close()

	opts := lsm.Options{
		FS:                  remoteFS,
		MemtableSize:        64 << 10,
		BaseLevelSize:       128 << 10,
		TargetFileSize:      64 << 10,
		L0CompactionTrigger: 2,
		Compactor:           orch,
	}
	db, err := lsm.Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 6000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%06d", i%2000)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CompactRange(); err != nil {
		t.Fatal(err)
	}
	if orch.Stats().Completed == 0 {
		t.Fatal("no jobs offloaded")
	}
	if _, err := db.Get([]byte("k000001")); err != nil {
		t.Fatal(err)
	}
}

// TestEngineHaltsOnLostJob loses a compaction job (no worker ever claims
// it) and checks the engine treats it like a local ENOSPC abort: the
// CompactRange caller sees lsm.ErrJobLost, the write and read paths stay
// healthy — no degraded mode — and once a worker appears a retry succeeds.
func TestEngineHaltsOnLostJob(t *testing.T) {
	fs := vfs.NewMem()
	orch, err := compactsvc.NewOrchestrator(fs, "127.0.0.1:0", compactsvc.OrchestratorConfig{
		LeaseTTL:   30 * time.Millisecond,
		JobTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer orch.Close()

	opts := lsm.Options{
		FS:                  fs,
		MemtableSize:        64 << 10,
		BaseLevelSize:       128 << 10,
		TargetFileSize:      64 << 10,
		L0CompactionTrigger: 100, // only manual compaction offloads jobs
		Compactor:           orch,
	}
	db, err := lsm.Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 3000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%06d", i%1000)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	// No worker pool: the job times out unclaimed.
	err = db.CompactRange()
	if !errors.Is(err, lsm.ErrJobLost) {
		t.Fatalf("CompactRange with no workers returned %v, want ErrJobLost", err)
	}

	// Inputs retained, engine not poisoned: both paths still work.
	if err := db.Put([]byte("post-loss"), []byte("ok")); err != nil {
		t.Fatalf("write path poisoned after lost job: %v", err)
	}
	if _, err := db.Get([]byte("k000001")); err != nil {
		t.Fatalf("read path broken after lost job: %v", err)
	}

	// A worker joins the pool; the retry drains the same inputs.
	worker := compactsvc.NewWorker(fs, lsm.NopWrapper{}, "late-worker", orch.Addr(),
		compactsvc.WorkerConfig{PollEvery: 2 * time.Millisecond})
	defer worker.Close()
	if err := db.CompactRange(); err != nil {
		t.Fatalf("CompactRange after worker joined: %v", err)
	}
	if v, err := db.Get([]byte("post-loss")); err != nil || string(v) != "ok" {
		t.Fatalf("after recovery: %q, %v", v, err)
	}
	// The worker counts a job only after the orchestrator's reply, which can
	// land after CompactRange returned; the orchestrator counted it before.
	if orch.Stats().Completed == 0 {
		t.Fatal("late worker executed no jobs")
	}
}
