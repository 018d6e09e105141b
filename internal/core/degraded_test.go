package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"shield/internal/crypt"
	"shield/internal/kds"
	"shield/internal/lsm"
	"shield/internal/metrics"
	"shield/internal/netretry"
	"shield/internal/seccache"
	"shield/internal/vfs"
)

func fastKDSClientConfig() kds.ClientConfig {
	return kds.ClientConfig{
		Policy: netretry.Policy{
			DialTimeout:    200 * time.Millisecond,
			RequestTimeout: 300 * time.Millisecond,
			BackoffBase:    time.Millisecond,
			BackoffMax:     10 * time.Millisecond,
		},
		MaxAttempts: 4,
	}
}

func openTestCache(t *testing.T, fs vfs.FS) *seccache.Cache {
	t.Helper()
	cache, err := seccache.Open(fs, "seccache", []byte("passkey"))
	if err != nil {
		t.Fatal(err)
	}
	return cache
}

// TestKDSDownReadsFromSecureCacheWritesDegraded covers the availability
// story for a KDS outage: an instance restarted with a warm secure cache
// serves reads with zero KDS round trips, while anything needing a fresh
// DEK fails fast with ErrDegraded instead of hanging.
func TestKDSDownReadsFromSecureCacheWritesDegraded(t *testing.T) {
	store := kds.NewStore(kds.DefaultPolicy())
	store.Authorize("server-1")
	srv, err := kds.NewServer(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	dataFS := vfs.NewMem()
	cacheFS := vfs.NewMem()

	client := kds.NewClientConfig("server-1", fastKDSClientConfig(), addr)
	cfg := Config{
		Mode: ModeSHIELD, FS: dataFS, KDS: client,
		Cache: openTestCache(t, cacheFS), WALBufferSize: 512,
	}
	db, err := Open("db", cfg, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%05d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	client.Close()
	srv.Close() // the KDS goes dark
	_, fetchedBefore, _ := store.Stats()

	// Reopen read-only against the dead KDS with the warm cache.
	client2 := kds.NewClientConfig("server-1", fastKDSClientConfig(), addr)
	defer client2.Close()
	cfg2 := Config{
		Mode: ModeSHIELD, FS: dataFS, KDS: client2,
		Cache: openTestCache(t, cacheFS), WALBufferSize: 512,
	}
	wrapper, err := cfg2.BuildWrapper()
	if err != nil {
		t.Fatal(err)
	}
	opts := smallOpts()
	opts.ReadOnly = true
	opts.FS = dataFS
	opts.Wrapper = wrapper
	replica, err := lsm.Open("db", opts)
	if err != nil {
		t.Fatalf("read-only open with KDS down and warm cache: %v", err)
	}
	defer replica.Close()
	if v, err := replica.Get([]byte("k00042")); err != nil || string(v) != "v42" {
		t.Fatalf("degraded read: %q %v", v, err)
	}

	// The degraded read path must be KDS-free: served by the cache.
	st, ok := Stats(wrapper)
	if !ok {
		t.Fatal("not a SHIELD wrapper")
	}
	if st.KDSFetches != 0 {
		t.Fatalf("KDSFetches = %d with KDS down, want 0", st.KDSFetches)
	}
	if st.CacheHits == 0 {
		t.Fatal("CacheHits = 0; cache did not serve the DEKs")
	}
	if _, fetchedAfter, _ := store.Stats(); fetchedAfter != fetchedBefore {
		t.Fatalf("store fetches moved %d -> %d with server closed", fetchedBefore, fetchedAfter)
	}

	// A fresh read-write instance needs new DEKs, which need the KDS: it
	// must fail fast with the typed degradation error, not hang.
	before := metrics.Net.Snapshot()
	start := time.Now()
	_, err = Open("db2", cfg2, smallOpts())
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("RW open with KDS down err = %v, want ErrDegraded", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("degraded open took %v, not failing fast", d)
	}
	if delta := metrics.Net.Snapshot().Sub(before); delta.DegradedWrites == 0 {
		t.Fatalf("DegradedWrites not counted: %s", delta)
	}
}

// TestLiveDBKDSDownWritesDegradeReadsServe kills the KDS under a running
// database: reads keep working from in-memory DEKs, and writes surface
// ErrDegraded once a WAL/SST rotation needs a fresh DEK — no hang.
func TestLiveDBKDSDownWritesDegradeReadsServe(t *testing.T) {
	store := kds.NewStore(kds.DefaultPolicy())
	store.Authorize("server-1")
	srv, err := kds.NewServer(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	client := kds.NewClientConfig("server-1", fastKDSClientConfig(), srv.Addr())
	defer client.Close()
	cfg := Config{Mode: ModeSHIELD, FS: vfs.NewMem(), KDS: client, WALBufferSize: 512}
	db, err := Open("db", cfg, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	for i := 0; i < 500; i++ {
		if err := db.Put([]byte(fmt.Sprintf("pre%05d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	srv.Close()

	// Keep writing; once the memtable rotates the new WAL needs a DEK and
	// the write path must degrade in bounded time with a typed error.
	deadline := time.Now().Add(60 * time.Second)
	var werr error
	for i := 0; time.Now().Before(deadline); i++ {
		werr = db.Put([]byte(fmt.Sprintf("post%07d", i)), []byte("vvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvv"))
		if werr != nil {
			break
		}
	}
	if werr == nil {
		t.Fatal("writes never degraded with KDS down")
	}
	if !errors.Is(werr, ErrDegraded) {
		t.Fatalf("write err = %v, want ErrDegraded", werr)
	}

	// Reads still serve from in-memory DEKs.
	if v, err := db.Get([]byte("pre00003")); err != nil || string(v) != "v" {
		t.Fatalf("read after degradation: %q %v", v, err)
	}
}

// TestKDSReplicaKillMidDBWorkload is the acceptance scenario: a database
// whose KDS client knows two replicas completes every write while one
// replica is killed mid-workload, with no hang and no double-issued DEK.
func TestKDSReplicaKillMidDBWorkload(t *testing.T) {
	store := kds.NewStore(kds.DefaultPolicy())
	store.Authorize("server-1")
	r1, err := kds.NewServer(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := kds.NewServer(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()

	fs := vfs.NewMem()
	client := kds.NewClientConfig("server-1", fastKDSClientConfig(), r1.Addr(), r2.Addr())
	defer client.Close()
	cfg := Config{Mode: ModeSHIELD, FS: fs, KDS: client, WALBufferSize: 512}
	wrapper, err := cfg.BuildWrapper()
	if err != nil {
		t.Fatal(err)
	}
	opts := smallOpts()
	opts.FS = fs
	opts.Wrapper = wrapper
	db, err := lsm.Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}

	const puts = 6000
	for i := 0; i < puts; i++ {
		if i == puts/3 {
			r1.Close() // kill a replica mid-workload
		}
		if err := db.Put([]byte(fmt.Sprintf("k%06d", i)), []byte(fmt.Sprintf("value-%d", i))); err != nil {
			t.Fatalf("Put %d after replica kill: %v", i, err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatalf("Flush after replica kill: %v", err)
	}
	if v, err := db.Get([]byte("k000000")); err != nil || string(v) != "value-0" {
		t.Fatalf("read back: %q %v", v, err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	st, ok := Stats(wrapper)
	if !ok {
		t.Fatal("not a SHIELD wrapper")
	}
	issued, _, _ := store.Stats()
	if issued != st.DEKsCreated {
		t.Fatalf("store issued %d DEKs but wrapper created %d — a retry double-issued",
			issued, st.DEKsCreated)
	}
	if st.DEKsCreated < 3 {
		t.Fatalf("workload too small to rotate files: %+v", st)
	}
}

// unreachableFor is a KDS that cannot be reached for one DEK.
type unreachableFor struct {
	kds.Service
	id kds.KeyID
}

func (u unreachableFor) FetchDEK(id kds.KeyID) (crypt.DEK, error) {
	if id == u.id {
		return crypt.DEK{}, fmt.Errorf("fetching %s: %w", id, kds.ErrNoReplica)
	}
	return u.Service.FetchDEK(id)
}

// TestOneUnreachableDEKFailsOpenDegraded: when the KDS cannot be reached for
// one live table's DEK, the open fails with ErrDegraded and quarantines
// nothing, even under BestEffortRecovery, and the error is the same whether
// the tables are checked serially or four at a time.
func TestOneUnreachableDEKFailsOpenDegraded(t *testing.T) {
	fs := vfs.NewMem()
	store := kds.NewStore(kds.Policy{})
	cfg := Config{Mode: ModeSHIELD, FS: fs, KDS: kds.NewLocal(store, "server-1")}
	db, err := Open("db", cfg, compactRangeOnlyOpts())
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 6; round++ {
		if err := db.Put([]byte(fmt.Sprintf("k%02d", round)), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	before := dirNames(t, fs, "db")
	var victim string
	for _, name := range before {
		if strings.HasSuffix(name, ".sst") {
			victim = name // the last table by name
		}
	}
	data, err := vfs.ReadFile(fs, "db/"+victim)
	if err != nil {
		t.Fatal(err)
	}
	h, err := parseHeader(data)
	if err != nil {
		t.Fatal(err)
	}

	var errs []string
	for _, jobs := range []int{1, 4} {
		cfg.KDS = unreachableFor{kds.NewLocal(store, "server-1"), h.dekID}
		opts := compactRangeOnlyOpts()
		opts.BestEffortRecovery = true
		opts.MaxBackgroundJobs = jobs
		_, err := Open("db", cfg, opts) // a fresh wrapper: every DEK is resolved anew
		if !errors.Is(err, ErrDegraded) {
			t.Fatalf("jobs=%d: open = %v, want ErrDegraded", jobs, err)
		}
		if after := dirNames(t, fs, "db"); !slices.Equal(after, before) {
			t.Fatalf("jobs=%d: the failed open changed the store: %v, was %v", jobs, after, before)
		}
		if lost := dirNames(t, fs, "db/lost"); len(lost) != 0 {
			t.Fatalf("jobs=%d: quarantined %v", jobs, lost)
		}
		errs = append(errs, err.Error())
	}
	if errs[0] != errs[1] {
		t.Fatalf("jobs=1 and jobs=4 fail differently:\n %s\n %s", errs[0], errs[1])
	}
}

// dirNames lists the file names in dir, sorted; none when it is absent.
func dirNames(t *testing.T, fs vfs.FS, dir string) []string {
	t.Helper()
	entries, err := fs.List(dir)
	if errors.Is(err, vfs.ErrNotFound) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name)
	}
	slices.Sort(names)
	return names
}

// TestFlushRotationCloseFailureDegrades: with a WAL buffer, Flush rotates
// the memtable and closes the old WAL, and that close writes the records the
// buffer still holds. When the write fails, records the DB acknowledged are
// not in the log, so Flush poisons the DB the way a full-memtable rotation
// does: it and the next Put fail with ErrDegraded.
func TestFlushRotationCloseFailureDegrades(t *testing.T) {
	ffs := vfs.NewFault(vfs.NewMem(), 1)
	db, err := Open("db", Config{Mode: ModeSHIELD, FS: ffs, KDS: newCrashKDS(), WALBufferSize: 512}, lsm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Put([]byte("k1"), []byte("buffered")); err != nil {
		t.Fatal(err)
	}
	var wals []string
	for _, name := range dirNames(t, ffs, "db") {
		if strings.HasSuffix(name, ".log") {
			wals = append(wals, name)
		}
	}
	if len(wals) != 1 {
		t.Fatalf("WALs %v, want one", wals)
	}
	rule := ffs.Inject(vfs.FaultRule{Op: vfs.FaultWrite, Path: wals[0], Count: 1})
	if err := db.Flush(); !errors.Is(err, lsm.ErrDegraded) || ffs.Fired(rule) != 1 {
		t.Fatalf("Flush with the rotated WAL's close-time write failing: %v, want ErrDegraded", err)
	}
	if err := db.Put([]byte("k2"), []byte("v2")); !errors.Is(err, lsm.ErrDegraded) {
		t.Fatalf("Put after the failed rotation: %v, want ErrDegraded", err)
	}
}
