package sim

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"path"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"shield/internal/compactsvc"
	"shield/internal/core"
	"shield/internal/dstore"
	"shield/internal/kds"
	"shield/internal/lsm"
	"shield/internal/netretry"
	"shield/internal/seccache"
	"shield/internal/server"
	"shield/internal/vfs"
)

const (
	// keysPerWorker sizes each worker's private key range.
	keysPerWorker = 24

	simDir      = "db"
	simServerID = "sim-server"
	cachePath   = "seccache"
)

// Config parameterizes one simulation run. Zero values select defaults
// sized so a run finishes in well under a second on an in-memory stack.
type Config struct {
	// Seed is the single source of randomness: it derives the nemesis
	// schedule, every worker's op stream, fault probabilities, torn-write
	// shuffles, and the retry-jitter stream.
	Seed uint64

	// Ops is the total workload operation budget across workers
	// (default 600).
	Ops int

	// Workers is the number of concurrent workload goroutines (default 4).
	Workers int

	// MaxEvents, when > 0, truncates the schedule to its first MaxEvents
	// entries — the reducer's lever. The zero value applies no cap (the
	// full schedule runs); a negative value runs an empty schedule. (The
	// zero value used to truncate everything, which silently stripped the
	// nemesis from any Config that didn't set the field.)
	MaxEvents int

	// Dstore routes the data path through a disaggregated storage node
	// (a dstore server + client pair), adding node-kill events and real
	// network framing to the mix.
	Dstore bool

	// BitRot enables tamper events. A tampered run relaxes the checker to
	// quarantine semantics, so leave it off when hunting strict-durability
	// bugs.
	BitRot bool

	// Rollback enables the manifest-rollback nemesis: an adversary captures
	// the durable image at one point and later restores it wholesale — the
	// freshness attack the sealed epoch floor exists to catch. The secure
	// cache lives on a separate device and is NOT rolled back, so a reopen
	// against the stale tree must fail closed with an epoch-regression
	// error before the harness overrides it, operator-style, with
	// AllowRollback. A rolled-back run relaxes the checker like BitRot.
	Rollback bool

	// NodeLoss replicates the data path across three storage nodes behind a
	// quorum-2 replica set and offloads compactions through a lease-based
	// orchestrator to two storage-side SHIELD workers — then kills replicas
	// mid-write and workers mid-lease on top of the usual fault mix, and
	// audits every in-sync replica for byte-identical state at end of run.
	// Supersedes Dstore (the single-node topology) when set.
	NodeLoss bool

	// ConnStorm fronts the engine with a RESP shield-server on loopback
	// and adds connection-storm and slow-client events: bursts of clients
	// mixing valid, unknown, and malformed commands, plus connections that
	// stall mid-frame. A health probe after each event checks the server
	// still answers; a wedged server is a violation.
	ConnStorm bool

	// Timeout aborts a wedged run (default 2 minutes); a trip is reported
	// as a violation, since nothing in the stack should deadlock.
	Timeout time.Duration

	// Logf, when set, receives verbose progress (the CLI's -v).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Ops <= 0 {
		c.Ops = 600
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Minute
	}
	if c.NodeLoss {
		c.Dstore = false // the replicated fleet replaces the single node
	}
	return c
}

// Result is one run's verdict and reproduction record.
type Result struct {
	Seed uint64

	// Hash digests the seed-derived schedule; two runs of the same seed
	// and config produce the same hash (the reproducibility witness).
	Hash string

	// Plan is the hashed schedule, one line per nemesis event.
	Plan []string

	// Notes are unhashed runtime observations (engine logs, retry notes).
	Notes []string

	// Violations are checker findings; empty means the run passed.
	Violations []string

	Acked, FailedWrites, Reads, Scans int64
	Crashes, Reopens                  int64
	Tainted                           bool
}

// Failed reports whether the run violated the durability contract.
func (r *Result) Failed() bool { return len(r.Violations) > 0 }

type simulation struct {
	cfg     Config
	clock   clock
	checker *checker
	keys    []string // full key universe; worker w owns [w*K, (w+1)*K)

	// stackMu serializes nemesis events against workload ops: workers
	// hold it shared per op, event execution holds it exclusive. This is
	// the crash barrier — a snapshot is only taken with no op in flight,
	// so every acknowledgment the checker recorded precedes the image.
	stackMu sync.RWMutex
	db      *lsm.DB
	crash   *vfs.CrashFS
	quota   *vfs.QuotaFS
	fault   *vfs.FaultFS
	cache   *seccache.Cache

	quotaLimit  int64
	activeRules []vfs.FaultRule // re-installed after a crash rebuild
	tainted     bool
	faultStream uint64 // sub-seed counter for rebuilt RNG streams

	// Rollback nemesis state: the captured durable image, whether a
	// rollback was actually performed (epoch regression is only legitimate
	// then), and whether reopen runs with the operator's override.
	rollbackImg   *vfs.CrashImage
	rolledBack    bool
	allowRollback bool

	// tampered maps each bit-rotted file to the SHA-256 of its post-flip
	// bytes; the end-of-run scrub audit asserts every such file that still
	// holds those bytes gets a non-ok verdict.
	tampered map[string][32]byte

	cacheBase *vfs.MemFS
	cacheFS   *vfs.FaultFS

	kdsStore  *kds.Store
	kdsSrv    [2]*kds.Server
	kdsAddr   [2]string
	kdsUp     [2]bool
	kdsClient *kds.Client

	storeSrv    *dstore.Server
	storeAddr   string
	storeClient *dstore.Client
	storeUp     bool

	// Replicated fleet (NodeLoss runs). repMu guards the slots because
	// replica/worker kill events fire under stackMu *shared* (they must
	// overlap in-flight ops) while crash rebuilds hold it exclusive; the
	// lock order is stackMu before repMu everywhere.
	repMu      sync.Mutex
	repBase    [2]*vfs.MemFS // replicas 1 and 2: independent devices
	repSrv     [3]*dstore.Server
	repAddr    [3]string
	repUp      [3]bool
	rs         *dstore.ReplicaSet
	rsSwap     *swapFS // the workers' storage handle; repointed on rebuild
	orch       *compactsvc.Orchestrator
	orchAddr   string
	simWorkers [2]*compactsvc.Worker
	workerWrap [2]lsm.FileWrapper
	workerKDS  [2]*kds.Client
	workerUp   [2]bool

	// Serving layer (ConnStorm runs): a RESP server over a lock-free
	// swappable engine handle, plus the stalled connections the
	// slow-client event leaves open. All mutated under stackMu exclusive.
	srv       *server.Server
	srvDone   chan error // receives Serve's result; drained by stopServerLocked
	srvEngine *swapEngine
	srvAddr   string
	slowConns []net.Conn

	plan   []event
	nextEv int
	evMu   sync.Mutex

	dead atomic.Bool // harness gave up (unrecoverable reopen); workers drain

	notesMu sync.Mutex
	notes   []string

	acked, failedW, reads, scans atomic.Int64
	crashes, reopens             atomic.Int64
}

// Run executes one seeded simulation and reports the verdict.
func Run(cfg Config) *Result {
	cfg = cfg.withDefaults()
	planRNG := rand.New(rand.NewSource(subSeed(cfg.Seed, 0)))
	plan := planNemesis(cfg, planRNG)
	if cfg.MaxEvents != 0 {
		limit := cfg.MaxEvents
		if limit < 0 {
			limit = 0
		}
		if len(plan) > limit {
			plan = plan[:limit]
		}
	}
	netretry.Seed(subSeed(cfg.Seed, 1))

	s := &simulation{cfg: cfg, plan: plan}
	for w := 0; w < cfg.Workers; w++ {
		for k := 0; k < keysPerWorker; k++ {
			s.keys = append(s.keys, fmt.Sprintf("w%02d-k%03d", w, k))
		}
	}
	s.checker = newChecker(s.keys)

	if err := s.bootstrap(); err != nil {
		s.checker.violate("bootstrap: %v", err)
		return s.result()
	}
	defer s.teardown()

	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go s.worker(w, &wg)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(cfg.Timeout):
		s.dead.Store(true)
		s.checker.violate("watchdog: run wedged after %v at step %d", cfg.Timeout, s.clock.now())
		return s.result()
	}

	s.finalVerify()
	return s.result()
}

func (s *simulation) result() *Result {
	r := &Result{
		Seed:         s.cfg.Seed,
		Hash:         hashPlan(s.cfg.Seed, s.plan),
		Violations:   s.checker.report(),
		Acked:        s.acked.Load(),
		FailedWrites: s.failedW.Load(),
		Reads:        s.reads.Load(),
		Scans:        s.scans.Load(),
		Crashes:      s.crashes.Load(),
		Reopens:      s.reopens.Load(),
		Tainted:      s.tainted,
	}
	for _, e := range s.plan {
		r.Plan = append(r.Plan, e.String())
	}
	s.notesMu.Lock()
	r.Notes = append([]string(nil), s.notes...)
	s.notesMu.Unlock()
	return r
}

func (s *simulation) note(format string, args ...any) {
	s.notesMu.Lock()
	defer s.notesMu.Unlock()
	if len(s.notes) < 256 {
		s.notes = append(s.notes, fmt.Sprintf(format, args...))
	}
	if s.cfg.Logf != nil {
		s.cfg.Logf("seed %d: "+format, append([]any{s.cfg.Seed}, args...)...)
	}
}

func (s *simulation) nextStream() int64 {
	s.faultStream++
	return subSeed(s.cfg.Seed, 1000+s.faultStream)
}

// ---- Stack construction ----

func (s *simulation) bootstrap() error {
	policy := kds.DefaultPolicy()
	if s.cfg.NodeLoss {
		// One-time provisioning, fleet-sized: a worker-created DEK is
		// foreign-fetched by the compute node AND by the other worker when
		// it later compacts those outputs. (The creator's own re-fetch is
		// free and does not consume the budget.)
		policy.MaxFetches = 4
	}
	s.kdsStore = kds.NewStore(policy)
	s.kdsStore.Authorize(simServerID)
	for i := range s.kdsSrv {
		srv, err := kds.NewServer(s.kdsStore, "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("kds replica %d: %w", i, err)
		}
		s.kdsSrv[i] = srv
		s.kdsAddr[i] = srv.Addr()
		s.kdsUp[i] = true
	}
	s.kdsClient = kds.NewClientConfig(simServerID, kds.ClientConfig{
		Policy: netretry.Policy{
			DialTimeout:    200 * time.Millisecond,
			RequestTimeout: 500 * time.Millisecond,
			BackoffBase:    time.Millisecond,
			BackoffMax:     20 * time.Millisecond,
		},
		MaxAttempts: 4,
	}, s.kdsAddr[0], s.kdsAddr[1])

	s.cacheBase = vfs.NewMem()
	s.cacheFS = vfs.NewFault(s.cacheBase, s.nextStream())
	s.reopenCacheLocked()

	s.crash = vfs.NewCrash(s.nextStream())
	s.quota = vfs.NewQuota(s.crash, 0)
	s.fault = vfs.NewFault(s.quota, s.nextStream())

	if s.cfg.Dstore {
		if err := s.startStoreLocked("127.0.0.1:0"); err != nil {
			return err
		}
	}
	if s.cfg.NodeLoss {
		if err := s.startReplicaFleetLocked(); err != nil {
			return err
		}
	}
	if s.cfg.ConnStorm {
		s.srvEngine = &swapEngine{}
	}
	s.openDBLocked()
	if s.dead.Load() {
		return errors.New("initial open failed")
	}
	if s.cfg.ConnStorm {
		if err := s.startServerLocked(); err != nil {
			return err
		}
	}
	return nil
}

// setDBLocked swaps the engine: the field the workload reads under the
// crash barrier, and the lock-free handle the serving layer reads without
// it (nil while the stack is torn down mid-crash).
func (s *simulation) setDBLocked(db *lsm.DB) {
	s.db = db
	if s.srvEngine != nil {
		s.srvEngine.db.Store(db)
	}
}

func (s *simulation) dataFSLocked() vfs.FS {
	if s.cfg.NodeLoss {
		return s.rs
	}
	if s.cfg.Dstore {
		return s.storeClient
	}
	return s.fault
}

func (s *simulation) startStoreLocked(addr string) error {
	srv, err := dstore.NewServer(s.fault, addr, 0, 0)
	if err != nil {
		return fmt.Errorf("dstore node: %w", err)
	}
	s.storeSrv = srv
	s.storeAddr = srv.Addr()
	client, err := dstore.DialConfig(s.storeAddr, dstore.Config{
		Conns: 2,
		Policy: netretry.Policy{
			DialTimeout:    200 * time.Millisecond,
			RequestTimeout: 2 * time.Second,
			BackoffBase:    time.Millisecond,
			BackoffMax:     20 * time.Millisecond,
		},
		MaxAttempts: 3,
	})
	if err != nil {
		srv.Close()
		return fmt.Errorf("dstore dial: %w", err)
	}
	s.storeClient = client
	s.storeUp = true
	return nil
}

func (s *simulation) reopenCacheLocked() {
	cache, err := seccache.Open(s.cacheFS, cachePath, []byte("sim-passkey"))
	if err != nil {
		s.note("seccache open failed, running cacheless: %v", err)
		s.cache = nil
		return
	}
	if cache.Recovered() {
		s.note("seccache cold-started after corruption")
	}
	s.cache = cache
}

func (s *simulation) lsmOptsLocked() lsm.Options {
	opts := lsm.Options{
		MemtableSize:        8 << 10, // flush constantly
		BaseLevelSize:       64 << 10,
		TargetFileSize:      16 << 10,
		L0CompactionTrigger: 3,
		MaxBackgroundJobs:   4,       // concurrent compactions under the nemesis
		MaxManifestFileSize: 8 << 10, // exercise manifest rotation
		SyncWrites:          true,    // acked == durable, the checker's axiom
		BestEffortRecovery:  s.tainted,
		AllowRollback:       s.allowRollback,
		Logger: func(format string, args ...any) {
			s.note("engine: "+format, args...)
		},
	}
	if s.cfg.NodeLoss && s.orch != nil {
		opts.Compactor = s.orch
	}
	return opts
}

// openDBLocked opens the database on the current stack, absorbing the two
// recoverable open-failure classes the nemesis can cause (disk still full,
// every KDS replica down) the way an operator would. Anything else is a
// genuine recovery failure and is reported as a violation.
//
//shield:nolockio stackMu is the simulation's crash barrier: rebuilding the stack must exclude every workload op, and all I/O here is against in-memory fakes
func (s *simulation) openDBLocked() {
	// Every recoverable failure class below strictly drains: ENOSPC is lifted
	// on the first retry, KDS replicas restart, and injected fault rules are
	// count-limited — so a generous attempt budget terminates. It must cover
	// the worst-case fault budget a net-fault event can install (~15 firings).
	for attempt := 0; attempt < 25; attempt++ {
		cfg := core.Config{
			Mode:          core.ModeSHIELD,
			FS:            s.dataFSLocked(),
			KDS:           s.kdsClient,
			Cache:         s.cache,
			WALBufferSize: 512,
		}
		db, err := core.Open(simDir, cfg, s.lsmOptsLocked())
		if err == nil {
			s.setDBLocked(db)
			s.reopens.Add(1)
			return
		}
		switch {
		case errors.Is(err, vfs.ErrNoSpace):
			s.note("open hit ENOSPC; freeing space and retrying")
			s.quota.SetLimit(0)
			s.quotaLimit = 0
		case errors.Is(err, kds.ErrNoReplica):
			s.note("open with all KDS replicas down; restarting them")
			s.restartKDSLocked()
		case errors.Is(err, vfs.ErrInjected):
			// A transient injected fault (flaky remote storage) hit the
			// recovery path. The rules are count-limited, so retrying the
			// open drains them — the operator model for a flaky mount.
			s.note("open hit an injected transient fault; retrying")
		case s.cfg.NodeLoss && errors.Is(err, dstore.ErrNoQuorum):
			// Too many replicas demoted (a kill window overlapping enough
			// write failures on replica 0). Restart the dead nodes and give
			// the re-sync loop a beat to heal and promote them.
			s.note("open below write quorum; restarting dead replicas")
			s.restartDownReplicasLocked()
			time.Sleep(100 * time.Millisecond)
		case errors.Is(err, lsm.ErrEpochRegression):
			// Fail-closed rollback detection fired. Legitimate only if the
			// nemesis actually rolled the image back; the harness then plays
			// the operator who verified the rollback and overrides it.
			// Spurious detection is a violation — it would lock users out of
			// an intact store.
			if !s.rolledBack {
				s.checker.violate("reopen reported epoch regression with no rollback injected: %v", err)
				s.setDBLocked(nil)
				s.dead.Store(true)
				return
			}
			s.note("rollback detected at reopen (%v); continuing with allow-rollback", err)
			s.allowRollback = true
		default:
			s.checker.violate("reopen failed irrecoverably: %v", err)
			s.setDBLocked(nil)
			s.dead.Store(true)
			return
		}
	}
	s.checker.violate("reopen retries exhausted")
	s.setDBLocked(nil)
	s.dead.Store(true)
}

func (s *simulation) restartKDSLocked() {
	for i := range s.kdsSrv {
		if s.kdsUp[i] {
			continue
		}
		srv, err := kds.NewServer(s.kdsStore, s.kdsAddr[i])
		if err != nil {
			s.note("kds replica %d failed to restart: %v", i, err)
			continue
		}
		s.kdsSrv[i] = srv
		s.kdsUp[i] = true
	}
}

// ---- Nemesis execution ----

// fireDue runs every planned event whose step has arrived. Workers call it
// once per op; each event is claimed exactly once, in plan order.
func (s *simulation) fireDue(step uint64) {
	for {
		s.evMu.Lock()
		if s.nextEv >= len(s.plan) || s.plan[s.nextEv].step > step {
			s.evMu.Unlock()
			return
		}
		ev := s.plan[s.nextEv]
		idx := s.nextEv
		s.nextEv++
		s.evMu.Unlock()
		s.fire(ev, idx)
	}
}

// fire executes one claimed event; idx is its plan position, captured by
// the claimer under evMu (reading s.nextEv here would race later claims).
//
//shield:nolockio the exclusive lock IS the nemesis barrier: events must run with no workload op in flight, so blocking I/O under stackMu is the design, not an accident
func (s *simulation) fire(ev event, idx int) {
	switch ev.kind {
	case evReplicaKill, evReplicaRestart, evWorkerKill, evWorkerRestart:
		// The fleet events take the barrier *shared*: a node dying out from
		// under an in-flight quorum write (or a worker mid-lease) is exactly
		// the race this band exists to exercise, so they must overlap ops
		// rather than quiesce them like every other event.
		s.fireReplicaEvent(ev)
		return
	}
	s.stackMu.Lock()
	defer s.stackMu.Unlock()
	if s.dead.Load() {
		return
	}
	s.note("firing %s", ev)
	switch ev.kind {
	case evDiskFull:
		s.quotaLimit = s.quota.Used() + ev.arg
		s.quota.SetLimit(s.quotaLimit)
	case evDiskFree:
		s.quotaLimit = 0
		s.quota.SetLimit(0)
		s.healLocked()
	case evNetFault:
		rules := []vfs.FaultRule{
			{Op: vfs.FaultWrite, Probability: 0.2, Count: int(ev.arg)},
			{Op: vfs.FaultRead, Probability: 0.1, Count: int(ev.arg)},
			{Op: vfs.FaultWrite, Probability: 0.05, Count: 1, TornBytes: 7},
		}
		s.activeRules = rules
		for _, r := range rules {
			s.fault.Inject(r)
		}
	case evNetHeal:
		s.fault.ClearRules()
		s.activeRules = nil
		s.healLocked()
	case evCacheFault:
		s.cacheFS.Inject(vfs.FaultRule{Op: vfs.FaultWrite, Path: cachePath, Count: int(ev.arg)})
	case evKDSKill:
		i := int(ev.arg) % len(s.kdsSrv)
		other := (i + 1) % len(s.kdsSrv)
		if s.kdsUp[i] && s.kdsUp[other] { // never kill the last replica
			s.kdsSrv[i].Close()
			s.kdsUp[i] = false
		}
	case evKDSRestart:
		s.restartKDSLocked()
		s.healLocked()
	case evStoreKill:
		if s.storeUp {
			s.storeClient.Close()
			s.storeSrv.Close()
			s.storeUp = false
		}
	case evStoreRestart:
		if s.cfg.Dstore && !s.storeUp {
			if err := s.startStoreLocked(s.storeAddr); err != nil {
				s.note("store restart failed: %v", err)
				return
			}
			s.healLocked()
		}
	case evBitRot:
		s.bitRotLocked(ev.arg)
	case evManifestSnap:
		// The adversary quietly copies the durable image (manifest, CURRENT,
		// SSTs — everything but the secure cache, which lives on another
		// device) for a later replay.
		s.rollbackImg = s.crash.Snapshot()
		s.note("manifest-snap: adversary captured the durable image")
	case evManifestRollback:
		if s.rollbackImg == nil {
			s.note("manifest-rollback: no captured image yet; skipped")
			return
		}
		// Replay the stale image wholesale and power-cycle onto it. Acked
		// writes since the snapshot vanish, so the checker degrades to
		// taint semantics — but the sealed epoch floor must make the reopen
		// fail closed first (asserted in openDBLocked).
		s.tainted = true
		s.checker.taint()
		s.rolledBack = true
		s.note("manifest-rollback: restoring stale durable image")
		s.crashToLocked(s.rollbackImg, false, subSeed(s.cfg.Seed, 6000+uint64(idx)))
	case evConnStorm:
		s.connStormLocked(ev.arg)
	case evSlowClient:
		s.slowClientLocked(ev.arg)
	case evCrash:
		s.crashLocked(ev.arg == 1, subSeed(s.cfg.Seed, 5000+uint64(idx)))
	}
}

// healLocked performs the operator's move after a fault window lifts: if
// the engine poisoned itself into degraded mode, close it gracefully and
// reopen on the same (healed) stack. Recovery replays the synced WAL, so
// nothing acknowledged is lost — the enospc/degraded tests assert the same
// transition deterministically.
func (s *simulation) healLocked() {
	if s.db == nil || s.db.Degraded() == nil {
		return
	}
	if s.cfg.Dstore && !s.storeUp {
		// No reopen can succeed while the storage node is down; stay in
		// degraded mode (reads still work) until store-restart heals us.
		s.note("degraded with the storage node down; deferring heal")
		return
	}
	s.note("degraded after heal: controlled reopen")
	if err := s.db.Close(); err != nil {
		s.note("close while degraded: %v", err)
	}
	s.setDBLocked(nil)
	s.openDBLocked()
}

// bitRotLocked flips one bit in a cold SST, writing through the crash
// layer directly (below quota accounting — media corruption does not
// allocate space). The checker is tainted first, so any read observing the
// damage is judged under quarantine semantics.
//
//shield:nolockio stackMu is the simulation's crash barrier (tampering must not race a workload op), and the "device" is an in-memory fake
//shield:nosyncdir the tampered SST already exists; media corruption rewrites bytes in place and owes its directory entry no durability
func (s *simulation) bitRotLocked(arg int64) {
	entries, err := s.crash.List(simDir)
	if err != nil {
		s.note("bit-rot: list: %v", err)
		return
	}
	var ssts []string
	for _, e := range entries {
		// List returns base names; tampering needs the full path.
		if strings.HasSuffix(e.Name, ".sst") {
			ssts = append(ssts, path.Join(simDir, e.Name))
		}
	}
	if len(ssts) == 0 {
		s.note("bit-rot: no SSTs yet; skipped")
		return
	}
	// Prefer the older half of the tree: cold files, likely not open for
	// writing and overdue for a scrub to catch.
	name := ssts[int(uint64(arg)%uint64((len(ssts)+1)/2))]
	data, err := vfs.ReadFile(s.crash, name)
	if err != nil || len(data) == 0 {
		s.note("bit-rot: read %s: %v", name, err)
		return
	}
	s.tainted = true
	s.checker.taint()
	off := int(uint64(arg) % uint64(len(data)))
	data[off] ^= 1 << (uint64(arg) % 8)
	f, err := s.crash.Create(name)
	if err != nil {
		s.note("bit-rot: rewrite %s: %v", name, err)
		return
	}
	if _, err := f.Write(data); err == nil {
		f.Sync() //nolint:errcheck
	}
	f.Close()
	// Remember the exact tampered bytes: the end-of-run scrub audit asserts
	// that a file still holding them never gets an ok verdict. (Compaction
	// or a rollback may legitimately replace the file; the hash tells the
	// audit which assertions still apply.)
	if s.tampered == nil {
		s.tampered = make(map[string][32]byte)
	}
	s.tampered[name] = sha256.Sum256(data)
	s.note("bit-rot: flipped bit %d of %s (%d bytes)", off, name, len(data))
}

// crashLocked is power loss: abandon the running engine (its goroutines
// wind down against the dead store), restore the filesystem to exactly the
// durable image — optionally with torn unsynced tails — rebuild the
// wrapper stack, and recover.
//
//shield:nolockio stackMu is the simulation's crash barrier: the whole point is that no workload op may overlap the power cycle; every device is an in-memory fake
func (s *simulation) crashLocked(torn bool, tornSeed int64) {
	s.crashToLocked(s.crash.Snapshot(), torn, tornSeed)
}

// crashToLocked is crashLocked generalized over the image the machine comes
// back up on: the current durable snapshot for power loss, an older captured
// snapshot for the manifest-rollback nemesis.
//
//shield:nolockio stackMu is the simulation's crash barrier: the whole point is that no workload op may overlap the power cycle; every device is an in-memory fake
func (s *simulation) crashToLocked(img *vfs.CrashImage, torn bool, tornSeed int64) {
	s.crashes.Add(1)
	if s.db != nil {
		old := s.db
		s.setDBLocked(nil)
		go old.Close() //nolint:errcheck // the "process" died; this just reaps goroutines
	}
	if s.cfg.Dstore && s.storeUp {
		s.storeClient.Close()
		s.storeSrv.Close()
		s.storeUp = false
	}
	if s.cfg.NodeLoss {
		s.crashReplicaStackLocked()
	}

	s.crash = vfs.NewCrashFrom(img, torn, tornSeed)
	s.quota = vfs.NewQuota(s.crash, s.quotaLimit)
	if err := s.quota.ChargeDir(simDir); err != nil {
		s.note("quota recharge: %v", err)
	}
	s.fault = vfs.NewFault(s.quota, s.nextStream())
	for _, r := range s.activeRules {
		s.fault.Inject(r)
	}
	// The process took the in-memory DEK cache with it; reopen from disk.
	s.reopenCacheLocked()
	if s.cfg.Dstore {
		if err := s.startStoreLocked(s.storeAddr); err != nil {
			s.checker.violate("storage node failed to restart after crash: %v", err)
			s.dead.Store(true)
			return
		}
	}
	if s.cfg.NodeLoss && !s.restoreReplicaStackLocked() {
		return
	}
	s.openDBLocked()
}

// ---- Workload ----

func (s *simulation) worker(id int, wg *sync.WaitGroup) {
	defer wg.Done()
	rng := rand.New(rand.NewSource(subSeed(s.cfg.Seed, 100+uint64(id))))
	own := s.keys[id*keysPerWorker : (id+1)*keysPerWorker]
	ops := s.cfg.Ops / s.cfg.Workers
	for i := 0; i < ops && !s.dead.Load(); i++ {
		step := s.clock.tick()
		s.fireDue(step)
		s.doOp(id, i, own, rng)
	}
}

func (s *simulation) doOp(id, op int, own []string, rng *rand.Rand) {
	s.stackMu.RLock()
	defer s.stackMu.RUnlock()
	db := s.db
	if db == nil {
		return
	}
	key := own[rng.Intn(len(own))]
	switch r := rng.Float64(); {
	case r < 0.40: // put own key
		val := fmt.Sprintf("%s=%02d.%04d:%0*d", key, id, op, 10+rng.Intn(90), rng.Int63n(1<<40))
		s.checker.beginWrite(key, val)
		if err := db.Put([]byte(key), []byte(val)); err != nil {
			s.failedW.Add(1)
			s.checker.failWrite(key, val)
		} else {
			s.acked.Add(1)
			s.checker.ackWrite(key, val)
		}
	case r < 0.50: // delete own key
		if err := db.Delete([]byte(key)); err != nil {
			s.failedW.Add(1)
			s.checker.failWrite(key, "")
		} else {
			s.acked.Add(1)
			s.checker.ackWrite(key, "")
		}
	case r < 0.74: // read own key, strict
		s.reads.Add(1)
		got, err := db.Get([]byte(key))
		found := err == nil
		if errors.Is(err, lsm.ErrNotFound) {
			err = nil
		}
		s.checker.checkOwnerRead(key, string(got), found, err)
	case r < 0.86: // read any key, racing its owner
		k := s.keys[rng.Intn(len(s.keys))]
		s.reads.Add(1)
		got, err := db.Get([]byte(k))
		found := err == nil
		if errors.Is(err, lsm.ErrNotFound) {
			err = nil
		}
		s.checker.checkCrossRead(k, string(got), found, err)
	case r < 0.92: // bounded scan from a random key
		s.scans.Add(1)
		it, err := db.NewIter()
		if err != nil {
			s.checker.checkReadError("<scan>", err)
			return
		}
		for ok, n := it.SeekGE([]byte(s.keys[rng.Intn(len(s.keys))])), 0; ok && n < 20; ok, n = it.Next(), n+1 {
			s.checker.checkScanEntry(string(it.Key()), string(it.Value()))
		}
		if err := it.Err(); err != nil {
			s.checker.checkReadError("<scan>", err)
		}
		it.Close() //nolint:errcheck
	case r < 0.97: // force a flush (memtable -> encrypted L0)
		if err := db.Flush(); err != nil {
			s.note("flush: %v", err)
		}
	default: // force a full compaction pass
		if err := db.CompactRange(); err != nil {
			s.note("compact: %v", err)
		}
	}
}

// ---- End of run ----

// finalVerify heals every outstanding fault, performs one last strict
// power-loss crash, recovers, and audits the entire key space against the
// checker — the "every acked write survived everything" bottom line.
//
//shield:nolockio runs after every worker has exited; stackMu is held only as the crash barrier and the devices are in-memory fakes
func (s *simulation) finalVerify() {
	s.fireDue(^uint64(0)) // drain the remaining schedule (its heal tail)
	if s.dead.Load() {
		return
	}
	s.stackMu.Lock()
	defer s.stackMu.Unlock()
	s.quotaLimit = 0
	s.quota.SetLimit(0)
	s.fault.ClearRules()
	s.activeRules = nil
	s.restartKDSLocked()
	if s.cfg.NodeLoss {
		s.restartDownReplicasLocked()
		s.restartDownWorkersLocked()
	}
	if s.db == nil || s.db.Degraded() != nil {
		if s.db != nil {
			s.db.Close() //nolint:errcheck
		}
		s.setDBLocked(nil)
		s.openDBLocked()
	}
	if s.dead.Load() {
		return
	}

	s.crashLocked(false, 0)
	if s.dead.Load() || s.db == nil {
		return
	}
	for _, key := range s.keys {
		got, err := s.db.Get([]byte(key))
		found := err == nil
		if errors.Is(err, lsm.ErrNotFound) {
			err = nil
		}
		s.checker.checkOwnerRead(key, string(got), found, err)
	}
	it, err := s.db.NewIter()
	if err != nil {
		s.checker.checkReadError("<final-scan>", err)
		return
	}
	for ok := it.First(); ok; ok = it.Next() {
		s.checker.checkScanEntry(string(it.Key()), string(it.Value()))
	}
	if err := it.Err(); err != nil {
		s.checker.checkReadError("<final-scan>", err)
	}
	it.Close() //nolint:errcheck

	s.scrubAuditLocked()
	s.replicaAuditLocked()
}

// scrubAuditLocked closes the engine and runs the offline scrub over the
// final image: every file the nemesis tampered with that still holds the
// tampered bytes must come back with a non-ok verdict. Tampering may
// legitimately lose data (quarantine) but must never pass an audit —
// that holds even in a tainted run.
//
//shield:nolockio runs after every worker has exited; stackMu is held only as the crash barrier and the devices are in-memory fakes
func (s *simulation) scrubAuditLocked() {
	if len(s.tampered) == 0 && !s.rolledBack {
		return
	}
	if s.db != nil {
		s.db.Close() //nolint:errcheck
		s.setDBLocked(nil)
	}
	cfg := core.Config{
		Mode:  core.ModeSHIELD,
		FS:    s.dataFSLocked(),
		KDS:   s.kdsClient,
		Cache: s.cache,
	}
	rep, err := core.Scrub(simDir, cfg, lsm.Options{AllowRollback: true}, lsm.ScrubOptions{})
	if err != nil {
		s.checker.violate("final scrub failed: %v", err)
		return
	}
	s.note("final scrub: epoch=%d regressed=%v ssts=%d findings=%d",
		rep.Epoch, rep.EpochRegressed, rep.SSTsChecked, len(rep.Findings))
	for name, sum := range s.tampered {
		data, rerr := vfs.ReadFile(s.dataFSLocked(), name)
		if rerr != nil || sha256.Sum256(data) != sum {
			// Quarantined, rewritten by compaction, or rolled away — the
			// tampered bytes are gone and there is nothing to assert.
			continue
		}
		if v := rep.Verdict(name); v == lsm.VerdictOK {
			s.checker.violate("final scrub passed tampered file %s as %s", name, v)
		} else {
			s.note("final scrub: tampered %s verdict=%s", name, v)
		}
	}
}

// teardown closes every live component of the stack.
//
//shield:nolockio runs once at end of run with all workers gone; stackMu is held as the crash barrier and all targets are in-memory fakes or loopback sockets
func (s *simulation) teardown() {
	s.stackMu.Lock()
	defer s.stackMu.Unlock()
	s.stopServerLocked()
	if s.db != nil {
		s.db.Close() //nolint:errcheck
		s.setDBLocked(nil)
	}
	if s.storeClient != nil {
		s.storeClient.Close()
	}
	if s.storeSrv != nil && s.storeUp {
		s.storeSrv.Close()
	}
	if s.cfg.NodeLoss {
		s.teardownReplicaStackLocked()
	}
	s.kdsClient.Close()
	for i, srv := range s.kdsSrv {
		if srv != nil && s.kdsUp[i] {
			srv.Close()
		}
	}
}
