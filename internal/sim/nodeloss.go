package sim

// Replicated-fleet nemesis (Config.NodeLoss): the data path runs across
// three dstore storage nodes behind a quorum-2 ReplicaSet, and compactions
// are offloaded through a lease-based orchestrator to two storage-side
// SHIELD workers. The nemesis then does what disaggregation makes
// possible: kills replicas while quorum writes are in flight and kills
// workers mid-lease, on top of the usual crash/disk-full/net-fault mix.
//
// Topology and fault domains:
//
//   - Replica 0's device is the crash/quota/fault stack — it shares the
//     primary site's fault domain, so power-loss crashes restore it to the
//     durable image (with torn tails) while replicas 1 and 2, on
//     independent devices, keep every acknowledged byte. The dial-time
//     majority reconcile must then repair replica 0 from the survivors:
//     replication is what carries acked-but-unsynced-on-0 writes across a
//     site crash.
//   - The orchestrator and the ReplicaSet client live on the compute node
//     and die with it on every crash; both are rebuilt on the same
//     addresses. The workers are storage-side processes: they survive
//     compute crashes, redial the orchestrator, and reach storage through
//     a swappable handle that is repointed at the rebuilt ReplicaSet — so
//     every mutation, engine or worker, always flows through the one
//     live quorum/promotion discipline.
//   - Replica kill/restart and worker kill/restart fire under the *shared*
//     crash barrier, unlike every other nemesis event: a node dying out
//     from under an in-flight fan-out write is exactly the race the
//     quorum protocol exists for, so these events must overlap ops rather
//     than quiesce them. The fleet slots get their own mutex (repMu) to
//     stay coherent against exclusive-side rebuilds.
//
// The end-of-run audit dials every in-sync replica directly and requires
// byte-identical namespaces (full-content sums, deliberately stronger than
// comparing sealed tag-chain digests): replication must surface any
// divergence among copies it acknowledged as identical. Divergence in an
// untainted run is a checker violation; in a tainted run it is the audit
// catching the nemesis's tampering, which is noted.

import (
	"errors"
	"fmt"
	"path"
	"sync/atomic"
	"time"

	"shield/internal/compactsvc"
	"shield/internal/core"
	"shield/internal/dstore"
	"shield/internal/kds"
	"shield/internal/netretry"
	"shield/internal/seccache"
	"shield/internal/vfs"
)

// errStorageDetached is what worker I/O returns while a compute-node crash
// has the replica set torn down; the orchestrator treats it as a retryable
// execution error.
var errStorageDetached = errors.New("sim: compute-node storage handle detached (rebuilding)")

// swapFS is the storage handle the orchestrator and the compaction workers
// share: an atomic pointer to the current ReplicaSet, swapped by the crash
// rebuild. Going through it (rather than holding a ReplicaSet directly)
// keeps worker mutations inside the engine's quorum and promotion
// discipline across compute-node restarts.
type swapFS struct {
	rs atomic.Pointer[dstore.ReplicaSet]
}

func (f *swapFS) store(rs *dstore.ReplicaSet) { f.rs.Store(rs) }

func (f *swapFS) load() (*dstore.ReplicaSet, error) {
	if rs := f.rs.Load(); rs != nil {
		return rs, nil
	}
	return nil, errStorageDetached
}

func (f *swapFS) Create(name string) (vfs.WritableFile, error) {
	rs, err := f.load()
	if err != nil {
		return nil, err
	}
	return rs.Create(name)
}

func (f *swapFS) Open(name string) (vfs.RandomAccessFile, error) {
	rs, err := f.load()
	if err != nil {
		return nil, err
	}
	return rs.Open(name)
}

func (f *swapFS) OpenSequential(name string) (vfs.SequentialFile, error) {
	rs, err := f.load()
	if err != nil {
		return nil, err
	}
	return rs.OpenSequential(name)
}

func (f *swapFS) Remove(name string) error {
	rs, err := f.load()
	if err != nil {
		return err
	}
	return rs.Remove(name)
}

func (f *swapFS) Rename(oldname, newname string) error {
	rs, err := f.load()
	if err != nil {
		return err
	}
	return rs.Rename(oldname, newname)
}

func (f *swapFS) List(dir string) ([]vfs.FileInfo, error) {
	rs, err := f.load()
	if err != nil {
		return nil, err
	}
	return rs.List(dir)
}

func (f *swapFS) MkdirAll(dir string) error {
	rs, err := f.load()
	if err != nil {
		return err
	}
	return rs.MkdirAll(dir)
}

func (f *swapFS) SyncDir(dir string) error {
	rs, err := f.load()
	if err != nil {
		return err
	}
	return rs.SyncDir(dir)
}

func (f *swapFS) Stat(name string) (vfs.FileInfo, error) {
	rs, err := f.load()
	if err != nil {
		return vfs.FileInfo{}, err
	}
	return rs.Stat(name)
}

// simReplicaClientCfg is the per-replica connection config: short deadlines
// and a small retry budget so a killed node demotes fast instead of
// stalling the run.
func simReplicaClientCfg() dstore.Config {
	return dstore.Config{
		Conns: 2,
		Policy: netretry.Policy{
			DialTimeout:    200 * time.Millisecond,
			RequestTimeout: 2 * time.Second,
			BackoffBase:    time.Millisecond,
			BackoffMax:     20 * time.Millisecond,
		},
		MaxAttempts: 3,
	}
}

func (s *simulation) replicaSetCfg() dstore.ReplicaConfig {
	return dstore.ReplicaConfig{
		WriteQuorum: 2,
		Client:      simReplicaClientCfg(),
		Dirs:        []string{simDir},
		ResyncEvery: 40 * time.Millisecond,
	}
}

func (s *simulation) orchCfg() compactsvc.OrchestratorConfig {
	return compactsvc.OrchestratorConfig{
		LeaseTTL:    300 * time.Millisecond,
		MaxAttempts: 3,
		JobTimeout:  15 * time.Second,
	}
}

func simWorkerCfg() compactsvc.WorkerConfig {
	return compactsvc.WorkerConfig{
		PollEvery: 3 * time.Millisecond,
		Policy: netretry.Policy{
			DialTimeout:    200 * time.Millisecond,
			RequestTimeout: 2 * time.Second,
			BackoffBase:    time.Millisecond,
			BackoffMax:     50 * time.Millisecond,
		},
	}
}

// startReplicaFleetLocked bootstraps the NodeLoss topology: three storage
// nodes (replica 0 on the nemesis-controlled stack, 1 and 2 on independent
// devices), the replica-set client, the compaction orchestrator, and the
// two storage-side workers with their own KDS identities and caches.
func (s *simulation) startReplicaFleetLocked() error {
	srv0, err := dstore.NewServer(s.fault, "127.0.0.1:0", 0, 0)
	if err != nil {
		return fmt.Errorf("replica 0: %w", err)
	}
	s.repSrv[0] = srv0
	s.repAddr[0] = srv0.Addr()
	s.repUp[0] = true
	for i := 0; i < 2; i++ {
		s.repBase[i] = vfs.NewMem()
		srv, err := dstore.NewServer(s.repBase[i], "127.0.0.1:0", 0, 0)
		if err != nil {
			return fmt.Errorf("replica %d: %w", i+1, err)
		}
		s.repSrv[i+1] = srv
		s.repAddr[i+1] = srv.Addr()
		s.repUp[i+1] = true
	}
	s.rsSwap = &swapFS{}
	if err := s.startReplicaStackLocked(); err != nil {
		return err
	}
	return s.startWorkersLocked()
}

// startReplicaStackLocked dials the replica set over the current fleet,
// points the workers' storage handle at it, and boots the compute node's
// orchestrator (on its original address after a crash, so surviving
// workers redial seamlessly). The recoverable dial-failure classes — quota
// still set on replica 0, a replica still in its kill window, injected
// faults on replica 0's device — are absorbed the way an operator would.
//
//shield:nolockio stackMu is the simulation's crash barrier; all sockets are loopback over in-memory fakes
func (s *simulation) startReplicaStackLocked() error {
	for attempt := 0; ; attempt++ {
		rs, err := dstore.DialReplicaSet(s.replicaSetCfg(), s.repAddr[0], s.repAddr[1], s.repAddr[2])
		if err == nil {
			s.rs = rs
			break
		}
		if attempt >= 10 {
			return fmt.Errorf("replica set: %w", err)
		}
		switch {
		case errors.Is(err, vfs.ErrNoSpace):
			s.note("replica reconcile hit ENOSPC; freeing space and retrying")
			s.quotaLimit = 0
			s.quota.SetLimit(0)
		case errors.Is(err, dstore.ErrNoQuorum):
			s.note("replica set below quorum at dial; restarting dead replicas")
			s.restartDownReplicasLocked()
		case errors.Is(err, vfs.ErrInjected):
			s.note("replica reconcile hit an injected fault; retrying")
		default:
			return fmt.Errorf("replica set: %w", err)
		}
	}
	s.rsSwap.store(s.rs)
	addr := s.orchAddr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	orch, err := compactsvc.NewOrchestrator(s.rsSwap, addr, s.orchCfg())
	if err != nil {
		return fmt.Errorf("orchestrator: %w", err)
	}
	s.orch = orch
	s.orchAddr = orch.Addr()
	return nil
}

// startWorkersLocked builds the storage-side worker pool: each worker has
// its own KDS identity, secure cache, and SHIELD wrapper over the shared
// storage handle. One-time DEK provisioning is widened to the fleet size:
// a worker-created DEK is foreign-fetched by the compute node AND by the
// other worker when it later compacts those outputs, so MaxFetches 1
// would strand data behind ErrAlreadyIssued by design rather than by bug.
//
//shield:nolockio stackMu is the simulation's crash barrier; all sockets are loopback over in-memory fakes
func (s *simulation) startWorkersLocked() error {
	for w := range s.simWorkers {
		id := fmt.Sprintf("sim-worker-%d", w+1)
		s.kdsStore.Authorize(id)
		s.workerKDS[w] = kds.NewClientConfig(id, kds.ClientConfig{
			Policy: netretry.Policy{
				DialTimeout:    200 * time.Millisecond,
				RequestTimeout: 500 * time.Millisecond,
				BackoffBase:    time.Millisecond,
				BackoffMax:     20 * time.Millisecond,
			},
			MaxAttempts: 4,
		}, s.kdsAddr[0], s.kdsAddr[1])
		cache, err := seccache.Open(vfs.NewMem(), "worker-cache.bin", []byte("sim-worker-pass"))
		if err != nil {
			return fmt.Errorf("worker %d cache: %w", w, err)
		}
		wrapper, err := core.Config{
			Mode:  core.ModeSHIELD,
			FS:    s.rsSwap,
			KDS:   s.workerKDS[w],
			Cache: cache,
		}.BuildWrapper()
		if err != nil {
			return fmt.Errorf("worker %d wrapper: %w", w, err)
		}
		s.workerWrap[w] = wrapper
		s.simWorkers[w] = compactsvc.NewWorker(s.rsSwap, wrapper, id, s.orchAddr, simWorkerCfg())
		s.workerUp[w] = true
	}
	return nil
}

// restartDownReplicasLocked restarts every stopped storage node on its
// original address and backing device; the replica set's re-sync loop then
// heals and promotes it. Replica 0 rides the current fault stack.
func (s *simulation) restartDownReplicasLocked() {
	s.repMu.Lock()
	defer s.repMu.Unlock()
	for r := range s.repSrv {
		if s.repUp[r] {
			continue
		}
		backing := vfs.FS(s.fault)
		if r > 0 {
			backing = s.repBase[r-1]
		}
		srv, err := dstore.NewServer(backing, s.repAddr[r], 0, 0)
		if err != nil {
			s.note("replica %d failed to restart: %v", r, err)
			continue
		}
		s.repSrv[r] = srv
		s.repUp[r] = true
	}
}

// restartDownWorkersLocked revives dead compaction workers. The wrapper,
// KDS identity, and secure cache persist across the kill — the node
// restarted; its durable state did not vanish.
func (s *simulation) restartDownWorkersLocked() {
	s.repMu.Lock()
	defer s.repMu.Unlock()
	for w := range s.simWorkers {
		if s.workerUp[w] {
			continue
		}
		id := fmt.Sprintf("sim-worker-%d", w+1)
		s.simWorkers[w] = compactsvc.NewWorker(s.rsSwap, s.workerWrap[w], id, s.orchAddr, simWorkerCfg())
		s.workerUp[w] = true
	}
}

// fireReplicaEvent runs the fleet events under the *shared* crash barrier:
// a storage node dying out from under an in-flight quorum write — or a
// worker dying mid-lease while the engine waits on its job — is exactly
// the race the replica set and the lease protocol exist for, so these
// events must overlap workload ops instead of quiescing them the way
// every other nemesis event does.
func (s *simulation) fireReplicaEvent(ev event) {
	s.stackMu.RLock()
	defer s.stackMu.RUnlock()
	if s.dead.Load() || !s.cfg.NodeLoss {
		return
	}
	s.note("firing %s", ev)
	switch ev.kind {
	case evReplicaKill:
		r := 1 + int(ev.arg)%2 // replica 0 dies only with the primary site
		s.repMu.Lock()
		if s.repUp[r] {
			s.repSrv[r].Close()
			s.repUp[r] = false
		}
		s.repMu.Unlock()
	case evReplicaRestart:
		s.restartDownReplicasLocked()
	case evWorkerKill:
		w := int(ev.arg) % len(s.simWorkers)
		s.repMu.Lock()
		if s.workerUp[w] {
			s.simWorkers[w].Close() // heartbeats stop now; the lease expires
			s.workerUp[w] = false
		}
		s.repMu.Unlock()
	case evWorkerRestart:
		s.restartDownWorkersLocked()
	}
}

// crashReplicaStackLocked is the compute-node half of a power-loss crash
// under NodeLoss: the orchestrator and the replica-set client die with the
// node, and replica 0 — sharing the primary site's fault domain — goes
// down for the durable-image restore. Closing the orchestrator fails its
// in-flight jobs with ErrJobLost, which unblocks the abandoned engine's
// compaction goroutines; the workers survive (separate processes) but
// their storage handle goes dark until the rebuild repoints it.
//
//shield:nolockio stackMu (exclusive) is the crash barrier; all teardown I/O is loopback against in-memory fakes
func (s *simulation) crashReplicaStackLocked() {
	s.rsSwap.store(nil)
	if s.orch != nil {
		s.orch.Close() //nolint:errcheck
		s.orch = nil
	}
	if s.rs != nil {
		s.rs.Close() //nolint:errcheck
		s.rs = nil
	}
	s.repMu.Lock()
	if s.repUp[0] {
		s.repSrv[0].Close()
		s.repUp[0] = false
	}
	s.repMu.Unlock()
}

// restoreReplicaStackLocked brings the primary site back after a crash:
// replica 0 restarts over the rebuilt fault stack (the restored durable
// image), then the replica set re-dials — its majority reconcile repairs
// replica 0 from the surviving replicas, restoring acknowledged writes the
// crash tore off replica 0's device — and a fresh orchestrator comes up on
// the old address for the surviving workers to redial.
func (s *simulation) restoreReplicaStackLocked() bool {
	s.repMu.Lock()
	if !s.repUp[0] {
		srv, err := dstore.NewServer(s.fault, s.repAddr[0], 0, 0)
		if err != nil {
			s.repMu.Unlock()
			s.checker.violate("replica 0 failed to restart after crash: %v", err)
			s.dead.Store(true)
			return false
		}
		s.repSrv[0] = srv
		s.repUp[0] = true
	}
	s.repMu.Unlock()
	if err := s.startReplicaStackLocked(); err != nil {
		s.checker.violate("replica stack failed to restart after crash: %v", err)
		s.dead.Store(true)
		return false
	}
	return true
}

// replicaAuditLocked is the end-of-run divergence audit: after the final
// crash, recovery, and key audit, it quiesces the stack and dials every
// in-sync replica directly, requiring byte-identical namespaces. Full
// content sums (OpSum) are deliberately stronger than comparing sealed
// tag-chain digests: replication must surface ANY divergence among copies
// it acknowledged as identical, not only divergence inside sealed regions.
// Stale replicas are entitled to lag and are skipped, like DigestAll
// skips them. In an untainted run divergence is a violation; in a tainted
// run it is the audit catching the nemesis's tampering (bit-rot lands on
// replica 0's device only), which is noted.
//
//shield:nolockio runs after every worker has exited; stackMu is the crash barrier and the replicas are loopback servers over in-memory fakes
func (s *simulation) replicaAuditLocked() {
	if !s.cfg.NodeLoss || s.rs == nil {
		return
	}
	inSync := make(map[string]bool)
	for _, st := range s.rs.Replicas() {
		if st.InSync {
			inSync[st.Addr] = true
		}
	}
	// Quiesce: the engine and the replica set must stop mutating the fleet
	// (appends, re-sync repairs) before the copies are compared.
	if s.db != nil {
		s.db.Close() //nolint:errcheck
		s.setDBLocked(nil)
	}
	if s.orch != nil {
		s.orch.Close() //nolint:errcheck
		s.orch = nil
	}
	s.rs.Close() //nolint:errcheck
	s.rs = nil
	s.rsSwap.store(nil)

	type fileSums map[string]string
	var (
		states []fileSums
		addrs  []string
	)
	s.repMu.Lock()
	defer s.repMu.Unlock()
	for r := range s.repSrv {
		if !s.repUp[r] || !inSync[s.repAddr[r]] {
			s.note("replica audit: skipping replica %d (up=%v in-sync=%v)",
				r, s.repUp[r], inSync[s.repAddr[r]])
			continue
		}
		c, err := dstore.DialConfig(s.repAddr[r], simReplicaClientCfg())
		if err != nil {
			s.checker.violate("replica audit: dial replica %d: %v", r, err)
			continue
		}
		st := make(fileSums)
		infos, err := c.List(simDir)
		if err != nil {
			s.checker.violate("replica audit: list replica %d: %v", r, err)
			c.Close()
			continue
		}
		ok := true
		for _, fi := range infos {
			p := path.Join(simDir, fi.Name)
			sum, size, err := c.Sum(p)
			if err != nil {
				s.checker.violate("replica audit: sum %s on replica %d: %v", p, r, err)
				ok = false
				break
			}
			st[fi.Name] = fmt.Sprintf("%d:%x", size, sum)
		}
		c.Close()
		if ok {
			states = append(states, st)
			addrs = append(addrs, s.repAddr[r])
		}
	}
	if len(states) < 2 {
		s.note("replica audit: only %d in-sync replicas answered; nothing to compare", len(states))
		return
	}
	diverged := false
	base := states[0]
	for i := 1; i < len(states); i++ {
		for name, v := range base {
			if got, ok := states[i][name]; !ok || got != v {
				diverged = true
				s.divergence(name, addrs[0], v, addrs[i], got)
			}
		}
		for name, v := range states[i] {
			if _, ok := base[name]; !ok {
				diverged = true
				s.divergence(name, addrs[0], "<absent>", addrs[i], v)
			}
		}
	}
	if !diverged {
		s.note("replica audit: %d replicas hold byte-identical namespaces (%d files)",
			len(states), len(base))
	}
}

// divergence records one audit mismatch under the run's taint semantics.
func (s *simulation) divergence(name, addrA, verA, addrB, verB string) {
	if verB == "" {
		verB = "<absent>"
	}
	if s.tainted {
		s.note("replica audit caught divergence on %s (%s=%s, %s=%s) in a tainted run — tampering surfaced",
			name, addrA, verA, addrB, verB)
		return
	}
	s.checker.violate("replica divergence on %s: %s holds %s, %s holds %s",
		name, addrA, verA, addrB, verB)
}

// teardownReplicaStackLocked closes the whole fleet at end of run: workers
// first (stop polling), then the orchestrator, the replica-set client, the
// storage nodes, and the workers' KDS clients.
//
//shield:nolockio runs once at teardown with all workers gone; all targets are loopback servers over in-memory fakes
func (s *simulation) teardownReplicaStackLocked() {
	s.repMu.Lock()
	for w := range s.simWorkers {
		if s.workerUp[w] {
			s.simWorkers[w].Close()
			s.workerUp[w] = false
		}
	}
	s.repMu.Unlock()
	if s.orch != nil {
		s.orch.Close() //nolint:errcheck
		s.orch = nil
	}
	if s.rs != nil {
		s.rs.Close() //nolint:errcheck
		s.rs = nil
	}
	s.repMu.Lock()
	for r := range s.repSrv {
		if s.repUp[r] {
			s.repSrv[r].Close()
			s.repUp[r] = false
		}
	}
	s.repMu.Unlock()
	for _, kc := range s.workerKDS {
		if kc != nil {
			kc.Close()
		}
	}
}
