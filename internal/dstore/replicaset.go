package dstore

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"path"
	"sort"
	"sync"
	"time"

	"shield/internal/metrics"
	"shield/internal/netretry"
	"shield/internal/vfs"
)

// ErrNoQuorum reports that a replicated operation could not reach its write
// quorum (mutations) or any live replica (reads). It is a transient
// availability condition, not a data error: the caller's degraded-mode
// handling applies, and the operation may succeed once replicas rejoin.
var ErrNoQuorum = errors.New("dstore: replica quorum unavailable")

// ReplicaConfig tunes a ReplicaSet. The zero value of each field selects
// the default noted on it.
type ReplicaConfig struct {
	// WriteQuorum is the number of replicas that must acknowledge a
	// mutation before it is acknowledged to the caller (default: majority,
	// n/2+1).
	WriteQuorum int

	// Client configures each per-replica connection (pool size, deadlines,
	// retry budget).
	Client Config

	// Dirs are the namespace roots the reconcile/re-sync passes walk. The
	// vfs contract exposes no recursive listing, so the set must name every
	// directory the engine stores files under; directories later created
	// through the ReplicaSet's MkdirAll are tracked automatically.
	Dirs []string

	// ResyncEvery is the poll interval of the background re-sync loop that
	// heals stale replicas (default 200ms).
	ResyncEvery time.Duration
}

// replica is one member of the set: a storage-node client plus the
// replication state the set maintains for it. Connectivity health
// (up/suspect/down with backoff gating) lives in the netretry endpoint;
// `stale` is the data-completeness flag — a stale replica may be missing
// acknowledged mutations and is excluded from reads and from quorum counting
// until a re-sync pass proves it identical to a live replica again.
type replica struct {
	addr string
	ep   *netretry.Endpoint
	cfg  Config

	mu    sync.Mutex
	c     *Client // nil until dialed (or after a failed dial)
	stale bool
}

// client returns the replica's client, dialing it if necessary.
func (r *replica) client() (*Client, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.c != nil {
		return r.c, nil
	}
	c, err := DialConfig(r.addr, r.cfg)
	if err != nil {
		r.ep.Failure()
		return nil, netretry.Transport(err)
	}
	r.c = c
	return c, nil
}

func (r *replica) isStale() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stale
}

func (r *replica) setStale(v bool) {
	r.mu.Lock()
	r.stale = v
	r.mu.Unlock()
}

// fail charges err to the replica after a failed branch of a replicated
// mutation: transport errors also demote the connectivity health (the node
// may be gone). Either way the replica's copy is now missing an
// acknowledged mutation, so it leaves the read/quorum set until re-synced.
func (r *replica) fail(err error) {
	if netretry.IsTransport(err) {
		r.ep.Failure()
	}
	r.setStale(true)
}

// promote returns the replica to the read/quorum set once a repair routine
// has made it identical to the canonical state. It counts as a re-sync when
// that routine wrote or removed at least one file on it.
func (r *replica) promote(repaired bool) {
	if repaired {
		metrics.Net.Resyncs.Add(1)
		metrics.Net.Endpoint(r.addr).Resyncs.Add(1)
	}
	r.setStale(false)
}

// ReplicaSet is a vfs.FS that replicates a namespace across N storage
// nodes. Mutations fan out to every in-sync replica and are acknowledged
// once WriteQuorum replicas applied them; a replica whose branch fails is
// demoted to stale (its copy is incomplete) and healed by a background
// re-sync pass, so the surviving in-sync replicas always hold every
// acknowledged write — which is what makes read-any safe. Reads go to one
// in-sync replica and fail over on transport errors; application errors
// are answers from a live node and never trigger failover.
type ReplicaSet struct {
	cfg    ReplicaConfig
	quorum int
	reps   []*replica
	group  *netretry.Group                 // orders reads: the last replica that served one leads
	byEP   map[*netretry.Endpoint]*replica // the replica behind each group member

	// opMu is the re-sync promotion barrier: mutations hold it shared
	// while selecting fan-out targets and applying branches; the re-sync
	// pass takes it exclusively for its final verify-and-promote step, so
	// no mutation can slip between "replica proven identical" and "replica
	// marked in-sync".
	opMu sync.RWMutex

	mu      sync.Mutex
	dirs    map[string]struct{}
	writers map[*replicatedWritable]struct{}
	closed  bool

	done chan struct{}
	wg   sync.WaitGroup
}

// DialReplicaSet connects to the given storage nodes and reconciles their
// contents: every file under cfg.Dirs is fingerprinted on every reachable
// replica, the majority version wins (ties break toward the larger file —
// more acknowledged bytes), and minority replicas are repaired before the
// set is returned. At least WriteQuorum replicas must be reachable.
func DialReplicaSet(cfg ReplicaConfig, addrs ...string) (*ReplicaSet, error) {
	if len(addrs) == 0 {
		return nil, errors.New("dstore: replica set needs at least one address")
	}
	if cfg.WriteQuorum <= 0 {
		cfg.WriteQuorum = len(addrs)/2 + 1
	}
	if cfg.WriteQuorum > len(addrs) {
		return nil, fmt.Errorf("dstore: write quorum %d exceeds %d replicas", cfg.WriteQuorum, len(addrs))
	}
	if cfg.ResyncEvery <= 0 {
		cfg.ResyncEvery = 200 * time.Millisecond
	}
	cfg.Client = cfg.Client.withDefaults()

	rs := &ReplicaSet{
		cfg:     cfg,
		quorum:  cfg.WriteQuorum,
		group:   netretry.NewGroup(cfg.Client.Policy, addrs...),
		byEP:    make(map[*netretry.Endpoint]*replica, len(addrs)),
		dirs:    make(map[string]struct{}),
		writers: make(map[*replicatedWritable]struct{}),
		done:    make(chan struct{}),
	}
	for _, ep := range rs.group.Endpoints() {
		r := &replica{addr: ep.Addr(), ep: ep, cfg: cfg.Client}
		rs.reps = append(rs.reps, r)
		rs.byEP[ep] = r
	}
	for _, d := range cfg.Dirs {
		rs.addDir(d)
	}

	reachable := 0
	for _, r := range rs.reps {
		if _, err := r.client(); err != nil {
			r.setStale(true) // unreachable at birth: rejoin via re-sync
		} else {
			reachable++
		}
	}
	if reachable < rs.quorum {
		rs.Close()
		return nil, fmt.Errorf("%w: %d of %d replicas reachable, quorum %d",
			ErrNoQuorum, reachable, len(addrs), rs.quorum)
	}
	if err := rs.reconcile(); err != nil {
		rs.Close()
		return nil, err
	}
	rs.wg.Add(1)
	go rs.resyncLoop()
	return rs, nil
}

// Replicas reports the address, connectivity health, and sync state of
// every member, for INFO surfaces and tests.
func (rs *ReplicaSet) Replicas() []ReplicaStatus {
	out := make([]ReplicaStatus, 0, len(rs.reps))
	for _, r := range rs.reps {
		out = append(out, ReplicaStatus{
			Addr:   r.addr,
			Health: r.ep.Health(),
			InSync: !r.isStale(),
		})
	}
	return out
}

// ReplicaStatus is one replica's point-in-time state.
type ReplicaStatus struct {
	Addr   string
	Health netretry.Health
	InSync bool
}

// Close stops the re-sync loop and releases every replica connection.
//
//shield:nolockio per-replica mu only guards the client pointer; closing the pooled conns is teardown after the re-sync loop has already drained, nothing contends
func (rs *ReplicaSet) Close() error {
	rs.mu.Lock()
	if rs.closed {
		rs.mu.Unlock()
		return nil
	}
	rs.closed = true
	close(rs.done)
	rs.mu.Unlock()
	rs.wg.Wait()
	for _, r := range rs.reps {
		r.mu.Lock()
		if r.c != nil {
			r.c.Close()
			r.c = nil
		}
		r.mu.Unlock()
	}
	return nil
}

func (rs *ReplicaSet) addDir(dir string) {
	dir = path.Clean(dir)
	rs.mu.Lock()
	for dir != "." && dir != "/" {
		rs.dirs[dir] = struct{}{}
		dir = path.Dir(dir)
	}
	rs.mu.Unlock()
}

func (rs *ReplicaSet) dirList() []string {
	rs.mu.Lock()
	out := make([]string, 0, len(rs.dirs))
	for d := range rs.dirs {
		out = append(out, d)
	}
	rs.mu.Unlock()
	sort.Strings(out)
	return out
}

// openWriters returns the live replicated write handles and their paths.
// Those files are mid-append: their replica copies are kept converged by
// handle adoption, not by the file-diff pass, which must skip them.
func (rs *ReplicaSet) openWriters() (ws []*replicatedWritable, names map[string]struct{}) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	names = make(map[string]struct{}, len(rs.writers))
	for w := range rs.writers {
		ws = append(ws, w)
		names[w.name] = struct{}{}
	}
	return ws, names
}

// inSync returns the replicas eligible for mutations and reads: dialed (or
// dialable) and not stale.
func (rs *ReplicaSet) inSync() []*replica {
	var out []*replica
	for _, r := range rs.reps {
		if !r.isStale() {
			out = append(out, r)
		}
	}
	return out
}

// readAny runs fn against in-sync replicas in the group's failover order
// until one gives an answer, handing it the replica that answers. The
// replica that served the last read leads, so sequential reads stay on one
// node until it fails; replicas inside their retry gate come last. Transport
// failures demote connectivity health and fail over to the next replica; an
// application error is a live node's answer and is returned as-is (failing
// over on it could mask an integrity refusal with a replica that has not
// detected the problem yet).
func (rs *ReplicaSet) readAny(fn func(r *replica, c *Client) error) error {
	var lastErr error
	for _, ep := range rs.group.Sequence() {
		r := rs.byEP[ep]
		if r.isStale() {
			continue
		}
		c, err := r.client()
		if err != nil {
			lastErr = err
			continue
		}
		if err := fn(r, c); err != nil {
			if netretry.IsTransport(err) {
				r.ep.Failure()
				lastErr = err
				continue
			}
			return err
		}
		r.ep.Success()
		rs.group.Promote(r.ep)
		return nil
	}
	if lastErr == nil {
		return fmt.Errorf("%w: no in-sync replica", ErrNoQuorum)
	}
	return fmt.Errorf("%w: %w", ErrNoQuorum, lastErr)
}

// branchOutcome is one replica's result for a fanned-out mutation.
type branchOutcome struct {
	rep *replica
	err error
}

// fanOut applies fn to every target concurrently, passing the target's
// index, and collects per-replica outcomes in target order.
func fanOut(targets []*replica, fn func(i int) error) []branchOutcome {
	out := make([]branchOutcome, len(targets))
	var wg sync.WaitGroup
	for i, r := range targets {
		out[i].rep = r
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i].err = fn(i)
		}(i)
	}
	wg.Wait()
	return out
}

// consistentRefusal reports whether every outcome failed with the same
// application-level sentinel: the replicas agree the operation cannot be
// done (remove of a missing file, create under a full namespace, ...), so
// no copy diverged and nobody should be demoted.
func consistentRefusal(outcomes []branchOutcome) error {
	for _, sentinel := range []error{vfs.ErrNotFound, vfs.ErrExist, vfs.ErrNoSpace} {
		all := true
		for _, o := range outcomes {
			if o.err == nil || netretry.IsTransport(o.err) || !errors.Is(o.err, sentinel) {
				all = false
				break
			}
		}
		if all {
			return outcomes[0].err
		}
	}
	return nil
}

// settle converts fan-out outcomes into the operation's result: all-success
// is success; a consistent refusal passes through undemoted; otherwise every
// failed branch demotes its replica and the operation succeeds iff the
// successes reach quorum.
func (rs *ReplicaSet) settle(outcomes []branchOutcome) error {
	succ := 0
	var firstErr error
	for _, o := range outcomes {
		if o.err == nil {
			succ++
		} else if firstErr == nil {
			firstErr = o.err
		}
	}
	if succ == len(outcomes) {
		return nil
	}
	if err := consistentRefusal(outcomes); err != nil {
		return err
	}
	for _, o := range outcomes {
		if o.err != nil {
			o.rep.fail(o.err)
		}
	}
	if succ >= rs.quorum {
		return nil
	}
	metrics.Net.QuorumShortfalls.Add(1)
	return fmt.Errorf("%w: %d of %d acks (quorum %d): %w",
		ErrNoQuorum, succ, len(outcomes), rs.quorum, firstErr)
}

// mutate fans a namespace mutation out to every in-sync replica under the
// promotion barrier's shared lock.
func (rs *ReplicaSet) mutate(fn func(c *Client) error) error {
	rs.opMu.RLock()
	defer rs.opMu.RUnlock()
	return rs.mutateLocked(func(_ *replica, c *Client) error { return fn(c) })
}

// mutateLocked fans fn out to every in-sync replica and settles the
// outcomes. The caller holds opMu shared, so the target set cannot be
// promoted into while the branches run.
func (rs *ReplicaSet) mutateLocked(fn func(r *replica, c *Client) error) error {
	targets := rs.inSync()
	if len(targets) < rs.quorum {
		metrics.Net.QuorumShortfalls.Add(1)
		return fmt.Errorf("%w: %d in-sync replicas, quorum %d", ErrNoQuorum, len(targets), rs.quorum)
	}
	return rs.settle(fanOut(targets, func(i int) error {
		c, err := targets[i].client()
		if err != nil {
			return err
		}
		return fn(targets[i], c)
	}))
}

// Create implements vfs.FS: the returned handle appends to every in-sync
// replica and acknowledges once the write quorum has the bytes. The handle
// is registered under the same shared barrier that chose its branches, so a
// re-sync promotion either sees it (and adopts it) or precedes it.
//
//shield:nolockio opMu (shared) is the promotion barrier; see mutateLocked
func (rs *ReplicaSet) Create(name string) (vfs.WritableFile, error) {
	rs.opMu.RLock()
	defer rs.opMu.RUnlock()
	w := &replicatedWritable{rs: rs, name: name}
	err := rs.mutateLocked(func(r *replica, c *Client) error {
		f, err := c.Create(name)
		if err == nil {
			w.mu.Lock()
			w.branches = append(w.branches, wbranch{rep: r, f: f})
			w.mu.Unlock()
		}
		return err
	})
	rs.mu.Lock()
	if err == nil && rs.closed {
		err = ErrClosed
	}
	if err == nil {
		rs.writers[w] = struct{}{}
	}
	rs.mu.Unlock()
	if err != nil {
		for _, b := range w.branches {
			b.f.Close()
		}
		return nil, err
	}
	return w, nil
}

// Open implements vfs.FS with read-any-failover semantics.
func (rs *ReplicaSet) Open(name string) (vfs.RandomAccessFile, error) {
	r := &replicatedRandom{rs: rs, name: name}
	if err := r.openAny(); err != nil {
		return nil, err
	}
	return r, nil
}

// OpenSequential implements vfs.FS via positional reads.
func (rs *ReplicaSet) OpenSequential(name string) (vfs.SequentialFile, error) {
	r, err := rs.Open(name)
	if err != nil {
		return nil, err
	}
	return &remoteSequential{r: r}, nil
}

// Remove implements vfs.FS.
func (rs *ReplicaSet) Remove(name string) error {
	return rs.mutate(func(c *Client) error { return c.Remove(name) })
}

// Rename implements vfs.FS.
func (rs *ReplicaSet) Rename(oldname, newname string) error {
	return rs.mutate(func(c *Client) error { return c.Rename(oldname, newname) })
}

// List implements vfs.FS.
func (rs *ReplicaSet) List(dir string) (infos []vfs.FileInfo, err error) {
	err = rs.readAny(func(_ *replica, c *Client) (err error) {
		infos, err = c.List(dir)
		return err
	})
	return infos, err
}

// MkdirAll implements vfs.FS and registers the directory with the
// re-sync walker.
func (rs *ReplicaSet) MkdirAll(dir string) error {
	if err := rs.mutate(func(c *Client) error { return c.MkdirAll(dir) }); err != nil {
		return err
	}
	rs.addDir(dir)
	return nil
}

// SyncDir implements vfs.FS.
func (rs *ReplicaSet) SyncDir(dir string) error {
	return rs.mutate(func(c *Client) error { return c.SyncDir(dir) })
}

// Stat implements vfs.FS.
func (rs *ReplicaSet) Stat(name string) (info vfs.FileInfo, err error) {
	err = rs.readAny(func(_ *replica, c *Client) (err error) {
		info, err = c.Stat(name)
		return err
	})
	return info, err
}

// wbranch is one replica's leg of a replicated write handle.
type wbranch struct {
	rep *replica
	f   vfs.WritableFile
}

// replicatedWritable appends to every in-sync replica. Each branch keeps
// its own packet buffer and per-handle sequence numbers, so server-side
// dedup still protects every replica independently against re-delivered
// packets. A branch whose replica fails is dropped and the replica demoted;
// the handle stays usable while the surviving branches reach quorum.
type replicatedWritable struct {
	rs   *ReplicaSet
	name string

	mu       sync.Mutex
	branches []wbranch
	closed   bool
}

// apply runs op on every branch and settles the outcomes like any other
// fanned-out mutation, then drops the failed branches whose replicas are
// now stale: settle demoted them (a consistent refusal demotes nobody and
// drops nothing), and re-sync adopts the handle afresh when they rejoin.
func (w *replicatedWritable) apply(op func(f vfs.WritableFile) error) error {
	reps := make([]*replica, len(w.branches))
	for i, b := range w.branches {
		reps[i] = b.rep
	}
	outcomes := fanOut(reps, func(i int) error { return op(w.branches[i].f) })
	err := w.rs.settle(outcomes)
	kept := w.branches[:0]
	for i, b := range w.branches {
		if outcomes[i].err != nil && b.rep.isStale() {
			b.f.Close()
			continue
		}
		kept = append(kept, b)
	}
	w.branches = kept
	return err
}

// Write implements io.Writer: bytes are accepted by every branch's packet
// buffer (and shipped when a packet fills). Reported n follows the branch
// buffers' contract: bytes are accepted locally even when a branch errors.
func (w *replicatedWritable) Write(p []byte) (int, error) {
	w.rs.opMu.RLock()
	defer w.rs.opMu.RUnlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrClosed
	}
	err := w.apply(func(f vfs.WritableFile) error { return vfs.WriteFull(f, p) })
	return len(p), err
}

// Sync flushes every branch to durable storage on its replica.
//
//shield:nolockio opMu (shared) is the promotion barrier and mu serializes branch I/O against handle adoption by the re-sync pass
func (w *replicatedWritable) Sync() error {
	w.rs.opMu.RLock()
	defer w.rs.opMu.RUnlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	return w.apply(func(f vfs.WritableFile) error { return f.Sync() })
}

// Close closes every branch and unregisters the handle.
//
//shield:nolockio opMu (shared) is the promotion barrier and mu serializes branch I/O against handle adoption by the re-sync pass
func (w *replicatedWritable) Close() error {
	w.rs.opMu.RLock()
	defer w.rs.opMu.RUnlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	err := w.apply(func(f vfs.WritableFile) error { return f.Close() })
	w.closed = true
	w.branches = nil
	w.rs.mu.Lock()
	delete(w.rs.writers, w)
	w.rs.mu.Unlock()
	return err
}

// adopt grafts a branch for a rejoining replica onto a live handle: with
// the handle locked, every live branch is flushed (so the source file holds
// exactly the handle's shipped bytes), the bytes are streamed into a fresh
// handle on the target, and that handle joins the branch list so all
// subsequent appends reach the target too. Called by the re-sync pass with
// the promotion barrier held exclusively. It reports whether it grafted.
//
//shield:nolockio mu must be held across flush-copy-graft or a concurrent append would slip between the copy and the graft and be lost on the target
func (w *replicatedWritable) adopt(target *replica) (bool, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return false, nil
	}
	for _, b := range w.branches {
		if b.rep == target {
			return false, nil
		}
	}
	if err := w.apply(func(f vfs.WritableFile) error { return f.Sync() }); err != nil {
		return false, err
	}
	if len(w.branches) == 0 {
		return false, fmt.Errorf("%w: no live branch to adopt %s from", ErrNoQuorum, w.name)
	}
	src, err := w.branches[0].rep.client()
	if err != nil {
		return false, err
	}
	f, _, err := ship(src, target, w.name)
	if err != nil {
		return false, err
	}
	w.branches = append(w.branches, wbranch{rep: target, f: f})
	return true, nil
}

// replicatedRandom is a read handle with failover: a transport error
// moves the handle to another in-sync replica and re-issues the read at
// the same offset (positional reads make this safe).
type replicatedRandom struct {
	rs   *ReplicaSet
	name string

	mu   sync.Mutex
	rep  *replica
	f    vfs.RandomAccessFile
	size int64
}

// ReadAt implements io.ReaderAt.
//
//shield:nolockio mu serializes the handle swap during failover; positional reads carry no shared cursor but the handle pointer must not race
func (r *replicatedRandom) ReadAt(p []byte, off int64) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n, err := r.f.ReadAt(p, off)
	if err == nil || !netretry.IsTransport(err) {
		return n, err
	}
	// The node serving this handle went away: charge it, rotate the group's
	// preference off it, reopen on another in-sync replica, and retry the
	// same positional read.
	r.rep.ep.Failure()
	r.rs.group.Advance(r.rep.ep)
	if r.openAny() != nil {
		return n, err
	}
	return r.f.ReadAt(p, off)
}

// openAny points the handle at the first in-sync replica that opens the
// file, in the group's failover order, closing the handle it replaces. The
// serving replica is recorded so a later failover can charge it.
func (r *replicatedRandom) openAny() error {
	return r.rs.readAny(func(rep *replica, c *Client) error {
		f, err := c.Open(r.name)
		if err != nil {
			return err
		}
		if r.f != nil {
			r.f.Close()
		}
		r.rep, r.f = rep, f
		r.size, err = f.Size() // the size the node reported at open: never fails
		return err
	})
}

func (r *replicatedRandom) Size() (int64, error) { return r.size, nil }

//shield:nolockio mu only pins the handle pointer against a concurrent failover swap; the underlying close is a pooled-conn release, not a wire round
func (r *replicatedRandom) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.f.Close()
}

// fileVer is a replica's version of one file for the diff passes: size plus
// content hash. A negative size marks "absent".
type fileVer struct {
	size int64
	sum  string
}

var absentVer = fileVer{size: -1}

// errChanged reports a copied file whose bytes did not match the version
// the scan fingerprinted: it changed between the scan and the copy. No scan
// vouches for the target's copy, so the target is not promoted on it.
var errChanged = errors.New("dstore: file changed under the re-sync scan")

// scan fingerprints every file under the registered directories on one
// replica, skipping paths in omit (open write handles, kept converged by
// adoption instead).
func (rs *ReplicaSet) scan(c *Client, omit map[string]struct{}) (map[string]fileVer, error) {
	out := make(map[string]fileVer)
	for _, d := range rs.dirList() {
		infos, err := c.List(d)
		if err != nil {
			if errors.Is(err, vfs.ErrNotFound) {
				continue
			}
			return nil, err
		}
		for _, fi := range infos {
			p := path.Join(d, fi.Name)
			if _, open := omit[p]; open {
				continue
			}
			sum, size, err := c.Sum(p)
			if err != nil {
				if errors.Is(err, vfs.ErrNotFound) {
					continue // removed while scanning
				}
				return nil, err
			}
			out[p] = fileVer{size: size, sum: string(sum)}
		}
	}
	return out, nil
}

// ship streams name from src into a fresh file on target, writePacketSize
// bytes per read and per packet, hashing as it goes. It returns the synced
// target handle, still open, and the version it wrote; ErrNotFound means src
// no longer has the file, and target was not touched. Every byte a repair
// routine ships to a replica is counted here.
//
//shield:nosyncdir the caller owns the directory: converge syncs it once the copy is closed, and adopt's grafted branch joins w.branches, so the engine's own SyncDir fans out to the target like every other branch; adoption adds no extra durability point
func ship(src *Client, target *replica, name string) (vfs.WritableFile, fileVer, error) {
	sf, err := src.Open(name)
	if err != nil {
		return nil, fileVer{}, err
	}
	defer sf.Close()
	size, err := sf.Size()
	if err != nil {
		return nil, fileVer{}, err
	}
	tc, err := target.client()
	if err != nil {
		return nil, fileVer{}, err
	}
	f, err := tc.Create(name)
	if err != nil {
		return nil, fileVer{}, err
	}
	h := sha256.New()
	n, err := io.CopyBuffer(io.MultiWriter(f, h), io.NewSectionReader(sf, 0, size), make([]byte, writePacketSize))
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		return nil, fileVer{}, err
	}
	metrics.Net.ResyncBytes.Add(n)
	metrics.Net.Endpoint(target.addr).ResyncBytes.Add(n)
	return f, fileVer{size: n, sum: string(h.Sum(nil))}, nil
}

// converge is the one repair routine: it makes target, whose scanned state
// is have, hold want. Every file whose version differs is shipped from
// source(path), a replica the scan found holding want's version, and is
// synced, closed and its directory synced; every file want lacks is
// removed. A file gone from its source since the scan is skipped (the next
// pass sees the settled state). A copy that does not match want yields
// errChanged, after the other files are done. It reports whether it wrote
// or removed any file.
func (rs *ReplicaSet) converge(target *replica, have, want map[string]fileVer, source func(path string) *Client) (bool, error) {
	var copies, doomed []string
	for p, v := range want {
		if have[p] != v {
			copies = append(copies, p)
		}
	}
	for p := range have {
		if _, keep := want[p]; !keep {
			doomed = append(doomed, p)
		}
	}
	if len(copies)+len(doomed) == 0 {
		return false, nil
	}
	tc, err := target.client()
	if err != nil {
		return false, err
	}
	for _, d := range rs.dirList() {
		if err := tc.MkdirAll(d); err != nil {
			return false, err
		}
	}
	sort.Strings(copies)
	wrote := false
	var changed error
	for _, p := range copies {
		f, got, err := ship(source(p), target, p)
		if errors.Is(err, vfs.ErrNotFound) {
			continue
		}
		if err == nil {
			err = f.Close()
		}
		if err == nil {
			err = tc.SyncDir(path.Dir(p))
		}
		if err != nil {
			return wrote, err
		}
		wrote = true
		if got != want[p] && changed == nil {
			changed = fmt.Errorf("%w: %s", errChanged, p)
		}
	}
	for _, p := range doomed {
		if err := tc.Remove(p); err == nil {
			wrote = true
		} else if !errors.Is(err, vfs.ErrNotFound) {
			return wrote, err
		}
	}
	return wrote, changed
}

// reconcile establishes a canonical namespace by majority vote across the
// reachable replicas and converges every one on it. It runs at Dial time —
// a compute node that restarts cannot know which replica lagged behind a
// crash, but the replicas can out-vote each other: for every file, the
// (size, hash) version held by the most replicas wins, ties breaking
// toward the larger file (more acknowledged bytes, and an acknowledged
// write exists on quorum ≥ majority replicas, so the majority never votes
// away acknowledged data).
func (rs *ReplicaSet) reconcile() error {
	type scanned struct {
		rep   *replica
		c     *Client
		state map[string]fileVer
	}
	var scans []scanned
	_, omit := rs.openWriters()
	for _, r := range rs.reps {
		c, err := r.client()
		if err != nil {
			r.setStale(true)
			continue
		}
		state, err := rs.scan(c, omit)
		if err != nil {
			r.fail(err)
			continue
		}
		scans = append(scans, scanned{rep: r, c: c, state: state})
	}
	if len(scans) < rs.quorum {
		return fmt.Errorf("%w: %d of %d replicas scannable, quorum %d",
			ErrNoQuorum, len(scans), len(rs.reps), rs.quorum)
	}

	ballots := make(map[string]map[fileVer]int)
	for _, s := range scans {
		for p, v := range s.state {
			if ballots[p] == nil {
				ballots[p] = map[fileVer]int{absentVer: len(scans)}
			}
			ballots[p][v]++
			ballots[p][absentVer]--
		}
	}
	canonical := make(map[string]fileVer)
	for p, votes := range ballots {
		best := absentVer
		bestN := 0
		for v, n := range votes {
			switch {
			case n > bestN:
				best, bestN = v, n
			case n == bestN && v.size > best.size:
				best = v
			case n == bestN && v.size == best.size && v.sum > best.sum:
				best = v
			}
		}
		if best.size >= 0 {
			canonical[p] = best
		}
	}

	// Every canonical version won a vote, so some scan holds it.
	source := func(p string) *Client {
		for _, s := range scans {
			if s.state[p] == canonical[p] {
				return s.c
			}
		}
		return nil
	}
	for _, s := range scans {
		wrote, err := rs.converge(s.rep, s.state, canonical, source)
		if err != nil {
			s.rep.fail(err)
			continue
		}
		s.rep.promote(wrote)
	}
	if len(rs.inSync()) < rs.quorum {
		return fmt.Errorf("%w: fewer than %d replicas reconciled", ErrNoQuorum, rs.quorum)
	}
	return nil
}

// resyncLoop is the background healer: it watches for stale replicas and
// re-syncs each one from a live replica, then promotes it back into the
// read/quorum set under the promotion barrier.
func (rs *ReplicaSet) resyncLoop() {
	defer rs.wg.Done()
	for {
		if !netretry.Sleep(rs.cfg.ResyncEvery, rs.done) {
			return
		}
		rs.resyncPass()
	}
}

// resyncPass heals every stale replica it can reach. With no in-sync
// replica left (total outage), it falls back to a majority re-baseline —
// but only while no write handles are open, since reconcile cannot adopt
// handles whose branches are all gone.
func (rs *ReplicaSet) resyncPass() {
	switch len(rs.inSync()) {
	case len(rs.reps):
		return
	case 0:
		rs.opMu.Lock()
		if ws, _ := rs.openWriters(); len(ws) == 0 {
			rs.reconcile() //nolint:errcheck // next pass retries; callers keep seeing ErrNoQuorum meanwhile
		}
		rs.opMu.Unlock()
		return
	}
	for _, r := range rs.reps {
		select {
		case <-rs.done:
			return
		default:
		}
		if r.isStale() {
			rs.resyncReplica(r) //nolint:errcheck // the replica stays stale; the next pass retries
		}
	}
}

// syncFrom scans src and target and converges target on src's state.
func (rs *ReplicaSet) syncFrom(src, target *replica) (bool, error) {
	tc, err := target.client()
	if err != nil {
		return false, err
	}
	sc, err := src.client()
	if err != nil {
		return false, err
	}
	_, omit := rs.openWriters()
	want, err := rs.scan(sc, omit)
	if err != nil {
		return false, err
	}
	have, err := rs.scan(tc, omit)
	if err != nil {
		target.ep.Failure()
		return false, err
	}
	return rs.converge(target, have, want, func(string) *Client { return sc })
}

// resyncReplica brings one stale replica back from an in-sync source: a
// bulk syncFrom without blocking traffic, then — under the promotion
// barrier — adopt open write handles, syncFrom again, and mark the replica
// in-sync. The second syncFrom re-hashes the whole namespace on both
// replicas, but ships only what changed since the first.
//
//shield:nolockio opMu (exclusive) IS the promotion barrier: the final verify and the in-sync flip must exclude concurrent mutations or an acknowledged write could land only on the old quorum
func (rs *ReplicaSet) resyncReplica(target *replica) error {
	srcs := rs.inSync()
	if len(srcs) == 0 {
		return fmt.Errorf("%w: no in-sync source", ErrNoQuorum)
	}
	src := srcs[0]

	// Phase 1 (concurrent with traffic): bulk copy. A file that changes
	// underneath (errChanged) is caught by the re-scan inside the barrier.
	wrote, err := rs.syncFrom(src, target)
	if err != nil && !errors.Is(err, errChanged) {
		return err
	}

	// Phase 2 (exclusive): no mutation can start until the replica is
	// promoted, so what we verify here is what the replica holds when the
	// next mutation selects its targets.
	rs.opMu.Lock()
	defer rs.opMu.Unlock()
	if src.isStale() {
		return fmt.Errorf("dstore: re-sync source %s went stale mid-pass", src.addr)
	}
	writers, _ := rs.openWriters()
	for _, w := range writers {
		adopted, err := w.adopt(target)
		if err != nil {
			return err
		}
		wrote = wrote || adopted
	}
	shipped, err := rs.syncFrom(src, target)
	if err != nil {
		return err
	}
	target.promote(wrote || shipped)
	target.ep.Success()
	return nil
}
