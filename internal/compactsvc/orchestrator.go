package compactsvc

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"shield/internal/lsm"
	"shield/internal/netretry"
	"shield/internal/vfs"
)

// OrchestratorConfig tunes job leasing.
type OrchestratorConfig struct {
	// LeaseTTL is how long a claimed job survives without a heartbeat
	// before the janitor declares the worker dead and reclaims the job.
	// Default 3s.
	LeaseTTL time.Duration
	// MaxAttempts bounds how many times a job is handed out (first claim
	// included) before it fails with lsm.ErrJobLost. It also sets the
	// output-number fencing: each attempt writes into a disjoint
	// MaxOutputFiles/MaxAttempts sub-range of the job's reserved file
	// numbers. Default 3.
	MaxAttempts int
	// JobTimeout bounds a job end to end — queue wait, every attempt,
	// requeues — so a missing worker pool cannot wedge the engine's
	// compaction goroutine forever. Default 2 minutes.
	JobTimeout time.Duration
}

func (c OrchestratorConfig) withDefaults() OrchestratorConfig {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 3 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 2 * time.Minute
	}
	return c
}

// OrchestratorStats is a snapshot of the orchestrator's counters.
type OrchestratorStats struct {
	Enqueued       int64 // jobs accepted from the engine
	Completed      int64 // jobs finished successfully
	Failed         int64 // jobs terminally failed (ErrJobLost or remote error)
	Expired        int64 // leases reclaimed from dead workers
	StaleCompletes int64 // results delivered on a lease no longer honored
	BytesRead      int64
	BytesWritten   int64
	Queued         int // jobs currently pending
	Leased         int // jobs currently claimed
}

type jobState uint8

const (
	statePending jobState = iota
	stateLeased
	stateDone
)

type job struct {
	id       uint64
	spec     lsm.CompactionJob
	deadline time.Time

	state   jobState
	attempt int // attempts started
	lease   uint64
	worker  string
	expiry  time.Time

	done chan struct{}
	res  lsm.CompactionResult
	err  error
}

// leaseRec remembers which fenced output range a lease was writing into, so
// a dead or zombie attempt can be swept by file-number range alone.
type leaseRec struct {
	jobID uint64
	dir   string
	first uint64
	width uint64
}

// Orchestrator queues compaction jobs for a pool of leased workers. It
// implements lsm.Compactor: the engine's Compact call blocks until some
// worker completes the job, every attempt is exhausted, or the job deadline
// passes.
type Orchestrator struct {
	fs  vfs.FS // engine-side view of shared storage, used to sweep dead attempts
	ln  *netretry.Listener
	cfg OrchestratorConfig

	mu        sync.Mutex
	jobs      map[uint64]*job
	queue     []uint64
	leases    map[uint64]leaseRec // expired/zombie recs retained for late sweeps
	nextJob   uint64
	nextLease uint64
	stats     OrchestratorStats
	closed    bool
	done      chan struct{}
	wg        sync.WaitGroup // the janitor
}

// NewOrchestrator starts an orchestrator on addr. fs is the engine's view of
// the shared storage (the same FS the engine itself runs on), used only to
// remove the fenced partial outputs of dead attempts.
func NewOrchestrator(fs vfs.FS, addr string, cfg OrchestratorConfig) (*Orchestrator, error) {
	o := &Orchestrator{
		fs:     fs,
		cfg:    cfg.withDefaults(),
		jobs:   make(map[uint64]*job),
		leases: make(map[uint64]leaseRec),
		done:   make(chan struct{}),
	}
	ln, err := netretry.Listen(addr, o.serveConn)
	if err != nil {
		return nil, fmt.Errorf("compactsvc: listen: %w", err)
	}
	o.ln = ln
	o.wg.Add(1)
	go o.janitor()
	return o, nil
}

// Addr returns the listen address workers dial.
func (o *Orchestrator) Addr() string { return o.ln.Addr() }

// Stats snapshots the counters.
func (o *Orchestrator) Stats() OrchestratorStats {
	o.mu.Lock()
	defer o.mu.Unlock()
	s := o.stats
	s.Queued, s.Leased = 0, 0
	for _, j := range o.jobs {
		switch j.state {
		case statePending:
			s.Queued++
		case stateLeased:
			s.Leased++
		}
	}
	return s
}

// Close stops the orchestrator. Jobs still in flight fail with
// lsm.ErrJobLost so a closing engine halts compactions instead of poisoning
// itself.
func (o *Orchestrator) Close() error {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return nil
	}
	o.closed = true
	close(o.done)
	for _, j := range o.jobs {
		if j.state != stateDone {
			o.finishLocked(j, fmt.Errorf("compactsvc: orchestrator closed: %w", lsm.ErrJobLost))
		}
	}
	o.mu.Unlock()
	err := o.ln.Close()
	o.wg.Wait()
	return err
}

// Compact implements lsm.Compactor: enqueue the job and block until a
// worker completes it or the orchestrator gives up on it.
func (o *Orchestrator) Compact(spec lsm.CompactionJob) (lsm.CompactionResult, error) {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return lsm.CompactionResult{}, fmt.Errorf("compactsvc: orchestrator closed: %w", lsm.ErrJobLost)
	}
	o.nextJob++
	j := &job{
		id:       o.nextJob,
		spec:     spec,
		deadline: time.Now().Add(o.cfg.JobTimeout),
		done:     make(chan struct{}),
	}
	o.jobs[j.id] = j
	o.queue = append(o.queue, j.id)
	o.stats.Enqueued++
	o.mu.Unlock()

	<-j.done

	o.mu.Lock()
	delete(o.jobs, j.id)
	o.mu.Unlock()
	return j.res, j.err
}

// attemptRange carves the fenced output-file-number sub-range for one
// attempt out of the job's reservation. Attempts get disjoint ranges so a
// zombie writer can never collide with the attempt that reclaimed its job;
// the last attempt absorbs the remainder.
func attemptRange(spec *lsm.CompactionJob, attempt, maxAttempts int) (first, width uint64) {
	per := spec.MaxOutputFiles / uint64(maxAttempts)
	if per < 1 {
		// Degenerate reservation (fewer numbers than attempts): fencing is
		// impossible, so every attempt reuses the whole range. Safe only
		// because the janitor sweeps the range before requeueing.
		return spec.FirstOutputFileNum, spec.MaxOutputFiles
	}
	first = spec.FirstOutputFileNum + uint64(attempt)*per
	width = per
	if attempt == maxAttempts-1 {
		width = spec.MaxOutputFiles - per*uint64(maxAttempts-1)
	}
	return first, width
}

// finishLocked moves a job to its terminal state and wakes the engine.
func (o *Orchestrator) finishLocked(j *job, err error) {
	if j.state == stateDone {
		return
	}
	j.state = stateDone
	j.err = err
	if err == nil {
		o.stats.Completed++
		o.stats.BytesRead += j.res.BytesRead
		o.stats.BytesWritten += j.res.BytesWritten
	} else {
		o.stats.Failed++
	}
	close(j.done)
}

// sweep removes every table file in a dead attempt's fenced number range.
// Best-effort: the worker may never have created most of the names, and the
// engine's next writable open removes every table its recovered version does
// not reference, which catches anything a lost connection to storage leaves
// behind.
func (o *Orchestrator) sweep(rec leaseRec) {
	removed := false
	for n := rec.first; n < rec.first+rec.width; n++ {
		if err := o.fs.Remove(lsm.TableFileName(rec.dir, n)); err == nil {
			removed = true
		}
	}
	if removed {
		o.fs.SyncDir(rec.dir) //nolint:errcheck // best-effort orphan sweep
	}
}

// janitor expires dead leases: sweep the attempt's fenced outputs, then
// requeue the job (attempt budget permitting) or fail it with
// lsm.ErrJobLost. It also enforces each job's end-to-end deadline.
func (o *Orchestrator) janitor() {
	defer o.wg.Done()
	tick := o.cfg.LeaseTTL / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-o.done:
			return
		case <-t.C:
		}
		now := time.Now()
		var sweeps []leaseRec
		o.mu.Lock()
		for _, j := range o.jobs {
			switch j.state {
			case stateLeased:
				if now.Before(j.expiry) && now.Before(j.deadline) {
					continue
				}
				// Worker presumed dead (or job out of time): the lease is
				// revoked, its partial outputs are swept, and any late
				// complete on it will be answered Stale.
				o.stats.Expired++
				if rec, ok := o.leases[j.lease]; ok {
					sweeps = append(sweeps, rec)
				}
				j.lease = 0
				if j.attempt >= o.cfg.MaxAttempts || !now.Before(j.deadline) {
					o.finishLocked(j, fmt.Errorf("compactsvc: job %d lost after %d attempts (last worker %q): %w",
						j.id, j.attempt, j.worker, lsm.ErrJobLost))
				} else {
					j.state = statePending
					o.queue = append(o.queue, j.id)
				}
			case statePending:
				if !now.Before(j.deadline) {
					o.finishLocked(j, fmt.Errorf("compactsvc: job %d unclaimed past deadline: %w",
						j.id, lsm.ErrJobLost))
				}
			}
		}
		o.mu.Unlock()
		for _, rec := range sweeps {
			o.sweep(rec)
		}
	}
}

func (o *Orchestrator) serveConn(conn net.Conn) {
	wire := netretry.NewJSONConn(conn, maxMessage)
	for {
		var req wireRequest
		if err := wire.Recv(&req); err != nil {
			return
		}
		var resp *wireResponse
		switch req.Op {
		case "poll":
			resp = o.poll(req.Worker)
		case "heartbeat":
			resp = o.heartbeat(req.JobID, req.Lease)
		case "complete":
			resp = o.complete(&req)
		default:
			resp = &wireResponse{Err: fmt.Sprintf("compactsvc: unknown op %q", req.Op)}
		}
		if err := wire.Send(resp); err != nil {
			return
		}
	}
}

// poll claims the oldest pending job for a worker and leases it, handing out
// that attempt's fenced output range.
func (o *Orchestrator) poll(worker string) *wireResponse {
	o.mu.Lock()
	defer o.mu.Unlock()
	for len(o.queue) > 0 {
		id := o.queue[0]
		o.queue = o.queue[1:]
		j, ok := o.jobs[id]
		if !ok || j.state != statePending {
			continue // finished (deadline, close) while queued
		}
		j.attempt++
		first, width := attemptRange(&j.spec, j.attempt-1, o.cfg.MaxAttempts)
		spec := j.spec
		spec.FirstOutputFileNum = first
		spec.MaxOutputFiles = width
		o.nextLease++
		j.state = stateLeased
		j.lease = o.nextLease
		j.worker = worker
		j.expiry = time.Now().Add(o.cfg.LeaseTTL)
		// The rec outlives the lease on purpose: a zombie's complete may
		// arrive long after expiry, and the sweep needs the fenced range.
		// Growth is bounded by lease expiries plus live jobs; successful
		// completes delete their rec.
		o.leases[j.lease] = leaseRec{jobID: id, dir: spec.Dir, first: first, width: width}
		return &wireResponse{
			Job:   &spec,
			JobID: id,
			Lease: j.lease,
			TTLMs: o.cfg.LeaseTTL.Milliseconds(),
		}
	}
	return &wireResponse{}
}

// heartbeat extends a live lease; a revoked lease is reported Stale so the
// worker knows its result will be discarded.
func (o *Orchestrator) heartbeat(jobID, lease uint64) *wireResponse {
	o.mu.Lock()
	defer o.mu.Unlock()
	j, ok := o.jobs[jobID]
	if !ok || j.state != stateLeased || j.lease != lease {
		return &wireResponse{Stale: true}
	}
	j.expiry = time.Now().Add(o.cfg.LeaseTTL)
	return &wireResponse{}
}

// complete delivers a worker's result. A result on a revoked lease is
// answered Stale and the zombie attempt's fenced outputs are swept — the
// worker finished a job someone else now owns.
func (o *Orchestrator) complete(req *wireRequest) *wireResponse {
	o.mu.Lock()
	j, ok := o.jobs[req.JobID]
	if !ok || j.state != stateLeased || j.lease != req.Lease {
		rec, haveRec := o.leases[req.Lease]
		o.stats.StaleCompletes++
		o.mu.Unlock()
		if haveRec && req.Err == "" {
			o.sweep(rec)
		}
		return &wireResponse{Stale: true}
	}
	if req.Err == "" && req.Result != nil {
		j.res = *req.Result
		delete(o.leases, j.lease)
		o.finishLocked(j, nil)
		o.mu.Unlock()
		return &wireResponse{}
	}
	// Execution failed on the worker. RunCompaction already removed its own
	// outputs; ENOSPC (restored as a sentinel) is terminal like a local
	// abort, while other failures may be worker-local (flaky storage path,
	// lost DEK fetch), so the job gets another attempt if budget remains.
	err := restoreRemoteError(req.Err)
	rec := o.leases[j.lease]
	j.lease = 0
	if errors.Is(err, vfs.ErrNoSpace) || j.attempt >= o.cfg.MaxAttempts || !time.Now().Before(j.deadline) {
		o.finishLocked(j, err)
		o.mu.Unlock()
		return &wireResponse{}
	}
	j.state = statePending
	o.queue = append(o.queue, j.id)
	o.mu.Unlock()
	// Insurance sweep: the worker's own abort cleanup is best-effort too.
	o.sweep(rec)
	return &wireResponse{}
}

// restoreRemoteError rebuilds sentinel structure from a remote error string:
// ENOSPC must survive the wire so the engine halts compactions (inputs
// retained) instead of entering degraded mode.
func restoreRemoteError(msg string) error {
	if strings.Contains(msg, vfs.ErrNoSpace.Error()) {
		return fmt.Errorf("compactsvc: remote: %w: %s", vfs.ErrNoSpace, msg)
	}
	return fmt.Errorf("compactsvc: remote: %s", msg)
}
