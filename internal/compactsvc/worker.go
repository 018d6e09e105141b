package compactsvc

import (
	"fmt"
	"sync"
	"time"

	"shield/internal/lsm"
	"shield/internal/metrics"
	"shield/internal/netretry"
	"shield/internal/vfs"
)

// WorkerConfig tunes the polling loop. The zero value selects the defaults:
// poll every 100ms, dial 1s, one round 5s, redial backoff 10ms to 500ms.
type WorkerConfig struct {
	PollEvery time.Duration // idle delay between polls
	netretry.Policy
}

// Worker executes compaction jobs leased from an orchestrator. It dials the
// orchestrator (the storage side initiates, so workers can sit behind NAT or
// scale out without compute-side reconfiguration), polls for jobs, and
// heartbeats each claim while lsm.RunCompaction runs against its local
// filesystem and its own encryption wrapper.
type Worker struct {
	fs      vfs.FS
	wrapper lsm.FileWrapper
	name    string
	cfg     WorkerConfig
	rt      *netretry.Client // one attempt per round: the worker's loops retry

	mu       sync.Mutex
	jobs     int64
	bytesIn  int64
	bytesOut int64

	done chan struct{}
	wg   sync.WaitGroup
}

// NewWorker starts a worker named name executing against fs/wrapper,
// polling the orchestrator at addr. Close stops it.
func NewWorker(fs vfs.FS, wrapper lsm.FileWrapper, name, addr string, cfg WorkerConfig) *Worker {
	if wrapper == nil {
		wrapper = lsm.NopWrapper{}
	}
	if cfg.PollEvery <= 0 {
		cfg.PollEvery = 100 * time.Millisecond
	}
	cfg.Policy = cfg.Policy.WithDefaults(netretry.Policy{
		DialTimeout:    time.Second,
		RequestTimeout: 5 * time.Second,
		BackoffBase:    10 * time.Millisecond,
		BackoffMax:     500 * time.Millisecond,
	})
	w := &Worker{
		fs:      fs,
		wrapper: wrapper,
		name:    name,
		cfg:     cfg,
		rt:      netretry.NewClient(cfg.Policy, 1, maxMessage, addr),
		done:    make(chan struct{}),
	}
	w.wg.Add(1)
	go w.run()
	return w
}

// Stats reports jobs executed and bytes moved by this worker.
func (w *Worker) Stats() (jobs, bytesRead, bytesWritten int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.jobs, w.bytesIn, w.bytesOut
}

// Close stops the polling loop and waits for it — including any job still
// executing — to finish. Closing the connection fails a round blocked on
// it, so a stuck poll does not hold Close for its deadline.
func (w *Worker) Close() error {
	select {
	case <-w.done:
		return nil
	default:
	}
	close(w.done)
	w.rt.Close()
	w.wg.Wait()
	return nil
}

func (w *Worker) stopped() bool {
	select {
	case <-w.done:
		return true
	default:
		return false
	}
}

func (w *Worker) run() {
	defer w.wg.Done()
	fails := 0
	for !w.stopped() {
		resp, err := w.call(&wireRequest{Op: "poll", Worker: w.name})
		if err != nil {
			w.cfg.Backoff(fails, w.done)
			fails++
			continue
		}
		fails = 0
		if resp.Job == nil {
			netretry.Sleep(w.cfg.PollEvery, w.done)
			continue
		}
		w.execute(resp)
	}
}

// execute runs one leased job, heartbeating until the result is delivered.
// Each output's file number comes from the orchestrator; a lease it no
// longer honors, or a failed round, fails the attempt like any other error.
func (w *Worker) execute(claim *wireResponse) {
	hbStop := make(chan struct{})
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go w.heartbeatLoop(claim, hbStop, &hbWG)

	res, err := lsm.RunCompaction(w.fs, w.wrapper, *claim.Job, func() (uint64, error) {
		resp, err := w.call(&wireRequest{Op: "file", Worker: w.name, JobID: claim.JobID, Lease: claim.Lease})
		if err != nil {
			return 0, err
		}
		return outputNum(claim, resp)
	})

	close(hbStop)
	hbWG.Wait()

	req := &wireRequest{Op: "complete", Worker: w.name, JobID: claim.JobID, Lease: claim.Lease}
	if err != nil {
		req.Err = err.Error()
	} else {
		req.Result = &res
	}
	// The lease outlives a connection blip, so retry the delivery a few
	// times: losing a finished compaction to one dropped packet would waste
	// the whole execution.
	var resp *wireResponse
	var sendErr error
	for attempt := 0; attempt < 3 && !w.stopped(); attempt++ {
		if attempt > 0 {
			metrics.Net.Retries.Add(1)
			w.cfg.Backoff(attempt-1, w.done)
		}
		if resp, sendErr = w.call(req); sendErr == nil {
			break
		}
	}
	if sendErr != nil || err != nil || resp == nil {
		// resp is nil when Close raced the delivery loop out before any
		// attempt: the worker died mid-job and the result is discarded.
		return
	}
	if resp.Stale {
		return // the lease was revoked: the orchestrator discarded the result
	}
	w.mu.Lock()
	w.jobs++
	w.bytesIn += res.BytesRead
	w.bytesOut += res.BytesWritten
	w.mu.Unlock()
}

// outputNum is the output file number the orchestrator's answer to a file
// round grants; a lease it no longer honors fails the attempt.
func outputNum(claim, resp *wireResponse) (uint64, error) {
	if resp.Stale {
		return 0, fmt.Errorf("compactsvc: lease %d on job %d revoked", claim.Lease, claim.JobID)
	}
	return resp.FileNum, nil
}

// heartbeatLoop keeps the claim's lease alive while the job runs. Transport
// errors are tolerated (call redials on the next round); a Stale answer
// means the lease is gone, but the loop keeps running only to terminate
// with the job — RunCompaction is not cancellable, and the final complete
// will be told Stale anyway.
func (w *Worker) heartbeatLoop(claim *wireResponse, stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	ttl := time.Duration(claim.TTLMs) * time.Millisecond
	if ttl <= 0 {
		ttl = 3 * time.Second
	}
	t := time.NewTicker(ttl / 3)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-w.done:
			return
		case <-t.C:
		}
		resp, err := w.call(&wireRequest{Op: "heartbeat", Worker: w.name, JobID: claim.JobID, Lease: claim.Lease})
		if err == nil && resp.Stale {
			return
		}
	}
}

// call performs one request/response round on the orchestrator connection.
func (w *Worker) call(req *wireRequest) (*wireResponse, error) {
	var resp wireResponse
	if err := w.rt.Call(req, &resp); err != nil {
		return nil, fmt.Errorf("compactsvc: worker %q: %s round: %w", w.name, req.Op, err)
	}
	return answer(req.Op, &resp)
}

// answer is the worker's reading of the orchestrator's reply to op: its
// error field, when set, fails the round.
func answer(op string, resp *wireResponse) (*wireResponse, error) {
	if resp.Err != "" {
		return nil, fmt.Errorf("compactsvc: orchestrator rejected %s: %s", op, resp.Err)
	}
	return resp, nil
}
