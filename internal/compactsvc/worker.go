package compactsvc

import (
	"fmt"
	"net"
	"sync"
	"time"

	"shield/internal/lsm"
	"shield/internal/metrics"
	"shield/internal/netretry"
	"shield/internal/vfs"
)

// WorkerConfig tunes the polling loop.
type WorkerConfig struct {
	PollEvery      time.Duration // idle delay between polls; default 100ms
	DialTimeout    time.Duration // default 1s
	RequestTimeout time.Duration // one poll/heartbeat/complete round; default 5s
	BackoffBase    time.Duration // redial backoff; default 10ms
	BackoffMax     time.Duration // default 500ms
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.PollEvery <= 0 {
		c.PollEvery = 100 * time.Millisecond
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 10 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 500 * time.Millisecond
	}
	return c
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
	addr    string
	cfg     WorkerConfig

	connMu sync.Mutex // serializes wire rounds (heartbeats interleave with nothing else)
	conn   net.Conn
	wire   *netretry.JSONConn

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
	w := &Worker{
		fs:      fs,
		wrapper: wrapper,
		name:    name,
		addr:    addr,
		cfg:     cfg.withDefaults(),
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
// executing — to finish.
//
//shield:nolockio connMu only guards the conn pointer here; Close on a TCP conn is an immediate teardown, not a blocking round, and it is what unblocks a poll loop stuck mid-read
func (w *Worker) Close() error {
	select {
	case <-w.done:
		return nil
	default:
	}
	close(w.done)
	w.connMu.Lock()
	if w.conn != nil {
		w.conn.Close()
		w.conn = nil
	}
	w.connMu.Unlock()
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
			netretry.Sleep(netretry.Delay(fails, w.cfg.BackoffBase, w.cfg.BackoffMax), w.done)
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
			netretry.Sleep(netretry.Delay(attempt-1, w.cfg.BackoffBase, w.cfg.BackoffMax), w.done)
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

// call performs one request/response round, dialing on demand and dropping
// the connection on any error so the next round starts clean.
//
//shield:nolockio connMu is the wire: one in-flight round at a time is the protocol, and every round carries a deadline so a dead orchestrator cannot wedge the worker
func (w *Worker) call(req *wireRequest) (*wireResponse, error) {
	w.connMu.Lock()
	defer w.connMu.Unlock()
	if w.stopped() {
		return nil, fmt.Errorf("compactsvc: worker %q closed", w.name)
	}
	if w.conn == nil {
		conn, err := net.DialTimeout("tcp", w.addr, w.cfg.DialTimeout)
		if err != nil {
			return nil, fmt.Errorf("compactsvc: dial %s: %w", w.addr, err)
		}
		w.conn = conn
		w.wire = netretry.NewJSONConn(conn, maxMessage)
	}
	w.conn.SetDeadline(time.Now().Add(w.cfg.RequestTimeout)) //nolint:errcheck
	err := w.wire.Send(req)
	var resp wireResponse
	if err == nil {
		err = w.wire.Recv(&resp)
	}
	if err != nil {
		if netretry.IsTimeout(err) {
			metrics.Net.Timeouts.Add(1)
		}
		w.conn.Close()
		w.conn = nil
		return nil, fmt.Errorf("compactsvc: %s round: %w", req.Op, err)
	}
	w.conn.SetDeadline(time.Time{}) //nolint:errcheck
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
