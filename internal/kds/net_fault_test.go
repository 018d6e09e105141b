package kds

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"shield/internal/metrics"
	"shield/internal/netretry"
)

// fastConfig keeps fault tests snappy: short deadlines, tight backoff.
func fastConfig() ClientConfig {
	return ClientConfig{
		Policy: netretry.Policy{
			DialTimeout:    200 * time.Millisecond,
			RequestTimeout: 300 * time.Millisecond,
			BackoffBase:    time.Millisecond,
			BackoffMax:     10 * time.Millisecond,
		},
		MaxAttempts: 5,
	}
}

// TestReplicaKillMidWorkloadFailover kills one of two replicas in the
// middle of a create/fetch workload. Every operation must still succeed
// (failover + retry), and the store must have issued exactly one DEK per
// create — no double issues from retried requests.
func TestReplicaKillMidWorkloadFailover(t *testing.T) {
	store := NewStore(Policy{MaxFetches: 0})
	store.Authorize("server-1")
	r1, err := NewServer(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewServer(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()

	client := NewClientConfig("server-1", fastConfig(), r1.Addr(), r2.Addr())
	defer client.Close()

	const ops = 30
	ids := make([]KeyID, 0, ops)
	for i := 0; i < ops; i++ {
		if i == ops/3 {
			r1.Close() // kill the replica the client is talking to
		}
		id, _, err := client.CreateDEK()
		if err != nil {
			t.Fatalf("CreateDEK %d after replica kill: %v", i, err)
		}
		ids = append(ids, id)
		if _, err := client.FetchDEK(id); err != nil {
			t.Fatalf("FetchDEK %d after replica kill: %v", i, err)
		}
	}

	issued, _, _ := store.Stats()
	if issued != ops {
		t.Fatalf("store issued %d DEKs for %d creates (retries double-issued)", issued, ops)
	}
	seen := make(map[KeyID]bool, len(ids))
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate KeyID %s returned", id)
		}
		seen[id] = true
	}
}

// dropFirstResponseProxy forwards TCP traffic to upstream but swallows the
// first upstream->client payload and closes the connection, simulating a
// request that reached the server whose response was lost in transit.
type dropFirstResponseProxy struct {
	ln       net.Listener
	upstream string

	mu      sync.Mutex
	dropped bool
}

func newDropFirstResponseProxy(t *testing.T, upstream string) *dropFirstResponseProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &dropFirstResponseProxy{ln: ln, upstream: upstream}
	go p.serve()
	t.Cleanup(func() { ln.Close() })
	return p
}

func (p *dropFirstResponseProxy) addr() string { return p.ln.Addr().String() }

func (p *dropFirstResponseProxy) serve() {
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		go p.handle(conn)
	}
}

func (p *dropFirstResponseProxy) handle(conn net.Conn) {
	up, err := net.Dial("tcp", p.upstream)
	if err != nil {
		conn.Close()
		return
	}
	go func() {
		io.Copy(up, conn) //nolint:errcheck // client -> upstream
		up.Close()
	}()
	buf := make([]byte, 4096)
	for {
		n, err := up.Read(buf)
		if err != nil {
			conn.Close()
			up.Close()
			return
		}
		p.mu.Lock()
		drop := !p.dropped
		p.dropped = true
		p.mu.Unlock()
		if drop {
			// The request was delivered; the response dies here.
			conn.Close()
			up.Close()
			return
		}
		if _, err := conn.Write(buf[:n]); err != nil {
			conn.Close()
			up.Close()
			return
		}
	}
}

// TestCreateRetryDoesNotDoubleIssueDEK drops the response of the first
// create. The client must retry (the create carries an idempotency token)
// and receive the key the server already issued — exactly one DEK minted.
func TestCreateRetryDoesNotDoubleIssueDEK(t *testing.T) {
	store := NewStore(DefaultPolicy())
	store.Authorize("server-1")
	srv, err := NewServer(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	proxy := newDropFirstResponseProxy(t, srv.Addr())

	client := NewClientConfig("server-1", fastConfig(), proxy.addr())
	defer client.Close()

	id, dek, err := client.CreateDEK()
	if err != nil {
		t.Fatalf("CreateDEK through lossy link: %v", err)
	}
	issued, _, _ := store.Stats()
	if issued != 1 {
		t.Fatalf("store issued %d DEKs for 1 create", issued)
	}
	// The returned key must be the one the store holds for the ID.
	got, err := store.FetchDEK("server-1", id)
	if err != nil {
		t.Fatal(err)
	}
	if got != dek {
		t.Fatal("retried create returned a different DEK than the store issued")
	}
}

// TestHungReplicaTimesOutAndFailsOver lists a replica that accepts
// connections but never answers ahead of a healthy one. The per-request
// deadline must fire and the client must fail over, quickly.
func TestHungReplicaTimesOutAndFailsOver(t *testing.T) {
	hung, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hung.Close()
	go func() { // accept and hold; never respond
		for {
			conn, err := hung.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
		}
	}()

	store := NewStore(DefaultPolicy())
	store.Authorize("server-1")
	srv, err := NewServer(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	before := metrics.Net.Snapshot()
	client := NewClientConfig("server-1", fastConfig(), hung.Addr().String(), srv.Addr())
	defer client.Close()

	start := time.Now()
	if _, _, err := client.CreateDEK(); err != nil {
		t.Fatalf("CreateDEK with hung replica: %v", err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("failover took %v, deadline not enforced", d)
	}
	delta := metrics.Net.Snapshot().Sub(before)
	if delta.Timeouts == 0 {
		t.Fatalf("expected a recorded timeout, got %s", delta)
	}
}

// TestReplicaRestartSameAddress restarts a killed replica on its old
// address and verifies the client reconnects to it once the other replica
// also dies — full kill/restart cycle.
func TestReplicaRestartSameAddress(t *testing.T) {
	store := NewStore(Policy{MaxFetches: 0})
	store.Authorize("server-1")
	r1, err := NewServer(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr1 := r1.Addr()
	r2, err := NewServer(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	client := NewClientConfig("server-1", fastConfig(), addr1, r2.Addr())
	defer client.Close()

	if _, _, err := client.CreateDEK(); err != nil {
		t.Fatal(err)
	}
	r1.Close()
	if _, _, err := client.CreateDEK(); err != nil {
		t.Fatalf("create after r1 kill: %v", err)
	}
	// Restart r1 on its old address, then kill r2: the client must come back.
	r1b, err := NewServer(store, addr1)
	if err != nil {
		t.Fatalf("restart on %s: %v", addr1, err)
	}
	defer r1b.Close()
	r2.Close()
	if _, _, err := client.CreateDEK(); err != nil {
		t.Fatalf("create after restart+failback: %v", err)
	}
}

// TestAllReplicasDownFailsFast verifies that with every replica dead the
// client returns ErrNoReplica within its bounded retry budget instead of
// hanging.
func TestAllReplicasDownFailsFast(t *testing.T) {
	store := NewStore(DefaultPolicy())
	store.Authorize("server-1")
	srv, err := NewServer(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	srv.Close()

	client := NewClientConfig("server-1", fastConfig(), addr)
	defer client.Close()

	start := time.Now()
	_, _, err = client.CreateDEK()
	if !errors.Is(err, ErrNoReplica) {
		t.Fatalf("err = %v, want ErrNoReplica", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("failing fast took %v", d)
	}
}

// TestConcurrentCreatesUnderFailover hammers the client from several
// goroutines while a replica dies, exercising the request serialization
// and close/retry interaction under -race.
func TestConcurrentCreatesUnderFailover(t *testing.T) {
	store := NewStore(Policy{MaxFetches: 0})
	store.Authorize("server-1")
	r1, err := NewServer(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewServer(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()

	client := NewClientConfig("server-1", fastConfig(), r1.Addr(), r2.Addr())
	defer client.Close()

	const workers, perWorker = 4, 10
	errs := make(chan error, workers*perWorker)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, _, err := client.CreateDEK(); err != nil {
					errs <- fmt.Errorf("create: %w", err)
					return
				}
			}
		}()
	}
	time.Sleep(5 * time.Millisecond)
	r1.Close()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if issued, _, _ := store.Stats(); issued != workers*perWorker {
		t.Fatalf("issued %d, want %d", issued, workers*perWorker)
	}
}

// TestCloseUnblocksHungRequest: a request waits on a replica that read it
// and never replies. Close returns at once, not after the request deadline,
// and the request fails with ErrClosed.
func TestCloseUnblocksHungRequest(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	read := make(chan struct{})
	go func() { // read the request; never respond
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 4<<10)
		if _, err := conn.Read(buf); err == nil {
			close(read)
		}
		io.Copy(io.Discard, conn)
	}()

	cfg := fastConfig()
	cfg.RequestTimeout = 5 * time.Second
	client := NewClientConfig("server-1", cfg, ln.Addr().String())
	defer client.Close()
	errc := make(chan error, 1)
	go func() {
		_, err := client.FetchDEK("dek-x")
		errc <- err
	}()
	select {
	case <-read:
	case <-time.After(5 * time.Second):
		t.Fatal("the request never reached the replica")
	}
	start := time.Now()
	client.Close()
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("Close took %v with a request blocked on a silent replica", d)
	}
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("the request is still blocked after Close")
	}
}
