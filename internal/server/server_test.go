package server_test

import (
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"shield/internal/lsm"
	"shield/internal/metrics"
	"shield/internal/resp"
	"shield/internal/server"
	"shield/internal/vfs"
)

// newTestServer boots a server over nShards fresh in-memory engines on an
// ephemeral port and returns it with its address.
func newTestServer(t *testing.T, nShards int, cfg server.Config) (*server.Server, string) {
	t.Helper()
	var shards []server.Engine
	var dbs []*lsm.DB
	for i := 0; i < nShards; i++ {
		db, err := lsm.Open(fmt.Sprintf("shard-%d", i), lsm.Options{
			FS:           vfs.NewMem(),
			MemtableSize: 256 << 10,
		})
		if err != nil {
			t.Fatalf("open shard %d: %v", i, err)
		}
		dbs = append(dbs, db)
		shards = append(shards, db)
	}
	cfg.Shards = shards
	s, err := server.New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve() }()
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("server.Close: %v", err)
		}
		if err := <-serveErr; err != nil {
			t.Errorf("Serve returned: %v", err)
		}
		for i, db := range dbs {
			if err := db.Close(); err != nil {
				t.Errorf("close shard %d: %v", i, err)
			}
		}
	})
	return s, s.Addr()
}

// TestPipelinedClientsE2E is the acceptance test: >= 8 concurrent pipelined
// RESP clients drive mixed GET/SET traffic across >= 4 shards, every client
// verifies read-your-writes for its own keys, and afterwards the per-shard
// counters show cross-connection group commit — fewer WAL syncs than SETs.
func TestPipelinedClientsE2E(t *testing.T) {
	const (
		nShards  = 4
		nClients = 8
		nRounds  = 6
		nKeys    = 12 // keys per client per round
	)
	s, addr := newTestServer(t, nShards, server.Config{})

	var wg sync.WaitGroup
	errs := make(chan error, nClients)
	for c := 0; c < nClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs <- runClient(addr, c, nRounds, nKeys)
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	const wantSets = nClients * nRounds * nKeys
	var gotSets, gotGets, walSyncs, writeBatches int64
	for i, snap := range s.Stats() {
		if snap.Sets == 0 || snap.Gets == 0 {
			t.Errorf("shard %d saw no traffic (sets=%d gets=%d): keys are not spreading", i, snap.Sets, snap.Gets)
		}
		if snap.Errors != 0 {
			t.Errorf("shard %d: %d -ERR replies", i, snap.Errors)
		}
		// Per-shard group commit: syncs never exceed the batches committed.
		if snap.Engine.WALSyncs > snap.WriteBatches {
			t.Errorf("shard %d: wal_syncs=%d > write_batches=%d", i, snap.Engine.WALSyncs, snap.WriteBatches)
		}
		gotSets += snap.Sets
		gotGets += snap.Gets
		walSyncs += snap.Engine.WALSyncs
		writeBatches += snap.WriteBatches
	}
	if gotSets != wantSets {
		t.Errorf("sets routed = %d, want %d", gotSets, wantSets)
	}
	if gotGets == 0 {
		t.Error("no GETs routed")
	}
	// The acceptance signal: every SET was acknowledged with sync on, yet
	// coalescing (pipeline folding + cross-connection group commit) kept the
	// fsync count well below the SET count.
	if walSyncs == 0 {
		t.Fatal("wal_syncs = 0 with Sync enabled: syncs are not being counted")
	}
	if walSyncs >= wantSets {
		t.Errorf("wal_syncs = %d >= %d sets: write coalescing is not happening", walSyncs, wantSets)
	}
	t.Logf("group commit: %d sets -> %d write batches -> %d wal syncs", wantSets, writeBatches, walSyncs)
}

// runClient drives one connection: each round pipelines nKeys SETs, a GET of
// a key written earlier in the same pipeline (read-your-writes within the
// batch), then re-reads every key it has written to check the latest value.
func runClient(addr string, c, nRounds, nKeys int) error {
	cl, err := resp.Dial(addr, 10*time.Second)
	if err != nil {
		return fmt.Errorf("client %d: dial: %v", c, err)
	}
	defer cl.Close()

	key := func(k int) string { return fmt.Sprintf("c%d-k%d", c, k) }
	val := func(k, r int) string { return fmt.Sprintf("v-c%d-k%d-r%d", c, k, r) }

	for r := 0; r < nRounds; r++ {
		// One pipelined batch: nKeys SETs then a GET in the same flush.
		for k := 0; k < nKeys; k++ {
			if err := cl.SendStrings("SET", key(k), val(k, r)); err != nil {
				return fmt.Errorf("client %d: send: %v", c, err)
			}
		}
		probe := r % nKeys
		if err := cl.SendStrings("GET", key(probe)); err != nil {
			return fmt.Errorf("client %d: send: %v", c, err)
		}
		if err := cl.Flush(); err != nil {
			return fmt.Errorf("client %d: flush: %v", c, err)
		}
		for k := 0; k < nKeys; k++ {
			v, err := cl.Recv()
			if err != nil {
				return fmt.Errorf("client %d round %d: recv SET reply: %v", c, r, err)
			}
			if v.Kind != resp.KindStatus || string(v.Str) != "OK" {
				return fmt.Errorf("client %d round %d: SET %s reply = %+v, want +OK", c, r, key(k), v)
			}
		}
		v, err := cl.Recv()
		if err != nil {
			return fmt.Errorf("client %d round %d: recv GET reply: %v", c, r, err)
		}
		if v.Kind != resp.KindBulk || string(v.Str) != val(probe, r) {
			return fmt.Errorf("client %d round %d: pipelined GET %s = %q, want %q (read-your-writes)",
				c, r, key(probe), v.Str, val(probe, r))
		}
		// Re-read everything written so far: latest round must win.
		for k := 0; k < nKeys; k++ {
			got, err := cl.Do("GET", key(k))
			if err != nil {
				return fmt.Errorf("client %d: GET %s: %v", c, key(k), err)
			}
			if got.Kind != resp.KindBulk || string(got.Str) != val(k, r) {
				return fmt.Errorf("client %d round %d: GET %s = %q, want %q", c, r, key(k), got.Str, val(k, r))
			}
		}
	}
	return nil
}

// TestCommandsBasics exercises DEL, PING, ECHO, INFO, COMMAND, QUIT and the
// error replies for malformed-but-parseable commands.
func TestCommandsBasics(t *testing.T) {
	_, addr := newTestServer(t, 4, server.Config{})
	cl, err := resp.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()

	mustDo := func(want string, args ...string) {
		t.Helper()
		v, err := cl.Do(args...)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		got := renderValue(v)
		if got != want {
			t.Fatalf("%v = %s, want %s", args, got, want)
		}
	}

	mustDo("+PONG", "PING")
	mustDo("$hello", "PING", "hello")
	mustDo("$hello", "ECHO", "hello")
	mustDo("+OK", "SET", "a", "1")
	mustDo("+OK", "SET", "b", "2")
	mustDo("$1", "GET", "a")
	mustDo(":2", "DEL", "a", "b") // blind delete: counts tombstones written
	mustDo("$-1", "GET", "a")
	mustDo("$-1", "GET", "never-set")
	mustDo(":1", "DEL", "never-set") // blind delete, no existence probe
	mustDo("-ERR wrong number of arguments for 'set' command", "SET", "just-a-key")
	mustDo("-ERR wrong number of arguments for 'get' command", "GET")
	mustDo("-ERR unknown command 'FLUSHALL'", "FLUSHALL")
	mustDo("*0", "COMMAND")

	v, err := cl.Do("INFO")
	if err != nil {
		t.Fatalf("INFO: %v", err)
	}
	info := string(v.Str)
	for _, want := range []string{"# server", "shards:4", "# shard0", "# shard3", "wal_syncs:", "ops_set:"} {
		if !strings.Contains(info, want) {
			t.Errorf("INFO missing %q:\n%s", want, info)
		}
	}

	mustDo("+OK", "QUIT")
	if _, err := cl.Recv(); err == nil {
		t.Error("connection still open after QUIT")
	}
}

func renderValue(v resp.Value) string {
	switch {
	case v.Null:
		return "$-1"
	case v.Kind == resp.KindStatus:
		return "+" + string(v.Str)
	case v.Kind == resp.KindError:
		return "-" + string(v.Str)
	case v.Kind == resp.KindInt:
		return fmt.Sprintf(":%d", v.Int)
	case v.Kind == resp.KindBulk:
		return "$" + string(v.Str)
	case v.Kind == resp.KindArray:
		return fmt.Sprintf("*%d", len(v.Array))
	}
	return "?"
}

// TestProtocolErrorRecovery checks the two protocol-error classes end to
// end: a recoverable error (bad array header at a line boundary) gets -ERR
// and the connection keeps working; a fatal error (bad bulk frame) gets
// -ERR and the connection closes.
func TestProtocolErrorRecovery(t *testing.T) {
	_, addr := newTestServer(t, 2, server.Config{})

	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	r := resp.NewReader(conn)

	// Recoverable: malformed array header, then a valid command on the same
	// connection.
	if _, err := conn.Write([]byte("*abc\r\nPING\r\n")); err != nil {
		t.Fatalf("write: %v", err)
	}
	v, err := r.ReadReply()
	if err != nil {
		t.Fatalf("read error reply: %v", err)
	}
	if v.Kind != resp.KindError || !strings.Contains(string(v.Str), "Protocol error") {
		t.Fatalf("reply to bad header = %+v, want -ERR Protocol error", v)
	}
	v, err = r.ReadReply()
	if err != nil {
		t.Fatalf("read PING reply after recoverable error: %v", err)
	}
	if v.Kind != resp.KindStatus || string(v.Str) != "PONG" {
		t.Fatalf("PING after recoverable error = %+v, want +PONG", v)
	}

	// Fatal: bulk frame with a garbage length. The server replies -ERR and
	// closes; subsequent reads hit EOF.
	if _, err := conn.Write([]byte("*1\r\n$abc\r\n")); err != nil {
		t.Fatalf("write: %v", err)
	}
	v, err = r.ReadReply()
	if err != nil {
		t.Fatalf("read fatal error reply: %v", err)
	}
	if v.Kind != resp.KindError {
		t.Fatalf("reply to bad bulk = %+v, want -ERR", v)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := r.ReadReply(); err == nil {
		t.Fatal("connection still open after fatal protocol error")
	}
}

// TestGracefulDrain checks Close: in-flight connections are woken and the
// server shuts down promptly, and Serve returns nil.
func TestGracefulDrain(t *testing.T) {
	s, addr := newTestServer(t, 2, server.Config{DrainTimeout: 2 * time.Second})

	// A few idle connections blocked in ReadCommand, plus one that has done
	// real work.
	var conns []net.Conn
	for i := 0; i < 3; i++ {
		c, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer c.Close()
		conns = append(conns, c)
	}
	cl, err := resp.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	if v, err := cl.Do("SET", "k", "v"); err != nil || v.Kind != resp.KindStatus {
		t.Fatalf("SET before drain: %+v, %v", v, err)
	}

	start := time.Now()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("Close took %v, want prompt drain", d)
	}
	// Idle connections were woken and closed.
	for i, c := range conns {
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.ReadAll(c); err != nil {
			t.Errorf("conn %d: expected clean close, got %v", i, err)
		}
	}
	// New connections are refused.
	if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		c.Close()
		t.Error("dial succeeded after Close")
	}
}

// TestSlowClientDropped checks the idle deadline: a connection that sends a
// partial frame and stalls is disconnected.
func TestSlowClientDropped(t *testing.T) {
	_, addr := newTestServer(t, 1, server.Config{IdleTimeout: 200 * time.Millisecond})
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	// Half a command, then silence.
	if _, err := conn.Write([]byte("*2\r\n$3\r\nGET\r\n$5\r\nhel")); err != nil {
		t.Fatalf("write: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("expected server to close the slow connection, got %v", err)
	}
}

// TestPartialTailDoesNotHoldBackReplies: a pipeline whose last command is
// still incomplete must not delay the replies of the complete commands
// before it. The partial command is answered once its bytes arrive.
func TestPartialTailDoesNotHoldBackReplies(t *testing.T) {
	_, addr := newTestServer(t, 2, server.Config{})
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	r := resp.NewReader(conn)

	if _, err := conn.Write([]byte("SET k hello\r\nPING\r\n*2\r\n$3\r\nGET\r\n$1\r\n")); err != nil {
		t.Fatalf("write: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(3 * time.Second)) // IdleTimeout is 5 minutes
	for _, want := range []string{"+OK", "+PONG"} {
		v, err := r.ReadReply()
		if err != nil {
			t.Fatalf("reply %s held back behind a partial command: %v", want, err)
		}
		if got := renderValue(v); got != want {
			t.Fatalf("reply = %s, want %s", got, want)
		}
	}
	if _, err := conn.Write([]byte("k\r\n")); err != nil {
		t.Fatalf("write: %v", err)
	}
	v, err := r.ReadReply()
	if err != nil || string(v.Str) != "hello" {
		t.Fatalf("GET completed later = %+v, %v", v, err)
	}
}

// TestInfoSeesOwnPipeline: counters are published once per batch, but an
// INFO in the middle of a pipeline still reports the commands before it.
func TestInfoSeesOwnPipeline(t *testing.T) {
	s, addr := newTestServer(t, 2, server.Config{})
	cl, err := resp.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	for _, cmd := range [][]string{{"SET", "a", "1"}, {"SET", "b", "2"}, {"GET", "a"}, {"INFO"}, {"SET", "c", "3"}} {
		if err := cl.SendStrings(cmd...); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	var info string
	for i := 0; i < 5; i++ {
		v, err := cl.Recv()
		if err != nil || v.IsError() {
			t.Fatalf("reply %d: %+v, %v", i, v, err)
		}
		if i == 3 {
			info = string(v.Str)
		}
	}
	sets, gets := 0, 0
	for _, line := range strings.Split(info, "\r\n") {
		var n int
		if scan(line, "ops_set:%d", &n) {
			sets += n
		} else if scan(line, "ops_get:%d", &n) {
			gets += n
		}
	}
	if sets != 2 || gets != 1 {
		t.Errorf("INFO inside the pipeline shows ops_set=%d ops_get=%d, want 2 and 1:\n%s", sets, gets, info)
	}
	var total int64
	for _, snap := range s.Stats() {
		total += snap.Sets
	}
	if total != 3 {
		t.Errorf("after the pipeline Stats shows %d sets, want 3", total)
	}
}

func scan(line, format string, n *int) bool {
	got, err := fmt.Sscanf(line, format, n)
	return err == nil && got == 1
}

// TestStuckReaderDropped checks the write deadline: a client that sends
// commands and never reads its replies is dropped within WriteTimeout once
// the socket buffers are full, instead of wedging its handler.
func TestStuckReaderDropped(t *testing.T) {
	_, addr := newTestServer(t, 1, server.Config{WriteTimeout: 300 * time.Millisecond})
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	drops := metrics.Serve.SlowClientDrops.Load()
	// ~64 MB of replies requested, none read. The writer runs beside the
	// test because the server stops reading once it blocks on its replies.
	payload := strings.Repeat("x", 32<<10)
	go func() {
		for i := 0; i < 2000; i++ {
			if _, err := conn.Write([]byte("ECHO " + payload + "\r\n")); err != nil {
				return
			}
		}
	}()
	// The replies stay unread until the server has given up on the client.
	for deadline := time.Now().Add(10 * time.Second); metrics.Serve.SlowClientDrops.Load() == drops; {
		if time.Now().After(deadline) {
			t.Fatal("a client that never reads was not dropped at the write deadline")
		}
		time.Sleep(10 * time.Millisecond)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if n, err := io.Copy(io.Discard, conn); n >= int64(2000*len(payload)) {
		t.Fatalf("all %d reply bytes arrived (%v): the connection was not closed", n, err)
	}
}
