package main

import (
	"bytes"
	"fmt"
	"testing"

	"shield/internal/lsm"
	"shield/internal/server"
	"shield/internal/vfs"
)

// startServer boots a two-shard server over memfs engines on an ephemeral
// loopback port and returns it.
func startServer(t *testing.T) *server.Server {
	t.Helper()
	var shards []server.Engine
	for i := 0; i < 2; i++ {
		db, err := lsm.Open(fmt.Sprintf("shard-%d", i), lsm.Options{FS: vfs.NewMem(), MemtableSize: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() }) //nolint:errcheck // scratch store
		shards = append(shards, db)
	}
	srv, err := server.New(server.Config{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Error(err)
		}
		if err := <-served; err != nil {
			t.Error(err)
		}
	})
	return srv
}

// TestRunNet: four pipelined clients complete every command against a live
// server, with no error, and the GET/SET split they report is the one the
// server counted and is near the asked-for mix.
func TestRunNet(t *testing.T) {
	srv := startServer(t)
	w := NetWorkload{Addr: srv.Addr(), Clients: 4, Pipeline: 8, NumOps: 2000, ReadPct: 50}
	res, err := RunNet(w)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res)
	if err := res.check(w.withDefaults()); err != nil {
		t.Fatal(err)
	}
	if res.Ops != 2000 || res.Gets+res.Sets != 2000 {
		t.Fatalf("ops %d, gets %d + sets %d, want 2000", res.Ops, res.Gets, res.Sets)
	}
	// 2000 draws at 50 %: 800 is more than eight standard deviations off.
	if res.Gets < 800 || res.Sets < 800 {
		t.Fatalf("gets %d, sets %d: not a 50/50 mix", res.Gets, res.Sets)
	}
	var gets, sets int64
	for _, s := range srv.Stats() {
		gets += s.Gets
		sets += s.Sets
	}
	// The server also answered the probe's PING, which it counts as neither.
	if gets != res.Gets || sets != res.Sets {
		t.Fatalf("server counted %d GETs and %d SETs, client %d and %d", gets, sets, res.Gets, res.Sets)
	}
}

// TestRunNetShortRunFails: a run that counted an error, or completed fewer
// commands than asked for, fails the check the command exits on.
func TestRunNetShortRunFails(t *testing.T) {
	w := NetWorkload{NumOps: 100}
	for _, r := range []NetResult{{Ops: 100, Errors: 1}, {Ops: 99}} {
		if r.check(w) == nil {
			t.Errorf("%+v passed the check", r)
		}
	}
	if err := (NetResult{Ops: 100}).check(w); err != nil {
		t.Errorf("a full clean run failed the check: %v", err)
	}
}

func TestKeyGen(t *testing.T) {
	a, b := key(1), key(2)
	if len(a) != keySize || len(b) != keySize {
		t.Fatalf("lengths %d %d", len(a), len(b))
	}
	if bytes.Compare(a, b) >= 0 {
		t.Fatal("numeric order not preserved lexicographically")
	}
	if !bytes.Equal(key(7), key(7)) {
		t.Fatal("not deterministic")
	}
}

func TestValueGen(t *testing.T) {
	g := newValueGen(100, 1)
	v := g.value(42)
	if len(v) != 100 {
		t.Fatalf("size %d", len(v))
	}
	if !bytes.Equal(v, newValueGen(100, 1).value(42)) {
		t.Fatal("not deterministic across instances")
	}
	if bytes.Equal(g.value(1), g.value(2)) {
		t.Fatal("different keys produced identical values")
	}
}
