package kds

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestAuthorizationLifecycle(t *testing.T) {
	store := NewStore(DefaultPolicy())

	// Unenrolled server denied.
	if _, _, err := store.CreateDEK("ghost"); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("want ErrUnauthorized, got %v", err)
	}

	store.Authorize("s1")
	id, dek, err := store.CreateDEK("s1")
	if err != nil {
		t.Fatal(err)
	}
	if id == "" {
		t.Fatal("empty key id")
	}

	// Revoked server denied everywhere.
	store.RevokeServer("s1")
	if _, _, err := store.CreateDEK("s1"); !errors.Is(err, ErrRevoked) {
		t.Fatalf("create after revoke: %v", err)
	}
	if _, err := store.FetchDEK("s1", id); !errors.Is(err, ErrRevoked) {
		t.Fatalf("fetch after revoke: %v", err)
	}

	// Re-enrollment restores access; the creator can always re-fetch.
	store.Authorize("s1")
	got, err := store.FetchDEK("s1", id)
	if err != nil {
		t.Fatal(err)
	}
	if got != dek {
		t.Fatal("fetched DEK differs from created DEK")
	}
}

func TestOneTimeProvisioning(t *testing.T) {
	store := NewStore(Policy{MaxFetches: 1})
	store.Authorize("owner")
	store.Authorize("other1")
	store.Authorize("other2")

	id, _, err := store.CreateDEK("owner")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.FetchDEK("other1", id); err != nil {
		t.Fatalf("first foreign fetch: %v", err)
	}
	if _, err := store.FetchDEK("other2", id); !errors.Is(err, ErrAlreadyIssued) {
		t.Fatalf("second foreign fetch: %v", err)
	}
	// Owner unaffected by the exhausted budget.
	if _, err := store.FetchDEK("owner", id); err != nil {
		t.Fatalf("owner fetch: %v", err)
	}
}

func TestUnlimitedFetchPolicy(t *testing.T) {
	store := NewStore(Policy{MaxFetches: 0})
	store.Authorize("a")
	store.Authorize("b")
	id, _, _ := store.CreateDEK("a")
	for i := 0; i < 5; i++ {
		if _, err := store.FetchDEK("b", id); err != nil {
			t.Fatalf("fetch %d: %v", i, err)
		}
	}
}

func TestRevokeDEK(t *testing.T) {
	store := NewStore(DefaultPolicy())
	store.Authorize("s")
	id, _, _ := store.CreateDEK("s")
	if err := store.RevokeDEK("s", id); err != nil {
		t.Fatal(err)
	}
	if _, err := store.FetchDEK("s", id); !errors.Is(err, ErrKeyRevoked) {
		t.Fatalf("fetch revoked DEK: %v", err)
	}
	if err := store.RevokeDEK("s", "dek-unknown"); !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("revoke unknown: %v", err)
	}
}

// TestRevokeDEKRequiresAuthorization: DEK-IDs are plaintext on storage, so a
// revoke is refused unless its caller is enrolled and not revoked, in
// process (Store, Local) and over TCP. The refused revokes leave the key
// fetchable by its creator.
func TestRevokeDEKRequiresAuthorization(t *testing.T) {
	store := NewStore(DefaultPolicy())
	store.Authorize("owner")
	breached := NewLocal(store, "breached")
	store.RevokeServer("breached")
	id, dek, err := store.CreateDEK("owner")
	if err != nil {
		t.Fatal(err)
	}
	if err := store.RevokeDEK("ghost", id); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("revoke by a never-enrolled server: %v", err)
	}
	if err := breached.RevokeDEK(id); !errors.Is(err, ErrRevoked) {
		t.Fatalf("revoke by a revoked server: %v", err)
	}
	if _, _, denied := store.Stats(); denied != 2 {
		t.Fatalf("denied = %d, want 2", denied)
	}

	srv, err := NewServer(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, c := range []struct {
		server string
		want   error
	}{{"ghost", ErrUnauthorized}, {"breached", ErrRevoked}} {
		client := NewClient(c.server, srv.Addr())
		err := client.RevokeDEK(id)
		client.Close()
		if !errors.Is(err, c.want) {
			t.Fatalf("revoke over TCP by %s: %v, want %v", c.server, err, c.want)
		}
	}
	if got, err := store.FetchDEK("owner", id); err != nil || got != dek {
		t.Fatalf("creator's fetch after refused revokes: %v", err)
	}
}

// A replayed create token is authorized like a fresh create: each of the
// three tests below refuses one replay the store used to answer with the
// token's key.

func TestCreateTokenReplayByRevokedServer(t *testing.T) {
	store := NewStore(DefaultPolicy())
	store.Authorize("a")
	if _, _, err := store.CreateDEKToken("a", "t1"); err != nil {
		t.Fatal(err)
	}
	store.RevokeServer("a")
	if _, _, err := store.CreateDEKToken("a", "t1"); !errors.Is(err, ErrRevoked) {
		t.Fatalf("replay by a revoked server: %v", err)
	}
	if _, _, denied := store.Stats(); denied != 1 {
		t.Fatalf("denied = %d, want 1", denied)
	}
}

func TestCreateTokenReplayByForeignServer(t *testing.T) {
	store := NewStore(DefaultPolicy())
	store.Authorize("a")
	store.Authorize("b")
	if _, _, err := store.CreateDEKToken("a", "t1"); err != nil {
		t.Fatal(err)
	}
	_, _, err := store.CreateDEKToken("b", "t1")
	if !errors.Is(err, ErrPolicyViolated) {
		t.Fatalf("replay of another server's token: %v", err)
	}
	// The sentinel survives the wire.
	resp := (&Server{store: store}).handle(wireRequest{Op: "create", ServerID: "b", Token: "t1"})
	if resp.OK || !errors.Is(mapWireError(resp.Err), ErrPolicyViolated) {
		t.Fatalf("replay over the wire: %+v", resp)
	}
	if issued, _, denied := store.Stats(); issued != 1 || denied != 2 {
		t.Fatalf("issued = %d, denied = %d; want 1, 2", issued, denied)
	}
}

func TestCreateTokenReplayOfRevokedKey(t *testing.T) {
	store := NewStore(DefaultPolicy())
	store.Authorize("a")
	id, _, err := store.CreateDEKToken("a", "t1")
	if err != nil {
		t.Fatal(err)
	}
	if err := store.RevokeDEK("a", id); err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.CreateDEKToken("a", "t1"); !errors.Is(err, ErrKeyRevoked) {
		t.Fatalf("replay of a revoked key's token: %v", err)
	}
}

func TestUnknownKey(t *testing.T) {
	store := NewStore(DefaultPolicy())
	store.Authorize("s")
	if _, err := store.FetchDEK("s", "dek-deadbeef"); !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("want ErrUnknownKey, got %v", err)
	}
}

func TestSyntheticLatency(t *testing.T) {
	store := NewStore(Policy{MaxFetches: 1, Latency: 20 * time.Millisecond})
	store.Authorize("s")
	start := time.Now()
	if _, _, err := store.CreateDEK("s"); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("latency not applied: %v", elapsed)
	}
	store = NewStore(Policy{MaxFetches: 1})
	store.Authorize("s")
	start = time.Now()
	store.CreateDEK("s")
	if elapsed := time.Since(start); elapsed > 10*time.Millisecond {
		t.Fatalf("latency applied without a Policy.Latency: %v", elapsed)
	}
}

func TestStatsCounters(t *testing.T) {
	store := NewStore(DefaultPolicy())
	store.Authorize("s")
	id, _, _ := store.CreateDEK("s")
	store.FetchDEK("s", id)
	store.FetchDEK("s", "dek-bogus")
	issued, fetched, denied := store.Stats()
	if issued != 1 || fetched != 1 || denied != 1 {
		t.Fatalf("stats issued=%d fetched=%d denied=%d", issued, fetched, denied)
	}
}

func TestNetworkClientServer(t *testing.T) {
	store := NewStore(Policy{MaxFetches: 1})
	store.Authorize("alpha")
	store.Authorize("beta")
	srv, err := NewServer(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	alpha := NewClient("alpha", srv.Addr())
	defer alpha.Close()
	beta := NewClient("beta", srv.Addr())
	defer beta.Close()

	id, dek, err := alpha.CreateDEK()
	if err != nil {
		t.Fatal(err)
	}
	got, err := beta.FetchDEK(id)
	if err != nil {
		t.Fatal(err)
	}
	if got != dek {
		t.Fatal("DEK mismatch over the wire")
	}
	// Sentinel errors survive the network boundary.
	if _, err := beta.FetchDEK(id); !errors.Is(err, ErrAlreadyIssued) {
		t.Fatalf("want ErrAlreadyIssued across network, got %v", err)
	}
	if err := alpha.RevokeDEK(id); err != nil {
		t.Fatal(err)
	}
	if _, err := alpha.FetchDEK(id); !errors.Is(err, ErrKeyRevoked) {
		t.Fatalf("want ErrKeyRevoked, got %v", err)
	}

	ghost := NewClient("ghost", srv.Addr())
	defer ghost.Close()
	if _, _, err := ghost.CreateDEK(); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("unauthorized over network: %v", err)
	}
}

func TestNetworkConcurrentClients(t *testing.T) {
	store := NewStore(Policy{MaxFetches: 0})
	store.Authorize("c")
	srv, err := NewServer(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := NewClient("c", srv.Addr())
			defer c.Close()
			for j := 0; j < 50; j++ {
				id, _, err := c.CreateDEK()
				if err != nil {
					t.Errorf("create: %v", err)
					return
				}
				if _, err := c.FetchDEK(id); err != nil {
					t.Errorf("fetch: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	issued, _, _ := store.Stats()
	if issued != 200 {
		t.Fatalf("issued %d keys, want 200", issued)
	}
}

// TestReplicaFailover: a client with a dead-first replica list fails over to
// the live one; decentralized replicas share a store.
func TestReplicaFailover(t *testing.T) {
	store := NewStore(Policy{MaxFetches: 0})
	store.Authorize("s")

	// Two replicas front the same store.
	r1, err := NewServer(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewServer(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()

	client := NewClient("s", r1.Addr(), r2.Addr())
	defer client.Close()

	id, _, err := client.CreateDEK()
	if err != nil {
		t.Fatal(err)
	}

	// Kill replica 1: the client must redial and land on replica 2.
	r1.Close()
	if _, err := client.FetchDEK(id); err != nil {
		t.Fatalf("failover fetch: %v", err)
	}

	// A key created via one replica is visible via the other (shared store).
	direct2 := NewClient("s", r2.Addr())
	defer direct2.Close()
	if _, err := direct2.FetchDEK(id); err != nil {
		t.Fatalf("cross-replica fetch: %v", err)
	}
}

func TestNoReplicaReachable(t *testing.T) {
	c := NewClient("s", "127.0.0.1:1") // nothing listens on port 1
	defer c.Close()
	if _, _, err := c.CreateDEK(); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("want ErrNoReplica, got %v", err)
	}
}

func TestClientClosed(t *testing.T) {
	store := NewStore(DefaultPolicy())
	store.Authorize("s")
	srv, _ := NewServer(store, "127.0.0.1:0")
	defer srv.Close()
	c := NewClient("s", srv.Addr())
	c.Close()
	if _, _, err := c.CreateDEK(); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

func TestKeyIDsUnique(t *testing.T) {
	store := NewStore(DefaultPolicy())
	store.Authorize("s")
	seen := make(map[KeyID]bool)
	for i := 0; i < 1000; i++ {
		id, _, err := store.CreateDEK("s")
		if err != nil {
			t.Fatal(err)
		}
		if seen[id] {
			t.Fatalf("duplicate key id %s", id)
		}
		seen[id] = true
	}
}
