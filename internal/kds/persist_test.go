package kds

import (
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"testing"

	"shield/internal/crypt"
	"shield/internal/vfs"
)

func TestPersistentStoreSurvivesRestart(t *testing.T) {
	fs := vfs.NewMem()
	master := []byte("kds-root-secret")

	ps, err := OpenPersistentStore(fs, "kds.db", master, Policy{MaxFetches: 1})
	if err != nil {
		t.Fatal(err)
	}
	ps.Authorize("owner")
	ps.Authorize("other")
	ps.RevokeServer("bad-guy")

	id, dek, err := ps.CreateDEK("owner")
	if err != nil {
		t.Fatal(err)
	}
	// Consume the one-time budget before the restart.
	if _, err := ps.FetchDEK("other", id); err != nil {
		t.Fatal(err)
	}

	// Restart.
	ps2, err := OpenPersistentStore(fs, "kds.db", master, Policy{MaxFetches: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The key survives; the owner re-fetches it.
	got, err := ps2.FetchDEK("owner", id)
	if err != nil {
		t.Fatal(err)
	}
	if got != dek {
		t.Fatal("DEK changed across restart")
	}
	// The exhausted one-time budget survives too.
	ps2.Authorize("third")
	if _, err := ps2.FetchDEK("third", id); !errors.Is(err, ErrAlreadyIssued) {
		t.Fatalf("fetch budget forgotten across restart: %v", err)
	}
	// Server revocation survives.
	if _, _, err := ps2.CreateDEK("bad-guy"); !errors.Is(err, ErrRevoked) {
		t.Fatalf("revocation forgotten: %v", err)
	}
}

func TestPersistentStoreWrongMasterKey(t *testing.T) {
	fs := vfs.NewMem()
	ps, err := OpenPersistentStore(fs, "kds.db", []byte("right"), DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	ps.Authorize("s")
	if _, _, err := ps.CreateDEK("s"); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenPersistentStore(fs, "kds.db", []byte("wrong"), DefaultPolicy()); !errors.Is(err, ErrBadMasterKey) {
		t.Fatalf("wrong master key accepted: %v", err)
	}
}

func TestPersistentStoreTamperDetected(t *testing.T) {
	fs := vfs.NewMem()
	master := []byte("m")
	ps, err := OpenPersistentStore(fs, "kds.db", master, DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	ps.Authorize("s")
	ps.CreateDEK("s")

	data, err := vfs.ReadFile(fs, "kds.db")
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	vfs.WriteFile(fs, "kds.db", data)
	if _, err := OpenPersistentStore(fs, "kds.db", master, DefaultPolicy()); !errors.Is(err, ErrBadMasterKey) {
		t.Fatalf("tampered snapshot accepted: %v", err)
	}
}

func TestPersistentStoreNoPlaintextKeys(t *testing.T) {
	fs := vfs.NewMem()
	ps, err := OpenPersistentStore(fs, "kds.db", []byte("m"), DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	ps.Authorize("s")
	id, dek, err := ps.CreateDEK("s")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := vfs.ReadFile(fs, "kds.db")
	if containsBytes(data, dek[:]) || containsBytes(data, []byte(hex.EncodeToString(dek[:]))) || containsBytes(data, []byte(id)) {
		t.Fatal("plaintext key material in the KDS snapshot")
	}
}

func containsBytes(haystack, needle []byte) bool {
	if len(needle) == 0 {
		return false
	}
outer:
	for i := 0; i+len(needle) <= len(haystack); i++ {
		for j := range needle {
			if haystack[i+j] != needle[j] {
				continue outer
			}
		}
		return true
	}
	return false
}

// TestPersistentStoreBehindServer: the persistent backend plugs into the
// network front end unchanged.
func TestPersistentStoreBehindServer(t *testing.T) {
	fs := vfs.NewMem()
	ps, err := OpenPersistentStore(fs, "kds.db", []byte("m"), Policy{MaxFetches: 0})
	if err != nil {
		t.Fatal(err)
	}
	ps.Authorize("c")
	srv, err := NewServer(ps, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient("c", srv.Addr())
	id, dek, err := client.CreateDEK()
	if err != nil {
		t.Fatal(err)
	}
	client.Close()
	srv.Close()

	// Cold restart of the whole KDS node.
	ps2, err := OpenPersistentStore(fs, "kds.db", []byte("m"), Policy{MaxFetches: 0})
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := NewServer(ps2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	client2 := NewClient("c", srv2.Addr())
	defer client2.Close()
	got, err := client2.FetchDEK(id)
	if err != nil {
		t.Fatal(err)
	}
	if got != dek {
		t.Fatal("DEK lost across KDS node restart")
	}
}

// TestConcurrentIssuersAllPersist: issuers that race in CreateDEK must each
// succeed, and every DEK one of them was handed must be in the snapshot a
// restart loads — none failed by a sibling's rename of a shared temp file,
// none dropped because an older snapshot landed over a newer one.
func TestConcurrentIssuersAllPersist(t *testing.T) {
	fs := vfs.NewMem()
	master := []byte("kds-root-secret")
	ps, err := OpenPersistentStore(fs, "kds.db", master, DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	const issuers, perIssuer = 8, 40
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		issued = make(map[KeyID]crypt.DEK)
	)
	for i := 0; i < issuers; i++ {
		server := fmt.Sprintf("compute-%d", i)
		ps.Authorize(server)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perIssuer; j++ {
				id, dek, err := ps.CreateDEK(server)
				if err != nil {
					t.Errorf("%s: CreateDEK %d: %v", server, j, err)
					return
				}
				mu.Lock()
				issued[id] = dek
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	assertAllPersisted(t, fs, master, issued, "after the run")
	if infos, _ := fs.List("."); len(infos) != 1 {
		t.Errorf("files left beside the snapshot: %v", infos)
	}
}

// assertAllPersisted reopens the store from fs and checks that every DEK in
// acked is there, unchanged.
func assertAllPersisted(t *testing.T, fs vfs.FS, master []byte, acked map[KeyID]crypt.DEK, when string) {
	t.Helper()
	ps, err := OpenPersistentStore(fs, "kds.db", master, DefaultPolicy())
	if err != nil {
		t.Fatalf("%s: reopen: %v", when, err)
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for id, dek := range acked {
		if e := ps.keys[id]; e == nil {
			t.Fatalf("%s: acknowledged DEK %s is gone (%d of %d keys on disk)", when, id, len(ps.keys), len(acked))
		} else if e.dek != dek {
			t.Fatalf("%s: DEK %s changed", when, id)
		}
	}
}

// TestNoAckedDEKLostAtAnyCrashPoint enumerates every durability boundary of
// a run with concurrent issuers. In the image of each one, strict or torn,
// every DEK whose CreateDEK had returned before the boundary must load: a
// returned CreateDEK means the key may already protect a file.
func TestNoAckedDEKLostAtAnyCrashPoint(t *testing.T) {
	cfs := vfs.NewCrash(17)
	master := []byte("kds-root-secret")
	var (
		mu     sync.Mutex
		acked  = make(map[KeyID]crypt.DEK)
		points []crashPoint
	)
	cfs.AfterSync(func(event string, img *vfs.CrashImage) {
		mu.Lock()
		defer mu.Unlock()
		p := crashPoint{event: event, img: img, acked: make(map[KeyID]crypt.DEK, len(acked))}
		for id, dek := range acked {
			p.acked[id] = dek
		}
		points = append(points, p)
	})
	ps, err := OpenPersistentStore(cfs, "kds.db", master, DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		server := fmt.Sprintf("compute-%d", i)
		ps.Authorize(server)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 6; j++ {
				id, dek, err := ps.CreateDEK(server)
				if err != nil {
					t.Errorf("%s: CreateDEK %d: %v", server, j, err)
					return
				}
				mu.Lock()
				acked[id] = dek
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if len(points) < 4*6 {
		t.Fatalf("only %d crash points for %d issues", len(points), 4*6)
	}
	for i, p := range points {
		when := fmt.Sprintf("crash point %d (%s)", i, p.event)
		assertAllPersisted(t, p.img.Strict(), master, p.acked, when+", strict")
		assertAllPersisted(t, p.img.Torn(int64(i)), master, p.acked, when+", torn")
	}
}

// crashPoint is one durability boundary: the image a crash there leaves, and
// the DEKs whose issue had been acknowledged by then.
type crashPoint struct {
	event string
	img   *vfs.CrashImage
	acked map[KeyID]crypt.DEK
}
