package kds

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"shield/internal/crypt"
	"shield/internal/vfs"
)

// TestCreateBytesConstant: the bytes a CreateDEK writes do not grow with
// the key table. A create that does not checkpoint (it creates no file)
// writes the same bytes with 100 live keys as with 10 000, so does a
// foreign server's budget use, and over the whole fill the bytes per create
// stay within four times that figure. A creator's re-fetch and a denied
// request write nothing. Only the public API and the CountingFS are used,
// so the test runs against any build of the store.
func TestCreateBytesConstant(t *testing.T) {
	if testing.Short() {
		t.Skip("fills a key table of 10 000 DEKs")
	}
	create, fetch := map[int]int64{}, map[int]int64{}
	for _, live := range []int{100, 10000} {
		fs := vfs.NewCounting(vfs.NewMem())
		ps, err := OpenPersistentStore(fs, "kds.db", []byte("m"), Policy{MaxFetches: 1})
		if err != nil {
			t.Fatal(err)
		}
		ps.Authorize("compute-1")
		ps.Authorize("compute-2")
		var (
			ids       []KeyID
			fillBytes int64
		)
		// Fill to the live size, then create until a create appends.
		for i := 0; len(ids) < live || create[live] == 0; i++ {
			if i > 3*live+1000 {
				t.Fatalf("%d live: every CreateDEK of %d rewrote the key table", live, i)
			}
			before := fs.Stats.Snapshot()
			id, _, err := ps.CreateDEK("compute-1")
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
			d := fs.Stats.Snapshot().Sub(before)
			fillBytes += d.BytesWritten
			if len(ids) >= live && d.Creates == 0 {
				create[live] = d.BytesWritten
			}
		}
		if avg := float64(fillBytes) / float64(len(ids)); avg > 4*float64(create[live]) {
			t.Errorf("%d live: %.1f bytes per create over the fill, more than four times the %d of an appending one", live, avg, create[live])
		}

		writes := func(what string, call func() error, wantErr bool) int64 {
			before := fs.Stats.Snapshot()
			if err := call(); (err != nil) != wantErr {
				t.Fatalf("%d live: %s: %v", live, what, err)
			}
			return fs.Stats.Snapshot().Sub(before).BytesWritten
		}
		if n := writes("creator's re-fetch", func() error { _, err := ps.FetchDEK("compute-1", ids[0]); return err }, false); n != 0 {
			t.Errorf("%d live: a creator's re-fetch wrote %d bytes", live, n)
		}
		if n := writes("denied fetch", func() error { _, err := ps.FetchDEK("stranger", ids[0]); return err }, true); n != 0 {
			t.Errorf("%d live: a denied fetch wrote %d bytes", live, n)
		}
		fetch[live] = writes("foreign fetch", func() error { _, err := ps.FetchDEK("compute-2", ids[1]); return err }, false)
		if n := writes("spent fetch", func() error { _, err := ps.FetchDEK("compute-2", ids[1]); return err }, true); n != 0 {
			t.Errorf("%d live: a fetch past the budget wrote %d bytes", live, n)
		}
		t.Logf("%d live: %d bytes per appending create, %.1f per create over the fill, %d per budget use",
			live, create[live], float64(fillBytes)/float64(len(ids)), fetch[live])
	}
	if create[100] != create[10000] {
		t.Errorf("an appending CreateDEK writes %d bytes with 100 live keys and %d with 10 000", create[100], create[10000])
	}
	if fetch[100] != fetch[10000] || fetch[100] == 0 {
		t.Errorf("a budget use writes %d bytes with 100 live keys and %d with 10 000", fetch[100], fetch[10000])
	}
}

// TestSecurityStateSurvivesAnyCrashPoint enumerates every durability
// boundary of a run in which concurrent servers issue keys, spend one-time
// budgets, revoke keys, and enroll and revoke servers, long enough to
// checkpoint. In the image of each one, strict or torn, every budget use,
// key revoke and server revoke whose call had returned must hold after a
// reopen: a crash never re-opens one-time provisioning or un-revokes
// anything, and a revoked key's bytes stay wiped.
func TestSecurityStateSurvivesAnyCrashPoint(t *testing.T) {
	type acked struct {
		spent, revoked map[KeyID]bool
		revokedSrv     map[string]bool
	}
	type point struct {
		event string
		img   *vfs.CrashImage
		acked acked
	}
	cfs := vfs.NewCrash(23)
	master := []byte("kds-root-secret")
	var (
		mu       sync.Mutex
		state    = acked{map[KeyID]bool{}, map[KeyID]bool{}, map[string]bool{}}
		points   []point
		syncDirs int
	)
	cfs.AfterSync(func(event string, img *vfs.CrashImage) {
		mu.Lock()
		defer mu.Unlock()
		if strings.HasPrefix(event, "syncdir:") {
			syncDirs++
		}
		cp := acked{map[KeyID]bool{}, map[KeyID]bool{}, map[string]bool{}}
		for id := range state.spent {
			cp.spent[id] = true
		}
		for id := range state.revoked {
			cp.revoked[id] = true
		}
		for srv := range state.revokedSrv {
			cp.revokedSrv[srv] = true
		}
		points = append(points, point{event, img, cp})
	})
	ps, err := OpenPersistentStore(cfs, "kds.db", master, Policy{MaxFetches: 1})
	if err != nil {
		t.Fatal(err)
	}
	note := func(m map[KeyID]bool, id KeyID) {
		mu.Lock()
		m[id] = true
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		owner, reader := fmt.Sprintf("owner-%d", g), fmt.Sprintf("reader-%d", g)
		ps.Authorize(owner)
		ps.Authorize(reader)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 14; i++ {
				id, _, err := ps.CreateDEK(owner)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := ps.FetchDEK(reader, id); err != nil {
					t.Error(err)
					return
				}
				note(state.spent, id)
				if i%3 == 0 {
					if err := ps.RevokeDEK(owner, id); err != nil {
						t.Error(err)
						return
					}
					note(state.revoked, id)
				}
				if i%4 == 0 {
					srv := fmt.Sprintf("breached-%d-%d", g, i)
					ps.Authorize(srv)
					if err := ps.RevokeServer(srv); err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					state.revokedSrv[srv] = true
					mu.Unlock()
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if syncDirs < 2 {
		t.Fatalf("%d checkpoints in the run, want Open's and at least one more", syncDirs)
	}
	for i, p := range points {
		for _, mode := range []string{"strict", "torn"} {
			img := p.img.Strict()
			if mode == "torn" {
				img = p.img.Torn(int64(i))
			}
			when := fmt.Sprintf("crash point %d (%s), %s", i, p.event, mode)
			s, err := OpenPersistentStore(img, "kds.db", master, Policy{MaxFetches: 1})
			if err != nil {
				t.Fatalf("%s: reopen: %v", when, err)
			}
			s.Authorize("late-reader")
			for id := range p.acked.spent {
				if _, err := s.FetchDEK("late-reader", id); !errors.Is(err, ErrAlreadyIssued) && !errors.Is(err, ErrKeyRevoked) {
					t.Fatalf("%s: spent one-time budget of %s re-opened: %v", when, id, err)
				}
			}
			for id := range p.acked.revoked {
				if _, err := s.FetchDEK(s.keys[id].creator, id); !errors.Is(err, ErrKeyRevoked) {
					t.Fatalf("%s: revoked key %s served again: %v", when, id, err)
				}
				if s.keys[id].dek != (crypt.DEK{}) {
					t.Fatalf("%s: revoked key %s holds its bytes", when, id)
				}
			}
			for srv := range p.acked.revokedSrv {
				if _, _, err := s.CreateDEK(srv); !errors.Is(err, ErrRevoked) {
					t.Fatalf("%s: revoked server %s served again: %v", when, srv, err)
				}
			}
		}
	}
	t.Logf("%d crash points, %d checkpoints", len(points), syncDirs)
}

// TestRevokeLeavesTombstone: a revoked key's bytes are wiped at once, its
// ID stays refused to FetchDEK and to a replayed create token, and after
// the checkpoint a reopen writes the file keeps its ID, creator and fetch
// count but no key bytes, and the reopened store still refuses it.
func TestRevokeLeavesTombstone(t *testing.T) {
	fs := vfs.NewMem()
	master := []byte("m")
	ps, err := OpenPersistentStore(fs, "kds.db", master, Policy{MaxFetches: 2})
	if err != nil {
		t.Fatal(err)
	}
	ps.Authorize("owner")
	ps.Authorize("reader")
	id, dek, err := ps.CreateDEKToken("owner", "tok-1")
	if err != nil {
		t.Fatal(err)
	}
	kept, keptDEK, err := ps.CreateDEK("owner")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ps.FetchDEK("reader", id); err != nil {
		t.Fatal(err)
	}
	if err := ps.RevokeDEK("owner", id); err != nil {
		t.Fatal(err)
	}
	if ps.keys[id].dek != (crypt.DEK{}) {
		t.Fatal("a revoked key keeps its bytes in memory")
	}
	if _, err := ps.FetchDEK("owner", id); !errors.Is(err, ErrKeyRevoked) {
		t.Fatalf("FetchDEK of a revoked key: %v", err)
	}
	if _, _, err := ps.CreateDEKToken("owner", "tok-1"); !errors.Is(err, ErrKeyRevoked) {
		t.Fatalf("replayed create token of a revoked key: %v", err)
	}
	// A reopen checkpoints.
	ps2, err := OpenPersistentStore(fs, "kds.db", master, Policy{MaxFetches: 2})
	if err != nil {
		t.Fatal(err)
	}
	data, err := vfs.ReadFile(fs, "kds.db")
	if err != nil {
		t.Fatal(err)
	}
	var recs [][]byte
	r, err := crypt.NewRecordReader(data, logMagic, 0, func([]byte) (crypt.DEK, error) { return logKey(master) })
	if err != nil {
		t.Fatal(err)
	}
	if err := crypt.ReplayStateLog(r, func(rec []byte) error { recs = append(recs, append([]byte(nil), rec...)); return nil }); err != nil {
		t.Fatal(err)
	}
	var tomb, live bool
	for _, rec := range recs {
		if bytes.Contains(rec, dek[:]) {
			t.Fatal("the checkpoint holds the revoked key's bytes")
		}
		tomb = tomb || rec[0] == recTombstone && bytes.Contains(rec, []byte(id)) && bytes.HasSuffix(rec, []byte("owner"))
		live = live || rec[0] == recKey && bytes.Contains(rec, keptDEK[:])
	}
	if !tomb || !live {
		t.Fatalf("checkpoint of %d records: tombstone %v, live key %v", len(recs), tomb, live)
	}

	if _, err := ps2.FetchDEK("owner", id); !errors.Is(err, ErrKeyRevoked) {
		t.Fatalf("revoked key after reopen: %v", err)
	}
	if e := ps2.keys[id]; e.fetches != 1 || e.creator != "owner" {
		t.Fatalf("tombstone after reopen: fetches %d, creator %q", e.fetches, e.creator)
	}
	if got, err := ps2.FetchDEK("owner", kept); err != nil || got != keptDEK {
		t.Fatalf("live key after reopen: %v", err)
	}
}
