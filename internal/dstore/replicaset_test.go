package dstore

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"time"

	"shield/internal/crypt"
	"shield/internal/metrics"
	"shield/internal/vfs"
)

// testCluster is N storage nodes over individual MemFS bases, restartable
// on their original addresses.
type testCluster struct {
	t     *testing.T
	bases []*vfs.MemFS
	srvs  []*Server
	addrs []string
}

func newTestCluster(t *testing.T, n int) *testCluster {
	t.Helper()
	tc := &testCluster{t: t}
	for i := 0; i < n; i++ {
		base := vfs.NewMem()
		srv, err := NewServer(base, "127.0.0.1:0", 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		tc.bases = append(tc.bases, base)
		tc.srvs = append(tc.srvs, srv)
		tc.addrs = append(tc.addrs, srv.Addr())
	}
	t.Cleanup(tc.closeAll)
	return tc
}

func (tc *testCluster) closeAll() {
	for _, s := range tc.srvs {
		if s != nil {
			s.Close()
		}
	}
}

func (tc *testCluster) kill(i int) {
	tc.t.Helper()
	if err := tc.srvs[i].Close(); err != nil {
		tc.t.Fatal(err)
	}
	tc.srvs[i] = nil
}

// restart brings node i back on its original address with its MemFS intact
// (the node lost its process, not its disk).
func (tc *testCluster) restart(i int) {
	tc.t.Helper()
	srv, err := NewServer(tc.bases[i], tc.addrs[i], 0, 0)
	if err != nil {
		tc.t.Fatal(err)
	}
	tc.srvs[i] = srv
}

func (tc *testCluster) dial(quorum int) *ReplicaSet {
	tc.t.Helper()
	rs, err := DialReplicaSet(ReplicaConfig{
		WriteQuorum: quorum,
		Client:      fastDStoreConfig(1),
		Dirs:        []string{"db"},
		ResyncEvery: 20 * time.Millisecond,
	}, tc.addrs...)
	if err != nil {
		tc.t.Fatal(err)
	}
	tc.t.Cleanup(func() { rs.Close() })
	return rs
}

func readBase(t *testing.T, base *vfs.MemFS, name string) []byte {
	t.Helper()
	data, err := vfs.ReadFile(base, name)
	if err != nil {
		t.Fatalf("reading %s: %v", name, err)
	}
	return data
}

// requireConverged asserts the given bases hold byte-identical copies of
// every file under db.
func requireConverged(t *testing.T, bases ...*vfs.MemFS) {
	t.Helper()
	ref, err := bases[0].List("db")
	if err != nil {
		t.Fatal(err)
	}
	for i, base := range bases[1:] {
		infos, err := base.List("db")
		if err != nil {
			t.Fatalf("replica %d: %v", i+1, err)
		}
		if len(infos) != len(ref) {
			t.Fatalf("replica %d has %d files, replica 0 has %d", i+1, len(infos), len(ref))
		}
		for _, fi := range ref {
			want := readBase(t, bases[0], "db/"+fi.Name)
			got := readBase(t, base, "db/"+fi.Name)
			if !bytes.Equal(want, got) {
				t.Fatalf("replica %d diverges on db/%s: %d vs %d bytes", i+1, fi.Name, len(got), len(want))
			}
		}
	}
}

func TestReplicaSetFanOutRoundTrip(t *testing.T) {
	tc := newTestCluster(t, 3)
	rs := tc.dial(2)

	if err := rs.MkdirAll("db"); err != nil {
		t.Fatal(err)
	}
	payload := []byte("replicated once, present thrice")
	f, err := rs.Create("db/a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rs.SyncDir("db"); err != nil {
		t.Fatal(err)
	}
	requireConverged(t, tc.bases...)

	r, err := rs.Open("db/a")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(payload))
	if _, err := r.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	r.Close()
	if !bytes.Equal(buf, payload) {
		t.Fatalf("read %q, want %q", buf, payload)
	}

	if err := rs.Rename("db/a", "db/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Stat("db/b"); err != nil {
		t.Fatal(err)
	}
	if err := rs.Remove("db/b"); err != nil {
		t.Fatal(err)
	}
	if err := rs.Remove("db/b"); !errors.Is(err, vfs.ErrNotFound) {
		t.Fatalf("double remove = %v, want ErrNotFound (consistent refusal)", err)
	}
	requireConverged(t, tc.bases...)

	for _, st := range rs.Replicas() {
		if !st.InSync {
			t.Fatalf("replica %s not in sync after clean workload", st.Addr)
		}
	}
}

// TestReplicaKillMidWorkload kills one of three replicas mid-stream: every
// acknowledged write must survive, reads must fail over (observable in the
// failover counter), and the dead replica must be demoted out of the
// read/quorum set.
func TestReplicaKillMidWorkload(t *testing.T) {
	metrics.Net.Reset()
	tc := newTestCluster(t, 3)
	rs := tc.dial(2)
	if err := rs.MkdirAll("db"); err != nil {
		t.Fatal(err)
	}

	write := func(name string, data []byte) {
		t.Helper()
		f, err := rs.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	var want [][]byte
	for i := 0; i < 4; i++ {
		data := bytes.Repeat([]byte{byte('a' + i)}, 100+i)
		write(fmt.Sprintf("db/f%d", i), data)
		want = append(want, data)
	}

	// Force the sticky read preference onto replica 0, then kill it.
	if _, err := rs.Stat("db/f0"); err != nil {
		t.Fatal(err)
	}
	tc.kill(0)

	// Writes keep succeeding on the surviving quorum.
	for i := 4; i < 8; i++ {
		data := bytes.Repeat([]byte{byte('a' + i)}, 100+i)
		write(fmt.Sprintf("db/f%d", i), data)
		want = append(want, data)
	}
	// Every acknowledged write is readable (read-any fails over off the
	// dead preferred replica).
	for i, data := range want {
		r, err := rs.Open(fmt.Sprintf("db/f%d", i))
		if err != nil {
			t.Fatalf("open db/f%d after kill: %v", i, err)
		}
		buf := make([]byte, len(data))
		if _, err := r.ReadAt(buf, 0); err != nil && err != io.EOF {
			t.Fatalf("read db/f%d after kill: %v", i, err)
		}
		r.Close()
		if !bytes.Equal(buf, data) {
			t.Fatalf("db/f%d lost or corrupted after replica kill", i)
		}
	}

	snap := metrics.Net.Snapshot()
	if snap.Failovers == 0 {
		t.Fatal("no failover recorded despite killing the preferred replica")
	}
	var demoted bool
	for _, st := range rs.Replicas() {
		if st.Addr == tc.addrs[0] && !st.InSync {
			demoted = true
		}
	}
	if !demoted {
		t.Fatal("killed replica still marked in-sync after failed writes")
	}
	// The two survivors hold identical, complete copies.
	requireConverged(t, tc.bases[1], tc.bases[2])
	metrics.Net.Reset()
}

// TestReplicaRejoinResync kills a replica, keeps writing (including to a
// long-lived open handle, WAL-style), restarts the node with its old disk,
// and requires the background re-sync to converge all three copies —
// including adopting the open handle so post-rejoin appends reach the
// rejoined node too.
func TestReplicaRejoinResync(t *testing.T) {
	metrics.Net.Reset()
	tc := newTestCluster(t, 3)
	rs := tc.dial(2)
	if err := rs.MkdirAll("db"); err != nil {
		t.Fatal(err)
	}

	wal, err := rs.Create("db/wal")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wal.Write([]byte("epoch-1|")); err != nil {
		t.Fatal(err)
	}
	if err := wal.Sync(); err != nil {
		t.Fatal(err)
	}

	tc.kill(2)

	// Mutations while node 2 is down: a new SST and more WAL appends.
	if err := vfs.WriteFile(rs, "db/sst1", bytes.Repeat([]byte{7}, 4096)); err != nil {
		t.Fatal(err)
	}
	if _, err := wal.Write([]byte("epoch-2|")); err != nil {
		t.Fatal(err)
	}
	if err := wal.Sync(); err != nil {
		t.Fatal(err)
	}

	tc.restart(2)

	deadline := time.Now().Add(5 * time.Second)
	for {
		st := rs.Replicas()
		if st[2].InSync {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica 2 never rejoined: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Appends after the rejoin must reach the adopted branch on node 2.
	if _, err := wal.Write([]byte("epoch-3|")); err != nil {
		t.Fatal(err)
	}
	if err := wal.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	requireConverged(t, tc.bases...)
	if got := string(readBase(t, tc.bases[2], "db/wal")); got != "epoch-1|epoch-2|epoch-3|" {
		t.Fatalf("rejoined replica WAL = %q", got)
	}
	snap := metrics.Net.Snapshot()
	if snap.Resyncs == 0 || snap.ResyncBytes == 0 {
		t.Fatalf("re-sync not recorded: resyncs=%d resync_bytes=%d", snap.Resyncs, snap.ResyncBytes)
	}
	if ep, ok := snap.Endpoints[tc.addrs[2]]; !ok || ep.ResyncBytes == 0 {
		t.Fatalf("per-endpoint resync bytes missing for %s: %+v", tc.addrs[2], snap.Endpoints)
	}
	metrics.Net.Reset()
}

// TestReplicaSetSeqDedupAcrossRedial puts one replica behind a proxy that
// swallows a response after the write was applied node-side: the branch
// client must redial and retry, and the server-side sequence dedup must
// keep that replica byte-identical to the others (no double-applied
// packet).
func TestReplicaSetSeqDedupAcrossRedial(t *testing.T) {
	tc := newTestCluster(t, 2)
	// Response #3 through the proxy: OpCreate, first OpWrite, so the
	// second OpWrite's response is lost after being applied.
	proxy := newDropResponseNProxy(t, tc.addrs[0], 3)
	rs, err := DialReplicaSet(ReplicaConfig{
		WriteQuorum: 2,
		Client:      fastDStoreConfig(1),
		Dirs:        []string{"db"},
		ResyncEvery: 20 * time.Millisecond,
	}, proxy.addr(), tc.addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	if err := rs.MkdirAll("db"); err != nil {
		t.Fatal(err)
	}
	f, err := rs.Create("db/wal")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := f.Write(bytes.Repeat([]byte{byte('x' + i)}, 32)); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatalf("sync %d across dropped response: %v", i, err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	a := readBase(t, tc.bases[0], "db/wal")
	b := readBase(t, tc.bases[1], "db/wal")
	if !bytes.Equal(a, b) {
		t.Fatalf("replicas diverged across redial: %d vs %d bytes", len(a), len(b))
	}
	if len(a) != 96 {
		t.Fatalf("replica holds %d bytes, want 96 (packet applied exactly once)", len(a))
	}
}

// TestQuorumLossFailsWritesServesReads kills every replica but one with
// quorum 2: mutations must refuse with ErrNoQuorum while reads keep being
// served by the survivor.
func TestQuorumLossFailsWritesServesReads(t *testing.T) {
	tc := newTestCluster(t, 3)
	rs := tc.dial(2)
	if err := rs.MkdirAll("db"); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(rs, "db/keep", []byte("still served")); err != nil {
		t.Fatal(err)
	}

	tc.kill(0)
	tc.kill(1)

	// Drive writes until both dead replicas are demoted; each write is
	// allowed to fail while the set is still discovering the outage.
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := vfs.WriteFile(rs, "db/probe", []byte("probe"))
		inSync := 0
		for _, st := range rs.Replicas() {
			if st.InSync {
				inSync++
			}
		}
		if inSync == 1 {
			if err == nil {
				t.Fatal("write acknowledged without quorum")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dead replicas never demoted (last write err: %v)", err)
		}
	}
	if err := vfs.WriteFile(rs, "db/after", []byte("x")); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("write below quorum = %v, want ErrNoQuorum", err)
	}

	data, err := vfs.ReadFile(rs, "db/keep")
	if err != nil {
		t.Fatalf("read below write quorum should still be served: %v", err)
	}
	if string(data) != "still served" {
		t.Fatalf("read returned %q", data)
	}
}

// TestDialReconcileMajority starts three nodes whose disks disagree — two
// hold the acknowledged state, one lags with a shorter file and an extra
// orphan — and requires DialReplicaSet to repair the minority to the
// majority version before returning.
func TestDialReconcileMajority(t *testing.T) {
	tc := newTestCluster(t, 3)
	good := []byte("full acknowledged contents")
	for _, base := range tc.bases[:2] {
		if err := base.MkdirAll("db"); err != nil {
			t.Fatal(err)
		}
		if err := vfs.WriteFile(base, "db/f", good); err != nil {
			t.Fatal(err)
		}
	}
	if err := tc.bases[2].MkdirAll("db"); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(tc.bases[2], "db/f", good[:5]); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(tc.bases[2], "db/orphan", []byte("unacked")); err != nil {
		t.Fatal(err)
	}

	rs := tc.dial(2)
	requireConverged(t, tc.bases...)
	if got := readBase(t, tc.bases[2], "db/f"); !bytes.Equal(got, good) {
		t.Fatalf("lagging replica not repaired: %q", got)
	}
	if _, err := tc.bases[2].Stat("db/orphan"); !errors.Is(err, vfs.ErrNotFound) {
		t.Fatalf("unacked orphan survived reconcile: %v", err)
	}
	for _, st := range rs.Replicas() {
		if !st.InSync {
			t.Fatalf("replica %s not in sync after reconcile", st.Addr)
		}
	}
}

// TestDigestAllCatchesDivergence seals a file through the set, then tampers
// with one replica's copy behind the set's back: the all-replica audit must
// refuse with a divergence error even though single-replica reads of the
// untampered copies still pass.
func TestDigestAllCatchesDivergence(t *testing.T) {
	tc := newTestCluster(t, 3)
	rs := tc.dial(2)
	if err := rs.MkdirAll("db"); err != nil {
		t.Fatal(err)
	}

	dek, err := crypt.NewDEK()
	if err != nil {
		t.Fatal(err)
	}
	sealer, err := crypt.NewSealer(dek, []byte("prefix00"), []byte("hdr"))
	if err != nil {
		t.Fatal(err)
	}
	header := bytes.Repeat([]byte{0x5A}, 100)
	payload := make([]byte, 2*crypt.SealedBlockSize+77)
	rand.New(rand.NewSource(42)).Read(payload)

	f, err := rs.Create("db/sst")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(header); err != nil {
		t.Fatal(err)
	}
	w := crypt.NewSealedWriter(f, sealer, 0, 0)
	if _, err := w.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	want, ok := w.FileDigest()
	if !ok {
		t.Fatal("writer has no digest")
	}

	got, err := rs.DigestAll("db/sst", int64(len(header)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("agreed digest %x != writer digest %x", got, want)
	}

	// Tamper with replica 1's copy directly on its disk (the set never
	// sees the mutation), flipping a tag byte so the chain changes.
	raw := readBase(t, tc.bases[1], "db/sst")
	raw[len(header)+crypt.SealedBlockSize] ^= 0xFF
	if err := vfs.WriteFile(tc.bases[1], "db/sst", raw); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.DigestAll("db/sst", int64(len(header))); err == nil {
		t.Fatal("divergence audit passed with a tampered replica")
	}
}
