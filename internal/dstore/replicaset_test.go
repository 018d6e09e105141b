package dstore

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

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
func (tc *testCluster) restart(i int) { tc.restartWith(i, tc.bases[i]) }

// restartWith brings node i back on its original address serving base,
// which may wrap the node's MemFS.
func (tc *testCluster) restartWith(i int, base vfs.FS) {
	tc.t.Helper()
	if tc.srvs[i] != nil {
		tc.kill(i)
	}
	srv, err := NewServer(base, tc.addrs[i], 0, 0)
	if err != nil {
		tc.t.Fatal(err)
	}
	tc.srvs[i] = srv
}

func (tc *testCluster) dial(quorum int) *ReplicaSet {
	tc.t.Helper()
	return tc.dialEvery(quorum, 20*time.Millisecond)
}

// dialEvery dials the set with the given re-sync interval; time.Hour leaves
// every pass to the test, through rs.resyncPass.
func (tc *testCluster) dialEvery(quorum int, every time.Duration) *ReplicaSet {
	tc.t.Helper()
	rs, err := DialReplicaSet(ReplicaConfig{
		WriteQuorum: quorum,
		Client:      fastDStoreConfig(1),
		Dirs:        []string{"db"},
		ResyncEvery: every,
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
// and requires one re-sync pass to converge all three copies — including
// adopting the open handle so post-rejoin appends reach the rejoined node
// too.
func TestReplicaRejoinResync(t *testing.T) {
	metrics.Net.Reset()
	tc := newTestCluster(t, 3)
	rs := tc.dialEvery(2, time.Hour)
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
	if rs.Replicas()[2].InSync {
		t.Fatal("replica 2 in sync before any re-sync pass")
	}
	rs.resyncPass()
	if st := rs.Replicas(); !st[2].InSync {
		t.Fatalf("replica 2 did not rejoin: %+v", st)
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

// tamperFS serves a node's MemFS, except that the opens of name for which
// flip returns true (counting from 1) read with the first byte inverted: a
// source whose bytes change between the scan's fingerprint and the copy.
type tamperFS struct {
	*vfs.MemFS
	name string
	flip func(open int) bool

	mu    sync.Mutex
	opens int
}

func (fs *tamperFS) Open(name string) (vfs.RandomAccessFile, error) {
	f, err := fs.MemFS.Open(name)
	if err != nil || name != fs.name {
		return f, err
	}
	fs.mu.Lock()
	fs.opens++
	flip := fs.flip(fs.opens)
	fs.mu.Unlock()
	if flip {
		return flippedFile{f}, nil
	}
	return f, nil
}

type flippedFile struct{ vfs.RandomAccessFile }

func (f flippedFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.RandomAccessFile.ReadAt(p, off)
	if off == 0 && n > 0 {
		p[0] ^= 0xFF
	}
	return n, err
}

// TestConvergeChangedSourceNotPromoted: a copy whose bytes do not match the
// version the scan fingerprinted is errChanged, and the target is not
// promoted on it, on the dial-time reconcile path or in phase 2 of a rejoin.
// The next pass, with the source settled, promotes it.
func TestConvergeChangedSourceNotPromoted(t *testing.T) {
	good := []byte("full acknowledged contents")
	settle := func(t *testing.T, tc *testCluster, rs *ReplicaSet) {
		t.Helper()
		if rs.Replicas()[2].InSync {
			t.Fatal("replica promoted on a copy no scan vouched for")
		}
		rs.resyncPass()
		if !rs.Replicas()[2].InSync {
			t.Fatal("replica not promoted once its source settled")
		}
		requireConverged(t, tc.bases...)
	}

	t.Run("reconcile", func(t *testing.T) {
		tc := newTestCluster(t, 3)
		for i, base := range tc.bases {
			data := good
			if i == 2 {
				data = good[:5]
			}
			if err := base.MkdirAll("db"); err != nil {
				t.Fatal(err)
			}
			if err := vfs.WriteFile(base, "db/f", data); err != nil {
				t.Fatal(err)
			}
		}
		// Node 0 is the repair's source: open 1 is the scan's Sum, open 2
		// the copy.
		tc.restartWith(0, &tamperFS{MemFS: tc.bases[0], name: "db/f", flip: func(n int) bool { return n == 2 }})
		settle(t, tc, tc.dialEvery(2, time.Hour))
	})

	t.Run("rejoin", func(t *testing.T) {
		tc := newTestCluster(t, 3)
		// Node 0 is the rejoin's source: opens 1 and 2 are phase 1's Sum and
		// copy, 3 and 4 phase 2's.
		tc.restartWith(0, &tamperFS{MemFS: tc.bases[0], name: "db/f", flip: func(n int) bool { return n == 2 || n == 4 }})
		rs := tc.dialEvery(2, time.Hour)
		if err := rs.MkdirAll("db"); err != nil {
			t.Fatal(err)
		}
		tc.kill(2)
		if err := vfs.WriteFile(rs, "db/f", good); err != nil {
			t.Fatal(err)
		}
		tc.restart(2)
		rs.resyncPass()
		settle(t, tc, rs)
	})
}

// TestConvergeFiles: converge copies what differs, skips a file its source
// lost after the scan, removes what the canonical state lacks, and reports a
// copy that does not match the scan as errChanged only after the other files
// are done.
func TestConvergeFiles(t *testing.T) {
	tc := newTestCluster(t, 2)
	rs := tc.dialEvery(1, time.Hour)
	src, target := rs.reps[0], rs.reps[1]
	for i, files := range []map[string]string{
		{"db/a": "changes under the scan", "db/b": "copied", "db/gone": "removed after the scan"},
		{"db/extra": "not canonical"},
	} {
		if err := tc.bases[i].MkdirAll("db"); err != nil {
			t.Fatal(err)
		}
		for name, data := range files {
			if err := vfs.WriteFile(tc.bases[i], name, []byte(data)); err != nil {
				t.Fatal(err)
			}
		}
	}
	scan := func(r *replica) map[string]fileVer {
		t.Helper()
		c, err := r.client()
		if err != nil {
			t.Fatal(err)
		}
		state, err := rs.scan(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		return state
	}
	want, have := scan(src), scan(target)
	want["db/a"] = fileVer{size: want["db/a"].size, sum: "the sum before it changed"}
	if err := tc.bases[0].Remove("db/gone"); err != nil {
		t.Fatal(err)
	}
	sc, _ := src.client() // dialed by the scan above

	wrote, err := rs.converge(target, have, want, func(string) *Client { return sc })
	if !errors.Is(err, errChanged) || !wrote {
		t.Fatalf("converge = (%v, %v), want (true, errChanged)", wrote, err)
	}
	if got := readBase(t, tc.bases[1], "db/b"); string(got) != "copied" {
		t.Fatalf("db/b after converge = %q", got)
	}
	for _, name := range []string{"db/gone", "db/extra"} {
		if _, err := tc.bases[1].Stat(name); !errors.Is(err, vfs.ErrNotFound) {
			t.Fatalf("%s on the target after converge: %v", name, err)
		}
	}
}

// TestResyncCountersAgree: one divergence — a file missing and an orphan
// present on replica 2 — costs the same Resyncs and ResyncBytes, globally
// and for that endpoint, whether the dial-time reconcile or a background
// rejoin repairs it. A replica that comes back identical is promoted
// without counting a re-sync.
func TestResyncCountersAgree(t *testing.T) {
	data := bytes.Repeat([]byte{9}, 10_000)
	diverged := func() *testCluster {
		tc := newTestCluster(t, 3)
		for i, base := range tc.bases {
			name, body := "db/f", data
			if i == 2 {
				name, body = "db/orphan", []byte("unacked")
			}
			if err := base.MkdirAll("db"); err != nil {
				t.Fatal(err)
			}
			if err := vfs.WriteFile(base, name, body); err != nil {
				t.Fatal(err)
			}
		}
		return tc
	}
	type counts struct{ resyncs, bytes, epResyncs, epBytes int64 }
	measure := func(addr string, repair func()) counts {
		before := metrics.Net.Snapshot()
		repair()
		after := metrics.Net.Snapshot()
		return counts{
			after.Resyncs - before.Resyncs, after.ResyncBytes - before.ResyncBytes,
			after.Endpoints[addr].Resyncs - before.Endpoints[addr].Resyncs,
			after.Endpoints[addr].ResyncBytes - before.Endpoints[addr].ResyncBytes,
		}
	}
	want := counts{1, int64(len(data)), 1, int64(len(data))}

	dialed := diverged()
	if got := measure(dialed.addrs[2], func() { dialed.dialEvery(2, time.Hour) }); got != want {
		t.Fatalf("reconcile counted %+v, want %+v", got, want)
	}

	rejoined := diverged()
	rejoined.kill(2)
	rs := rejoined.dialEvery(2, time.Hour)
	rejoined.restart(2)
	if got := measure(rejoined.addrs[2], rs.resyncPass); got != want {
		t.Fatalf("rejoin counted %+v, want %+v", got, want)
	}
	requireConverged(t, rejoined.bases...)

	rejoined.kill(2)
	if err := rs.SyncDir("db"); err != nil {
		t.Fatal(err)
	}
	rejoined.restart(2)
	if got := measure(rejoined.addrs[2], rs.resyncPass); got != (counts{}) {
		t.Fatalf("rejoin with nothing to repair counted %+v, want nothing", got)
	}
	if !rs.Replicas()[2].InSync {
		t.Fatal("identical replica not promoted")
	}
}
