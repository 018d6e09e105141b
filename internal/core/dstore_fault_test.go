package core

import (
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"shield/internal/dstore"
	"shield/internal/kds"
	"shield/internal/netretry"
	"shield/internal/vfs"
)

// flakyProxy forwards TCP traffic to upstream but drops every dropEveryN-th
// upstream->client payload and kills that connection, so responses keep
// getting lost for the whole run.
type flakyProxy struct {
	ln       net.Listener
	upstream string
	every    int

	mu   sync.Mutex
	seen int
}

func newFlakyProxy(t *testing.T, upstream string, every int) *flakyProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &flakyProxy{ln: ln, upstream: upstream, every: every}
	go p.serve()
	t.Cleanup(func() { ln.Close() })
	return p
}

func (p *flakyProxy) addr() string { return p.ln.Addr().String() }

func (p *flakyProxy) serve() {
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		go p.handle(conn)
	}
}

func (p *flakyProxy) handle(conn net.Conn) {
	up, err := net.Dial("tcp", p.upstream)
	if err != nil {
		conn.Close()
		return
	}
	go func() {
		io.Copy(up, conn) //nolint:errcheck
		up.Close()
	}()
	buf := make([]byte, 64<<10)
	for {
		n, err := up.Read(buf)
		if err != nil {
			conn.Close()
			up.Close()
			return
		}
		p.mu.Lock()
		p.seen++
		drop := p.seen%p.every == 0
		p.mu.Unlock()
		if drop {
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

// TestDBOverFlakyDStoreLink runs an encrypted database on disaggregated
// storage through a link that keeps dropping responses, forcing connection
// discards and retried (sequence-deduplicated) writes during flush and
// compaction. Every write must complete and every byte must read back,
// i.e. no lost, duplicated, or torn appends.
func TestDBOverFlakyDStoreLink(t *testing.T) {
	storageFS := vfs.NewMem()
	storage, err := dstore.NewServer(storageFS, "127.0.0.1:0", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer storage.Close()
	proxy := newFlakyProxy(t, storage.Addr(), 7)

	remote, err := dstore.DialConfig(proxy.addr(), dstore.Config{
		Conns: 2,
		Policy: netretry.Policy{
			DialTimeout:    200 * time.Millisecond,
			RequestTimeout: 2 * time.Second,
			BackoffBase:    time.Millisecond,
			BackoffMax:     10 * time.Millisecond,
		},
		MaxAttempts: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	store := kds.NewStore(kds.DefaultPolicy())
	cfg := Config{
		Mode: ModeSHIELD, FS: remote,
		KDS:           kds.NewLocal(store, "compute-1"),
		WALBufferSize: 512,
	}
	db, err := Open("db", cfg, smallOpts())
	if err != nil {
		t.Fatal(err)
	}

	const puts = 4000
	for i := 0; i < puts; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%06d", i)), []byte(fmt.Sprintf("value-%06d", i))); err != nil {
			t.Fatalf("Put %d over flaky link: %v", i, err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatalf("Flush over flaky link: %v", err)
	}
	for _, i := range []int{0, 1, puts / 2, puts - 1} {
		v, err := db.Get([]byte(fmt.Sprintf("k%06d", i)))
		if err != nil || string(v) != fmt.Sprintf("value-%06d", i) {
			t.Fatalf("Get k%06d = %q, %v", i, v, err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen over a clean connection straight to the server and verify the
	// persisted state is intact end to end.
	remote2, err := dstore.Dial(storage.Addr(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer remote2.Close()
	cfg2 := cfg
	cfg2.FS = remote2
	db2, err := Open("db", cfg2, smallOpts())
	if err != nil {
		t.Fatalf("reopen after flaky run: %v", err)
	}
	defer db2.Close()
	for _, i := range []int{0, puts / 3, puts - 1} {
		v, err := db2.Get([]byte(fmt.Sprintf("k%06d", i)))
		if err != nil || string(v) != fmt.Sprintf("value-%06d", i) {
			t.Fatalf("reopened Get k%06d = %q, %v", i, v, err)
		}
	}
}
