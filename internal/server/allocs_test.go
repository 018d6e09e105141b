//go:build !race

package server

import (
	"bytes"
	"runtime"
	"testing"

	"shield/internal/lsm"
)

// Allocation counts mean nothing under the race detector, hence the build
// tag; `make io-path-check` runs these without -race.

// stubEngine answers from memory without allocating, so what is counted is
// what resp and server themselves allocate.
type stubEngine struct {
	value  []byte
	writes int
}

func (e *stubEngine) Get([]byte) ([]byte, error)   { return e.value, nil }
func (e *stubEngine) Write(*lsm.Batch, bool) error { e.writes++; return nil }
func (e *stubEngine) Metrics() lsm.Metrics         { return lsm.Metrics{} }

// handleMallocs runs n identical pipelines through one connection and
// returns the heap allocations of the whole handle call.
func handleMallocs(s *Server, pipeline []byte, n int) uint64 {
	c := &scriptConn{}
	for i := 0; i < n; i++ {
		c.pieces = append(c.pieces, pipeline)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.handle(&discardConn{scriptConn: c})
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// discardConn drops replies so that the test's own buffer does not grow.
type discardConn struct{ *scriptConn }

func (c *discardConn) Write(p []byte) (int, error) { return len(p), nil }

// TestServedPipelineAllocs pins the tentpole: in steady state a 16-command
// SET/GET pipeline through handle — parse, dispatch, per-shard folding,
// commit fan-out over two shards, replies, deadlines, counters — allocates
// nothing in resp or server. The count is the difference between a long and
// a short connection, which cancels the per-connection set-up.
func TestServedPipelineAllocs(t *testing.T) {
	for _, nShards := range []int{1, 2, 4} {
		engines := make([]Engine, nShards)
		for i := range engines {
			engines[i] = &stubEngine{value: bytes.Repeat([]byte("v"), 512)}
		}
		s, err := New(Config{Shards: engines})
		if err != nil {
			t.Fatal(err)
		}
		pipeline := ycsbPipeline(16)
		handleMallocs(s, pipeline, 64) // warm: goroutines to reuse, the runtime's own caches
		const extra = 2000
		short, long := handleMallocs(s, pipeline, 64), handleMallocs(s, pipeline, 64+extra)
		if per := (float64(long) - float64(short)) / extra; per > 0.02 {
			t.Errorf("%d shards: %.3f allocations per 16-command pipeline, want 0", nShards, per)
		}
		if w := engines[0].(*stubEngine).writes; w == 0 {
			t.Errorf("%d shards: the stub engine saw no writes", nShards)
		}
	}
}
