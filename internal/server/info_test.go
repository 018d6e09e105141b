package server

import (
	"os"
	"sync/atomic"
	"testing"

	"shield/internal/lsm"
	"shield/internal/metrics"
)

// infoEngine is a shard with fixed engine counters.
type infoEngine struct{}

func (infoEngine) Get([]byte) ([]byte, error)   { return nil, lsm.ErrNotFound }
func (infoEngine) Write(*lsm.Batch, bool) error { return nil }
func (infoEngine) Metrics() lsm.Metrics {
	return lsm.Metrics{Writes: 40, WALSyncs: 10, WALWritten: 4096, Gets: 7, BlockCacheHits: 5,
		BlockCacheMisses: 2, Flushes: 2, Compactions: 1}
}

// TestInfoGolden pins the INFO reply byte for byte: testdata/info.golden was
// written by the build before the counter families became declaration-driven,
// from the same counter values; the three lines of the pinned cache class and
// the prefix seek counters left it when those features were deleted, and
// nothing else moved.
func TestInfoGolden(t *testing.T) {
	n := int64(0)
	for _, c := range []*atomic.Int64{
		&metrics.Serve.ConnsOpened, &metrics.Serve.ConnsOpen, &metrics.Serve.Commands,
		&metrics.Serve.PipelineBatches, &metrics.Serve.PipelinedCmds, &metrics.Serve.WriteBatches,
		&metrics.Serve.ProtocolErrors, &metrics.Serve.SlowClientDrops,
		&metrics.Net.Retries, &metrics.Net.Timeouts, &metrics.Net.Failovers, &metrics.Net.Redials,
		&metrics.Net.DegradedWrites, &metrics.Net.DegradedReads, &metrics.Net.QuorumShortfalls,
		&metrics.Net.Resyncs, &metrics.Net.ResyncBytes,
		&metrics.Net.Endpoint("node-b:2").Failovers, &metrics.Net.Endpoint("node-b:2").Errors,
		&metrics.Net.Endpoint("node-a:1\r\n").Resyncs, &metrics.Net.Endpoint("node-a:1\r\n").ResyncBytes,
	} {
		n++
		old := c.Swap(n * 11)
		t.Cleanup(func() { c.Store(old) })
	}
	t.Cleanup(metrics.Net.Reset) // forgets the two endpoints
	s, err := New(Config{Shards: []Engine{infoEngine{}, infoEngine{}}})
	if err != nil {
		t.Fatal(err)
	}
	got := s.renderInfo()
	want, err := os.ReadFile("testdata/info.golden")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("INFO differs from the parent build's.\ngot:\n%s\nwant:\n%s", got, want)
	}
}
