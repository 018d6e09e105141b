package metrics

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// The five process-wide counter families (see counters.go): the sets call
// sites report into, then the live and the snapshot type of each family and
// of one endpoint's counters. The zero value of a live set is ready to use.
var (
	Engine   = &EngineCounters{}
	Recovery = &RecoveryCounters{}
	Serve    = &ServeCounters{}
	Storage  = &StorageCounters{}
	Net      = &NetCounters{}
)

type (
	EngineCounters   engine[atomic.Int64]
	EngineSnapshot   engine[int64]
	RecoveryCounters recovery[atomic.Int64]
	ServeCounters    serve[atomic.Int64]
	ServeSnapshot    serve[int64]
	StorageCounters  storage[atomic.Int64]
	EndpointCounters endpoint[atomic.Int64]
	EndpointSnapshot endpoint[int64]
)

// engine counts the foreground commit and read paths across every open
// engine in the process: committed batches, commit-path WAL fsyncs (the
// wal_syncs/writes pair behind the group-commit ratio), and how often the
// pipeline actually coalesced concurrent writers.
type engine[T any] struct {
	Writes         T `metric:"writes"`          // committed batches (each acked writer counts once)
	WALSyncs       T `metric:"wal_syncs"`       // commit-path fsyncs; < Writes under group commit
	GroupedCommits T `metric:"grouped_commits"` // commit groups that coalesced >1 writer
	GroupedWriters T `metric:"grouped_writers"` // writers that rode those coalesced groups
}

func (c *EngineCounters) Snapshot() EngineSnapshot              { return snapshot[EngineSnapshot](c) }
func (s EngineSnapshot) Sub(prev EngineSnapshot) EngineSnapshot { return delta(s, prev) }
func (s EngineSnapshot) String() string                         { return render(s) }

// recovery counts crash-recovery and integrity-checking events: WAL replay
// volume, torn tails truncated, files the recovery or scrub pass
// quarantined, how much data the scrub verified, how many tables passed
// their check, and the time Open spends in each stage of the recovery pass
// (their sum is the whole pass).
type recovery[T any] struct {
	WALRecordsReplayed  T `metric:"wal_replayed"`    // batch records re-applied from WALs at open
	WALTailTruncations  T `metric:"wal_truncations"` // WALs ended early at a torn/corrupt tail
	FilesQuarantined    T `metric:"quarantined"`     // corrupt files moved aside (lost/) or dropped
	ScrubBlocksVerified T `metric:"scrub_blocks"`    // SST blocks whose checksums a scrub verified
	TablesVerified      T `metric:"tables"`          // live tables whose open-time or scrub check passed
	LoadNanos           T `metric:"load_ns"`         // Open: CURRENT, MANIFEST replay and the epoch check
	TablesNanos         T `metric:"tables_ns"`       // Open: verifying the tables the manifest names
	InstallNanos        T `metric:"install_ns"`      // Open: orphan sweep and the snapshot install (a new store's creation)
	ReplayNanos         T `metric:"replay_ns"`       // Open: WAL replay and the flush of what it recovered
}

// serve counts serving-layer events: connection lifecycle, commands
// executed, pipelining behavior, and the misbehaving-client paths (protocol
// errors, slow clients dropped at a deadline). Per-shard op counters live on
// server.Server — the shard count is a runtime value — but the process-wide
// totals report here, where the server's INFO reads them.
type serve[T any] struct {
	ConnsOpened     T `metric:"conns"`         // connections accepted
	ConnsOpen       T `metric:"open"`          // connections open right now
	Commands        T `metric:"commands"`      // commands executed (all types)
	PipelineBatches T `metric:"batches"`       // reader cycles that executed >= 1 command
	PipelinedCmds   T `metric:"pipelined"`     // commands arriving in a batch of >= 2
	WriteBatches    T `metric:"write_batches"` // coalesced per-shard write batches committed
	ProtocolErrors  T `metric:"proto_errors"`  // -ERR replies to malformed frames
	SlowClientDrops T `metric:"slow_drops"`    // connections closed at a read/write deadline
}

func (c *ServeCounters) Snapshot() ServeSnapshot { return snapshot[ServeSnapshot](c) }

// storage counts resource-exhaustion events on the persistence paths:
// out-of-space errors surfaced by the filesystem layer, entries into the
// engine's read-only degraded mode, compactions aborted to retain their
// inputs, and secure-cache snapshot saves dropped for lack of space.
type storage[T any] struct {
	NoSpaceErrors     T `metric:"no_space"`            // writes refused with vfs.ErrNoSpace
	DegradedEntries   T `metric:"degraded_entries"`    // times a DB poisoned itself into read-only mode
	CompactionAborts  T `metric:"compaction_aborts"`   // compactions aborted with inputs retained
	CacheSavesDropped T `metric:"cache_saves_dropped"` // seccache snapshot saves skipped (non-fatal)
}

// network counts fault-tolerance events on the network paths: the KDS
// client, the disaggregated-storage client, and the offloaded compaction
// client all report into one counter set, so one snapshot shows how much
// retrying/failover a run needed.
type network[T any] struct {
	Retries          T `metric:"retries"`                                      // requests re-sent after a transport failure
	Timeouts         T `metric:"timeouts"`                                     // attempts that hit the per-request deadline
	Failovers        T `metric:"failovers"`                                    // connections moved to a different replica
	Redials          T `metric:"redials"`                                      // pool slots re-dialed after a discarded conn
	DegradedWrites   T `metric:"degraded_writes"`                              // writes refused because the KDS is unreachable
	DegradedReads    T `metric:"degraded_reads"`                               // reads that failed even after the secure cache
	QuorumShortfalls T `json:",omitempty" metric:"quorum_shortfalls,optional"` // replicated mutations acked by fewer than quorum replicas
	Resyncs          T `json:",omitempty" metric:"resyncs,optional"`           // replicas promoted in-sync by a repair that wrote or removed a file
	ResyncBytes      T `json:",omitempty" metric:"resync_bytes,optional"`      // bytes copied to rejoining replicas
}

// endpoint is the per-replica breakdown of the network counters: one set
// per endpoint address, so an operator can see WHICH storage node is failing
// over, being resynced, or eating errors — the aggregate view cannot
// distinguish one sick replica from uniform flakiness.
type endpoint[T any] struct {
	Failovers   T `json:"failovers" metric:"failovers"`                 // times traffic was re-pointed at this endpoint
	Errors      T `json:"errors" metric:"errors"`                       // transport failures charged to this endpoint
	Resyncs     T `json:"resyncs,omitempty" metric:"resyncs"`           // promotions in-sync after a repair wrote or removed a file here
	ResyncBytes T `json:"resync_bytes,omitempty" metric:"resync_bytes"` // bytes copied to this endpoint during re-sync
}

// NetCounters is the live network family with its per-endpoint sets.
type NetCounters struct {
	network[atomic.Int64]
	epMu       sync.Mutex
	byEndpoint map[string]*EndpointCounters
}

// NetSnapshot is a point-in-time copy of NetCounters.
type NetSnapshot struct {
	network[int64]
	// Endpoints breaks the counters down per replica address (only
	// endpoints that registered activity appear).
	Endpoints map[string]EndpointSnapshot `json:",omitempty"`
}

// Endpoint returns (lazily creating) the per-endpoint counter set for addr.
func (c *NetCounters) Endpoint(addr string) *EndpointCounters {
	c.epMu.Lock()
	defer c.epMu.Unlock()
	if c.byEndpoint == nil {
		c.byEndpoint = make(map[string]*EndpointCounters)
	}
	ec, ok := c.byEndpoint[addr]
	if !ok {
		ec = &EndpointCounters{}
		c.byEndpoint[addr] = ec
	}
	return ec
}

// Snapshot returns the current counter values, per endpoint included.
func (c *NetCounters) Snapshot() NetSnapshot {
	s := NetSnapshot{network: snapshot[network[int64]](&c.network)}
	c.epMu.Lock()
	defer c.epMu.Unlock()
	s.Endpoints = make(map[string]EndpointSnapshot, len(c.byEndpoint))
	for addr, ec := range c.byEndpoint {
		s.Endpoints[addr] = snapshot[EndpointSnapshot](ec)
	}
	return s
}

// Reset zeroes every counter and forgets the endpoints.
//
//shield:notestonly tests zero the process-wide network counters between runs
func (c *NetCounters) Reset() {
	reset(&c.network)
	c.epMu.Lock()
	c.byEndpoint = nil
	c.epMu.Unlock()
}

// Sub returns the delta s minus prev. Endpoint counters subtract pairwise;
// endpoints absent from prev pass through unchanged.
func (s NetSnapshot) Sub(prev NetSnapshot) NetSnapshot {
	out := NetSnapshot{network: delta(s.network, prev.network)}
	out.Endpoints = make(map[string]EndpointSnapshot, len(s.Endpoints))
	for addr, es := range s.Endpoints {
		out.Endpoints[addr] = delta(es, prev.Endpoints[addr])
	}
	return out
}

// String renders the counters, then each endpoint's in address order.
func (s NetSnapshot) String() string {
	out := render(s.network)
	for _, addr := range s.EndpointOrder() {
		out += fmt.Sprintf(" [%s: %s]", addr, render(s.Endpoints[addr]))
	}
	return out
}

// EndpointOrder returns the snapshot's endpoint addresses sorted, so
// rendered breakdowns (String, the server's INFO) are deterministic.
func (s NetSnapshot) EndpointOrder() []string {
	addrs := make([]string, 0, len(s.Endpoints))
	for a := range s.Endpoints {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	return addrs
}
