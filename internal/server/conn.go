package server

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"

	"shield/internal/lsm"
	"shield/internal/metrics"
	"shield/internal/netretry"
	"shield/internal/resp"
)

// maxKeptBatch bounds the encoded size of a shard batch a connection keeps
// for reuse; one grown past it by a large value is dropped after its commit.
const maxKeptBatch = 256 << 10

type opKind uint8

const (
	opSet opKind = iota
	opDel
	opGet
	opStatus
	opError
	opBulk
	opEmptyArray
)

// queued is one command awaiting its reply. Replies are emitted strictly in
// command order; writes resolve when their shard's coalesced batch commits.
type queued struct {
	op    opKind
	shard int    // opSet, opGet, opDel (or spansShards)
	arg   []byte // opGet key, opBulk payload: a view, emitted before the next Fill
	nDel  int64  // opDel: keys folded into this slot's reply
	text  string // opStatus, opError
}

// spansShards marks a DEL whose keys hash to more than one shard; its reply
// fails if any involved shard's commit failed.
const spansShards = -2

// shardCounts are one connection's not yet published ShardStats increments.
type shardCounts struct{ gets, sets, dels, writeBatches, errors int64 }

// conn is one connection's execution state. Everything a command needs is
// here and reused from batch to batch, so a steady pipeline allocates
// nothing and, until its counters are published once per batch, writes no
// memory another connection reads.
type conn struct {
	s  *Server
	nc net.Conn
	r  *resp.Reader
	w  *resp.Writer // over conn.Write, which arms the write deadline

	// A segment is the run of commands since the last read boundary: its
	// writes folded into one batch per shard, its replies queued.
	batches []lsm.Batch // per shard
	errs    []error     // per shard: commit verdict of the segment being emitted
	dirty   []int       // shards with a non-empty batch
	commits []func()    // per shard: its commit as a ready func value, so that `go` allocates nothing
	wg      sync.WaitGroup
	segment []queued

	counts          []shardCounts // per shard
	ncmd            int64         // commands dispatched and not yet published
	readBy, writeBy netretry.Deadline
}

func (s *Server) newConn(nc net.Conn) *conn {
	n := len(s.cfg.Shards)
	c := &conn{
		s: s, nc: nc, r: resp.NewReader(nc),
		batches: make([]lsm.Batch, n), errs: make([]error, n), counts: make([]shardCounts, n),
		commits: make([]func(), n),
	}
	c.w = resp.NewWriter(c)
	for shard := range c.commits {
		c.commits[shard] = func() {
			defer c.wg.Done()
			c.commitShard(shard)
		}
	}
	return c
}

// Write sends reply bytes under the write deadline, re-armed lazily.
func (c *conn) Write(p []byte) (int, error) {
	c.writeBy.Arm(c.s.cfg.WriteTimeout, c.nc.SetWriteDeadline)
	return c.nc.Write(p)
}

// handle runs one connection's loop: execute every command that is complete
// in the read window as one batch, answer the batch with one Write, and only
// then wait for more bytes. A partial command at the tail of the window
// waits there without holding back the replies of those before it.
func (s *Server) handle(nc net.Conn) {
	c := s.newConn(nc)
	// Idle deadline: a connection that cannot produce a complete command
	// within the window is a slow client and is dropped. It is looked at
	// again only after commands have run, never between the reads of one
	// command.
	ran := true
	for {
		n, quit := 0, false
		var perr error
		for n < s.cfg.MaxPipeline && !quit {
			var args [][]byte
			if args, perr = c.r.Next(); args == nil {
				break
			}
			n++
			quit = c.dispatch(args)
		}
		if n > 0 || perr != nil {
			c.flush()
			if perr != nil {
				// A recoverable protocol error gets -ERR and the reader is
				// already at the next line; a fatal one gets -ERR and the
				// connection closes (the stream position is ambiguous).
				metrics.Serve.ProtocolErrors.Add(1)
				c.w.Error("ERR Protocol error: " + perr.Error()) //nolint:errcheck // Flush reports it
			}
			c.publish(n)
			if err := c.w.Flush(); err != nil {
				metrics.Serve.SlowClientDrops.Add(1)
				s.cfg.Logger("server: %s: reply flush: %v", nc.RemoteAddr(), err)
				return
			}
			if quit || (perr != nil && !resp.IsRecoverable(perr)) {
				return
			}
			ran = true
			continue // the window may hold more complete commands
		}

		if ran {
			ran = false
			c.readBy.Arm(s.cfg.IdleTimeout, nc.SetReadDeadline)
		}
		// Checked after arming: Close sets closed and then pokes the read
		// deadline, so either this sees closed or the poke outlives the arm.
		if s.closed.Load() {
			return
		}
		if err := c.r.Fill(); err != nil {
			if isTimeout(err) && !s.closed.Load() {
				metrics.Serve.SlowClientDrops.Add(1)
				s.cfg.Logger("server: %s: idle/slow client dropped", nc.RemoteAddr())
			}
			return
		}
	}
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// publish adds the connection's pending counts to the shared counters: once
// per batch, before its replies are sent, so whoever has read a reply finds
// its command counted. n is the size of the batch that just ran.
func (c *conn) publish(n int) {
	var writeBatches int64
	for i := range c.counts {
		if p := &c.counts[i]; *p != (shardCounts{}) {
			st := c.s.shardStats[i]
			addTo(&st.Gets, p.gets)
			addTo(&st.Sets, p.sets)
			addTo(&st.Dels, p.dels)
			addTo(&st.WriteBatches, p.writeBatches)
			addTo(&st.Errors, p.errors)
			writeBatches += p.writeBatches
			*p = shardCounts{}
		}
	}
	addTo(&metrics.Serve.Commands, c.ncmd)
	addTo(&metrics.Serve.WriteBatches, writeBatches)
	c.ncmd = 0
	if n > 0 {
		metrics.Serve.PipelineBatches.Add(1)
	}
	if n > 1 {
		metrics.Serve.PipelinedCmds.Add(int64(n))
	}
}

// addTo skips the shared cache line when there is nothing to add.
func addTo(a *atomic.Int64, n int64) {
	if n != 0 {
		a.Add(n)
	}
}

// batch returns shard's batch of the current segment, marking it dirty on
// first use.
func (c *conn) batch(shard int) *lsm.Batch {
	b := &c.batches[shard]
	if b.Empty() {
		c.dirty = append(c.dirty, shard)
	}
	return b
}

func (c *conn) queue(q queued) { c.segment = append(c.segment, q) }

func (c *conn) fail(text string) { c.queue(queued{op: opError, text: text}) }

// dispatch classifies one command: consecutive writes are folded into one
// engine batch per shard, and every read boundary commits the pending
// writes before the read executes — so a GET observes earlier SETs of the
// same pipeline and never later ones. Replies are queued strictly in command
// order. Returns true when the client sent QUIT.
func (c *conn) dispatch(args [][]byte) (quit bool) {
	c.ncmd++
	var upper [8]byte // longer than any known command
	name := upper[:0]
	if len(args[0]) <= len(upper) {
		for _, ch := range args[0] {
			if 'a' <= ch && ch <= 'z' {
				ch -= 'a' - 'A'
			}
			name = append(name, ch)
		}
	}
	switch string(name) {
	case "SET":
		if len(args) != 3 {
			c.fail("ERR wrong number of arguments for 'set' command")
			return false
		}
		shard := c.s.shardFor(args[1])
		c.batch(shard).Put(args[1], args[2])
		c.counts[shard].sets++
		c.queue(queued{op: opSet, shard: shard})
	case "DEL":
		if len(args) < 2 {
			c.fail("ERR wrong number of arguments for 'del' command")
			return false
		}
		// Blind delete: a tombstone per key, no existence probe (a
		// read before every delete would defeat write coalescing), so
		// the reply counts tombstones written, not keys that existed.
		q := queued{op: opDel, shard: -1, nDel: int64(len(args) - 1)}
		for _, key := range args[1:] {
			shard := c.s.shardFor(key)
			c.batch(shard).Delete(key)
			c.counts[shard].dels++
			if q.shard == -1 {
				q.shard = shard
			} else if q.shard != shard {
				q.shard = spansShards
			}
		}
		c.queue(q)
	case "GET":
		if len(args) != 2 {
			c.fail("ERR wrong number of arguments for 'get' command")
			return false
		}
		shard := c.s.shardFor(args[1])
		c.counts[shard].gets++
		c.queue(queued{op: opGet, shard: shard, arg: args[1]})
		c.flush() // read boundary: earlier writes must be visible, later ones must not
	case "PING":
		if len(args) == 2 {
			c.queue(queued{op: opBulk, arg: args[1]})
		} else {
			c.queue(queued{op: opStatus, text: "PONG"})
		}
	case "ECHO":
		if len(args) != 2 {
			c.fail("ERR wrong number of arguments for 'echo' command")
			return false
		}
		c.queue(queued{op: opBulk, arg: args[1]})
	case "INFO":
		// Commit and publish first so the rendered counters include this
		// pipeline's own commands.
		c.flush()
		c.publish(0)
		c.w.Bulk(c.s.renderInfo()) //nolint:errcheck // Flush reports it
	case "COMMAND":
		// Client libraries probe this at connect; an empty array keeps
		// them happy without a command table.
		c.queue(queued{op: opEmptyArray})
	case "QUIT":
		c.queue(queued{op: opStatus, text: "OK"})
		return true
	default:
		c.fail(fmt.Sprintf("ERR unknown command '%s'", strings.ToUpper(string(args[0]))))
	}
	return false
}

// flush ends the current segment: commit its writes, emit its replies.
func (c *conn) flush() {
	// Each commit joins its shard engine's group-commit loop, where it
	// merges with batches arriving concurrently from other connections. The
	// first dirty shard commits here; only the others need a goroutine.
	for i, shard := range c.dirty {
		c.counts[shard].writeBatches++
		if i > 0 {
			c.wg.Add(1)
			go c.commits[shard]()
		}
	}
	if len(c.dirty) > 0 {
		c.commitShard(c.dirty[0])
		c.wg.Wait()
	}
	c.emit()
	for _, shard := range c.dirty {
		c.errs[shard] = nil
		if b := &c.batches[shard]; b.Len() > maxKeptBatch {
			*b = lsm.Batch{}
		} else {
			b.Reset()
		}
	}
	c.dirty, c.segment = c.dirty[:0], c.segment[:0]
}

func (c *conn) commitShard(shard int) {
	c.errs[shard] = c.s.cfg.Shards[shard].Write(&c.batches[shard], c.s.sync)
}

// emit writes the segment's replies in command order. Write replies consult
// their shard batch's commit verdict.
func (c *conn) emit() {
	w := c.w
	for i := range c.segment {
		q := &c.segment[i]
		var err error
		switch q.op {
		case opStatus:
			w.Status(q.text) //nolint:errcheck // the writer's error sticks; Flush reports it
		case opError:
			w.Error(q.text) //nolint:errcheck
		case opBulk:
			w.Bulk(q.arg) //nolint:errcheck
		case opEmptyArray:
			w.ArrayHeader(0) //nolint:errcheck
		case opSet:
			if err = c.errs[q.shard]; err == nil {
				w.Status("OK") //nolint:errcheck
			} else {
				c.counts[q.shard].errors++
			}
		case opDel:
			for _, shard := range c.dirty {
				if err == nil && (q.shard == shard || q.shard == spansShards) {
					err = c.errs[shard]
				}
			}
			if err == nil {
				w.Int(q.nDel) //nolint:errcheck
			}
		case opGet:
			var v []byte
			switch v, err = c.s.cfg.Shards[q.shard].Get(q.arg); {
			case err == nil:
				w.Bulk(v) //nolint:errcheck
			case errors.Is(err, lsm.ErrNotFound):
				w.Null() //nolint:errcheck
				err = nil
			default:
				c.counts[q.shard].errors++
			}
		}
		if err != nil {
			w.Error("ERR " + err.Error()) //nolint:errcheck
		}
	}
}

// sanitize strips CR/LF so configured text cannot break INFO's line framing
// (Writer.Error does the same for error replies).
var sanitize = strings.NewReplacer("\r", " ", "\n", " ").Replace

// renderInfo builds the INFO reply: a Redis-style key:value section for the
// server plus one per shard, exposing the serving counters and the engine
// counters the serving layer is accountable for — notably wal_syncs, whose
// gap below ops_set+ops_del is the visible effect of group commit.
func (s *Server) renderInfo() []byte {
	var buf bytes.Buffer
	sv := metrics.Serve.Snapshot()
	fmt.Fprintf(&buf, "# server\r\n")
	fmt.Fprintf(&buf, "shards:%d\r\n", len(s.cfg.Shards))
	fmt.Fprintf(&buf, "connections_opened:%d\r\n", sv.ConnsOpened)
	fmt.Fprintf(&buf, "connections_open:%d\r\n", sv.ConnsOpen)
	fmt.Fprintf(&buf, "commands:%d\r\n", sv.Commands)
	fmt.Fprintf(&buf, "pipeline_batches:%d\r\n", sv.PipelineBatches)
	fmt.Fprintf(&buf, "pipelined_commands:%d\r\n", sv.PipelinedCmds)
	fmt.Fprintf(&buf, "write_batches:%d\r\n", sv.WriteBatches)
	fmt.Fprintf(&buf, "protocol_errors:%d\r\n", sv.ProtocolErrors)
	fmt.Fprintf(&buf, "slow_client_drops:%d\r\n", sv.SlowClientDrops)
	for i, snap := range s.Stats() {
		fmt.Fprintf(&buf, "# shard%d\r\n", i)
		fmt.Fprintf(&buf, "ops_get:%d\r\n", snap.Gets)
		fmt.Fprintf(&buf, "ops_set:%d\r\n", snap.Sets)
		fmt.Fprintf(&buf, "ops_del:%d\r\n", snap.Dels)
		fmt.Fprintf(&buf, "write_batches:%d\r\n", snap.WriteBatches)
		fmt.Fprintf(&buf, "errors:%d\r\n", snap.Errors)
		fmt.Fprintf(&buf, "wal_syncs:%d\r\n", snap.Engine.WALSyncs)
		fmt.Fprintf(&buf, "wal_written:%d\r\n", snap.Engine.WALWritten)
		fmt.Fprintf(&buf, "engine_writes:%d\r\n", snap.Engine.Writes)
		fmt.Fprintf(&buf, "engine_gets:%d\r\n", snap.Engine.Gets)
		fmt.Fprintf(&buf, "group_commit_ratio:%.3f\r\n", snap.Engine.GroupCommitRatio())
		fmt.Fprintf(&buf, "block_cache_hits:%d\r\n", snap.Engine.BlockCacheHits)
		fmt.Fprintf(&buf, "block_cache_misses:%d\r\n", snap.Engine.BlockCacheMisses)
		fmt.Fprintf(&buf, "flushes:%d\r\n", snap.Engine.Flushes)
		fmt.Fprintf(&buf, "compactions:%d\r\n", snap.Engine.Compactions)
	}
	// Network fault-tolerance counters, with the per-replica breakdown when
	// the engine runs over replicated storage: an operator reading INFO can
	// see WHICH storage node is failing over, resyncing, or eating errors.
	nv := metrics.Net.Snapshot()
	fmt.Fprintf(&buf, "# net\r\n")
	fmt.Fprintf(&buf, "net_retries:%d\r\n", nv.Retries)
	fmt.Fprintf(&buf, "net_timeouts:%d\r\n", nv.Timeouts)
	fmt.Fprintf(&buf, "net_failovers:%d\r\n", nv.Failovers)
	fmt.Fprintf(&buf, "net_redials:%d\r\n", nv.Redials)
	fmt.Fprintf(&buf, "degraded_writes:%d\r\n", nv.DegradedWrites)
	fmt.Fprintf(&buf, "degraded_reads:%d\r\n", nv.DegradedReads)
	fmt.Fprintf(&buf, "quorum_shortfalls:%d\r\n", nv.QuorumShortfalls)
	fmt.Fprintf(&buf, "resyncs:%d\r\n", nv.Resyncs)
	fmt.Fprintf(&buf, "resync_bytes:%d\r\n", nv.ResyncBytes)
	for i, addr := range nv.EndpointOrder() {
		es := nv.Endpoints[addr]
		fmt.Fprintf(&buf, "# replica%d\r\n", i)
		fmt.Fprintf(&buf, "addr:%s\r\n", sanitize(addr))
		fmt.Fprintf(&buf, "failovers:%d\r\n", es.Failovers)
		fmt.Fprintf(&buf, "errors:%d\r\n", es.Errors)
		fmt.Fprintf(&buf, "resyncs:%d\r\n", es.Resyncs)
		fmt.Fprintf(&buf, "resync_bytes:%d\r\n", es.ResyncBytes)
	}
	return buf.Bytes()
}
