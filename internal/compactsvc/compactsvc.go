// Package compactsvc implements offloaded compaction (the paper's Section
// 5.6 case study, modeled on Disaggregated-RocksDB / CaaS-LSM) as an
// orchestrated worker pool rather than a single point-to-point worker.
//
// The compute node runs an Orchestrator that implements lsm.Compactor: the
// engine enqueues compaction jobs into it and blocks for the result. Workers
// — co-located with storage nodes, each with its own KDS identity and secure
// DEK cache — dial the orchestrator and poll for work. A claimed job carries
// a lease: the worker heartbeats to keep it, and a worker that dies mid-job
// has its lease expire, its partial outputs swept, and the job reclaimed by
// another worker. A worker asks the orchestrator for each output's file
// number as it creates the output; the orchestrator grants it from the
// engine's allocator, only to a live lease, and records it against that
// lease. The allocator never issues a number twice, so a zombie worker can
// never collide with the reclaiming worker; it is refused its next number,
// so it creates no further table; and its orphans are removable by the
// numbers it was granted alone.
//
// A job whose every attempt is lost fails with lsm.ErrJobLost, which the
// engine treats exactly like a local ENOSPC abort: inputs retained, manifest
// untouched, compactions halted until the next successful flush.
//
// Workers resolve input-file DEKs through the DEK-IDs embedded in file
// headers — the metadata-enabled sharing path — and encrypt outputs under
// fresh DEKs fetched under their own identity.
package compactsvc

// The wire protocol is JSON over TCP, worker-initiated: the worker dials the
// orchestrator and issues request/response rounds on a persistent
// connection. Four operations:
//
//	poll       → claim the oldest pending job; empty response if none
//	heartbeat  → extend the lease on a claimed job
//	file       → take the next output file number for a claimed job
//	complete   → deliver the job's result (or execution error)
//
// A heartbeat, file or complete against a lease the orchestrator no longer
// honors is answered with Stale, telling a zombie worker its work was
// reassigned (the orchestrator sweeps the numbers it granted the zombie
// attempt itself).

import "shield/internal/lsm"

// maxMessage caps one wire message in either direction. The largest real ones
// list a job's files (inputs on poll, outputs on complete): 122 JSON bytes per
// output file as lsm's TestCompactRangeOver256Outputs measures it (12-byte
// keys, no DEK-ID or digest), so 4 MiB fits some 34 000 files.
const maxMessage = 4 << 20

type wireRequest struct {
	Op     string                `json:"op"` // "poll" | "heartbeat" | "file" | "complete"
	Worker string                `json:"worker"`
	JobID  uint64                `json:"job_id,omitempty"`
	Lease  uint64                `json:"lease,omitempty"`
	Err    string                `json:"err,omitempty"`
	Result *lsm.CompactionResult `json:"result,omitempty"`
}

type wireResponse struct {
	Err     string             `json:"err,omitempty"`
	Job     *lsm.CompactionJob `json:"job,omitempty"`
	JobID   uint64             `json:"job_id,omitempty"`
	Lease   uint64             `json:"lease,omitempty"`
	TTLMs   int64              `json:"ttl_ms,omitempty"`
	FileNum uint64             `json:"file_num,omitempty"`
	Stale   bool               `json:"stale,omitempty"`
}
