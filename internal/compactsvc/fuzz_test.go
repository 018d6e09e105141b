package compactsvc

import (
	"bytes"
	"encoding/json"
	"io"
	"runtime"
	"testing"
	"time"

	"shield/internal/lsm"
	"shield/internal/lsm/manifest"
	"shield/internal/netretry"
	"shield/internal/vfs"
)

// fuzzStream joins msgs as one newline-delimited JSON stream, the framing
// netretry.JSONConn reads.
func fuzzStream(tb testing.TB, msgs ...any) []byte {
	tb.Helper()
	var b []byte
	for _, m := range msgs {
		enc, err := json.Marshal(m)
		if err != nil {
			tb.Fatal(err)
		}
		b = append(append(b, enc...), '\n')
	}
	return b
}

// fuzzConn is a JSONConn reading in and discarding what it sends.
func fuzzConn(in []byte) *netretry.JSONConn {
	return netretry.NewJSONConn(struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(in), io.Discard}, maxMessage)
}

// allocated returns the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzCompactsvcWire drives both ends of the compaction wire with any bytes,
// read as netretry.JSONConn reads them. Orchestrator side: each message is a
// worker's wireRequest, answered by the orchestrator's handler for one pending
// job; every answer encodes, and only a file round is granted a number.
// Worker side: each message is the orchestrator's wireResponse, read as the
// worker reads it — a claim runs its job against a store holding one table,
// each output numbered by the next message — and the worker's complete
// request encodes. Neither side may panic, and what each allocates follows
// the input's length, not the lengths or counts it declares.
func FuzzCompactsvcWire(f *testing.F) {
	input := manifest.FileMetadata{FileNum: 1, Size: 1 << 10}
	spec := &lsm.CompactionJob{Dir: "db", Inputs: []lsm.JobLevel{{Level: 0, Files: []manifest.FileMetadata{input}}}, OutputLevel: 1, TargetFileSize: 512}
	f.Add(fuzzStream(f,
		wireRequest{Op: "poll", Worker: "w"},
		wireRequest{Op: "heartbeat", Worker: "w", JobID: 1, Lease: 1},
		wireRequest{Op: "file", Worker: "w", JobID: 1, Lease: 1},
		wireRequest{Op: "complete", Worker: "w", JobID: 1, Lease: 1, Result: &lsm.CompactionResult{Outputs: []manifest.FileMetadata{{FileNum: 101}}}},
	))
	f.Add(fuzzStream(f,
		wireRequest{Op: "poll", Worker: "w"},
		wireRequest{Op: "file", Worker: "w", JobID: 1, Lease: 1},
		wireRequest{Op: "complete", Worker: "w", JobID: 1, Lease: 1, Err: "no space left on device"},
		wireRequest{Op: "poll", Worker: "v"},
		wireRequest{Op: "complete", Worker: "w", JobID: 1, Lease: 1},
		wireRequest{Op: "shrug"},
	))
	f.Add(fuzzStream(f,
		wireResponse{Job: spec, JobID: 1, Lease: 1, TTLMs: 1000},
		wireResponse{FileNum: 10},
		wireResponse{FileNum: 11},
		wireResponse{FileNum: 12},
		wireResponse{},
		wireResponse{Job: spec, JobID: 2, Lease: 2},
		wireResponse{Stale: true},
		wireResponse{Job: spec, JobID: 3, Lease: 3},
		wireResponse{Err: "compactsvc: job 3 not leased"},
	))
	f.Add([]byte(`{"op":"complete","job_id":1,"lease":1,"result":{"outputs":[{}]}` + "\n"))
	f.Add([]byte(`{"job":{"dir":"db","inputs":[{"level":0,"files":[{"file_num":1},{"file_num":1}]}]},"job_id":1}` + "\n{\"file_num\":1}\n"))

	f.Fuzz(func(t *testing.T, in []byte) {
		budget := 64*uint64(len(in)) + 1<<20

		o := &Orchestrator{
			fs:     vfs.NewMem(),
			cfg:    OrchestratorConfig{}.withDefaults(),
			jobs:   map[uint64]*job{},
			leases: map[uint64]leaseRec{},
			done:   make(chan struct{}),
		}
		next := uint64(100)
		o.jobs[1] = &job{
			id:         1,
			spec:       *spec,
			newFileNum: func() (uint64, error) { next++; return next, nil },
			deadline:   time.Now().Add(time.Hour),
			done:       make(chan struct{}),
		}
		o.queue, o.nextJob = []uint64{1}, 1
		if n := allocated(func() {
			wire := fuzzConn(in)
			granted := map[uint64]bool{}
			for {
				var req wireRequest
				if wire.Recv(&req) != nil {
					return
				}
				resp := o.handle(&req)
				if resp.FileNum != 0 && (req.Op != "file" || granted[resp.FileNum]) {
					t.Fatalf("%+v was granted file number %d", req, resp.FileNum)
				}
				if resp.FileNum != 0 {
					granted[resp.FileNum] = true
				}
				if resp.Job != nil && req.Op != "poll" {
					t.Fatalf("%+v was handed a job", req)
				}
				if err := wire.Send(resp); err != nil {
					t.Fatalf("answer %+v does not encode: %v", resp, err)
				}
			}
		}); n > budget {
			t.Fatalf("orchestrator side: %d bytes allocated for %d of input", n, len(in))
		}

		fs := vfs.NewMem()
		buildInput(t, fs, 1, 0, 20)
		if n := allocated(func() {
			wire := fuzzConn(in)
			recv := func(op string) (*wireResponse, error) {
				var resp wireResponse
				if err := wire.Recv(&resp); err != nil {
					return nil, err
				}
				return answer(op, &resp)
			}
			for {
				var claim wireResponse
				if wire.Recv(&claim) != nil {
					return
				}
				if _, err := answer("poll", &claim); err != nil || claim.Job == nil {
					continue
				}
				res, err := lsm.RunCompaction(fs, nil, *claim.Job, func() (uint64, error) {
					resp, err := recv("file")
					if err != nil {
						return 0, err
					}
					return outputNum(&claim, resp)
				})
				req := &wireRequest{Op: "complete", Worker: "fuzz", JobID: claim.JobID, Lease: claim.Lease}
				if err != nil {
					req.Err = err.Error()
				} else {
					req.Result = &res
				}
				if err := wire.Send(req); err != nil {
					t.Fatalf("complete %+v does not encode: %v", req, err)
				}
			}
		}); n > budget {
			t.Fatalf("worker side: %d bytes allocated for %d of input", n, len(in))
		}
	})
}
