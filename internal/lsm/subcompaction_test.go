package lsm

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"

	"shield/internal/crypt"
	"shield/internal/lsm/base"
	"shield/internal/lsm/manifest"
	"shield/internal/lsm/sstable"
	"shield/internal/vfs"
)

// detEncWrapper seals every SST under one fixed DEK and nonce prefix so two
// runs over the same inputs produce comparable ciphertext regardless of
// output file numbers. Test-only: real deployments derive a fresh DEK and
// prefix per file.
type detEncWrapper struct {
	threads int
}

func detSealer() *crypt.Sealer {
	s, err := crypt.NewSealer(crypt.DEK{0x42, 0x17, 0x99, 0x03, 0x42, 0x17, 0x99, 0x03,
		0x42, 0x17, 0x99, 0x03, 0x42, 0x17, 0x99, 0x03}, []byte("detnonce"), nil)
	if err != nil {
		panic(err)
	}
	return s
}

func (w detEncWrapper) WrapCreate(_ string, _ FileKind, f vfs.WritableFile) (vfs.WritableFile, string, error) {
	return crypt.NewSealedWriter(f, detSealer(), crypt.SealedBlockSize, w.threads), "det", nil
}

func (w detEncWrapper) WrapOpen(_ string, _ FileKind, f vfs.RandomAccessFile) (vfs.RandomAccessFile, error) {
	return crypt.NewSealedReaderAt(f, detSealer(), 0)
}

func (w detEncWrapper) WrapOpenSequential(_ string, _ FileKind, f vfs.SequentialFile) (vfs.SequentialFile, error) {
	return f, nil
}

func (w detEncWrapper) FileDeleted(string, string) {}

// writeShardInputSST builds one encrypted input table holding keys
// [lo, hi) at seq, returning its metadata.
func writeShardInputSST(t *testing.T, fs vfs.FS, wrapper FileWrapper, dir string, fileNum uint64, lo, hi int, seq base.SeqNum) manifest.FileMetadata {
	t.Helper()
	out, err := createSSTOutput(fs, wrapper, dir, fileNum, shardTableOptions)
	if err != nil {
		t.Fatal(err)
	}
	for k := lo; k < hi; k++ {
		ikey := base.MakeInternalKey(shardKey(k), seq, base.KindSet)
		val := []byte(fmt.Sprintf("val-%06d-seq-%d-%s", k, seq, bytes.Repeat([]byte("x"), 80)))
		if err := out.w.Add(ikey, val); err != nil {
			t.Fatal(err)
		}
	}
	if err := out.finish(); err != nil {
		t.Fatal(err)
	}
	return out.meta
}

var shardTableOptions = sstable.WriterOptions{BlockSize: 4096}

// numbersFrom is a test's file-number allocator: first, first+1, … to any
// number of concurrent shards.
func numbersFrom(first uint64) func() (uint64, error) {
	var next atomic.Uint64
	next.Store(first)
	return func() (uint64, error) { return next.Add(1) - 1, nil }
}

func shardKey(k int) []byte { return []byte(fmt.Sprintf("key-%06d", k)) }

// shardTestJob builds a two-level job: three L1 files (newer) overlapping
// two L2 files (older), small target size so the merge cuts many outputs.
func shardTestJob(t *testing.T, fs vfs.FS, wrapper FileWrapper) CompactionJob {
	t.Helper()
	const dir = "db"
	if err := fs.MkdirAll(dir); err != nil {
		t.Fatal(err)
	}
	var l1, l2 []manifest.FileMetadata
	l1 = append(l1, writeShardInputSST(t, fs, wrapper, dir, 11, 0, 100, 200))
	l1 = append(l1, writeShardInputSST(t, fs, wrapper, dir, 12, 100, 200, 201))
	l1 = append(l1, writeShardInputSST(t, fs, wrapper, dir, 13, 200, 300, 202))
	l2 = append(l2, writeShardInputSST(t, fs, wrapper, dir, 21, 0, 150, 100))
	l2 = append(l2, writeShardInputSST(t, fs, wrapper, dir, 22, 150, 300, 101))
	return CompactionJob{
		Dir:              dir,
		Inputs:           []JobLevel{{Level: 1, Files: l1}, {Level: 2, Files: l2}},
		OutputLevel:      2,
		Bottommost:       true,
		SmallestSnapshot: 1000,
		TargetFileSize:   2 << 10,
		WriterOptions:    shardTableOptions,
	}
}

// outputMetas lists what runShardedCompaction's outputs would report.
func outputMetas(outs []*sstOutput) []manifest.FileMetadata {
	metas := make([]manifest.FileMetadata, len(outs))
	for i, o := range outs {
		metas[i] = o.meta
	}
	return metas
}

// TestSubcompactionCiphertextByteIdentity pins the acceptance criterion:
// with the shard boundaries set at the serial path's output cut points, the
// sharded compaction — parallel shards, each with a multi-threaded chunked
// encrypting writer — produces ciphertext byte-identical to the serial
// single-threaded run, file for file.
func TestSubcompactionCiphertextByteIdentity(t *testing.T) {
	fs := vfs.NewMem()
	serialWrapper := detEncWrapper{threads: 1}
	job := shardTestJob(t, fs, serialWrapper)

	serialRes, err := RunCompaction(fs, serialWrapper, job, numbersFrom(100))
	if err != nil {
		t.Fatal(err)
	}
	if len(serialRes.Outputs) < 3 {
		t.Fatalf("serial run produced %d outputs, want >= 3 for a meaningful split", len(serialRes.Outputs))
	}
	if serialRes.Subcompactions != 1 {
		t.Fatalf("serial Subcompactions = %d, want 1", serialRes.Subcompactions)
	}

	// Split at the start keys of two interior serial outputs: each shard
	// then begins exactly where a serial output file began, so the shard's
	// size-based cuts land on the same records as the serial run's.
	m := len(serialRes.Outputs)
	bounds := [][]byte{
		append([]byte(nil), base.UserKey(serialRes.Outputs[m/3].Smallest)...),
		append([]byte(nil), base.UserKey(serialRes.Outputs[2*m/3].Smallest)...),
	}
	// The split points are pinned by running the three shards directly: a job
	// has no field for them (RunCompaction derives its own from the inputs).
	parOuts, err := runShardedCompaction(fs, detEncWrapper{threads: 4}, job, bounds, numbersFrom(300))
	if err != nil {
		t.Fatal(err)
	}
	parOutputs := outputMetas(parOuts)
	if len(parOutputs) != len(serialRes.Outputs) {
		t.Fatalf("sharded run produced %d outputs, serial %d", len(parOutputs), len(serialRes.Outputs))
	}
	var parWritten int64
	for i := range serialRes.Outputs {
		s, p := serialRes.Outputs[i], parOutputs[i]
		parWritten += int64(p.Size)
		if !bytes.Equal(s.Smallest, p.Smallest) || !bytes.Equal(s.Largest, p.Largest) {
			t.Fatalf("output %d key range mismatch: serial [%q,%q] sharded [%q,%q]",
				i, s.Smallest, s.Largest, p.Smallest, p.Largest)
		}
		if s.Size != p.Size {
			t.Fatalf("output %d size mismatch: serial %d sharded %d", i, s.Size, p.Size)
		}
		sb, err := vfs.ReadFile(fs, sstFileName(job.Dir, s.FileNum))
		if err != nil {
			t.Fatal(err)
		}
		pb, err := vfs.ReadFile(fs, sstFileName(job.Dir, p.FileNum))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sb, pb) {
			t.Fatalf("output %d ciphertext differs between serial and sharded runs", i)
		}
	}
	if parWritten != serialRes.BytesWritten {
		t.Fatalf("BytesWritten: serial %d sharded %d", serialRes.BytesWritten, parWritten)
	}
}

// readJobOutputs decrypts and iterates every output, returning the
// concatenated internal key/value stream (outputs are key-ordered).
func readJobOutputs(t *testing.T, fs vfs.FS, wrapper FileWrapper, dir string, outputs []manifest.FileMetadata) (keys, vals [][]byte) {
	t.Helper()
	for _, out := range outputs {
		name := sstFileName(dir, out.FileNum)
		raw, err := fs.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		wrapped, err := wrapper.WrapOpen(name, FileKindSST, raw)
		if err != nil {
			t.Fatal(err)
		}
		r, err := sstable.NewReader(wrapped, sstable.ReaderOptions{FileNum: out.FileNum})
		if err != nil {
			t.Fatal(err)
		}
		it := r.NewIter()
		for ok := it.First(); ok; ok = it.Next() {
			keys = append(keys, append([]byte(nil), it.Key()...))
			vals = append(vals, append([]byte(nil), it.Value()...))
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		r.Close()
	}
	return keys, vals
}

// TestSubcompactionAutoBoundariesEquivalence checks the derived-boundary
// path: sharding decided by subcompactionBoundaries must yield exactly the
// serial run's logical record stream, in order, with shard outputs disjoint.
func TestSubcompactionAutoBoundariesEquivalence(t *testing.T) {
	fs := vfs.NewMem()
	wrapper := detEncWrapper{threads: 2}
	job := shardTestJob(t, fs, wrapper)

	serialRes, err := RunCompaction(fs, wrapper, job, numbersFrom(100))
	if err != nil {
		t.Fatal(err)
	}

	parJob := job
	parJob.MaxSubcompactions = 4
	parRes, err := RunCompaction(fs, wrapper, parJob, numbersFrom(300))
	if err != nil {
		t.Fatal(err)
	}
	if parRes.Subcompactions < 2 {
		t.Fatalf("Subcompactions = %d, want >= 2 (job should have split)", parRes.Subcompactions)
	}

	// Outputs must be globally sorted and non-overlapping.
	for i := 1; i < len(parRes.Outputs); i++ {
		if base.CompareInternal(parRes.Outputs[i-1].Largest, parRes.Outputs[i].Smallest) >= 0 {
			t.Fatalf("sharded outputs %d and %d overlap", i-1, i)
		}
	}

	sk, sv := readJobOutputs(t, fs, wrapper, job.Dir, serialRes.Outputs)
	pk, pv := readJobOutputs(t, fs, wrapper, job.Dir, parRes.Outputs)
	if len(sk) != len(pk) {
		t.Fatalf("record count: serial %d sharded %d", len(sk), len(pk))
	}
	for i := range sk {
		if !bytes.Equal(sk[i], pk[i]) {
			t.Fatalf("record %d key mismatch: %q vs %q", i, sk[i], pk[i])
		}
		if !bytes.Equal(sv[i], pv[i]) {
			t.Fatalf("record %d value mismatch for key %q", i, sk[i])
		}
	}
}

// TestSubcompactionBoundariesDerivation sanity-checks the splitter: at most
// MaxSubcompactions-1 sorted, distinct boundaries, all inside the key hull.
func TestSubcompactionBoundariesDerivation(t *testing.T) {
	fs := vfs.NewMem()
	wrapper := detEncWrapper{threads: 1}
	job := shardTestJob(t, fs, wrapper)

	if got := subcompactionBoundaries(job); got != nil {
		t.Fatalf("MaxSubcompactions unset: want nil boundaries, got %d", len(got))
	}
	job.MaxSubcompactions = 4
	bounds := subcompactionBoundaries(job)
	if len(bounds) == 0 || len(bounds) > 3 {
		t.Fatalf("got %d boundaries, want 1..3", len(bounds))
	}
	for i := range bounds {
		if i > 0 && bytes.Compare(bounds[i-1], bounds[i]) >= 0 {
			t.Fatalf("boundaries not strictly ascending: %q >= %q", bounds[i-1], bounds[i])
		}
		if bytes.Compare(bounds[i], shardKey(0)) <= 0 || bytes.Compare(bounds[i], shardKey(299)) > 0 {
			t.Fatalf("boundary %q outside input hull", bounds[i])
		}
	}
}
