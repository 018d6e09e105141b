package lsm

// Key-range sharding of one compaction job (RocksDB's "subcompactions").
//
// The job's merged key space is cut at user-key boundaries into n disjoint
// shards, each run on its own goroutine with its own input readers, merge
// heap, and output writers. Every output goes through wrapper.WrapCreate,
// so under SHIELD each shard drives its own chunked encrypting writer —
// per-chunk encryption parallelism composes with compaction parallelism.
//
// Correctness relies on boundaries being user keys: all versions of a key
// land in exactly one shard, so the per-shard drop logic (shadowed
// versions, bottommost tombstone elision) sees the same record sequence
// the serial merge would. Every shard takes its output file numbers from
// the job's one allocator as it creates them, so numbers may interleave
// across shards; with the same boundaries the concatenated shard outputs
// are byte-identical to the serial path's.

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"shield/internal/lsm/base"
	"shield/internal/lsm/manifest"
	"shield/internal/lsm/sstable"
	"shield/internal/metrics"
	"shield/internal/vfs"
)

// errShardAborted cancels sibling shards once one shard fails; the
// dispatcher reports the first real error instead.
var errShardAborted = errors.New("lsm: subcompaction aborted by sibling failure")

// subcompactionBoundaries derives user-key split points for the job, or nil
// to run serially. The candidates are the input files' bounding keys: free
// to compute, and they track the data distribution closely enough to
// balance the shards.
func subcompactionBoundaries(job CompactionJob) [][]byte {
	n := job.MaxSubcompactions
	if n <= 1 {
		return nil
	}
	var cands [][]byte
	for _, lvl := range job.Inputs {
		for _, f := range lvl.Files {
			cands = append(cands, base.UserKey(f.Smallest), base.UserKey(f.Largest))
		}
	}
	sort.Slice(cands, func(i, j int) bool { return bytes.Compare(cands[i], cands[j]) < 0 })
	uniq := cands[:0]
	for _, c := range cands {
		if len(uniq) == 0 || !bytes.Equal(uniq[len(uniq)-1], c) {
			uniq = append(uniq, c)
		}
	}
	// A boundary at the global minimum would only make an empty leading
	// shard.
	if len(uniq) > 0 {
		uniq = uniq[1:]
	}
	if len(uniq) == 0 {
		return nil
	}
	want := n - 1
	if want > len(uniq) {
		want = len(uniq)
	}
	var bounds [][]byte
	for i := 1; i <= want; i++ {
		b := uniq[i*len(uniq)/(want+1)]
		if len(bounds) == 0 || !bytes.Equal(bounds[len(bounds)-1], b) {
			bounds = append(bounds, b)
		}
	}
	return bounds
}

// runShardedCompaction executes the job across the shards the boundaries
// define (none = one serial shard) and returns every finished output in key
// order. On any shard error every output of every shard is aborted — the
// job-level abort-and-retain contract is unchanged from the serial path.
func runShardedCompaction(fs vfs.FS, wrapper FileWrapper, job CompactionJob, bounds [][]byte,
	newFileNum func() (uint64, error)) ([]*sstOutput, error) {
	n := len(bounds) + 1
	if n == 1 {
		return runCompactionShard(fs, wrapper, job, nil, nil, newFileNum, nil)
	}

	metrics.Jobs.SubcompactionsStarted.Add(int64(n))
	var (
		wg      sync.WaitGroup
		abort   atomic.Bool
		results = make([][]*sstOutput, n)
		errs    = make([]error, n)
	)
	for i := 0; i < n; i++ {
		var start, end []byte
		if i > 0 {
			start = bounds[i-1]
		}
		if i < n-1 {
			end = bounds[i]
		}
		wg.Add(1)
		go func(i int, start, end []byte) {
			defer wg.Done()
			results[i], errs[i] = runCompactionShard(fs, wrapper, job, start, end, newFileNum, &abort)
			if errs[i] != nil {
				abort.Store(true)
			}
		}(i, start, end)
	}
	wg.Wait()

	var firstErr error
	for _, err := range errs {
		if err != nil && !errors.Is(err, errShardAborted) {
			firstErr = err
			break
		}
	}
	if firstErr == nil {
		for _, err := range errs {
			if err != nil {
				firstErr = err
				break
			}
		}
	}
	// Shard order is key order, so appending keeps outputs sorted and
	// non-overlapping across the whole job.
	var outs []*sstOutput
	for _, r := range results {
		outs = append(outs, r...)
	}
	if firstErr != nil {
		// Failed shards already aborted their own outputs; abort the
		// survivors' too so the job leaves nothing behind.
		abortOutputs(outs)
		return nil, firstErr
	}
	return outs, nil
}

// abortOutputs discards a job's outputs (abort path).
func abortOutputs(outs []*sstOutput) {
	for _, o := range outs {
		o.abort()
	}
}

// shardOverlapsFile reports whether file f can hold keys in [start, end)
// (nil bounds are open).
func shardOverlapsFile(start, end []byte, f manifest.FileMetadata) bool {
	if start != nil && bytes.Compare(base.UserKey(f.Largest), start) < 0 {
		return false
	}
	if end != nil && bytes.Compare(base.UserKey(f.Smallest), end) >= 0 {
		return false
	}
	return true
}

// runCompactionShard merges the job's inputs restricted to user keys in
// [start, end) (nil bounds are open), numbering each output with
// newFileNum as it is created. A non-nil abort flag is polled so a failing
// sibling shard cancels this one early.
//
// Failure is abort-and-retain: every output this shard created is aborted —
// releasing its quota and DEK registration — and the inputs remain
// authoritative.
func runCompactionShard(fs vfs.FS, wrapper FileWrapper, job CompactionJob,
	start, end []byte, newFileNum func() (uint64, error), abort *atomic.Bool) (_ []*sstOutput, retErr error) {

	// Open the inputs that can intersect this shard and build the merge.
	var iters []internalIterator
	var readers []*sstable.Reader
	defer func() {
		for _, r := range readers {
			r.Close()
		}
	}()
	for _, lvl := range job.Inputs {
		for _, f := range lvl.Files {
			if !shardOverlapsFile(start, end, f) {
				continue
			}
			name := sstFileName(job.Dir, f.FileNum)
			raw, err := fs.Open(name)
			if err != nil {
				return nil, fmt.Errorf("lsm: compaction input %d: %w", f.FileNum, err)
			}
			wrapped, err := wrapper.WrapOpen(name, FileKindSST, raw)
			if err != nil {
				raw.Close()
				return nil, err
			}
			r, err := sstable.NewReader(wrapped, sstable.ReaderOptions{FileNum: f.FileNum})
			if err != nil {
				wrapped.Close()
				return nil, fmt.Errorf("lsm: compaction input %d: %w", f.FileNum, err)
			}
			readers = append(readers, r)
			iters = append(iters, &sstIterAdapter{it: r.NewIter()})
		}
	}
	merged := newMergingIter(iters...)

	smallestSnapshot := base.SeqNum(job.SmallestSnapshot)
	var (
		outs          []*sstOutput
		out           *sstOutput // the one being filled (the last of outs), or nil
		lastUserKey   []byte
		haveUserKey   bool
		lastSeqForKey base.SeqNum
		prevAddedUser []byte
	)
	defer func() {
		if retErr != nil {
			abortOutputs(outs)
		}
	}()

	var ok bool
	if start == nil {
		ok = merged.First()
	} else {
		// SearchKey sorts before every version of start, so the shard picks
		// up the first record at or after its lower bound.
		ok = merged.SeekGE(base.SearchKey(start, base.MaxSeqNum))
	}
	for ; ok; ok = merged.Next() {
		if abort != nil && abort.Load() {
			return nil, errShardAborted
		}
		ikey := merged.Key()
		userKey := base.UserKey(ikey)
		if end != nil && bytes.Compare(userKey, end) >= 0 {
			break
		}
		seq, kind := base.DecodeTrailer(ikey)

		firstOccurrence := !haveUserKey || !bytes.Equal(userKey, lastUserKey)
		if firstOccurrence {
			lastUserKey = append(lastUserKey[:0], userKey...)
			haveUserKey = true
		}

		drop := false
		switch {
		case !firstOccurrence && lastSeqForKey <= smallestSnapshot:
			// A newer record of this key is visible to every snapshot.
			drop = true
		case kind == base.KindDelete && seq <= smallestSnapshot && job.Bottommost:
			// Tombstone with nothing underneath it to hide.
			drop = true
		}
		lastSeqForKey = seq
		if drop {
			continue
		}

		// Cut the output at the target size, but only between user keys so
		// all versions of a key share one file.
		if out != nil && out.w.EstimatedSize() >= job.TargetFileSize &&
			prevAddedUser != nil && !bytes.Equal(userKey, prevAddedUser) {
			if err := out.finish(); err != nil {
				return nil, err
			}
			out = nil
		}
		if out == nil {
			num, err := newFileNum()
			if err != nil {
				return nil, err
			}
			if out, err = createSSTOutput(fs, wrapper, job.Dir, num, job.WriterOptions); err != nil {
				return nil, err
			}
			outs = append(outs, out)
		}
		if err := out.w.Add(ikey, merged.Value()); err != nil {
			return nil, err
		}
		prevAddedUser = append(prevAddedUser[:0], userKey...)
	}
	if err := merged.Err(); err != nil {
		return nil, err
	}
	// An output is created only for an entry about to be added, so the one
	// still open is never empty.
	if out != nil {
		if err := out.finish(); err != nil {
			return nil, err
		}
	}
	return outs, nil
}
