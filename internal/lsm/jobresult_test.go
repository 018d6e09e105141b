package lsm

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"shield/internal/vfs"
)

// forgingCompactor runs the job in-process, then hands back the result with
// its outputs changed by forge: the result an orchestrator relays from a
// faulty or hostile worker.
type forgingCompactor struct {
	fs    vfs.FS
	forge func(res *CompactionResult, job CompactionJob)
}

func (c *forgingCompactor) Compact(job CompactionJob, newFileNum func() (uint64, error)) (CompactionResult, error) {
	res, err := RunCompaction(c.fs, nil, job, newFileNum)
	if err == nil {
		c.forge(&res, job)
	}
	return res, err
}

// liveFileNums returns the current version's file numbers, sorted.
func liveFileNums(db *DB) []uint64 {
	var nums []uint64
	for num := range liveFiles(db) {
		nums = append(nums, num)
	}
	slices.Sort(nums)
	return nums
}

// TestCompactionResultFileNumbersChecked: a compaction result is installed
// only if each output's number was issued to the job, once. A result naming
// an input's number, a number issued to nobody, or one number twice is
// refused: CompactRange fails with ErrJobLost, the inputs stay live and read
// back, the tables the job created are removed, and a reopen finds the same
// tree.
func TestCompactionResultFileNumbersChecked(t *testing.T) {
	for name, forge := range map[string]func(res *CompactionResult, job CompactionJob){
		"an input's number": func(res *CompactionResult, job CompactionJob) {
			res.Outputs[0].FileNum = job.Inputs[0].Files[0].FileNum
		},
		"a number issued to nobody": func(res *CompactionResult, _ CompactionJob) {
			res.Outputs[0].FileNum = 1 << 40
		},
		"one number twice": func(res *CompactionResult, _ CompactionJob) {
			res.Outputs = append(res.Outputs, res.Outputs[0])
		},
	} {
		t.Run(name, func(t *testing.T) {
			fs := vfs.NewMem()
			opts := Options{
				FS:                  fs,
				L0CompactionTrigger: 100,
				Compactor:           &forgingCompactor{fs: fs, forge: forge},
				Logger:              func(string, ...any) {},
			}
			db, err := Open("db", opts)
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]string{}
			for round := 0; round < 3; round++ {
				for i := 0; i < 200; i++ {
					k, v := fmt.Sprintf("k%04d", (i*7+round)%300), fmt.Sprintf("v%d-%064d", round, i)
					if err := db.Put([]byte(k), []byte(v)); err != nil {
						t.Fatal(err)
					}
					want[k] = v
				}
				if err := db.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			before := liveFileNums(db)
			beforeNames := sstNames(t, fs, "db")

			if err := db.CompactRange(); !errors.Is(err, ErrJobLost) {
				t.Fatalf("CompactRange with a forged result = %v, want ErrJobLost", err)
			}
			if db.Degraded() != nil {
				t.Fatalf("a refused result degraded the DB: %v", db.Degraded())
			}
			if after := liveFileNums(db); !slices.Equal(after, before) {
				t.Fatalf("live tables changed from %v to %v", before, after)
			}
			if names := sstNames(t, fs, "db"); !slices.Equal(names, beforeNames) {
				t.Fatalf("tables on disk %v, want the inputs alone %v", names, beforeNames)
			}
			checkAgainstModel(t, db, want)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			opts.Compactor = nil
			db, err = Open("db", opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if after := liveFileNums(db); !slices.Equal(after, before) {
				t.Fatalf("reopened with tables %v, want %v", after, before)
			}
			checkAgainstModel(t, db, want)
		})
	}
}
