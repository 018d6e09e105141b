package lsm

import (
	"errors"
	"fmt"
	"path"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shield/internal/lsm/wal"
	"shield/internal/metrics"
	"shield/internal/vfs"
)

// The recovery pass checks tables on up to MaxBackgroundJobs goroutines but
// applies every verdict serially, in level and file order. These tests run
// the same damaged store with a bound of 1 (the serial pass: no goroutine
// starts) and of 4, and require the same outcome from both.

// buildTables creates a store of n L0 tables (compaction off) and returns
// their paths in the recovery pass's order: level, then file order.
func buildTables(t *testing.T, fs vfs.FS, n int) []string {
	t.Helper()
	opts := testOptions(fs)
	opts.L0CompactionTrigger = 100
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < n; round++ {
		for i := 0; i < 50; i++ {
			if err := db.Put([]byte(fmt.Sprintf("r%02d-k%03d", round, i)), make([]byte, 64)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	o := testOptions(fs).withDefaults()
	st, err := loadStore(&o, "db", false, nil)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, files := range st.ver.Levels {
		for _, f := range files {
			names = append(names, sstFileName("db", f.FileNum))
		}
	}
	if len(names) != n {
		t.Fatalf("built %d tables, want %d", len(names), n)
	}
	return names
}

// breakFooter flips a bit of a table's magic number, so that even the cheap
// open-time check (footer and index) finds the table corrupt.
func breakFooter(t *testing.T, fs vfs.FS, name string) {
	t.Helper()
	data, err := vfs.ReadFile(fs, name)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x40
	if err := vfs.WriteFile(fs, name, data); err != nil {
		t.Fatal(err)
	}
}

// logLines collects what a pass logs.
type logLines struct {
	mu    sync.Mutex
	lines []string
}

func (l *logLines) log(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *logLines) get() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.lines...)
}

// levelFiles returns the file numbers of each level of db's version.
func levelFiles(db *DB) [][]uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	var out [][]uint64
	for _, files := range db.current.Levels {
		var nums []uint64
		for _, f := range files {
			nums = append(nums, f.FileNum)
		}
		out = append(out, nums)
	}
	return out
}

// TestBestEffortParallelMatchesSerial: two corrupt tables under
// BestEffortRecovery leave the same version, the same quarantined files and
// the same log whatever the bound.
func TestBestEffortParallelMatchesSerial(t *testing.T) {
	type outcome struct {
		levels [][]uint64
		lost   []string
		log    []string
	}
	run := func(jobs int) outcome {
		fs := vfs.NewMem()
		tables := buildTables(t, fs, 8)
		breakFooter(t, fs, tables[2])
		breakFooter(t, fs, tables[5])
		var log logLines
		opts := testOptions(fs)
		opts.L0CompactionTrigger = 100
		opts.BestEffortRecovery = true
		opts.MaxBackgroundJobs = jobs
		opts.Logger = log.log
		db, err := Open("db", opts)
		if err != nil {
			t.Fatalf("jobs=%d: best-effort open: %v", jobs, err)
		}
		defer db.Close()
		return outcome{levelFiles(db), listNames(t, fs, "db/lost"), log.get()}
	}
	serial, parallel := run(1), run(4)
	if len(serial.lost) != 2 {
		t.Fatalf("serial pass quarantined %v, want the two corrupt tables", serial.lost)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("jobs=1 and jobs=4 differ:\n serial   %+v\n parallel %+v", serial, parallel)
	}
}

// TestOpenErrorNamesFirstBadTable: without best effort the open fails on the
// first bad table in level order, even when that table's check is the
// slowest and a later bad table's check finishes first.
func TestOpenErrorNamesFirstBadTable(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			mem := vfs.NewMem()
			tables := buildTables(t, mem, 8)
			breakFooter(t, mem, tables[1])
			breakFooter(t, mem, tables[6])
			fs := vfs.NewFault(mem, 1)
			fs.Inject(vfs.FaultRule{Op: vfs.FaultOpen, Path: path.Base(tables[1]), Stall: 50 * time.Millisecond})
			opts := testOptions(fs)
			opts.MaxBackgroundJobs = jobs
			_, err := Open("db", opts)
			var ce *CorruptionError
			if !errors.As(err, &ce) || ce.Path != tables[1] {
				t.Fatalf("open = %v, want a *CorruptionError on %s", err, tables[1])
			}
			if lost := listNames(t, mem, "db/lost"); len(lost) != 0 {
				t.Fatalf("a failed open quarantined %v", lost)
			}
		})
	}
}

// TestScrubParallelMatchesSerial: a scrub of a store with a bit-flipped and
// a missing table reports the same findings, in the same order, and the same
// verdicts whatever the bound.
func TestScrubParallelMatchesSerial(t *testing.T) {
	type outcome struct {
		report *ScrubReport
		log    []string
	}
	run := func(jobs int) outcome {
		fs := vfs.NewMem()
		tables := buildTables(t, fs, 8)
		flipByte(t, fs, tables[3])
		if err := fs.Remove(tables[6]); err != nil {
			t.Fatal(err)
		}
		var log logLines
		opts := testOptions(fs)
		opts.MaxBackgroundJobs = jobs
		opts.Logger = log.log
		rep, err := Scrub("db", opts, ScrubOptions{})
		if err != nil {
			t.Fatalf("jobs=%d: scrub: %v", jobs, err)
		}
		return outcome{rep, log.get()}
	}
	serial, parallel := run(1), run(4)
	if serial.report.Quarantined != 1 || serial.report.SSTsChecked != 8 {
		t.Fatalf("serial scrub:\n%s", serial.report)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("jobs=1 and jobs=4 differ:\n serial\n%s%q\n parallel\n%s%q", serial.report, serial.log, parallel.report, parallel.log)
	}
}

// TestTablesVerifiedCountsLiveTables: a reopen verifies every live table
// once, and the counter says so.
func TestTablesVerifiedCountsLiveTables(t *testing.T) {
	fs := vfs.NewMem()
	tables := buildTables(t, fs, 6)
	opts := testOptions(fs)
	opts.L0CompactionTrigger = 100
	opts.MaxBackgroundJobs = 4
	rec := metrics.Recovery
	verified := rec.TablesVerified.Load()
	load, tablesNs, install, replay := rec.LoadNanos.Load(), rec.TablesNanos.Load(), rec.InstallNanos.Load(), rec.ReplayNanos.Load()
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if d := rec.TablesVerified.Load() - verified; d != int64(len(tables)) {
		t.Fatalf("TablesVerified = %d after a reopen of %d live tables", d, len(tables))
	}
	if rec.LoadNanos.Load() <= load || rec.TablesNanos.Load() <= tablesNs ||
		rec.InstallNanos.Load() <= install || rec.ReplayNanos.Load() <= replay {
		t.Fatal("a recovery stage went untimed")
	}
}

// handleFS counts the file handles open on it.
type handleFS struct {
	vfs.FS
	open atomic.Int64
}

type (
	handleRandom struct {
		vfs.RandomAccessFile
		fs *handleFS
	}
	handleSequential struct {
		vfs.SequentialFile
		fs *handleFS
	}
	handleWritable struct {
		vfs.WritableFile
		fs *handleFS
	}
)

func (h *handleFS) Open(name string) (vfs.RandomAccessFile, error) {
	f, err := h.FS.Open(name)
	if err != nil {
		return nil, err
	}
	h.open.Add(1)
	return handleRandom{f, h}, nil
}

func (h *handleFS) OpenSequential(name string) (vfs.SequentialFile, error) {
	f, err := h.FS.OpenSequential(name)
	if err != nil {
		return nil, err
	}
	h.open.Add(1)
	return handleSequential{f, h}, nil
}

func (h *handleFS) Create(name string) (vfs.WritableFile, error) {
	f, err := h.FS.Create(name)
	if err != nil {
		return nil, err
	}
	h.open.Add(1)
	return handleWritable{f, h}, nil
}

func (f handleRandom) Close() error     { f.fs.open.Add(-1); return f.RandomAccessFile.Close() }
func (f handleSequential) Close() error { f.fs.open.Add(-1); return f.SequentialFile.Close() }
func (f handleWritable) Close() error   { f.fs.open.Add(-1); return f.WritableFile.Close() }

// TestFailedOpenClosesEverything: an Open that fails leaves no file handle
// open, whether it fails at the tables (after opening the ones before the
// bad one, and with a bound of 4 some after it) or at WAL replay (after
// creating the new MANIFEST).
func TestFailedOpenClosesEverything(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		t.Run(fmt.Sprintf("missing-table/jobs=%d", jobs), func(t *testing.T) {
			mem := vfs.NewMem()
			tables := buildTables(t, mem, 9)
			if err := mem.Remove(tables[len(tables)-1]); err != nil {
				t.Fatal(err)
			}
			fs := &handleFS{FS: mem}
			opts := testOptions(fs)
			opts.MaxBackgroundJobs = jobs
			if _, err := Open("db", opts); err == nil {
				t.Fatal("open with a missing table succeeded")
			}
			if n := fs.open.Load(); n != 0 {
				t.Fatalf("the failed open left %d file handles open", n)
			}
		})
	}
	t.Run("undecodable-wal", func(t *testing.T) {
		mem := vfs.NewMem()
		buildTables(t, mem, 3)
		f, err := mem.Create(walFileName("db", 999999))
		if err != nil {
			t.Fatal(err)
		}
		w := wal.NewWriter(f)
		if err := w.AddRecord([]byte("garbage-not-a-batch")); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		fs := &handleFS{FS: mem}
		if _, err := Open("db", testOptions(fs)); err == nil {
			t.Fatal("open with an undecodable WAL batch succeeded")
		}
		if n := fs.open.Load(); n != 0 {
			t.Fatalf("the failed open left %d file handles open", n)
		}
	})
}
