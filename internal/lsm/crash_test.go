package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"testing"

	"shield/internal/vfs"
	"shield/internal/vfs/vfstest"
)

// crashPoint is one captured crash image plus the number of operations the
// workload had been acknowledged for just before the sync boundary (acked)
// and once its image had been captured (captured). Every op with index <
// acked completed a synced commit before this point, so its effect must
// survive the crash; the op with index captured may be mid-commit, and no
// later op had started.
type crashPoint struct {
	event    string
	img      *vfs.CrashImage
	acked    int64
	captured int64
}

// crashOp is one scripted workload operation (Put of key->value).
type crashOp struct {
	key, value []byte
}

func crashWorkloadOps(n int) []crashOp {
	ops := make([]crashOp, n)
	for i := range ops {
		// Reuse keys so later ops overwrite earlier ones: the expected
		// post-crash value depends on exactly which ops were acked.
		k := fmt.Sprintf("k%03d", i%90)
		v := fmt.Sprintf("v%05d-%064d", i, i)
		ops[i] = crashOp{key: []byte(k), value: []byte(v)}
	}
	return ops
}

// expectedAfter applies the first acked ops to a model map.
func expectedAfter(ops []crashOp, acked int64) map[string][]byte {
	m := make(map[string][]byte)
	for i := int64(0); i < acked && i < int64(len(ops)); i++ {
		m[string(ops[i].key)] = ops[i].value
	}
	return m
}

func crashTestOptions(fs vfs.FS) Options {
	return Options{
		FS:                  fs,
		SyncWrites:          true,    // every acked Put is a durability promise
		MemtableSize:        1 << 10, // flush every handful of ops
		L0CompactionTrigger: 2,       // compact eagerly
		BaseLevelSize:       8 << 10,
		TargetFileSize:      4 << 10,
		MaxManifestFileSize: 2 << 10, // force manifest rotations mid-workload
	}
}

// runCrashWorkload runs the scripted workload on a CrashFS, collecting a
// crash image at every sync boundary. Flush and compaction goroutines sync
// while the writer keeps getting acks, so each point promises the ack count
// noted before its image was captured (vfstest.AckedFS).
func runCrashWorkload(t *testing.T, ops []crashOp) []crashPoint {
	t.Helper()
	cfs := vfs.NewCrash(1)
	var (
		mu     sync.Mutex
		points []crashPoint
		acked  atomic.Int64
	)
	fs := vfstest.NewAckedFS(cfs, acked.Load, func(event string, img *vfs.CrashImage, acked, captured int64) {
		mu.Lock()
		points = append(points, crashPoint{event: event, img: img, acked: acked, captured: captured})
		mu.Unlock()
	})

	db, err := Open("db", crashTestOptions(fs))
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range ops {
		if err := db.Put(op.key, op.value); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		acked.Add(1)
		if (i+1)%25 == 0 {
			if err := db.Flush(); err != nil {
				t.Fatalf("flush at %d: %v", i, err)
			}
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	return points
}

// verifyCrashImage reopens a materialized post-crash filesystem and checks
// that it holds exactly the state after some prefix of the ops: the first k,
// for some k from pt.acked (every acked op survived) to pt.captured+1 (an
// unsynced tail, kept by a torn image, can hold every op up to the one in
// flight when the image was captured).
func verifyCrashImage(t *testing.T, mode string, i int, pt crashPoint, fs *vfs.MemFS, ops []crashOp) {
	t.Helper()
	opts := crashTestOptions(fs)
	opts.ParanoidChecks = true
	db, err := Open("db", opts)
	if err != nil {
		t.Fatalf("%s point %d (%s): reopen failed: %v\nimage:\n%s", mode, i, pt.event, err, pt.img)
	}
	defer db.Close()
	got := map[string][]byte{}
	for _, op := range ops {
		v, err := db.Get(op.key)
		switch {
		case err == nil:
			got[string(op.key)] = v
		case !errors.Is(err, ErrNotFound):
			t.Fatalf("%s point %d (%s, acked=%d): Get(%s): %v", mode, i, pt.event, pt.acked, op.key, err)
		}
	}
	hi := min(pt.captured+1, int64(len(ops)))
	for k := pt.acked; k <= hi; k++ {
		if maps.EqualFunc(got, expectedAfter(ops, k), bytes.Equal) {
			return
		}
	}
	want := expectedAfter(ops, pt.acked)
	for k, w := range want {
		if !bytes.Equal(got[k], w) {
			t.Fatalf("%s point %d (%s, acked=%d, captured=%d): Get(%s) = %q, want %q", mode, i, pt.event, pt.acked, pt.captured, k, got[k], w)
		}
	}
	t.Fatalf("%s point %d (%s, acked=%d, captured=%d): the image holds the state after no prefix of %d to %d ops", mode, i, pt.event, pt.acked, pt.captured, pt.acked, hi)
}

// TestCrashRecoveryEnumeration crashes the database at every sync boundary of
// a scripted workload — WAL syncs, SST flushes, compactions, manifest
// rotations, CURRENT installs — and recovers from both the strict image
// (unsynced data gone) and a torn image (random prefixes of unsynced tails
// survive). At every point recovery must succeed and every synced-acked
// operation must be readable.
func TestCrashRecoveryEnumeration(t *testing.T) {
	ops := crashWorkloadOps(150)
	points := runCrashWorkload(t, ops)
	if len(points) < 50 {
		t.Fatalf("only %d crash points enumerated, want >= 50", len(points))
	}
	t.Logf("enumerated %d crash points", len(points))
	for i, pt := range points {
		verifyCrashImage(t, "strict", i, pt, pt.img.Strict(), ops)
		verifyCrashImage(t, "torn", i, pt, pt.img.Torn(0), ops)
	}
}

// TestCrashRecoveryFinalImage crashes after the final boundary (covering the
// clean-shutdown path) and checks full workload survival.
func TestCrashRecoveryFinalImage(t *testing.T) {
	ops := crashWorkloadOps(150)
	points := runCrashWorkload(t, ops)
	if len(points) == 0 {
		t.Fatal("no crash points")
	}
	last := points[len(points)-1]
	// Close() syncs everything, so the last boundary may still predate the
	// final acked count; use it as the floor and verify against it.
	verifyCrashImage(t, "final", len(points)-1, last, last.img.Strict(), ops)
}

// TestScrubThenOpenOverCrashImages runs the offline scrub, applying its
// repairs, over every crash image of TestCrashRecoveryEnumeration that has
// a CURRENT, then recovers: a scrub must never cost a synced-acked write.
// A second, dry-run scrub of the recovered store must then find nothing.
func TestScrubThenOpenOverCrashImages(t *testing.T) {
	ops := crashWorkloadOps(150)
	points := runCrashWorkload(t, ops)
	var scrubbed, noCurrent int
	for i, pt := range points {
		for _, mode := range []string{"strict", "torn"} {
			fs := pt.img.Strict()
			if mode == "torn" {
				fs = pt.img.Torn(0)
			}
			if _, err := fs.Stat("db/CURRENT"); errors.Is(err, vfs.ErrNotFound) {
				noCurrent++
				continue
			}
			if _, err := Scrub("db", crashTestOptions(fs), ScrubOptions{}); err != nil {
				t.Fatalf("%s point %d (%s): scrub: %v\nimage:\n%s", mode, i, pt.event, err, pt.img)
			}
			verifyCrashImage(t, "scrubbed "+mode, i, pt, fs, ops)
			rep, err := Scrub("db", crashTestOptions(fs), ScrubOptions{DryRun: true})
			if err != nil || !rep.Clean() {
				t.Fatalf("%s point %d (%s): second scrub: %v\n%s", mode, i, pt.event, err, rep)
			}
			scrubbed++
		}
	}
	t.Logf("scrubbed then recovered %d images; %d had no CURRENT", scrubbed, noCurrent)
}
