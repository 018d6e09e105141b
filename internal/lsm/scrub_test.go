package lsm

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"shield/internal/crypt"
	"shield/internal/lsm/wal"
	"shield/internal/vfs"
)

// buildScrubDB creates a small multi-SST database and closes it cleanly.
// Compaction is disabled so each flush leaves an independent L0 file —
// corrupting or dropping one must not take the whole key space with it.
func buildScrubDB(t *testing.T, fs vfs.FS) {
	t.Helper()
	opts := testOptions(fs)
	opts.L0CompactionTrigger = 100
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		for i := 0; i < 100; i++ {
			k := fmt.Sprintf("r%d-k%03d", round, i)
			if err := db.Put([]byte(k), make([]byte, 128)); err != nil {
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
}

// listNames returns the base names in dir, or empty on error.
func listNames(t *testing.T, fs vfs.FS, dir string) []string {
	t.Helper()
	entries, err := fs.List(dir)
	if err != nil {
		return nil
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name)
	}
	return names
}

func firstSST(t *testing.T, fs vfs.FS) string {
	t.Helper()
	for _, name := range listNames(t, fs, "db") {
		if strings.HasSuffix(name, ".sst") {
			return "db/" + name
		}
	}
	t.Fatal("no SST files")
	return ""
}

// flipByte flips one bit in the middle of a file.
func flipByte(t *testing.T, fs vfs.FS, name string) {
	t.Helper()
	data, err := vfs.ReadFile(fs, name)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := vfs.WriteFile(fs, name, data); err != nil {
		t.Fatal(err)
	}
}

func TestScrubCleanDB(t *testing.T) {
	fs := vfs.NewMem()
	buildScrubDB(t, fs)
	rep, err := Scrub("db", Options{FS: fs}, ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("clean DB not clean:\n%s", rep)
	}
	if rep.SSTsChecked == 0 || rep.BlocksVerified == 0 {
		t.Fatalf("nothing verified: %+v", rep)
	}
}

func TestScrubQuarantinesBitFlippedSST(t *testing.T) {
	fs := vfs.NewMem()
	buildScrubDB(t, fs)
	victim := firstSST(t, fs)
	flipByte(t, fs, victim)

	rep, err := Scrub("db", Options{FS: fs}, ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1\n%s", rep.Quarantined, rep)
	}
	if !rep.ManifestRepaired {
		t.Fatalf("manifest not repaired after dropping an SST\n%s", rep)
	}
	// The corrupt file moved into lost/ and out of the data dir.
	base := strings.TrimPrefix(victim, "db/")
	lost := listNames(t, fs, "db/lost")
	found := false
	for _, n := range lost {
		if n == base {
			found = true
		}
	}
	if !found {
		t.Fatalf("victim %s not in lost/: %v", base, lost)
	}
	for _, n := range listNames(t, fs, "db") {
		if n == base {
			t.Fatalf("victim %s still in data dir", base)
		}
	}
	// Recovery (strict, no best-effort) works: the repaired manifest no
	// longer references the quarantined file.
	opts := testOptions(fs)
	opts.ParanoidChecks = true
	db, err := Open("db", opts)
	if err != nil {
		t.Fatalf("reopen after scrub: %v", err)
	}
	db.Close()
}

func TestScrubDryRunTouchesNothing(t *testing.T) {
	fs := vfs.NewMem()
	buildScrubDB(t, fs)
	victim := firstSST(t, fs)
	flipByte(t, fs, victim)
	before := listNames(t, fs, "db")

	rep, err := Scrub("db", Options{FS: fs}, ScrubOptions{DryRun: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Quarantined != 1 {
		t.Fatalf("dry-run quarantined = %d (reported), want 1\n%s", rep.Quarantined, rep)
	}
	after := listNames(t, fs, "db")
	if len(before) != len(after) {
		t.Fatalf("dry run changed the directory: %v -> %v", before, after)
	}
	if names := listNames(t, fs, "db/lost"); len(names) != 0 {
		t.Fatalf("dry run created lost/: %v", names)
	}
}

func TestScrubRepairsTruncatedManifest(t *testing.T) {
	fs := vfs.NewMem()
	buildScrubDB(t, fs)
	var manifestName string
	for _, n := range listNames(t, fs, "db") {
		if strings.HasPrefix(n, "MANIFEST-") {
			manifestName = n
		}
	}
	data, err := vfs.ReadFile(fs, "db/"+manifestName)
	if err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(fs, "db/"+manifestName, data[:len(data)-len(data)/3]); err != nil {
		t.Fatal(err)
	}

	rep, err := Scrub("db", Options{FS: fs}, ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ManifestRepaired {
		t.Fatalf("truncated manifest not repaired\n%s", rep)
	}
	db, err := Open("db", testOptions(fs))
	if err != nil {
		t.Fatalf("reopen after manifest repair: %v", err)
	}
	defer db.Close()
	// Keys from the salvaged manifest prefix must still be readable.
	if _, err := db.Get([]byte("r0-k050")); err != nil {
		t.Fatalf("Get after repair: %v", err)
	}
}

func TestScrubMovesOrphans(t *testing.T) {
	fs := vfs.NewMem()
	buildScrubDB(t, fs)
	// Fabricate an unreferenced SST and an interrupted tmp+rename leftover.
	if err := vfs.WriteFile(fs, "db/999999.sst", []byte("junk")); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(fs, "db/CURRENT.tmp", []byte("MANIFEST-xxxxxx\n")); err != nil {
		t.Fatal(err)
	}

	rep, err := Scrub("db", Options{FS: fs}, ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Orphans != 2 {
		t.Fatalf("orphans = %d, want 2\n%s", rep.Orphans, rep)
	}
	for _, n := range listNames(t, fs, "db") {
		if n == "999999.sst" || n == "CURRENT.tmp" {
			t.Fatalf("orphan %s still in data dir", n)
		}
	}
}

func TestParanoidChecksRejectsCorruption(t *testing.T) {
	fs := vfs.NewMem()
	buildScrubDB(t, fs)
	flipByte(t, fs, firstSST(t, fs))

	opts := testOptions(fs)
	opts.ParanoidChecks = true
	if _, err := Open("db", opts); !errors.Is(err, ErrCorruption) {
		t.Fatalf("open = %v, want ErrCorruption", err)
	}
	var ce *CorruptionError
	if _, err := Open("db", opts); !errors.As(err, &ce) {
		t.Fatalf("open error %v is not a *CorruptionError", err)
	} else if ce.Kind != FileKindSST {
		t.Fatalf("corruption kind = %v, want sst", ce.Kind)
	}
}

func TestBestEffortRecoveryOpensAroundCorruption(t *testing.T) {
	fs := vfs.NewMem()
	buildScrubDB(t, fs)
	victim := firstSST(t, fs)
	flipByte(t, fs, victim)

	opts := testOptions(fs)
	opts.ParanoidChecks = true
	opts.BestEffortRecovery = true
	db, err := Open("db", opts)
	if err != nil {
		t.Fatalf("best-effort open: %v", err)
	}
	defer db.Close()
	// The corrupt file was quarantined and the rest of the tree serves reads.
	base := strings.TrimPrefix(victim, "db/")
	found := false
	for _, n := range listNames(t, fs, "db/lost") {
		if n == base {
			found = true
		}
	}
	if !found {
		t.Fatalf("victim %s not quarantined into lost/", base)
	}
	readable := 0
	for round := 0; round < 4; round++ {
		for i := 0; i < 100; i++ {
			k := fmt.Sprintf("r%d-k%03d", round, i)
			if _, err := db.Get([]byte(k)); err == nil {
				readable++
			}
		}
	}
	if readable == 0 || readable == 400 {
		t.Fatalf("readable = %d, want some-but-not-all after dropping one SST", readable)
	}
}

func TestBestEffortRecoveryMissingSST(t *testing.T) {
	fs := vfs.NewMem()
	buildScrubDB(t, fs)
	if err := fs.Remove(firstSST(t, fs)); err != nil {
		t.Fatal(err)
	}

	opts := testOptions(fs)
	if _, err := Open("db", opts); err == nil {
		t.Fatal("open with a missing referenced SST succeeded without best-effort")
	}
	opts.BestEffortRecovery = true
	db, err := Open("db", opts)
	if err != nil {
		t.Fatalf("best-effort open with missing SST: %v", err)
	}
	db.Close()
}

// TestSealedReadFaultIsNotCorruption: the sealed reader fetches a whole
// extent with one read, so a device error now fails several blocks at once.
// It must still classify as I/O, not as corruption: a corruption verdict
// quarantines the file.
func TestSealedReadFaultIsNotCorruption(t *testing.T) {
	ffs := vfs.NewFault(vfs.NewMem(), 1)
	raw, err := ffs.Create("f.sst")
	if err != nil {
		t.Fatal(err)
	}
	w := crypt.NewSealedWriter(raw, detSealer(), 0, 0)
	if _, err := w.Write(make([]byte, 3*crypt.SealedBlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := ffs.Open("f.sst")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := detEncWrapper{}.WrapOpen("f.sst", FileKindSST, f)
	if err != nil {
		t.Fatal(err)
	}
	ffs.Inject(vfs.FaultRule{Op: vfs.FaultRead, Path: "f.sst"})
	_, err = r.ReadAt(make([]byte, 2*crypt.SealedBlockSize), 100)
	if !errors.Is(err, vfs.ErrInjected) || isCorruptionErr(err) {
		t.Fatalf("read over a failing device: err = %v, corruption = %v; want the injected fault, not corruption", err, isCorruptionErr(err))
	}
}

// undigestedWrapper opens SSTs the way trackingWrapper sealed them but hands
// back a file that exposes no FileDigest: what the engine sees when a sealed
// table the manifest anchored has been replaced by one that carries no tag
// chain at all.
type undigestedWrapper struct{ *trackingWrapper }

func (w undigestedWrapper) WrapOpen(name string, kind FileKind, f vfs.RandomAccessFile) (vfs.RandomAccessFile, error) {
	r, err := w.trackingWrapper.WrapOpen(name, kind, f)
	if err != nil || kind != FileKindSST {
		return r, err
	}
	return struct{ vfs.RandomAccessFile }{r}, nil
}

// TestParanoidOpenRejectsFileWithoutTheAnchoredDigest: the manifest records a
// tag-chain digest for a table, and the file now there cannot produce one.
// Open used to skip such a file as "nothing to compare" while Scrub called it
// tampered; both now give Scrub's answer, through the one check.
func TestParanoidOpenRejectsFileWithoutTheAnchoredDigest(t *testing.T) {
	fs := vfs.NewMem()
	w := newTrackingWrapper()
	opts := Options{FS: fs, Wrapper: w, MemtableSize: 1 << 20, L0CompactionTrigger: 100}
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	victim := firstSST(t, fs)

	opts.Wrapper = undigestedWrapper{w}
	report, err := Scrub("db", opts, ScrubOptions{DryRun: true})
	if err != nil || report.Verdict(victim) != VerdictTampered {
		t.Fatalf("scrub verdict = %v, %v; want tampered", report.Verdict(victim), err)
	}

	opts.ParanoidChecks = true
	var ie *IntegrityError
	if _, err := Open("db", opts); !errors.As(err, &ie) || ie.Path != victim {
		t.Fatalf("paranoid open = %v, want an *IntegrityError naming %s", err, victim)
	}

	opts.BestEffortRecovery = true
	db, err = Open("db", opts)
	if err != nil {
		t.Fatalf("best-effort open: %v", err)
	}
	defer db.Close()
	if lost := listNames(t, fs, "db/lost"); len(lost) != 1 || "db/"+lost[0] != victim {
		t.Fatalf("lost/ holds %v, want the one table %s", lost, victim)
	}
	if _, err := db.Get([]byte("k")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after the table was dropped = %v, want ErrNotFound", err)
	}
}

// dirImage reads every file directly under dir, so a test can tell whether
// a pass wrote anything.
func dirImage(t *testing.T, fs vfs.FS, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, name := range listNames(t, fs, dir) {
		data, err := vfs.ReadFile(fs, dir+"/"+name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = string(data)
	}
	return out
}

func manifestName(t *testing.T, fs vfs.FS) string {
	t.Helper()
	for _, n := range listNames(t, fs, "db") {
		if strings.HasPrefix(n, "MANIFEST-") {
			return "db/" + n
		}
	}
	t.Fatal("no manifest")
	return ""
}

// TestScrubRefusesManifestOlderThanCurrent: a manifest swapped for an older
// one carries an epoch below the one CURRENT echoes. Open refuses the store
// with an *IntegrityError, and Scrub, running the same load, returns that
// same error before writing anything, whether it is a dry run or not and
// whether or not it may accept a rollback.
func TestScrubRefusesManifestOlderThanCurrent(t *testing.T) {
	fs := vfs.NewMem()
	buildScrubDB(t, fs)
	old, err := vfs.ReadFile(fs, manifestName(t, fs))
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open("db", testOptions(fs))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(fs, manifestName(t, fs), old); err != nil {
		t.Fatal(err)
	}
	before := dirImage(t, fs, "db")

	opts := testOptions(fs)
	_, openErr := Open("db", opts)
	var ie *IntegrityError
	if !errors.As(openErr, &ie) || ie.Kind != FileKindCurrent {
		t.Fatalf("open = %v, want an *IntegrityError on CURRENT", openErr)
	}
	for _, allow := range []bool{false, true} {
		for _, dry := range []bool{false, true} {
			opts.AllowRollback = allow
			rep, err := Scrub("db", opts, ScrubOptions{DryRun: dry})
			if !errors.As(err, &ie) || err.Error() != openErr.Error() {
				t.Fatalf("scrub (AllowRollback=%v, DryRun=%v) = %v, %v; want Open's error %v", allow, dry, rep, err, openErr)
			}
			if after := dirImage(t, fs, "db"); !reflect.DeepEqual(before, after) {
				t.Fatalf("scrub (AllowRollback=%v, DryRun=%v) wrote to the store", allow, dry)
			}
		}
	}
}

// TestScrubFindsUndecodableWALBatch: a WAL record whose checksum holds but
// whose batch does not decode stops Open with a *CorruptionError. Scrub
// decodes every batch through the same reader, so it reports the same
// error as a corrupt finding and leaves the log where it is: Open has no
// way around it, and neither has a scrub.
func TestScrubFindsUndecodableWALBatch(t *testing.T) {
	fs := vfs.NewMem()
	buildScrubDB(t, fs)
	victim := walFileName("db", 999999)
	f, err := fs.Create(victim)
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

	rep, err := Scrub("db", testOptions(fs), ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatalf("scrub passed a store with an undecodable WAL batch:\n%s", rep)
	}
	if _, err := fs.Stat(victim); err != nil {
		t.Fatalf("scrub moved the WAL: %v", err)
	}
	_, openErr := Open("db", testOptions(fs))
	var ce *CorruptionError
	if !errors.As(openErr, &ce) || ce.Kind != FileKindWAL || ce.Path != victim {
		t.Fatalf("open = %v, want a *CorruptionError on %s", openErr, victim)
	}
	found := false
	for _, f := range rep.Findings {
		if f.Path == victim {
			found = f.Kind == FileKindWAL && f.Action == ScrubCorrupt && f.Detail == openErr.Error()
		}
	}
	if !found {
		t.Fatalf("no corrupt finding for %s matching Open's %q:\n%s", victim, openErr, rep)
	}
}
