package lsm

import (
	"errors"
	"fmt"
	"io"
	"path"
	"sort"
	"strings"

	"shield/internal/lsm/manifest"
	"shield/internal/lsm/wal"
	"shield/internal/metrics"
	"shield/internal/vfs"
)

// ScrubOptions configures an offline integrity scrub.
type ScrubOptions struct {
	// Wrapper decrypts files the way the DB would; defaults to NopWrapper.
	Wrapper FileWrapper

	// DryRun reports what the scrub WOULD do without moving or writing
	// anything.
	DryRun bool

	// Encrypted, when non-nil, sniffs a file's raw first bytes and reports
	// whether it is in an encrypted format this scrub's Wrapper cannot read.
	// Such files are skipped (reported, never quarantined): an undecryptable
	// file is not provably corrupt.
	Encrypted func(prefix []byte) bool

	// Logger receives progress lines; nil discards.
	Logger func(format string, args ...any)

	// Freshness, when non-nil, supplies the sealed epoch floor for rollback
	// detection, the same way Options.Freshness does at open.
	Freshness FreshnessStore

	// AllowRollback is the disaster-recovery override: instead of failing
	// closed on an epoch regression, the scrub accepts the rolled-back
	// state, re-stamps the store with a fresh epoch above the sealed floor,
	// and seals the new floor — after which normal opens succeed again.
	// Healthy files in a rolled-back store report verdict "stale-epoch",
	// not "ok": their contents authenticate but their recency does not.
	AllowRollback bool
}

// ScrubVerdict is the per-file integrity verdict of an authenticated scrub.
type ScrubVerdict string

// Per-file verdicts.
const (
	// VerdictOK: every block authenticated (or, for format v1 files, every
	// checksum verified) and the tag-chain digest matches the manifest.
	VerdictOK ScrubVerdict = "ok"

	// VerdictTampered: cryptographic proof the bytes changed after sealing —
	// an AEAD tag failed under the right key, or the tag-chain digest does
	// not match the digest the manifest anchored. (Unauthenticated v1 files
	// report tampered on checksum failure; the proof is weaker but the
	// handling identical.)
	VerdictTampered ScrubVerdict = "tampered"

	// VerdictStaleEpoch: the file itself authenticates, but the store's
	// freshness epoch regressed below the sealed floor — the whole tree is
	// a rolled-back snapshot, so no file in it is known current.
	VerdictStaleEpoch ScrubVerdict = "stale-epoch"

	// VerdictUndecryptable: the file cannot be verified at all (DEK
	// unresolvable, KDS unreachable, keyless scrub). Never quarantined: an
	// undecryptable file is not provably corrupt.
	VerdictUndecryptable ScrubVerdict = "undecryptable"
)

// ScrubAction classifies what the scrub did (or would do) with one file.
type ScrubAction string

// Scrub actions.
const (
	ScrubQuarantined ScrubAction = "quarantined" // corrupt; moved to lost/
	ScrubMissing     ScrubAction = "missing"     // referenced by the manifest but absent
	ScrubSkipped     ScrubAction = "skipped"     // unverifiable (e.g. undecryptable); left alone
	ScrubOrphan      ScrubAction = "orphan"      // unreferenced; moved to lost/
	ScrubTornTail    ScrubAction = "torn-tail"   // WAL with a truncated tail; recoverable, left alone
	ScrubRepaired    ScrubAction = "repaired"    // manifest rewritten around damage
)

// ScrubFinding is one file-level result.
type ScrubFinding struct {
	Path   string
	Kind   FileKind
	Action ScrubAction
	Detail string
}

// ScrubReport summarizes one scrub pass.
type ScrubReport struct {
	SSTsChecked      int
	WALsChecked      int
	BlocksVerified   int64
	WALRecordsRead   int64
	TornWALTails     int
	Quarantined      int
	Orphans          int
	Skipped          int
	ManifestRepaired bool
	Findings         []ScrubFinding

	// Verdicts maps each live SST path to its integrity verdict.
	Verdicts map[string]ScrubVerdict

	// Epoch is the store's recovered freshness epoch; EpochRegressed is set
	// when it was below the sealed floor (the store is a rolled-back
	// snapshot, accepted only under AllowRollback).
	Epoch          uint64
	EpochRegressed bool
}

// Clean reports whether the scrub found nothing wrong at all.
func (r *ScrubReport) Clean() bool { return len(r.Findings) == 0 && !r.EpochRegressed }

// Verdict returns the recorded verdict for an SST path, defaulting to
// undecryptable for files the scrub never reached.
func (r *ScrubReport) Verdict(path string) ScrubVerdict {
	if v, ok := r.Verdicts[path]; ok {
		return v
	}
	return VerdictUndecryptable
}

// String renders a human-readable report.
func (r *ScrubReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scrub: %d SSTs (%d blocks), %d WALs (%d records)\n",
		r.SSTsChecked, r.BlocksVerified, r.WALsChecked, r.WALRecordsRead)
	fmt.Fprintf(&b, "scrub: quarantined=%d missing/orphans=%d skipped=%d torn_wal_tails=%d manifest_repaired=%v\n",
		r.Quarantined, r.Orphans, r.Skipped, r.TornWALTails, r.ManifestRepaired)
	if r.Epoch > 0 || r.EpochRegressed {
		fmt.Fprintf(&b, "scrub: epoch=%d regressed=%v\n", r.Epoch, r.EpochRegressed)
	}
	var counts [4]int
	for _, v := range r.Verdicts {
		switch v {
		case VerdictOK:
			counts[0]++
		case VerdictTampered:
			counts[1]++
		case VerdictStaleEpoch:
			counts[2]++
		case VerdictUndecryptable:
			counts[3]++
		}
	}
	if len(r.Verdicts) > 0 {
		fmt.Fprintf(&b, "scrub: verdicts ok=%d tampered=%d stale-epoch=%d undecryptable=%d\n",
			counts[0], counts[1], counts[2], counts[3])
	}
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "  %-11s %-8s %s: %s\n", f.Action, f.Kind, f.Path, f.Detail)
	}
	if r.Clean() {
		b.WriteString("scrub: clean\n")
	}
	return b.String()
}

// scrubber carries one pass's state.
type scrubber struct {
	fs     vfs.FS
	dir    string
	opts   ScrubOptions
	report *ScrubReport
}

// Scrub walks the database in dir like fsck: it verifies every SST block
// checksum and WAL record the manifest makes live, quarantines provably
// corrupt files into <dir>/lost/, rewrites the MANIFEST around the damage,
// and moves unreferenced files aside. It must run offline (no DB open on
// dir). A torn WAL or manifest tail is the expected power-loss outcome and
// is reported, not quarantined. With DryRun nothing is modified.
func Scrub(fsys vfs.FS, dir string, opts ScrubOptions) (*ScrubReport, error) {
	if opts.Wrapper == nil {
		opts.Wrapper = NopWrapper{}
	}
	if opts.Logger == nil {
		opts.Logger = func(string, ...any) {}
	}
	s := &scrubber{fs: fsys, dir: dir, opts: opts, report: &ScrubReport{
		Verdicts: make(map[string]ScrubVerdict),
	}}

	// CURRENT -> manifest. A database without a readable CURRENT cannot be
	// scrubbed (there is nothing to anchor the live file set to).
	data, err := readCurrent(fsys, opts.Wrapper, dir)
	if err != nil {
		return nil, fmt.Errorf("lsm: scrub: reading CURRENT: %w", err)
	}
	manifestName, _ := parseCurrent(data)
	manifestNum, ok := parseManifestName(manifestName)
	if !ok {
		return nil, &CorruptionError{
			Path:   currentFileName(dir),
			Kind:   FileKindCurrent,
			Detail: fmt.Sprintf("points to invalid manifest %q", manifestName),
		}
	}

	st, err := loadManifestSalvage(fsys, opts.Wrapper, dir, manifestName, true)
	if err != nil {
		return s.report, err
	}
	manifestDamaged := st.corrupt || st.torn
	if manifestDamaged && !s.wrapperTransforms(path.Join(dir, manifestName)) &&
		s.sniffEncrypted(path.Join(dir, manifestName)) {
		// An encrypted manifest this wrapper cannot read is indistinguishable
		// from a torn one, and "repairing" it would discard the real tree.
		// Refuse rather than guess.
		return nil, fmt.Errorf("lsm: scrub: manifest %s is in an encrypted format this scrub cannot read; rerun with the keys", manifestName)
	}
	if st.corrupt {
		s.finding(path.Join(dir, manifestName), FileKindManifest, ScrubQuarantined,
			"undecodable edit record; salvaged the valid prefix")
	} else if st.torn {
		s.finding(path.Join(dir, manifestName), FileKindManifest, ScrubTornTail,
			"truncated tail record; salvaged the valid prefix")
	}

	// Freshness: a recovered epoch below the sealed floor means the whole
	// tree is a rolled-back snapshot. Fail closed unless AllowRollback, in
	// which case the repair below re-stamps the store past the floor.
	s.report.Epoch = st.epoch
	if opts.Freshness != nil {
		if floor, sealed := opts.Freshness.EpochFloor(); sealed && st.epoch < floor {
			s.report.EpochRegressed = true
			if !opts.AllowRollback {
				return s.report, fmt.Errorf("%w: recovered epoch %d below sealed floor %d (rerun with AllowRollback to accept)",
					ErrEpochRegression, st.epoch, floor)
			}
			opts.Logger("scrub: accepting rollback: epoch %d below floor %d", st.epoch, floor)
		}
	}

	// Verify every live SST.
	dropped := make(map[uint64]bool)
	for lvl := range st.ver.Levels {
		for _, f := range st.ver.Levels[lvl] {
			name := sstFileName(dir, f.FileNum)
			s.report.SSTsChecked++
			action, detail, verdict := s.classifySST(name, f)
			if verdict == VerdictOK && s.report.EpochRegressed {
				// Authentic bytes, stale tree.
				verdict = VerdictStaleEpoch
			}
			s.report.Verdicts[name] = verdict
			switch action {
			case "":
				// healthy
			case ScrubSkipped:
				s.finding(name, FileKindSST, ScrubSkipped, detail)
			case ScrubMissing:
				dropped[f.FileNum] = true
				s.finding(name, FileKindSST, ScrubMissing, detail)
			case ScrubQuarantined:
				dropped[f.FileNum] = true
				s.quarantine(name, FileKindSST, detail)
			}
		}
	}

	// Walk the directory: live WALs get read end to end, everything
	// unreferenced is an orphan.
	entries, err := fsys.List(dir)
	if err != nil {
		return s.report, err
	}
	live := make(map[uint64]bool)
	for _, lvl := range st.ver.Levels {
		for _, f := range lvl {
			live[f.FileNum] = true
		}
	}
	var walNums []uint64
	for _, e := range entries {
		full := path.Join(dir, e.Name)
		kind, num, ok := parseFileName(e.Name)
		if !ok {
			if strings.HasSuffix(e.Name, ".tmp") {
				// Leftover from an interrupted tmp+rename.
				s.moveOrphan(full, FileKindOther, "interrupted tmp+rename leftover")
			}
			continue
		}
		switch kind {
		case FileKindWAL:
			if num >= st.logNum {
				walNums = append(walNums, num)
			} else {
				s.moveOrphan(full, FileKindWAL, fmt.Sprintf("stale (older than live log %d)", st.logNum))
			}
		case FileKindSST:
			if !live[num] && !dropped[num] {
				s.moveOrphan(full, FileKindSST, "not referenced by the manifest")
			}
		case FileKindManifest:
			if num != manifestNum {
				s.moveOrphan(full, FileKindManifest, "not referenced by CURRENT")
			}
		}
	}

	// Read live WALs end to end; a torn tail is expected, anything the
	// reader cannot get past is reported (recovery will truncate there).
	sort.Slice(walNums, func(i, j int) bool { return walNums[i] < walNums[j] })
	for _, num := range walNums {
		s.checkWAL(num)
	}

	// Rewrite the manifest when damage was found in it, files were dropped,
	// or a rollback was accepted (the repair re-stamps the epoch), so
	// recovery never sees references to quarantined files or a stale epoch.
	if (manifestDamaged || len(dropped) > 0 || s.report.EpochRegressed) && !s.opts.DryRun {
		if err := s.repairManifest(st, manifestName, manifestNum, dropped); err != nil {
			return s.report, fmt.Errorf("lsm: scrub: rewriting manifest: %w", err)
		}
		s.report.ManifestRepaired = true
		s.finding(path.Join(dir, manifestName), FileKindManifest, ScrubRepaired,
			"rewrote a compacted manifest around the damage")
	}
	return s.report, nil
}

func (s *scrubber) finding(p string, kind FileKind, action ScrubAction, detail string) {
	s.report.Findings = append(s.report.Findings, ScrubFinding{Path: p, Kind: kind, Action: action, Detail: detail})
	switch action {
	case ScrubQuarantined:
		s.report.Quarantined++
	case ScrubMissing, ScrubOrphan:
		s.report.Orphans++
	case ScrubSkipped:
		s.report.Skipped++
	case ScrubTornTail:
		if kind == FileKindWAL {
			s.report.TornWALTails++
		}
	}
	s.opts.Logger("scrub: %s %s: %s", action, p, detail)
}

// quarantine moves a corrupt file to lost/ (or just reports under DryRun).
func (s *scrubber) quarantine(name string, kind FileKind, detail string) {
	if !s.opts.DryRun {
		if err := quarantineFile(s.fs, s.dir, name); err != nil {
			s.finding(name, kind, ScrubSkipped, "quarantine failed: "+err.Error())
			return
		}
		metrics.Recovery.FilesQuarantined.Add(1)
	}
	s.finding(name, kind, ScrubQuarantined, detail)
}

func (s *scrubber) moveOrphan(name string, kind FileKind, detail string) {
	if !s.opts.DryRun {
		if err := quarantineFile(s.fs, s.dir, name); err != nil {
			s.finding(name, kind, ScrubSkipped, "moving orphan failed: "+err.Error())
			return
		}
	}
	s.finding(name, kind, ScrubOrphan, detail)
}

// wrapperTransforms reports whether the configured wrapper actually decrypts
// name (returns a different stream than the raw file). When it does, the
// scrub holds the key, and damage found below it is genuine.
func (s *scrubber) wrapperTransforms(name string) bool {
	raw, err := s.fs.OpenSequential(name)
	if err != nil {
		return false
	}
	defer raw.Close()
	wrapped, err := s.opts.Wrapper.WrapOpenSequential(name, FileKindManifest, raw)
	if err != nil {
		return false
	}
	if wrapped != vfs.SequentialFile(raw) {
		wrapped.Close()
		return true
	}
	return false
}

// sniffEncrypted reports whether the file's raw prefix is an encrypted
// format the configured wrapper cannot read.
func (s *scrubber) sniffEncrypted(name string) bool {
	if s.opts.Encrypted == nil {
		return false
	}
	f, err := s.fs.Open(name)
	if err != nil {
		return false
	}
	defer f.Close()
	prefix := make([]byte, 64)
	n, err := f.ReadAt(prefix, 0)
	if n == 0 && err != nil {
		return false
	}
	return s.opts.Encrypted(prefix[:n])
}

// classifySST runs checkSST on one table and turns its answer into what a
// scrub does about it. Returns "" when healthy, otherwise the action to
// take, a detail string, and always the per-file verdict.
func (s *scrubber) classifySST(name string, meta *manifest.FileMetadata) (ScrubAction, string, ScrubVerdict) {
	n, transformed, err := checkSST(s.fs, s.opts.Wrapper, name, meta)
	s.report.BlocksVerified += n
	metrics.Recovery.ScrubBlocksVerified.Add(n)
	switch {
	case err == nil:
		return "", "", VerdictOK
	case errors.Is(err, vfs.ErrNotFound):
		return ScrubMissing, "referenced by the manifest but absent", VerdictTampered
	case !isCorruptionErr(err):
		// Cannot be read, but not provably corrupt (e.g. DEK unresolvable).
		return ScrubSkipped, "unverifiable: " + err.Error(), VerdictUndecryptable
	case !transformed && s.sniffEncrypted(name):
		// The wrapper does not decrypt this file, so it looks corrupt only
		// because we lack the key — never quarantine.
		return ScrubSkipped, "encrypted with an unavailable key; not verified", VerdictUndecryptable
	}
	return ScrubQuarantined, err.Error(), VerdictTampered
}

// checkWAL reads one live WAL end to end.
func (s *scrubber) checkWAL(num uint64) {
	name := walFileName(s.dir, num)
	s.report.WALsChecked++
	raw, err := s.fs.OpenSequential(name)
	if err != nil {
		s.finding(name, FileKindWAL, ScrubSkipped, "unreadable: "+err.Error())
		return
	}
	wrapped, err := s.opts.Wrapper.WrapOpenSequential(name, FileKindWAL, raw)
	if err != nil {
		raw.Close()
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			// Header never reached storage: recovery treats this as empty.
			s.finding(name, FileKindWAL, ScrubTornTail, "no readable header; recovery treats as empty")
			return
		}
		s.finding(name, FileKindWAL, ScrubSkipped, "unverifiable: "+err.Error())
		return
	}
	transformed := wrapped != vfs.SequentialFile(raw)
	r := wal.NewReader(wrapped)
	defer r.Close()
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return
		}
		if err != nil {
			if errors.Is(err, wal.ErrCorrupt) {
				if !transformed && s.sniffEncrypted(name) {
					s.finding(name, FileKindWAL, ScrubSkipped, "encrypted with an unavailable key; not verified")
					return
				}
				s.finding(name, FileKindWAL, ScrubTornTail,
					fmt.Sprintf("recoverable torn tail after %d records: %v", s.report.WALRecordsRead, err))
			} else {
				s.finding(name, FileKindWAL, ScrubSkipped, "unverifiable: "+err.Error())
			}
			return
		}
		_ = rec
		s.report.WALRecordsRead++
	}
}

// repairManifest writes the salvaged (and possibly thinned) version as a
// fresh compacted MANIFEST, installs CURRENT over it, and quarantines the
// damaged manifest.
//
//shield:nosyncdir installCurrent syncs the directory once the snapshot is durable; syncing earlier would be wasted — CURRENT still points at the old manifest
func (s *scrubber) repairManifest(st *manifestState, oldName string, oldNum uint64, dropped map[uint64]bool) error {
	thinned := &manifest.Version{}
	for lvl := range st.ver.Levels {
		for _, f := range st.ver.Levels[lvl] {
			if !dropped[f.FileNum] {
				thinned.Levels[lvl] = append(thinned.Levels[lvl], f)
			}
		}
	}

	newNum := st.nextFile
	if oldNum >= newNum {
		newNum = oldNum + 1
	}
	name := manifestFileName(s.dir, newNum)
	raw, err := s.fs.Create(name)
	if err != nil {
		return err
	}
	wrapped, _, err := s.opts.Wrapper.WrapCreate(name, FileKindManifest, raw)
	if err != nil {
		raw.Close()
		return err
	}
	w := wal.NewWriter(wrapped)

	snap := &manifest.VersionEdit{}
	for lvl := range thinned.Levels {
		for _, f := range thinned.Levels[lvl] {
			snap.Added = append(snap.Added, manifest.AddedFile{Level: lvl, Meta: *f})
		}
	}
	nf := newNum + 1
	ls := uint64(st.lastSeq)
	ln := st.logNum
	snap.NextFileNumber = &nf
	snap.LastSeq = &ls
	snap.LogNumber = &ln
	// Re-stamp the epoch. After an accepted rollback the new epoch must
	// clear the sealed floor, turning the restored snapshot into a fresh,
	// newer generation that subsequent opens accept without AllowRollback.
	epoch := st.epoch
	if s.opts.Freshness != nil {
		if floor, sealed := s.opts.Freshness.EpochFloor(); sealed && floor > epoch {
			epoch = floor
		}
		epoch++
	}
	snap.Epoch = epoch
	enc, err := snap.Encode()
	if err != nil {
		w.Close()
		return err
	}
	if err := w.AddRecord(enc); err != nil {
		w.Close()
		return err
	}
	if err := w.Sync(); err != nil {
		w.Close()
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	if err := installCurrent(s.fs, s.opts.Wrapper, s.dir, newNum, epoch); err != nil {
		return err
	}
	if s.opts.Freshness != nil {
		if err := s.opts.Freshness.SealEpoch(epoch); err != nil {
			s.opts.Logger("scrub: sealing epoch %d: %v", epoch, err)
		}
	}
	return quarantineFile(s.fs, s.dir, path.Join(s.dir, oldName))
}
