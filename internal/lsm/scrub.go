package lsm

import (
	"errors"
	"fmt"
	"path"
	"strings"

	"shield/internal/lsm/base"
	"shield/internal/lsm/manifest"
	"shield/internal/metrics"
)

// ScrubOptions holds what only a scrub has. Everything a scrub shares
// with Open (the wrapper, the freshness store and AllowRollback, the logger)
// comes from the Options value passed next to it.
type ScrubOptions struct {
	// DryRun reports what the scrub WOULD do without moving or writing
	// anything.
	DryRun bool

	// Encrypted, when non-nil, sniffs a file's raw first bytes and reports
	// whether it is in an encrypted format this scrub's Wrapper cannot read.
	// Such files are skipped (reported, never quarantined): an undecryptable
	// file is not provably corrupt.
	Encrypted func(prefix []byte) bool
}

// ScrubVerdict is the per-file integrity verdict of an authenticated scrub.
type ScrubVerdict string

// Per-file verdicts.
const (
	// VerdictOK: every block authenticated (or, for unencrypted tables,
	// every checksum verified) and the tag-chain digest matches the manifest.
	VerdictOK ScrubVerdict = "ok"

	// VerdictTampered: cryptographic proof the bytes changed after sealing —
	// an AEAD tag failed under the right key, or the tag-chain digest does
	// not match the digest the manifest anchored. (Unencrypted tables report
	// tampered on checksum failure; the proof is weaker but the handling
	// identical.)
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
	ScrubCorrupt     ScrubAction = "corrupt"     // WAL that recovery cannot get past; left alone, Open refuses it
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
	dir    string
	opts   Options
	scrub  ScrubOptions
	report *ScrubReport
}

// Scrub walks the database in dir like fsck. It runs the recovery pass Open
// runs (recover.go) over opts, the same Options value Open takes, but checks
// every SST block and decodes every WAL record the manifest makes live,
// reports instead of replaying, quarantines provably corrupt tables into
// <dir>/lost/, rewrites the MANIFEST around the damage, and moves
// unreferenced files aside. A store Open refuses at load (a manifest older
// than CURRENT's epoch, an epoch below the sealed floor without
// AllowRollback) fails the scrub with Open's error, before anything is
// written, and so does a table or live WAL only Migrate can read
// (ErrNeedsMigrate); a WAL batch Open cannot decode is a corrupt finding, and the WAL
// stays where it is. A torn WAL or manifest tail is the expected power-loss
// outcome and is reported, not quarantined. It must run offline (no DB open
// on dir). With DryRun nothing is modified.
func Scrub(dir string, opts Options, sopts ScrubOptions) (*ScrubReport, error) {
	opts = opts.withDefaults()
	if opts.FS == nil {
		return nil, fmt.Errorf("lsm: Options.FS is required")
	}
	s := &scrubber{dir: dir, opts: opts, scrub: sopts, report: &ScrubReport{
		Verdicts: make(map[string]ScrubVerdict),
	}}

	// A database without a readable CURRENT cannot be scrubbed: there is
	// nothing to anchor the live file set to.
	st, err := loadStore(&opts, dir, true, s.sniffEncrypted)
	if err != nil {
		return nil, err
	}
	manifestPath := path.Join(dir, st.name)
	if st.corrupt {
		s.finding(manifestPath, FileKindManifest, ScrubQuarantined,
			"undecodable edit record; salvaged the valid prefix")
	} else if st.torn {
		s.finding(manifestPath, FileKindManifest, ScrubTornTail,
			"truncated tail record; salvaged the valid prefix")
	}

	// A recovered epoch below the sealed floor means the whole
	// tree is a rolled-back snapshot. Fail closed unless AllowRollback, in
	// which case the repair below re-stamps the store past the floor.
	s.report.Epoch = st.epoch
	epoch, regressed, err := checkEpoch(&opts, st.epoch)
	s.report.EpochRegressed = regressed
	if err != nil {
		return s.report, err
	}

	// The WALs are read, and the tables checked, before anything moves: a
	// log or table only Migrate can read fails the scrub with nothing
	// written.
	wals, orphans, err := walkStore(opts.FS, dir, st)
	if err != nil {
		return s.report, err
	}
	for _, num := range wals {
		if err := s.checkWAL(num); err != nil {
			return s.report, err
		}
	}
	check := func(name string, meta *manifest.FileMetadata) tableCheck {
		blocks, transformed, err := checkSST(opts.FS, opts.Wrapper, name, meta)
		return tableCheck{blocks, transformed, err}
	}
	thinned, err := verifyTables(dir, st.ver, opts.MaxBackgroundJobs, check, s.judgeTable)
	if err != nil {
		return s.report, err
	}
	for _, o := range orphans {
		s.moveOrphan(o.name, o.kind, o.detail)
	}

	// Rewrite the manifest when damage was found in it, tables were dropped,
	// or a rollback was accepted (the repair re-stamps the epoch), so
	// recovery never sees references to quarantined files or a stale epoch.
	if (st.corrupt || st.torn || thinned != st.ver || regressed) && !sopts.DryRun {
		num := st.nextFile
		w, err := installSnapshot(&opts, dir, num, snapshotEdit(thinned, num+1, uint64(st.lastSeq), st.logNum, epoch+1))
		if err == nil {
			err = w.Close()
		}
		if err == nil {
			err = quarantineFile(opts.FS, dir, manifestPath)
		}
		if err != nil {
			return s.report, fmt.Errorf("lsm: scrub: rewriting manifest: %w", err)
		}
		s.report.ManifestRepaired = true
		s.finding(manifestPath, FileKindManifest, ScrubRepaired,
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
	if !s.scrub.DryRun {
		if err := quarantineFile(s.opts.FS, s.dir, name); err != nil {
			s.finding(name, kind, ScrubSkipped, "quarantine failed: "+err.Error())
			return
		}
		metrics.Recovery.FilesQuarantined.Add(1)
	}
	s.finding(name, kind, ScrubQuarantined, detail)
}

func (s *scrubber) moveOrphan(name string, kind FileKind, detail string) {
	if !s.scrub.DryRun {
		if err := quarantineFile(s.opts.FS, s.dir, name); err != nil {
			s.finding(name, kind, ScrubSkipped, "moving orphan failed: "+err.Error())
			return
		}
	}
	s.finding(name, kind, ScrubOrphan, detail)
}

// sniffEncrypted reports whether the file's raw prefix is an encrypted
// format the configured wrapper cannot read.
func (s *scrubber) sniffEncrypted(name string) bool {
	if s.scrub.Encrypted == nil {
		return false
	}
	f, err := s.opts.FS.Open(name)
	if err != nil {
		return false
	}
	defer f.Close()
	prefix := make([]byte, 64)
	n, err := f.ReadAt(prefix, 0)
	if n == 0 && err != nil {
		return false
	}
	return s.scrub.Encrypted(prefix[:n])
}

// judgeTable is Scrub's side of the table verdict: every table gets the full
// checkSST and a per-file verdict. A missing table is dropped, a corrupt one
// is quarantined and dropped, and one the scrub cannot verify (its key is
// unavailable) is skipped, never quarantined. (A table only Migrate can read
// never reaches judgeTable: verifyTables fails the scrub first.)
func (s *scrubber) judgeTable(name string, _ *manifest.FileMetadata, c tableCheck) (drop bool, err error) {
	s.report.SSTsChecked++
	s.report.BlocksVerified += c.blocks
	metrics.Recovery.ScrubBlocksVerified.Add(c.blocks)
	switch verdictOf(c.err) {
	case tableOK:
		s.report.Verdicts[name] = VerdictOK
		if s.report.EpochRegressed {
			// Authentic bytes, stale tree.
			s.report.Verdicts[name] = VerdictStaleEpoch
		}
		return false, nil
	case tableMissing:
		s.report.Verdicts[name] = VerdictTampered
		s.finding(name, FileKindSST, ScrubMissing, "referenced by the manifest but absent")
		return true, nil
	case tableUnverifiable:
		s.report.Verdicts[name] = VerdictUndecryptable
		s.finding(name, FileKindSST, ScrubSkipped, "unverifiable: "+c.err.Error())
		return false, nil
	}
	if !c.transformed && s.sniffEncrypted(name) {
		// The wrapper does not decrypt this file, so it looks corrupt only
		// because we lack the key — never quarantine.
		s.report.Verdicts[name] = VerdictUndecryptable
		s.finding(name, FileKindSST, ScrubSkipped, "encrypted with an unavailable key; not verified")
		return false, nil
	}
	s.report.Verdicts[name] = VerdictTampered
	s.quarantine(name, FileKindSST, c.err.Error())
	return true, nil
}

// checkWAL reads one live WAL end to end through recovery's reader, which
// decodes every batch the way Open's replay does. It returns only the error
// of a log only Migrate can read; every other outcome is a finding.
func (s *scrubber) checkWAL(num uint64) error {
	name := walFileName(s.dir, num)
	s.report.WALsChecked++
	res, err := readWAL(&s.opts, name, func(base.SeqNum, base.Kind, []byte, []byte) error { return nil })
	s.report.WALRecordsRead += res.records
	var ce *CorruptionError
	switch {
	case errors.Is(err, ErrNeedsMigrate):
		return fmt.Errorf("lsm: scrub: %w", err)
	case errors.As(err, &ce):
		// Open fails on this very error and has no way around it, so the
		// scrub has none either: the log stays where it is (DESIGN.md §8).
		s.finding(name, FileKindWAL, ScrubCorrupt, err.Error())
	case err != nil:
		s.finding(name, FileKindWAL, ScrubSkipped, "unverifiable: "+err.Error())
	case res.noHeader:
		s.finding(name, FileKindWAL, ScrubTornTail, "no readable header; recovery treats as empty")
	case res.torn != nil && !res.transformed && s.sniffEncrypted(name):
		s.finding(name, FileKindWAL, ScrubSkipped, "encrypted with an unavailable key; not verified")
	case res.torn != nil:
		s.finding(name, FileKindWAL, ScrubTornTail,
			fmt.Sprintf("recoverable torn tail after %d records: %v", res.records, res.torn))
	}
	return nil
}
