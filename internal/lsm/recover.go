package lsm

import (
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"path"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"shield/internal/lsm/base"
	"shield/internal/lsm/manifest"
	"shield/internal/lsm/sstable"
	"shield/internal/lsm/wal"
	"shield/internal/metrics"
	"shield/internal/vfs"
)

// The recovery pass. Open and Scrub are its two callers, and each of its
// steps exists once, here:
//
//   - load: CURRENT, the manifest it names, and that manifest's epoch held
//     against the epoch CURRENT echoes (loadStore);
//   - the sealed epoch floor (checkEpoch);
//   - one verdict per table the manifest names, and the version thinned of
//     the tables that go (verdictOf, verifyTables);
//   - one listing of the directory and one WAL reader (walkStore, readWAL);
//   - a fresh manifest holding one snapshot edit, installed under CURRENT
//     (installSnapshot).
//
// The callers differ only in what they do with each answer. Open checks
// tables cheaply unless ParanoidChecks, replays the WALs and fails closed;
// Scrub salvages a damaged manifest, checks every table in full, decodes the
// WALs without replaying them, and reports. So a store Open refuses is one
// Scrub cannot pass.

// manifestState is a store's durable state as the load step found it.
type manifestState struct {
	name     string // the manifest CURRENT names
	num      uint64 // its file number
	ver      *manifest.Version
	logNum   uint64
	nextFile uint64
	lastSeq  base.SeqNum
	epoch    uint64 // highest freshness epoch any edit carried
	torn     bool   // replay stopped at a torn tail record
	corrupt  bool   // salvage mode: replay stopped at an undecodable record

	transformed bool // the wrapper decrypted the manifest: the reader holds its key
}

// loadStore reads CURRENT, replays the manifest it names, and checks that
// manifest's epoch against the one CURRENT echoes. It writes nothing. With
// salvage (Scrub), a record that passes its checksum but does not decode or
// apply ends replay with the valid prefix instead of failing the load.
// encrypted, when non-nil, sniffs a file in an encrypted format: a manifest
// that reads as damaged, was not decrypted and sniffs as encrypted is one
// the caller holds no key for. It cannot be told from a torn one, and
// salvaging it would discard the real tree, so it is refused.
func loadStore(opts *Options, dir string, salvage bool, encrypted func(name string) bool) (*manifestState, error) {
	data, transformed, err := readCurrent(opts.FS, opts.Wrapper, dir)
	if err != nil {
		return nil, fmt.Errorf("lsm: reading CURRENT: %w", err)
	}
	name, curEpoch := parseCurrent(data)
	kind, num, ok := parseFileName(name)
	if !ok || kind != FileKindManifest {
		// A CURRENT in a format the wrapper did not decrypt names no
		// manifest; its bytes are ciphertext, not damage, and stay out of
		// the error.
		if !transformed && encrypted != nil && encrypted(currentFileName(dir)) {
			return nil, errEncryptedFormat("CURRENT")
		}
		return nil, &CorruptionError{
			Path:   currentFileName(dir),
			Kind:   FileKindCurrent,
			Detail: fmt.Sprintf("points to invalid manifest %q", name),
		}
	}
	st, err := loadManifest(opts.FS, opts.Wrapper, path.Join(dir, name), salvage)
	if err != nil {
		return nil, err
	}
	st.name, st.num = name, num
	if st.num >= st.nextFile {
		st.nextFile = st.num + 1
	}
	if (st.torn || st.corrupt) && !st.transformed && encrypted != nil && encrypted(path.Join(dir, name)) {
		return nil, errEncryptedFormat("manifest " + name)
	}
	// CURRENT echoes the epoch of the manifest it points at; a manifest
	// carrying an older epoch than its own CURRENT claims was swapped in
	// after the fact.
	if st.epoch < curEpoch {
		return nil, &IntegrityError{
			Path: currentFileName(dir), Kind: FileKindCurrent,
			Detail: fmt.Sprintf("manifest epoch %d older than CURRENT epoch %d (manifest replaced?)", st.epoch, curEpoch),
		}
	}
	return st, nil
}

// errEncryptedFormat reports a store file this scrub holds no key for.
func errEncryptedFormat(what string) error {
	return fmt.Errorf("lsm: %s is in an encrypted format this scrub cannot read; rerun with the keys", what)
}

// readCurrent reads CURRENT through w, and reports whether w transformed
// (decrypted) it.
func readCurrent(fsys vfs.FS, w FileWrapper, dir string) (data []byte, transformed bool, err error) {
	name := currentFileName(dir)
	raw, err := fsys.Open(name)
	if err != nil {
		return nil, false, err
	}
	f, err := w.WrapOpen(name, FileKindCurrent, raw)
	if err != nil {
		raw.Close()
		return nil, false, err
	}
	defer f.Close()
	data, err = vfs.ReadAll(f)
	return data, f != vfs.RandomAccessFile(raw), err
}

// parseCurrent splits a CURRENT file into the manifest name (first line)
// and the optional freshness-epoch echo ("epoch N" on the second line).
// Legacy single-line files parse with epoch 0; unrecognized trailing lines
// are ignored for forward compatibility.
func parseCurrent(data []byte) (manifestName string, epoch uint64) {
	lines := strings.Split(string(data), "\n")
	manifestName = strings.TrimSpace(lines[0])
	for _, ln := range lines[1:] {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(ln), "epoch "); ok {
			if n, err := strconv.ParseUint(rest, 10, 64); err == nil {
				epoch = n
			}
		}
	}
	return manifestName, epoch
}

// loadManifest replays one MANIFEST's edit log. A torn tail (crash
// mid-record) ends replay cleanly; a record that passes its checksum but
// fails to decode or apply is a *CorruptionError, or under salvage ends
// replay with the valid prefix (st.corrupt set), the way fsck salvages what
// it can.
func loadManifest(fsys vfs.FS, wrapper FileWrapper, full string, salvage bool) (*manifestState, error) {
	raw, err := fsys.OpenSequential(full)
	if err != nil {
		if errors.Is(err, vfs.ErrNotFound) {
			return nil, &CorruptionError{
				Path:   full,
				Kind:   FileKindManifest,
				Detail: "CURRENT references a missing manifest",
				Err:    err,
			}
		}
		return nil, fmt.Errorf("lsm: opening manifest: %w", err)
	}
	wrapped, err := wrapper.WrapOpenSequential(full, FileKindManifest, raw)
	if err != nil {
		raw.Close()
		return nil, err
	}
	r := wal.NewReader(wrapped)
	defer r.Close()

	st := &manifestState{ver: &manifest.Version{}, transformed: wrapped != vfs.SequentialFile(raw)}
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			// A torn tail on the manifest (crash during write) ends replay.
			if errors.Is(err, wal.ErrCorrupt) {
				st.torn = true
				break
			}
			return nil, err
		}
		edit, err := manifest.DecodeVersionEdit(rec)
		detail := "undecodable version edit"
		var nv *manifest.Version
		if err == nil {
			detail = "inconsistent version edit"
			nv, err = st.ver.Apply(edit)
		}
		if err != nil {
			if salvage {
				st.corrupt = true
				break
			}
			return nil, &CorruptionError{Path: full, Kind: FileKindManifest, Detail: detail, Err: err}
		}
		st.ver = nv
		if edit.LogNumber != nil {
			st.logNum = *edit.LogNumber
		}
		if edit.NextFileNumber != nil {
			st.nextFile = *edit.NextFileNumber
		}
		if edit.LastSeq != nil {
			st.lastSeq = base.SeqNum(*edit.LastSeq)
		}
		if edit.Epoch > st.epoch {
			st.epoch = edit.Epoch
		}
	}
	// nextFile must clear every referenced file.
	for _, lvl := range st.ver.Levels {
		for _, f := range lvl {
			if f.FileNum >= st.nextFile {
				st.nextFile = f.FileNum + 1
			}
		}
	}
	if st.logNum >= st.nextFile {
		st.nextFile = st.logNum + 1
	}
	return st, nil
}

// checkEpoch holds a recovered manifest epoch against the floor sealed in
// opts.Freshness and returns the epoch the store goes on from: the larger of
// the two. A recovered epoch below the floor proves the store was rolled
// back to an older snapshot. regressed reports it, and it fails the pass
// unless opts.AllowRollback acknowledges it.
func checkEpoch(opts *Options, recovered uint64) (epoch uint64, regressed bool, err error) {
	if opts.Freshness == nil {
		return recovered, false, nil
	}
	floor, sealed := opts.Freshness.EpochFloor()
	regressed = sealed && recovered < floor
	if regressed {
		err := fmt.Errorf("%w: recovered epoch %d below sealed floor %d", ErrEpochRegression, recovered, floor)
		if !opts.AllowRollback {
			return recovered, true, err
		}
		opts.Logger("lsm: accepting rollback (AllowRollback): %v", err)
	}
	return max(recovered, floor), regressed, nil
}

// tableVerdict is the recovery pass's one verdict on a table the manifest
// names.
type tableVerdict int

const (
	tableOK           tableVerdict = iota
	tableMissing                   // named by the manifest, absent from the directory
	tableCorrupt                   // its bytes are provably wrong
	tableUnverifiable              // unread, but not provably wrong (e.g. its DEK is unresolvable)
)

// verdictOf turns a table check's error into the verdict.
func verdictOf(err error) tableVerdict {
	switch {
	case err == nil:
		return tableOK
	case errors.Is(err, vfs.ErrNotFound):
		return tableMissing
	case isCorruptionErr(err):
		return tableCorrupt
	}
	return tableUnverifiable
}

// tableCheck is what one table's check found.
type tableCheck struct {
	blocks      int64 // data blocks verified: a full check (checkSST) only
	transformed bool  // the wrapper transforms the file: the caller holds its key
	err         error
}

// verifyTables checks every table ver names and hands each result to judge,
// which says whether the table goes, and returns ver without the tables that
// went: ver itself when none did. judge's error fails the pass.
//
// The checks run on up to jobs goroutines, the calling one included; with
// one table or jobs <= 1 no goroutine starts. check must be safe to run
// concurrently, and it may only read: every side effect of a verdict
// (quarantine, eviction, logging, counters) belongs in judge, which runs on
// the calling goroutine, one table at a time, in level and file order, once
// every check is in. So the version, the files dropped, the error and the
// log are those of a serial pass; only the checks overlap. A table only
// Migrate can read (ErrNeedsMigrate) fails the pass before any table is
// judged, so nothing has moved when it does.
func verifyTables(dir string, ver *manifest.Version, jobs int, check func(name string, f *manifest.FileMetadata) tableCheck, judge func(name string, f *manifest.FileMetadata, c tableCheck) (drop bool, err error)) (*manifest.Version, error) {
	type table struct {
		name string
		f    *manifest.FileMetadata
		res  tableCheck
	}
	var tables []table
	for lvl := range ver.Levels {
		for _, f := range ver.Levels[lvl] {
			tables = append(tables, table{name: sstFileName(dir, f.FileNum), f: f})
		}
	}
	var next atomic.Int64
	// checkAll checks unclaimed tables until none is left.
	checkAll := func() {
		for i := int(next.Add(1) - 1); i < len(tables); i = int(next.Add(1) - 1) {
			tables[i].res = check(tables[i].name, tables[i].f)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(jobs, len(tables)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			checkAll()
		}()
	}
	checkAll()
	wg.Wait()

	for i := range tables {
		if err := tables[i].res.err; errors.Is(err, ErrNeedsMigrate) {
			return nil, fmt.Errorf("lsm: verifying %s: %w", tables[i].name, err)
		}
	}
	var dropped map[uint64]bool
	for i := range tables {
		t := &tables[i]
		if t.res.err == nil {
			metrics.Recovery.TablesVerified.Add(1)
		}
		drop, err := judge(t.name, t.f, t.res)
		if err != nil {
			return nil, err
		}
		if drop {
			if dropped == nil {
				dropped = make(map[uint64]bool)
			}
			dropped[t.f.FileNum] = true
		}
	}
	if dropped == nil {
		return ver, nil
	}
	nv := &manifest.Version{}
	for lvl := range ver.Levels {
		for _, f := range ver.Levels[lvl] {
			if !dropped[f.FileNum] {
				nv.Levels[lvl] = append(nv.Levels[lvl], f)
			}
		}
	}
	return nv, nil
}

// checkSST is the one full check of an SST against the manifest entry that
// names it, run by Scrub and by a ParanoidChecks open. Opening the table
// verifies footer, index, filter and properties; every data block is then
// read and its checksum verified (for a sealed file each of those reads is
// an AEAD-authenticated one); last comes the hash-tree anchor. Per-block
// tags prove each block authentic under the file's DEK, and the digest over
// those tags, which the manifest recorded when the file was installed,
// proves the file is the exact one this version installed: an older
// validly-sealed version spliced back in has a different chain, and a file
// that exposes no chain at all where the manifest recorded one has been
// replaced by an unauthenticated file; that is how a sealed table whose
// header was downgraded to v1 fails Migrate's paranoid open. Files without
// a manifest digest (encryption off, or a v1 table of a build before
// sealing, which only Migrate's wrapper reads) have no anchor to check.
//
// It returns the data blocks verified and whether wrapper actually
// transforms the file (it returned something other than the raw handle: the
// caller holds the key, so damage found underneath is genuine). It reads
// and never writes, so tables can be checked concurrently.
func checkSST(fs vfs.FS, wrapper FileWrapper, name string, meta *manifest.FileMetadata) (blocks int64, transformed bool, err error) {
	raw, err := fs.Open(name)
	if err != nil {
		return 0, false, err
	}
	wrapped, err := wrapper.WrapOpen(name, FileKindSST, raw)
	if err != nil {
		raw.Close()
		return 0, false, err
	}
	defer wrapped.Close()
	transformed = wrapped != vfs.RandomAccessFile(raw)
	r, err := sstable.NewReader(wrapped, sstable.ReaderOptions{})
	if err != nil {
		return 0, transformed, sstIntegrityErr(name, err)
	}
	blocks, err = r.VerifyChecksums()
	if err != nil || meta.Digest == "" {
		return blocks, transformed, sstIntegrityErr(name, err)
	}
	dr, ok := wrapped.(interface{ FileDigest() ([]byte, error) })
	if !ok {
		return blocks, transformed, &IntegrityError{
			Path: name, Kind: FileKindSST,
			Detail: fmt.Sprintf("manifest records digest %s but the file is not sealed (replaced with an unauthenticated file?)", meta.Digest),
		}
	}
	sum, err := dr.FileDigest()
	if err != nil {
		return blocks, transformed, sstIntegrityErr(name, err)
	}
	if got := hex.EncodeToString(sum); got != meta.Digest {
		return blocks, transformed, &IntegrityError{
			Path: name, Kind: FileKindSST,
			Detail: fmt.Sprintf("tag-chain digest %s does not match manifest digest %s (file replaced?)", got, meta.Digest),
		}
	}
	return blocks, transformed, nil
}

// isCorruptionErr reports whether err proves the file's bytes are wrong (or
// the file is missing entirely), as opposed to a transient failure to read
// or decrypt it. An authentication failure from a sealed file
// proves tampering or rot — the GCM tag cannot fail under the right key
// unless the ciphertext changed — so vfs.ErrIntegrity counts.
func isCorruptionErr(err error) bool {
	return errors.Is(err, ErrCorruption) ||
		errors.Is(err, sstable.ErrCorruption) ||
		errors.Is(err, wal.ErrCorrupt) ||
		errors.Is(err, vfs.ErrIntegrity) ||
		errors.Is(err, vfs.ErrNotFound)
}

// quarantineFile moves name into <dir>/lost/, durably. The lost/ directory
// is invisible to recovery and scans (List only returns a directory's direct
// file entries), so quarantined files cannot resurrect.
func quarantineFile(fsys vfs.FS, dir, name string) error {
	lostDir := path.Join(dir, "lost")
	if err := fsys.MkdirAll(lostDir); err != nil {
		return err
	}
	dst := path.Join(lostDir, path.Base(name))
	if err := fsys.Rename(name, dst); err != nil {
		return err
	}
	if err := fsys.SyncDir(lostDir); err != nil {
		return err
	}
	return fsys.SyncDir(dir)
}

// orphan is a file in a store's directory that its recovered state does
// not name.
type orphan struct {
	name   string
	kind   FileKind
	detail string
}

// walkStore lists dir once. It raises st.nextFile past every numbered file
// there (the manifest's NextFileNumber can lag a WAL rotated right before a
// crash) and returns the WALs recovery reads, those at or above st.logNum,
// oldest first, and the orphans: tables st.ver does not name, older WALs,
// manifests other than st's, and the leftovers of an interrupted
// tmp+rename.
func walkStore(fsys vfs.FS, dir string, st *manifestState) (wals []uint64, orphans []orphan, err error) {
	entries, err := fsys.List(dir)
	if err != nil {
		return nil, nil, err
	}
	live := make(map[uint64]bool)
	for _, files := range st.ver.Levels {
		for _, f := range files {
			live[f.FileNum] = true
		}
	}
	for _, e := range entries {
		full := path.Join(dir, e.Name)
		kind, n, ok := parseFileName(e.Name)
		switch {
		case !ok:
			if strings.HasSuffix(e.Name, ".tmp") {
				orphans = append(orphans, orphan{full, FileKindOther, "interrupted tmp+rename leftover"})
			}
			continue
		case kind == FileKindCurrent:
			continue
		case n >= st.nextFile:
			st.nextFile = n + 1
		}
		switch {
		case kind == FileKindWAL && n >= st.logNum:
			wals = append(wals, n)
		case kind == FileKindWAL:
			orphans = append(orphans, orphan{full, kind, fmt.Sprintf("stale (older than live log %d)", st.logNum)})
		case kind == FileKindSST && !live[n]:
			orphans = append(orphans, orphan{full, kind, "not referenced by the manifest"})
		case kind == FileKindManifest && n != st.num:
			orphans = append(orphans, orphan{full, kind, "not referenced by CURRENT"})
		}
	}
	sort.Slice(wals, func(i, j int) bool { return wals[i] < wals[j] })
	return wals, orphans, nil
}

// walRead is how one WAL read ended.
type walRead struct {
	records     int64 // batches decoded
	noHeader    bool  // the header never reached storage: an empty log
	torn        error // the damaged record a torn tail ended the log at
	transformed bool  // the wrapper decrypted the log: the reader holds its key
}

// readWAL reads one WAL end to end and decodes every batch in it, handing
// each entry to apply. Two endings are what power loss leaves and are not
// errors: a log whose header never reached storage (a crash, or an
// unflushed remote write buffer) is empty, and a record that fails its
// checksum is a torn tail that ends the log. A record that passes its
// checksum but holds an undecodable batch is a *CorruptionError: no
// recovery can get past it.
func readWAL(opts *Options, name string, apply func(seq base.SeqNum, kind base.Kind, key, value []byte) error) (walRead, error) {
	var res walRead
	raw, err := opts.FS.OpenSequential(name)
	if err != nil {
		return res, err
	}
	wrapped, err := opts.Wrapper.WrapOpenSequential(name, FileKindWAL, raw)
	if err != nil {
		raw.Close()
		res.noHeader = errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
		if res.noHeader {
			return res, nil
		}
		return res, err
	}
	res.transformed = wrapped != vfs.SequentialFile(raw)
	r := wal.NewReader(wrapped)
	defer r.Close()
	for {
		rec, err := r.Next()
		switch {
		case err == io.EOF:
			return res, nil
		case errors.Is(err, wal.ErrCorrupt):
			res.torn = err
			return res, nil
		case err != nil:
			return res, err
		}
		if err := decodeBatch(rec, apply); err != nil {
			return res, &CorruptionError{Path: name, Kind: FileKindWAL, Detail: "undecodable batch", Err: err}
		}
		res.records++
	}
}

// snapshotEdit is the one record a fresh manifest starts with: every table
// of v, plus the bookkeeping replay restores.
func snapshotEdit(v *manifest.Version, nextFile, lastSeq, logNum, epoch uint64) *manifest.VersionEdit {
	snap := &manifest.VersionEdit{
		NextFileNumber: &nextFile,
		LastSeq:        &lastSeq,
		LogNumber:      &logNum,
		Epoch:          epoch,
	}
	for lvl := range v.Levels {
		for _, f := range v.Levels[lvl] {
			snap.Added = append(snap.Added, manifest.AddedFile{Level: lvl, Meta: *f})
		}
	}
	return snap
}

// installSnapshot makes MANIFEST-num a fresh manifest holding snap alone and
// points CURRENT at it, in the one safe order: snap is synced into the new
// manifest; a synced CURRENT.tmp is renamed over CURRENT; the directory is
// synced, so the rename and the manifest's entry both survive power loss.
// Repointing CURRENT at a manifest with no durable record would lose the
// whole tree, and a crash before the rename leaves the old CURRENT and
// manifest intact. CURRENT echoes snap's epoch on a second line, so the load
// step (and tools) can check it without replaying the manifest. Only then
// is the epoch sealed as the floor: a crash in between leaves floor <=
// manifest epoch, never falsely regressive. A failure to seal is logged,
// not fatal, because an older floor only weakens detection. It returns the
// new manifest's writer, open for the edits that follow.
func installSnapshot(opts *Options, dir string, num uint64, snap *manifest.VersionEdit) (*wal.Writer, error) {
	enc, err := snap.Encode()
	if err != nil {
		return nil, err
	}
	name := manifestFileName(dir, num)
	raw, err := opts.FS.Create(name)
	if err != nil {
		return nil, err
	}
	wrapped, _, err := opts.Wrapper.WrapCreate(name, FileKindManifest, raw)
	if err != nil {
		raw.Close()
		return nil, err
	}
	mw := wal.NewWriter(wrapped)
	fail := func(err error) (*wal.Writer, error) {
		mw.Close()
		return nil, err
	}
	if err := mw.AddRecord(enc); err != nil {
		return fail(err)
	}
	if err := mw.Sync(); err != nil {
		return fail(err)
	}
	current := currentFileName(dir)
	tmp := current + ".tmp"
	rawTmp, err := opts.FS.Create(tmp)
	if err != nil {
		return fail(err)
	}
	f, _, err := opts.Wrapper.WrapCreate(tmp, FileKindCurrent, rawTmp)
	if err != nil {
		rawTmp.Close()
		return fail(err)
	}
	if err := vfs.WriteSynced(f, []byte(fmt.Sprintf("MANIFEST-%06d\nepoch %d\n", num, snap.Epoch))); err != nil {
		return fail(err)
	}
	if err := opts.FS.Rename(tmp, current); err != nil {
		return fail(err)
	}
	if err := opts.FS.SyncDir(dir); err != nil {
		return fail(err)
	}
	if opts.Freshness != nil {
		if err := opts.Freshness.SealEpoch(snap.Epoch); err != nil {
			opts.Logger("lsm: sealing freshness epoch %d: %v", snap.Epoch, err)
		}
	}
	return mw, nil
}
