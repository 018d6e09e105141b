package lsm

import (
	"errors"

	"shield/internal/lsm/manifest"
	"shield/internal/vfs"
)

// ---- Version management ----

// applyEditLocked logs edit to the MANIFEST and installs the new version.
// d.mu must be held.
func (d *DB) applyEditLocked(edit *manifest.VersionEdit) error {
	nf := d.nextFileNum
	ls := d.lastSeq.Load()
	edit.NextFileNumber = &nf
	edit.LastSeq = &ls

	nv, err := d.current.Apply(edit)
	if err != nil {
		return err
	}
	// Safety net for concurrent compactions: refuse to log a version whose
	// sorted levels overlap — a scheduler disjointness bug must fail the
	// installing job loudly, not corrupt the manifest.
	if err := nv.CheckOrdering(); err != nil {
		return err
	}
	// The snapshot's LogNumber must not skip any WAL still holding
	// unflushed data: immutable memtables waiting behind this edit keep
	// their logs live, so take the minimum — or, for a flush edit, the
	// LogNumber the edit itself establishes.
	snapLog := d.logNum
	for _, m := range d.imm {
		if m.logNum < snapLog {
			snapLog = m.logNum
		}
	}
	if edit.LogNumber != nil {
		snapLog = *edit.LogNumber
	}
	if d.manifestBad {
		// An earlier append tore the live manifest's tail; replay would stop
		// there, so an appended record could never be recovered. Install the
		// edit by rotating: nv (which already includes it) becomes the
		// snapshot of a fresh manifest. Failure keeps manifestBad set — the
		// old CURRENT/manifest pair is intact and the edit is not durable.
		if err := d.rotateManifestLocked(nv, snapLog); err != nil {
			return err
		}
		d.manifestBad = false
	} else {
		enc, err := edit.Encode()
		if err != nil {
			return err
		}
		if err := d.manifestW.AddRecord(enc); err != nil {
			d.manifestBad = true
			return err
		}
		if err := d.manifestW.Sync(); err != nil {
			d.manifestBad = true
			return err
		}
		// Long-running instances roll the MANIFEST once the edit history
		// grows past the cap, replacing it with one snapshot record (the
		// same compaction that happens at every open).
		if d.manifestW.Size() > d.opts.MaxManifestFileSize {
			if err := d.rotateManifestLocked(nv, snapLog); err != nil {
				// Rotation failure is not fatal: the old manifest is intact.
				d.opts.Logger("lsm: manifest rotation failed: %v", err)
			}
		}
	}
	// Files removed by this edit become deletion candidates, each with the
	// DEK-ID that the version it leaves recorded for it.
	for _, del := range edit.Deleted {
		d.zombies = append(d.zombies, zombieFile{
			name:    sstFileName(d.dir, del.FileNum),
			dekID:   dekIDOf(d.current.Levels[del.Level], del.FileNum),
			fileNum: del.FileNum,
			isSST:   true,
		})
	}
	d.current = nv
	return nil
}

// dekIDOf returns the DEK-ID of table num among files ("" if none is
// recorded).
func dekIDOf(files []*manifest.FileMetadata, num uint64) string {
	for _, f := range files {
		if f.FileNum == num {
			return f.DEKID
		}
	}
	return ""
}

// rotateManifestLocked installs nv as the snapshot of a fresh MANIFEST
// (installSnapshot: CURRENT moves only once that snapshot is durable, so a
// crash anywhere before leaves the old CURRENT/manifest pair fully intact)
// and retires the old manifest file. logNum is the oldest WAL recovery must
// still replay (NOT necessarily d.logNum: queued immutable memtables keep
// older logs live). d.mu held.
func (d *DB) rotateManifestLocked(nv *manifest.Version, logNum uint64) error {
	num := d.allocFileNum()
	w, err := installSnapshot(&d.opts, d.dir, num, snapshotEdit(nv, d.nextFileNum, d.lastSeq.Load(), logNum, d.epoch))
	if err != nil {
		return err
	}
	d.manifestW.Close()
	oldName := manifestFileName(d.dir, d.manifestNum)
	d.manifestNum, d.manifestW = num, w
	//shield:nolockio one unlink on the rare manifest-rollover path; retiring the old manifest atomically with the switch keeps recovery from ever seeing two
	if err := d.fs.Remove(oldName); err == nil {
		d.wrapper.FileDeleted(oldName, "")
	}
	return nil
}

// deleteObsoleteLocked removes zombie SSTs (unless iterators pin them),
// WALs older than the live log and manifests other than the live one. A
// read-only instance removes nothing: the files belong to the writer. d.mu
// must be held.
//
//shield:nolockio iterCount and the zombie list must be checked atomically with the removals (an iterator opened mid-delete would read a vanished SST); runs on the background flush/compaction goroutine, not the commit path
func (d *DB) deleteObsoleteLocked() {
	if d.opts.ReadOnly {
		return
	}
	if d.iterCount == 0 {
		for _, z := range d.zombies {
			d.tables.evict(z.fileNum)
			if z.quarantine {
				// Integrity quarantine: preserve the ciphertext as evidence
				// and keep its DEK resolvable (no FileDeleted) so scrub can
				// still examine the file.
				if err := quarantineFile(d.fs, d.dir, z.name); err != nil {
					d.opts.Logger("lsm: quarantining %s: %v", z.name, err)
				}
				continue
			}
			if err := d.fs.Remove(z.name); err != nil && !errors.Is(err, vfs.ErrNotFound) {
				d.opts.Logger("lsm: removing %s: %v", z.name, err)
			}
			d.wrapper.FileDeleted(z.name, z.dekID)
		}
		d.zombies = nil
	}

	// WALs below the oldest live memtable log are dead.
	minLog := d.logNum
	for _, m := range d.imm {
		if m.logNum < minLog {
			minLog = m.logNum
		}
	}
	entries, err := d.fs.List(d.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		kind, num, ok := parseFileName(e.Name)
		if !ok {
			continue
		}
		full := d.dir + "/" + e.Name
		switch kind {
		case FileKindWAL:
			if num < minLog {
				if err := d.fs.Remove(full); err == nil {
					d.wrapper.FileDeleted(full, "")
				}
			}
		case FileKindManifest:
			if num != d.manifestNum {
				if err := d.fs.Remove(full); err == nil {
					d.wrapper.FileDeleted(full, "")
				}
			}
		}
	}
}
