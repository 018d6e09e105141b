// Package manifest defines the metadata of the LSM tree: per-file metadata,
// version edits (the records of the MANIFEST log), and the Version level
// structure. The DB owns MANIFEST I/O; this package owns the data model.
package manifest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"shield/internal/lsm/base"
)

// NumLevels is the depth of the leveled tree.
const NumLevels = 7

// FileMetadata describes one SST file. Smallest/Largest are internal keys.
type FileMetadata struct {
	FileNum  uint64 `json:"file_num"`
	Size     uint64 `json:"size"`
	Smallest []byte `json:"smallest"`
	Largest  []byte `json:"largest"`

	// DEKID records the file's encryption-key identifier, duplicated from
	// the file's own plaintext header so manifests can prune the secure
	// cache without opening files. Empty when encryption is off or EncFS
	// handles it transparently.
	DEKID string `json:"dek_id,omitempty"`

	// Seq orders L0 files by flush recency (higher = newer); Apply keeps L0
	// newest first by it. Compaction outputs carry 0.
	Seq uint64 `json:"seq"`

	// Digest is the hex SHA-256 over the file's AEAD tag chain (one tag per
	// sealed record, then the length table's), recorded by the version edit
	// that installed the file.
	// Because the tags are unforgeable without the file's DEK, anchoring
	// their digest in the manifest extends the manifest's authenticity to
	// every block of every SST: replacing a file with an older validly-
	// sealed version changes the chain and is detected. Empty when
	// encryption is off, and for the v1 tables of builds before sealing
	// (which carry no authentication and which only the offline migration
	// reads).
	Digest string `json:"digest,omitempty"`
}

// Overlaps reports whether the file's key range intersects [smallest,
// largest] in user-key space. nil bounds mean unbounded.
func (f *FileMetadata) Overlaps(smallestUser, largestUser []byte) bool {
	if largestUser != nil && bytes.Compare(base.UserKey(f.Smallest), largestUser) > 0 {
		return false
	}
	if smallestUser != nil && bytes.Compare(base.UserKey(f.Largest), smallestUser) < 0 {
		return false
	}
	return true
}

// AddedFile is one file-addition record in a VersionEdit.
type AddedFile struct {
	Level int          `json:"level"`
	Meta  FileMetadata `json:"meta"`
}

// DeletedFile is one file-removal record in a VersionEdit.
type DeletedFile struct {
	Level   int    `json:"level"`
	FileNum uint64 `json:"file_num"`
}

// VersionEdit is one MANIFEST record: an atomic delta to the tree state.
type VersionEdit struct {
	LogNumber      *uint64       `json:"log_number,omitempty"`
	NextFileNumber *uint64       `json:"next_file_number,omitempty"`
	LastSeq        *uint64       `json:"last_seq,omitempty"`
	Added          []AddedFile   `json:"added,omitempty"`
	Deleted        []DeletedFile `json:"deleted,omitempty"`

	// Epoch, when nonzero, records the store's freshness epoch: a counter
	// that increases monotonically across manifest generations. Recovery
	// compares the recovered epoch against the floor sealed in the local
	// freshness store and fails closed if the disk has moved backwards
	// (snapshot-rollback detection). Written by the snapshot edit that
	// starts each manifest file.
	Epoch uint64 `json:"epoch,omitempty"`
}

// Encode serializes the edit for a MANIFEST log record.
func (e *VersionEdit) Encode() ([]byte, error) { return json.Marshal(e) }

// DecodeVersionEdit parses one MANIFEST record.
func DecodeVersionEdit(data []byte) (*VersionEdit, error) {
	var e VersionEdit
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("manifest: decoding edit: %w", err)
	}
	return &e, nil
}

// Version is an immutable snapshot of the tree's file layout. Levels[0] is
// ordered newest-first (files may overlap); Levels[1..] are ordered by
// smallest key (files are disjoint).
type Version struct {
	Levels [NumLevels][]*FileMetadata
}

// Clone returns a copy sharing FileMetadata pointers.
func (v *Version) Clone() *Version {
	nv := &Version{}
	for i := range v.Levels {
		nv.Levels[i] = append([]*FileMetadata(nil), v.Levels[i]...)
	}
	return nv
}

// Apply returns a new Version with the edit applied.
func (v *Version) Apply(e *VersionEdit) (*Version, error) {
	nv := v.Clone()
	for _, d := range e.Deleted {
		if d.Level < 0 || d.Level >= NumLevels {
			return nil, fmt.Errorf("manifest: delete at invalid level %d", d.Level)
		}
		files := nv.Levels[d.Level]
		idx := -1
		for i, f := range files {
			if f.FileNum == d.FileNum {
				idx = i
				break
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("manifest: deleting unknown file %d at level %d", d.FileNum, d.Level)
		}
		nv.Levels[d.Level] = append(files[:idx:idx], files[idx+1:]...)
	}
	for _, a := range e.Added {
		if a.Level < 0 || a.Level >= NumLevels {
			return nil, fmt.Errorf("manifest: add at invalid level %d", a.Level)
		}
		if len(a.Meta.Smallest) < base.TrailerLen || len(a.Meta.Largest) < base.TrailerLen {
			return nil, fmt.Errorf("manifest: file %d added without internal-key bounds", a.Meta.FileNum)
		}
		meta := a.Meta
		nv.Levels[a.Level] = append(nv.Levels[a.Level], &meta)
	}
	// Restore level ordering invariants.
	sort.Slice(nv.Levels[0], func(i, j int) bool {
		return nv.Levels[0][i].Seq > nv.Levels[0][j].Seq // newest first
	})
	for lvl := 1; lvl < NumLevels; lvl++ {
		files := nv.Levels[lvl]
		sort.Slice(files, func(i, j int) bool {
			return base.CompareInternal(files[i].Smallest, files[j].Smallest) < 0
		})
	}
	return nv, nil
}

// LevelSize returns the total byte size of files at level.
func (v *Version) LevelSize(level int) uint64 {
	var n uint64
	for _, f := range v.Levels[level] {
		n += f.Size
	}
	return n
}

// Overlapping returns the files at level whose user-key ranges intersect
// [smallestUser, largestUser].
func (v *Version) Overlapping(level int, smallestUser, largestUser []byte) []*FileMetadata {
	var out []*FileMetadata
	for _, f := range v.Levels[level] {
		if f.Overlaps(smallestUser, largestUser) {
			out = append(out, f)
		}
	}
	return out
}

// CheckOrdering validates level invariants; used by tests and recovery.
func (v *Version) CheckOrdering() error {
	for lvl := 1; lvl < NumLevels; lvl++ {
		files := v.Levels[lvl]
		for i := 1; i < len(files); i++ {
			if base.CompareInternal(files[i-1].Largest, files[i].Smallest) >= 0 {
				return fmt.Errorf("manifest: level %d files %d and %d overlap",
					lvl, files[i-1].FileNum, files[i].FileNum)
			}
		}
	}
	return nil
}
