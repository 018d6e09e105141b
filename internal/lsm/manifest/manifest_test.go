package manifest

import (
	"testing"

	"shield/internal/lsm/base"
)

func meta(num uint64, lo, hi string, seq uint64) FileMetadata {
	return FileMetadata{
		FileNum:  num,
		Size:     100,
		Smallest: base.MakeInternalKey([]byte(lo), 1, base.KindSet),
		Largest:  base.MakeInternalKey([]byte(hi), 1, base.KindSet),
		Seq:      seq,
	}
}

func TestEditEncodeDecode(t *testing.T) {
	ln, nf, ls := uint64(3), uint64(17), uint64(999)
	e := &VersionEdit{
		LogNumber:      &ln,
		NextFileNumber: &nf,
		LastSeq:        &ls,
		Added: []AddedFile{
			{Level: 0, Meta: meta(5, "a", "m", 1)},
			{Level: 2, Meta: meta(6, "n", "z", 2)},
		},
		Deleted: []DeletedFile{{Level: 1, FileNum: 4}},
	}
	enc, err := e.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeVersionEdit(enc)
	if err != nil {
		t.Fatal(err)
	}
	if *got.LogNumber != 3 || *got.NextFileNumber != 17 || *got.LastSeq != 999 {
		t.Fatalf("scalars: %+v", got)
	}
	if len(got.Added) != 2 || got.Added[1].Level != 2 || got.Added[1].Meta.FileNum != 6 {
		t.Fatalf("added: %+v", got.Added)
	}
	if len(got.Deleted) != 1 || got.Deleted[0].FileNum != 4 {
		t.Fatalf("deleted: %+v", got.Deleted)
	}
}

func TestApplyAddDelete(t *testing.T) {
	v := &Version{}
	v2, err := v.Apply(&VersionEdit{Added: []AddedFile{
		{Level: 0, Meta: meta(1, "a", "c", 1)},
		{Level: 0, Meta: meta(2, "b", "d", 2)},
		{Level: 1, Meta: meta(3, "a", "k", 0)},
		{Level: 1, Meta: meta(4, "l", "z", 0)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Original untouched (immutability).
	if numFiles(v) != 0 {
		t.Fatal("Apply mutated the receiver")
	}
	if numFiles(v2) != 4 {
		t.Fatalf("files %d", numFiles(v2))
	}
	// L0 ordered newest-first by Seq.
	if v2.Levels[0][0].FileNum != 2 || v2.Levels[0][1].FileNum != 1 {
		t.Fatalf("L0 order: %v %v", v2.Levels[0][0].FileNum, v2.Levels[0][1].FileNum)
	}
	// L1 ordered by smallest key.
	if v2.Levels[1][0].FileNum != 3 || v2.Levels[1][1].FileNum != 4 {
		t.Fatal("L1 order wrong")
	}
	if err := v2.CheckOrdering(); err != nil {
		t.Fatal(err)
	}

	v3, err := v2.Apply(&VersionEdit{Deleted: []DeletedFile{{Level: 0, FileNum: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(v3.Levels[0]) != 1 || v3.Levels[0][0].FileNum != 2 {
		t.Fatal("delete failed")
	}

	// Deleting an unknown file is an error (manifest corruption guard).
	if _, err := v3.Apply(&VersionEdit{Deleted: []DeletedFile{{Level: 0, FileNum: 99}}}); err == nil {
		t.Fatal("deleting unknown file accepted")
	}
}

func TestOverlapping(t *testing.T) {
	v := &Version{}
	v, _ = v.Apply(&VersionEdit{Added: []AddedFile{
		{Level: 1, Meta: meta(1, "a", "f", 0)},
		{Level: 1, Meta: meta(2, "g", "m", 0)},
		{Level: 1, Meta: meta(3, "n", "t", 0)},
	}})

	got := v.Overlapping(1, []byte("h"), []byte("p"))
	if len(got) != 2 || got[0].FileNum != 2 || got[1].FileNum != 3 {
		t.Fatalf("overlap: %v", got)
	}
	// nil bounds are unbounded.
	if got := v.Overlapping(1, nil, nil); len(got) != 3 {
		t.Fatalf("unbounded overlap: %d", len(got))
	}
	if got := v.Overlapping(1, []byte("u"), []byte("z")); len(got) != 0 {
		t.Fatalf("no-overlap query returned %d", len(got))
	}
}

func TestLevelSize(t *testing.T) {
	v := &Version{}
	v, _ = v.Apply(&VersionEdit{Added: []AddedFile{
		{Level: 3, Meta: meta(1, "a", "b", 0)},
		{Level: 3, Meta: meta(2, "c", "d", 0)},
	}})
	if v.LevelSize(3) != 200 {
		t.Fatalf("level size %d", v.LevelSize(3))
	}
}

func TestCheckOrderingDetectsOverlap(t *testing.T) {
	v := &Version{}
	v, _ = v.Apply(&VersionEdit{Added: []AddedFile{
		{Level: 1, Meta: meta(1, "a", "m", 0)},
		{Level: 1, Meta: meta(2, "h", "z", 0)}, // overlaps file 1
	}})
	if err := v.CheckOrdering(); err == nil {
		t.Fatal("overlapping L1 files not detected")
	}
}

func TestInvalidLevelRejected(t *testing.T) {
	v := &Version{}
	if _, err := v.Apply(&VersionEdit{Added: []AddedFile{{Level: NumLevels, Meta: meta(1, "a", "b", 0)}}}); err == nil {
		t.Fatal("invalid level accepted")
	}
	if _, err := v.Apply(&VersionEdit{Deleted: []DeletedFile{{Level: -1, FileNum: 1}}}); err == nil {
		t.Fatal("negative level accepted")
	}
}

// numFiles reports the total file count across all levels.
func numFiles(v *Version) int {
	n := 0
	for _, lvl := range v.Levels {
		n += len(lvl)
	}
	return n
}
