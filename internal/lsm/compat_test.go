package lsm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path"
	"reflect"
	"sort"
	"sync"
	"testing"

	"shield/internal/lsm/base"
	"shield/internal/lsm/manifest"
	"shield/internal/lsm/sstable"
	"shield/internal/vfs"
)

// The fixtures under testdata/ were written by the build before this one
// (commit 7645441), the last with Options.PrefixExtractor, CompactionJob's
// own BlockSize/BloomBitsPerKey/Compression and CompactionJob.Boundaries:
//
//   - parent_store/ is a plain store (BlockSize 1024, PrefixExtractor = first
//     3 bytes, no compaction): three flushes, generation g putting every
//     (g+1)-th key from g, the last one also deleting every 40th key from 5.
//     Its three L0 tables carry prefix filter blocks.
//   - compaction_job.golden.json is json.MarshalIndent of the job merging
//     those tables into L1 in two shards, boundaries pinned.
//   - compaction_result.golden.json is what RunCompaction returned for it
//     there (with the boundaries derived, as they always are now).

func fixtureKey(i int) []byte { return []byte(fmt.Sprintf("u%02d:%04d", i%7, i)) }
func fixtureVal(i, gen int) string {
	return fmt.Sprintf("value-%04d-gen%d-%s", i, gen, "abcdefghijklmnopqrstuvwxyz0123456789abcdefghijklmnopqrstuvwxyz")
}

// parentStoreModel is what parent_store holds.
func parentStoreModel() map[string]string {
	m := map[string]string{}
	for gen := 0; gen < 3; gen++ {
		for i := gen; i < 300; i += gen + 1 {
			m[string(fixtureKey(i))] = fixtureVal(i, gen)
		}
	}
	for i := 5; i < 300; i += 40 {
		delete(m, string(fixtureKey(i)))
	}
	return m
}

// loadFixture copies the files of an on-disk directory into dir on a fresh
// in-memory filesystem.
func loadFixture(t *testing.T, osDir, dir string) vfs.FS {
	t.Helper()
	osfs, mem := vfs.NewOS(), vfs.NewMem()
	if err := mem.MkdirAll(dir); err != nil {
		t.Fatal(err)
	}
	entries, err := osfs.List(osDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := vfs.ReadFile(osfs, path.Join(osDir, e.Name))
		if err != nil {
			t.Fatal(err)
		}
		if err := vfs.WriteFile(mem, path.Join(dir, e.Name), data); err != nil {
			t.Fatal(err)
		}
	}
	return mem
}

// checkAgainstModel reads every key of want by Get and by one full scan.
func checkAgainstModel(t *testing.T, db *DB, want map[string]string) {
	t.Helper()
	for k, v := range want {
		if got, err := db.Get([]byte(k)); err != nil || string(got) != v {
			t.Fatalf("Get(%s) = %q, %v; want %q", k, got, err, v)
		}
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	it, err := db.NewIter()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	n := 0
	for ok := it.First(); ok; ok = it.Next() {
		if n >= len(keys) || string(it.Key()) != keys[n] || string(it.Value()) != want[keys[n]] {
			t.Fatalf("scan entry %d = %q, not in the model at that place", n, it.Key())
		}
		n++
	}
	if err := it.Err(); err != nil || n != len(keys) {
		t.Fatalf("scan returned %d entries, %v; want %d", n, err, len(keys))
	}
}

// formatV2Magic is the footer magic of an SST format-2 table as stored:
// "SSTBSHL2" little-endian.
const formatV2Magic = "2LHSBTSS"

// checkTablesFormatV2 fails unless every table in dir ends in the format-2
// magic once the wrapper has unsealed it.
func checkTablesFormatV2(t *testing.T, fs vfs.FS, wrapper FileWrapper, dir string) {
	t.Helper()
	names := sstNames(t, fs, dir)
	if len(names) == 0 {
		t.Fatalf("no tables in %s", dir)
	}
	for _, name := range names {
		name = path.Join(dir, name)
		raw, err := fs.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := wrapper.WrapOpen(name, FileKindSST, raw)
		if err != nil {
			t.Fatal(err)
		}
		size, err := f.Size()
		if err != nil {
			t.Fatal(err)
		}
		magic := make([]byte, len(formatV2Magic))
		if _, err := f.ReadAt(magic, size-int64(len(magic))); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if string(magic) != formatV2Magic {
			t.Fatalf("%s ends in magic %q, not format 2's", name, magic)
		}
	}
}

// TestParentStoreWithPrefixFiltersOpens: a store whose format-1 tables carry
// the prefix filter block this build no longer reads opens under
// ParanoidChecks, reads back whole, and scrubs clean. CompactRange then
// rewrites it in format 2: every live table carries the format-2 magic,
// every key reads back, and a reopen and a scrub come back clean.
func TestParentStoreWithPrefixFiltersOpens(t *testing.T) {
	fs := loadFixture(t, "testdata/parent_store", "db")
	for _, name := range listNames(t, fs, "db") {
		if data, _ := vfs.ReadFile(fs, "db/"+name); path.Ext(name) == ".sst" && !bytes.Contains(data, []byte(`"prefix_filter_offset"`)) {
			t.Fatalf("%s carries no prefix filter; the fixture no longer tests what it is for", name)
		}
	}
	opts := Options{FS: fs, ParanoidChecks: true, L0CompactionTrigger: 100}
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstModel(t, db, parentStoreModel())
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	report, err := Scrub("db", Options{FS: fs}, ScrubOptions{})
	if err != nil || !report.Clean() || report.SSTsChecked != 3 {
		t.Fatalf("scrub: %v\n%s", err, report)
	}

	db, err = Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CompactRange(); err != nil {
		t.Fatal(err)
	}
	checkAgainstModel(t, db, parentStoreModel())
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	checkTablesFormatV2(t, fs, NopWrapper{}, "db")
	db, err = Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstModel(t, db, parentStoreModel())
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	report, err = Scrub("db", Options{FS: fs}, ScrubOptions{})
	if err != nil || !report.Clean() || report.SSTsChecked == 0 {
		t.Fatalf("scrub after the upgrade: %v\n%s", err, report)
	}
}

// parentCompactionJob is CompactionJob as the parent build declared it.
type parentCompactionJob struct {
	Dir                string     `json:"dir"`
	Inputs             []JobLevel `json:"inputs"`
	OutputLevel        int        `json:"output_level"`
	Bottommost         bool       `json:"bottommost"`
	SmallestSnapshot   uint64     `json:"smallest_snapshot"`
	FirstOutputFileNum uint64     `json:"first_output_file_num"`
	MaxOutputFiles     uint64     `json:"max_output_files"`
	TargetFileSize     uint64     `json:"target_file_size"`
	MaxSubcompactions  int        `json:"max_subcompactions,omitempty"`
	Boundaries         [][]byte   `json:"boundaries,omitempty"`
	BlockSize          int        `json:"block_size"`
	BloomBitsPerKey    int        `json:"bloom_bits_per_key"`
	Compression        uint8      `json:"compression"`
}

// droppedJobFields are the parent's job fields this build no longer has: the
// shard count and pinned shard boundaries (a job is one merge), the
// output-file-number reservation (outputs take their numbers from the
// engine's allocator), the filter width (a constant now) and the block codec
// (deleted).
var droppedJobFields = []string{"max_subcompactions", "boundaries", "first_output_file_num", "max_output_files", "bloom_bits_per_key", "compression"}

// parentCompactionResult is CompactionResult as the parent build declared it.
type parentCompactionResult struct {
	Outputs        []manifest.FileMetadata `json:"outputs"`
	BytesRead      int64                   `json:"bytes_read"`
	BytesWritten   int64                   `json:"bytes_written"`
	Subcompactions int                     `json:"subcompactions,omitempty"`
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	data, err := vfs.ReadFile(vfs.NewOS(), "testdata/"+name)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// dropField removes every object member called name from a JSON document,
// so a golden that still carries a field this build dropped decodes
// strictly.
func dropField(t *testing.T, data []byte, name string) []byte {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var doc any
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	var walk func(any)
	walk = func(v any) {
		switch v := v.(type) {
		case map[string]any:
			delete(v, name)
			for _, e := range v {
				walk(e)
			}
		case []any:
			for _, e := range v {
				walk(e)
			}
		}
	}
	walk(doc)
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func decodeStrict(t *testing.T, data []byte, into any) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		t.Fatalf("decoding into %T: %v", into, err)
	}
}

// TestParentCompactionJobGolden: the job wire format is unchanged for every
// field both builds have. A job the parent encoded decodes here (the fields
// this build dropped are ignored), and this build's encoding of it decodes
// with the parent's struct and is the parent's own encoding of every kept
// field byte for byte. Running it here gives what the parent's run gave, in
// terms that do not depend on where the outputs are cut (the parent ran the
// job in two shards and cut three outputs; one merge cuts two): the same
// records, the same entry count, the same overall key range and the same
// bytes read, in outputs numbered by the allocator, distinct and issued by it.
func TestParentCompactionJobGolden(t *testing.T) {
	golden := readGolden(t, "compaction_job.golden.json")
	var parent parentCompactionJob
	decodeStrict(t, golden, &parent)
	var parentFields map[string]json.RawMessage
	if err := json.Unmarshal(golden, &parentFields); err != nil {
		t.Fatal(err)
	}
	for _, f := range droppedJobFields {
		if _, ok := parentFields[f]; !ok {
			t.Fatalf("golden job has no %q; it no longer covers that dropped field", f)
		}
		delete(parentFields, f)
	}

	var job CompactionJob
	if err := json.Unmarshal(golden, &job); err != nil {
		t.Fatal(err)
	}
	if want := (sstable.WriterOptions{BlockSize: 1024}); job.WriterOptions != want {
		t.Fatalf("decoded table options %+v, want %+v", job.WriterOptions, want)
	}
	if job.Dir != "db" || job.OutputLevel != 1 || !job.Bottommost ||
		len(job.Inputs) != 1 || len(job.Inputs[0].Files) != 3 || !reflect.DeepEqual(job.Inputs, parent.Inputs) {
		t.Fatalf("decoded job differs from the parent's: %+v", job)
	}

	encoded, err := json.MarshalIndent(job, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var back parentCompactionJob
	decodeStrict(t, encoded, &back)
	parent.MaxSubcompactions, parent.Boundaries = 0, nil
	parent.FirstOutputFileNum, parent.MaxOutputFiles = 0, 0
	parent.BloomBitsPerKey, parent.Compression = 0, 0
	if !reflect.DeepEqual(back, parent) {
		t.Fatalf("this build's encoding reads back at the parent as\n%+v\nwant\n%+v", back, parent)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(encoded, &fields); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fields, parentFields) {
		t.Fatalf("encodings of the kept fields differ:\nhere:\n%s\nparent:\n%s", encoded, golden)
	}

	goldenResult := readGolden(t, "compaction_result.golden.json")
	var wantRes parentCompactionResult
	decodeStrict(t, goldenResult, &wantRes)
	fs := loadFixture(t, "testdata/parent_store", "db")
	var (
		mu     sync.Mutex
		issued = map[uint64]bool{}
	)
	res, err := RunCompaction(fs, nil, job, func() (uint64, error) {
		mu.Lock()
		defer mu.Unlock()
		n := 7000 + uint64(len(issued))
		issued[n] = true
		return n, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Everything the store holds, and nothing it deleted, is in the outputs,
	// each live key once.
	keys, vals := readJobOutputs(t, fs, NopWrapper{}, job.Dir, res.Outputs)
	want := parentStoreModel()
	if len(keys) != len(want) {
		t.Fatalf("outputs hold %d records, the store %d live keys", len(keys), len(want))
	}
	got := map[string]string{}
	for i, k := range keys {
		got[string(base.UserKey(k))] = string(vals[i])
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("the outputs' records differ from the store's live keys")
	}
	first, last := res.Outputs[0], res.Outputs[len(res.Outputs)-1]
	wantFirst, wantLast := wantRes.Outputs[0], wantRes.Outputs[len(wantRes.Outputs)-1]
	if !bytes.Equal(first.Smallest, wantFirst.Smallest) || !bytes.Equal(last.Largest, wantLast.Largest) {
		t.Fatalf("outputs span [%q, %q], the parent's [%q, %q]", first.Smallest, last.Largest, wantFirst.Smallest, wantLast.Largest)
	}
	if res.BytesRead != wantRes.BytesRead {
		t.Fatalf("read %d bytes, the parent %d", res.BytesRead, wantRes.BytesRead)
	}
	for i, out := range res.Outputs {
		if !issued[out.FileNum] {
			t.Fatalf("output %d has file number %d, which the allocator did not issue", i, out.FileNum)
		}
		delete(issued, out.FileNum) // a second output with it fails the check above
	}
}
