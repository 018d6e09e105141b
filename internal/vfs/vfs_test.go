package vfs

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
)

// fsFactories lets every conformance test run against each implementation.
func fsFactories(t *testing.T) map[string]func() FS {
	t.Helper()
	return map[string]func() FS{
		"mem": func() FS { return NewMem() },
		"os": func() FS {
			dir := t.TempDir()
			return &prefixFS{base: NewOS(), prefix: dir}
		},
		"counting": func() FS { return NewCounting(NewMem()) },
		"fault":    func() FS { return NewFault(NewMem(), 1) },
		"crash":    func() FS { return NewCrash(1) },
	}
}

// prefixFS roots an FS at a directory so OS-backed tests stay in TempDir.
type prefixFS struct {
	base   FS
	prefix string
}

func (p *prefixFS) abs(name string) string { return filepath.Join(p.prefix, name) }

func (p *prefixFS) Create(name string) (WritableFile, error) { return p.base.Create(p.abs(name)) }
func (p *prefixFS) Open(name string) (RandomAccessFile, error) {
	return p.base.Open(p.abs(name))
}
func (p *prefixFS) OpenSequential(name string) (SequentialFile, error) {
	return p.base.OpenSequential(p.abs(name))
}
func (p *prefixFS) Remove(name string) error { return p.base.Remove(p.abs(name)) }
func (p *prefixFS) Rename(o, n string) error { return p.base.Rename(p.abs(o), p.abs(n)) }
func (p *prefixFS) List(dir string) ([]FileInfo, error) {
	return p.base.List(p.abs(dir))
}
func (p *prefixFS) MkdirAll(dir string) error { return p.base.MkdirAll(p.abs(dir)) }
func (p *prefixFS) SyncDir(dir string) error  { return p.base.SyncDir(p.abs(dir)) }
func (p *prefixFS) Stat(name string) (FileInfo, error) {
	return p.base.Stat(p.abs(name))
}

func TestFSConformance(t *testing.T) {
	for name, mk := range fsFactories(t) {
		t.Run(name, func(t *testing.T) {
			fs := mk()
			if err := fs.MkdirAll("d/sub"); err != nil {
				t.Fatal(err)
			}

			// Write and read back.
			if err := WriteFile(fs, "d/a.txt", []byte("hello")); err != nil {
				t.Fatal(err)
			}
			data, err := ReadFile(fs, "d/a.txt")
			if err != nil {
				t.Fatal(err)
			}
			if string(data) != "hello" {
				t.Fatalf("read %q", data)
			}

			// Positional reads.
			f, err := fs.Open("d/a.txt")
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 3)
			if _, err := f.ReadAt(buf, 2); err != nil && err != io.EOF {
				t.Fatal(err)
			}
			if string(buf) != "llo" {
				t.Fatalf("ReadAt got %q", buf)
			}
			if size, _ := f.Size(); size != 5 {
				t.Fatalf("size %d", size)
			}
			f.Close()

			// Sequential reads.
			sf, err := fs.OpenSequential("d/a.txt")
			if err != nil {
				t.Fatal(err)
			}
			all, err := io.ReadAll(sf)
			if err != nil {
				t.Fatal(err)
			}
			sf.Close()
			if string(all) != "hello" {
				t.Fatalf("sequential read %q", all)
			}

			// Stat / List.
			info, err := fs.Stat("d/a.txt")
			if err != nil {
				t.Fatal(err)
			}
			if info.Size != 5 {
				t.Fatalf("stat size %d", info.Size)
			}
			WriteFile(fs, "d/b.txt", []byte("x"))
			infos, err := fs.List("d")
			if err != nil {
				t.Fatal(err)
			}
			if len(infos) != 2 || infos[0].Name != "a.txt" || infos[1].Name != "b.txt" {
				t.Fatalf("list %v", infos)
			}

			// Directory sync is available after create/rename.
			if err := fs.SyncDir("d"); err != nil {
				t.Fatal(err)
			}

			// Rename replaces.
			if err := fs.Rename("d/b.txt", "d/a.txt"); err != nil {
				t.Fatal(err)
			}
			if err := fs.SyncDir("d"); err != nil {
				t.Fatal(err)
			}
			data, _ = ReadFile(fs, "d/a.txt")
			if string(data) != "x" {
				t.Fatalf("after rename got %q", data)
			}

			// Remove + sentinel errors.
			if err := fs.Remove("d/a.txt"); err != nil {
				t.Fatal(err)
			}
			if _, err := fs.Open("d/a.txt"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("open removed: %v", err)
			}
			if err := fs.Remove("d/a.txt"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("double remove: %v", err)
			}
			if _, err := fs.Stat("d/nope"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("stat missing: %v", err)
			}
		})
	}
}

// Property: WriteFile/ReadFile round-trips arbitrary contents on MemFS.
func TestMemFSRoundTripProperty(t *testing.T) {
	fs := NewMem()
	f := func(data []byte) bool {
		if err := WriteFile(fs, "f", data); err != nil {
			return false
		}
		got, err := ReadFile(fs, "f")
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMemFSCrashUnsynced(t *testing.T) {
	fs := NewMem()
	f, _ := fs.Create("f")
	f.Write([]byte("durable"))
	f.Sync()
	f.Write([]byte("-volatile"))
	fs.CrashUnsynced()
	f.Close() // post-crash close is a no-op for the lost bytes

	data, err := ReadFile(fs, "f")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "durable" {
		t.Fatalf("after crash: %q", data)
	}
}

func TestMemFSConcurrentAccess(t *testing.T) {
	fs := NewMem()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := string(rune('a' + i))
			for j := 0; j < 100; j++ {
				WriteFile(fs, name, bytes.Repeat([]byte{byte(j)}, 10))
				ReadFile(fs, name)
				fs.List(".")
			}
		}(i)
	}
	wg.Wait()
}

func TestCountingFS(t *testing.T) {
	c := NewCounting(NewMem())
	f, _ := c.Create("f")
	f.Write(make([]byte, 100))
	f.Write(make([]byte, 50))
	f.Sync()
	f.Close()

	r, _ := c.Open("f")
	buf := make([]byte, 60)
	r.ReadAt(buf, 0)
	r.Close()

	s := c.Stats.Snapshot()
	if s.BytesWritten != 150 || s.WriteOps != 2 {
		t.Fatalf("writes: %+v", s)
	}
	if s.BytesRead != 60 || s.ReadOps != 1 {
		t.Fatalf("reads: %+v", s)
	}
	if s.Creates != 1 || s.Opens != 1 || s.Syncs != 1 {
		t.Fatalf("ops: %+v", s)
	}

	prev := s
	f2, _ := c.Create("g")
	f2.Write(make([]byte, 10))
	f2.Close()
	delta := c.Stats.Snapshot().Sub(prev)
	if delta.BytesWritten != 10 || delta.Creates != 1 {
		t.Fatalf("delta: %+v", delta)
	}
}

func TestOSFSMapsErrors(t *testing.T) {
	dir := t.TempDir()
	fs := NewOS()
	if _, err := fs.Open(filepath.Join(dir, "missing")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	// Ensure the underlying os error is still inspectable.
	_, err := fs.Open(filepath.Join(dir, "missing"))
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("os.ErrNotExist not wrapped: %v", err)
	}
}
