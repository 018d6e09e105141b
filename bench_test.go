// Benchmarks with testing.B semantics: one micro-benchmark per layer of the
// read, write and served paths. The end-to-end workloads live in benchmark/.
package shield_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"shield/internal/core"
	"shield/internal/crypt"
	"shield/internal/dstore"
	"shield/internal/kds"
	"shield/internal/lsm"
	"shield/internal/lsm/base"
	"shield/internal/lsm/skiplist"
	"shield/internal/lsm/sstable"
	"shield/internal/metrics"
	"shield/internal/resp"
	"shield/internal/seccache"
	"shield/internal/server"
	"shield/internal/vfs"
)

// sealedBenchFile writes a sealed SST of nKeys ~100-byte entries to fs (the
// layout SHIELD gives a table, minus the DEK-ID header) and returns its name
// and sealer.
func sealedBenchFile(b *testing.B, fs vfs.FS, nKeys int) (string, *crypt.Sealer) {
	return sealedTable(b, fs, nKeys,
		func(i int) []byte { return []byte(fmt.Sprintf("key-%08d", i)) },
		func(i int) []byte { return []byte(fmt.Sprintf("%080d", i)) })
}

// sealedTable writes a sealed SST of the entries key(i), value(i) for i below
// nKeys to fs and returns its name and sealer.
func sealedTable(b *testing.B, fs vfs.FS, nKeys int, key, value func(i int) []byte) (string, *crypt.Sealer) {
	b.Helper()
	sealer, err := crypt.NewSealer(crypt.DEK{1, 2, 3}, []byte("benchpfx"), []byte("bench-header"))
	if err != nil {
		b.Fatal(err)
	}
	raw, err := fs.Create("bench.sst")
	if err != nil {
		b.Fatal(err)
	}
	w := sstable.NewWriter(crypt.NewSealedWriter(raw, sealer, 0, 0), sstable.WriterOptions{})
	for i := 0; i < nKeys; i++ {
		ikey := base.MakeInternalKey(key(i), 1, base.KindSet)
		if err := w.Add(ikey, value(i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Finish(); err != nil {
		b.Fatal(err)
	}
	return "bench.sst", sealer
}

// reportInnerReads reports the storage reads counted since before, per op.
func reportInnerReads(b *testing.B, cfs *vfs.CountingFS, before vfs.Snapshot) {
	b.ReportMetric(float64(cfs.Stats.Snapshot().ReadOps-before.ReadOps)/float64(b.N), "inner-reads/op")
}

// readLog records the spans of the ReadAt calls made through it.
type readLog struct {
	vfs.RandomAccessFile
	spans [][2]int64 // offset, length
}

func (f *readLog) ReadAt(p []byte, off int64) (int, error) {
	f.spans = append(f.spans, [2]int64{off, int64(len(p))})
	return f.RandomAccessFile.ReadAt(p, off)
}

// BenchmarkSealedReadAt is the crypt layer of a block-cache miss on its own:
// one ReadAt through crypt.SealedReaderAt over memfs, of spans a table
// reader really asks for: a whole data block (one sealed record), the
// metadata tail a table open reads (filter, index, properties: one record
// each), and a 64 KiB span from inside a block. inner-reads/op is the
// storage reads each outer read cost.
func BenchmarkSealedReadAt(b *testing.B) {
	cfs := vfs.NewCounting(vfs.NewMem())
	name, sealer := sealedBenchFile(b, cfs, 20000)
	f, err := cfs.Open(name)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	r, err := crypt.NewSealedReaderAt(f, sealer, 0)
	if err != nil {
		b.Fatal(err)
	}
	size, _ := r.Size()
	// The table reader's own reads give the spans: its open reads the
	// footer, then the metadata tail; each Get without a cache one block.
	log := &readLog{RandomAccessFile: r}
	tr, err := sstable.NewReader(log, sstable.ReaderOptions{})
	if err != nil {
		b.Fatal(err)
	}
	meta := log.spans[1]
	for i := 0; i < 20000; i += 97 {
		if _, _, err := tr.Get([]byte(fmt.Sprintf("key-%08d", i)), 1); err != nil {
			b.Fatal(err)
		}
	}
	blocks := log.spans[2:]
	for _, c := range []struct {
		name  string
		spans [][2]int64
	}{
		{"block", blocks},
		{"meta-tail", [][2]int64{meta}},
		{"64k", [][2]int64{{1500, 64 << 10}, {size / 2, 64 << 10}, {size - 70<<10, 64 << 10}}},
	} {
		b.Run(c.name, func(b *testing.B) {
			p := make([]byte, 0, 64<<10)
			for _, sp := range c.spans {
				p = make([]byte, max(int64(cap(p)), sp[1]))
			}
			b.SetBytes(c.spans[0][1])
			b.ReportAllocs()
			before := cfs.Stats.Snapshot()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sp := c.spans[i%len(c.spans)]
				if _, err := r.ReadAt(p[:sp[1]], sp[0]); err != nil {
					b.Fatal(err)
				}
			}
			reportInnerReads(b, cfs, before)
		})
	}
}

// BenchmarkTableOpen is the per-file open cost that key-per-file multiplies:
// wrap a sealed table and sstable.NewReader it (footer, index, filter,
// properties). The ~2 MiB table opens over memfs and over a loopback dstore
// where every inner read is a TCP round trip; the benchmark-shaped one —
// 20-byte decimal keys ("user" + 16 digits), 256-byte values, about 4 MiB,
// as benchmark/ writes them — over memfs, which is the cost a restart pays
// once per live table.
func BenchmarkTableOpen(b *testing.B) {
	for _, c := range []struct {
		name   string
		remote bool
		table  func(b *testing.B, fs vfs.FS) (string, *crypt.Sealer)
	}{
		{"memfs", false, func(b *testing.B, fs vfs.FS) (string, *crypt.Sealer) { return sealedBenchFile(b, fs, 20000) }},
		{"dstore-loopback", true, func(b *testing.B, fs vfs.FS) (string, *crypt.Sealer) { return sealedBenchFile(b, fs, 20000) }},
		{"memfs-4MiB-bench-shaped", false, func(b *testing.B, fs vfs.FS) (string, *crypt.Sealer) {
			value := make([]byte, 256)
			return sealedTable(b, fs, 4<<20/(20+256), func(i int) []byte { return []byte(fmt.Sprintf("user%016d", i*7)) }, func(int) []byte { return value })
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			cfs := vfs.NewCounting(vfs.NewMem())
			var fs vfs.FS = cfs
			if c.remote {
				srv, err := dstore.NewServer(cfs, "127.0.0.1:0", 0, 0)
				if err != nil {
					b.Fatal(err)
				}
				defer srv.Close()
				client, err := dstore.Dial(srv.Addr(), 1)
				if err != nil {
					b.Fatal(err)
				}
				defer client.Close()
				fs = client
			}
			file, sealer := c.table(b, fs)
			f, err := fs.Open(file)
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			b.ReportAllocs()
			before := cfs.Stats.Snapshot()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sealed, err := crypt.NewSealedReaderAt(f, sealer, 0)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sstable.NewReader(sealed, sstable.ReaderOptions{}); err != nil {
					b.Fatal(err)
				}
			}
			reportInnerReads(b, cfs, before)
		})
	}
}

// BenchmarkReopen is a restart of a 14-table store on memfs (the table count
// of the `mono-readmiss` tree), unencrypted and under SHIELD with an
// in-process KDS and a warm secure cache: Close, then Open's recovery pass
// (manifest load, every table verified, snapshot install, WAL replay). It
// reports ms and allocations per reopen, and the ms of it the table
// verification stage took.
func BenchmarkReopen(b *testing.B) {
	for _, mode := range []core.Mode{core.ModeNone, core.ModeSHIELD} {
		b.Run(mode.String(), func(b *testing.B) {
			fs := vfs.NewMem()
			cfg := core.Config{Mode: mode, FS: fs}
			if mode == core.ModeSHIELD {
				cfg.KDS = kds.NewLocal(kds.NewStore(kds.Policy{}), "bench")
				cache, err := seccache.Open(vfs.NewMem(), "seccache", []byte("passkey"))
				if err != nil {
					b.Fatal(err)
				}
				cfg.Cache = cache
			}
			opts := lsm.Options{MemtableSize: 64 << 20, L0CompactionTrigger: 100}
			db, err := core.Open("db", cfg, opts)
			if err != nil {
				b.Fatal(err)
			}
			value := make([]byte, 100)
			for table := 0; table < 14; table++ {
				for i := 0; i < 10_000; i++ {
					if err := db.Put([]byte(fmt.Sprintf("key-%02d-%06d", table, i)), value); err != nil {
						b.Fatal(err)
					}
				}
				if err := db.Flush(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			tablesBefore := metrics.Recovery.TablesNanos.Load()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := db.Close(); err != nil {
					b.Fatal(err)
				}
				if db, err = core.Open("db", cfg, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/op")
			tables := metrics.Recovery.TablesNanos.Load() - tablesBefore
			b.ReportMetric(float64(tables)/1e6/float64(b.N), "tables-ms/op")
			b.StopTimer()
			db.Close()
		})
	}
}

// The write path, one layer per benchmark, so each number reproduces without
// the full benchmark/ run.

// BenchmarkPut is lsm's own cost of a 20-byte key / 276-byte value Put on
// memfs with no FileWrapper (no encrypting writer under the WAL): batch,
// commit pipeline, WAL record, memtable insert, with flushes and compactions
// running behind it as they do in `mono-fill`. synced adds the WAL Sync per
// commit (free on memfs: it prices the call path, not a device).
func BenchmarkPut(b *testing.B) {
	for _, synced := range []bool{false, true} {
		name := "unsynced"
		if synced {
			name = "synced"
		}
		b.Run(name, func(b *testing.B) {
			db, err := lsm.Open("db", lsm.Options{FS: vfs.NewMem(), MemtableSize: 4 << 20, SyncWrites: synced})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			key, value := []byte("user0000000000000000"), make([]byte, 276)
			b.SetBytes(int64(len(key) + len(value)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, n := len(key)-1, i*7919%200000; n > 0; j, n = j-1, n/10 {
					key[j] = byte('0' + n%10)
				}
				if err := db.Put(key, value); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMemTable is the memtable alone at the benchmark's shape: 20-byte
// keys drawn uniformly from 200 000, 256-byte values, 4 MiB memtables.
// memTable.add and memTable.get are one call each to the skiplist's Insert
// and SeekGE (internal/lsm/memtable.go), so the list is driven directly. add
// starts a new list each time one reaches 4 MiB, as rotation does, and
// reports the heap one full memtable allocates (MiB/memtable); get looks up
// keys present in one full memtable at the newest sequence number.
func BenchmarkMemTable(b *testing.B) {
	const (
		memtableSize = 4 << 20
		keySpace     = 200000
	)
	value := make([]byte, 256)
	setKey := func(key []byte, n int) {
		for j := len(key) - 1; j >= 4; j, n = j-1, n/10 {
			key[j] = byte('0' + n%10)
		}
	}
	// keyAt sets key to the key the record of sequence number seq writes.
	keyAt := func(key []byte, seq base.SeqNum) {
		setKey(key, int(uint64(seq)*0x9E3779B97F4A7C15>>40%keySpace))
	}
	// fill inserts records from sequence number *seq+1 on until the list
	// reaches memtableSize.
	fill := func(l *skiplist.List, seq *base.SeqNum) {
		key := []byte("user0000000000000000")
		for l.ApproximateSize() < memtableSize {
			*seq++
			keyAt(key, *seq)
			l.Insert(key, base.MakeTrailer(*seq, base.KindSet), value)
		}
	}
	b.Run("add", func(b *testing.B) {
		var seq base.SeqNum
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fill(skiplist.New(), &seq)
		runtime.ReadMemStats(&after)
		perMemtable := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)

		key := []byte("user0000000000000000")
		l := skiplist.New()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if l.ApproximateSize() >= memtableSize {
				l = skiplist.New()
			}
			seq++
			keyAt(key, seq)
			l.Insert(key, base.MakeTrailer(seq, base.KindSet), value)
		}
		b.ReportMetric(perMemtable, "MiB/memtable")
	})
	b.Run("get", func(b *testing.B) {
		var seq base.SeqNum
		l := skiplist.New()
		fill(l, &seq)
		key := []byte("user0000000000000000")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			keyAt(key, 1+base.SeqNum(i*7919)%seq)
			it := l.NewIterator()
			it.SeekGE(key, base.MakeTrailer(base.MaxSeqNum, base.KindSet))
			if !it.Valid() || string(base.UserKey(it.Key())) != string(key) {
				b.Fatalf("%s missing", key)
			}
		}
	})
}

// discardFile is a device that costs nothing, so a writer above it is
// measured alone.
type discardFile struct{}

func (discardFile) Write(p []byte) (int, error) { return len(p), nil }
func (discardFile) Sync() error                 { return nil }
func (discardFile) Close() error                { return nil }

// BenchmarkSealedWriter is crypt.SealedWriter alone: 4 KiB writes (an SST
// block) into 64 KiB chunks, sealed inline or on two workers. Compare MB/s
// with the raw AEAD rate (`crypt.seal_mb_s` in the benchmark's calibration).
func BenchmarkSealedWriter(b *testing.B) {
	sealer, err := crypt.NewSealer(crypt.DEK{1, 2, 3}, []byte("benchpfx"), []byte("bench-header"))
	if err != nil {
		b.Fatal(err)
	}
	block := make([]byte, 4096)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			w := crypt.NewSealedWriter(discardFile{}, sealer, 0, workers)
			b.SetBytes(int64(len(block)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := w.Write(block); err != nil {
					b.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkMemFSAppend is the device model's own charge for growing a file:
// one op appends 64 KiB chunks (a sealed SST chunk) until the file holds
// 64 MiB.
func BenchmarkMemFSAppend(b *testing.B) {
	b.Run("64KiB-into-64MiB", func(b *testing.B) {
		const fileSize = 64 << 20
		chunk := make([]byte, 64<<10)
		b.SetBytes(fileSize)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f, err := vfs.NewMem().Create("f")
			if err != nil {
				b.Fatal(err)
			}
			for n := 0; n < fileSize; n += len(chunk) {
				if _, err := f.Write(chunk); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// stubEngine is a shard that costs nothing, so the serving layer above it
// is measured alone.
type stubEngine struct{ value []byte }

func (e stubEngine) Get([]byte) ([]byte, error)   { return e.value, nil }
func (e stubEngine) Write(*lsm.Batch, bool) error { return nil }
func (e stubEngine) Metrics() lsm.Metrics         { return lsm.Metrics{} }

// BenchmarkServedPipeline is one connection's round trip over loopback: 16
// commands (8 SET, 8 GET, 20-byte keys, 256-byte values) sent with
// resp.Client, executed by server.Server over two shards, replies read back.
// stub-engine prices resp + server + the sockets; memfs-engine adds the real
// engine with Sync on. ns/cmd and allocs/cmd count both ends of the
// connection (the client's eight caller-owned GET values are 0.5 allocs/cmd).
func BenchmarkServedPipeline(b *testing.B) {
	const depth = 16
	value := make([]byte, 256)
	for _, engine := range []struct {
		name string
		open func(b *testing.B) server.Engine
	}{
		{"stub-engine", func(*testing.B) server.Engine { return stubEngine{value: value} }},
		{"memfs-engine", func(b *testing.B) server.Engine {
			db, err := lsm.Open("db", lsm.Options{FS: vfs.NewMem(), MemtableSize: 4 << 20})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { db.Close() }) //nolint:errcheck // scratch store
			return db
		}},
	} {
		b.Run(engine.name, func(b *testing.B) {
			srv, err := server.New(server.Config{Shards: []server.Engine{engine.open(b), engine.open(b)}})
			if err != nil {
				b.Fatal(err)
			}
			if err := srv.Listen("127.0.0.1:0"); err != nil {
				b.Fatal(err)
			}
			served := make(chan error, 1)
			go func() { served <- srv.Serve() }()
			defer func() {
				srv.Close() //nolint:errcheck // Close only returns nil
				if err := <-served; err != nil {
					b.Error(err)
				}
			}()
			cl, err := resp.Dial(srv.Addr(), 5*time.Second)
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			cl.Timeout = 30 * time.Second

			key := []byte("user0000000000000000")
			roundTrip := func(i int) {
				for j := 0; j < depth; j++ {
					for p, n := len(key)-1, (i*depth+j)*7919%20000; n > 0; p, n = p-1, n/10 {
						key[p] = byte('0' + n%10)
					}
					if j%2 == 0 {
						cl.Send([]byte("SET"), key, value) //nolint:errcheck // Flush reports it
					} else {
						cl.Send([]byte("GET"), key) //nolint:errcheck
					}
				}
				if err := cl.Flush(); err != nil {
					b.Fatal(err)
				}
				for j := 0; j < depth; j++ {
					if v, err := cl.Recv(); err != nil || v.IsError() {
						b.Fatalf("reply %d: %+v, %v", j, v, err)
					}
				}
			}
			roundTrip(0) // connection set-up and buffer growth stay outside
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 1; i <= b.N; i++ {
				roundTrip(i)
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			cmds := float64(b.N * depth)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/cmds, "ns/cmd")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/cmds, "allocs/cmd")
		})
	}
}
