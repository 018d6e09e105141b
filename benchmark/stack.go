package main

import (
	"fmt"
	"time"

	"shield/internal/core"
	"shield/internal/crypt"
	"shield/internal/dstore"
	"shield/internal/kds"
	"shield/internal/lsm"
	"shield/internal/seccache"
	"shield/internal/server"
	"shield/internal/vfs"
)

// The three deployments the workloads run on, built from the same public
// constructors the shipped binaries use. No latency or bandwidth is injected
// anywhere: storage is memfs, the network is loopback TCP.

type stackKind int

const (
	stackMono   stackKind = iota // one engine on memfs
	stackServed                  // RESP server over two engines on memfs
	stackDS                      // one engine over dstore + network KDS
)

// engineOpts is what shield-server ships: memtable 4 MiB, block cache 8 MiB
// and the lsm defaults for the rest (4 KiB blocks, two background jobs,
// pinning and prefix filters off), spelled out so a changed default shows
// up here as a diff rather than as a silent change of the benchmark.
func engineOpts() lsm.Options {
	return lsm.Options{
		MemtableSize:      4 << 20,
		BlockCacheSize:    8 << 20,
		BlockSize:         4096,
		MaxBackgroundJobs: 2,
	}
}

// engineEnv is one engine with everything needed to close and reopen it.
type engineEnv struct {
	dir  string
	cfg  core.Config
	opts lsm.Options
	t    *tracer // nil when untraced
	db   *lsm.DB
}

// cacheFreshness is core's unexported freshness store, rebuilt from the
// secure cache's public methods.
type cacheFreshness struct {
	cache *seccache.Cache
	store string
}

func (f cacheFreshness) EpochFloor() (uint64, bool)   { return f.cache.EpochFloor(f.store) }
func (f cacheFreshness) SealEpoch(epoch uint64) error { return f.cache.SealEpoch(f.store, epoch) }

// open mirrors core.Open step for step; the only difference is the span
// decorator around the wrapper when tracing. (The inner vfs decorator is
// already part of cfg.FS.)
func (e *engineEnv) open() error {
	fs, err := e.cfg.BuildFS()
	if err != nil {
		return err
	}
	wrapper, err := e.cfg.BuildWrapper()
	if err != nil {
		return err
	}
	if e.t != nil {
		wrapper = &tracedWrapper{base: wrapper, t: e.t}
	}
	opts := e.opts
	opts.FS = fs
	opts.Wrapper = wrapper
	if e.cfg.Mode == core.ModeSHIELD && e.cfg.Cache != nil {
		opts.Freshness = cacheFreshness{cache: e.cfg.Cache, store: e.dir}
	}
	e.db, err = lsm.Open(e.dir, opts)
	return err
}

// stack is one built deployment.
type stack struct {
	t       *tracer
	engines []*engineEnv

	// base is where bytes come to rest: the engines' memfs, or the storage
	// node's. baseFS lists it; baseStats counts what was written to it.
	baseFS    []vfs.FS
	baseStats func() vfs.Snapshot
	// vfsStats counts the compute side's FS calls. On mono and served it is
	// baseStats; on ds it is the calls that cross the wire.
	vfsStats func() vfs.Snapshot

	crash []*vfs.CrashFS // traced served only: the engines' base, for the durability check
	cache *seccache.Cache
	kdsT  *tracedKDS

	srv     *server.Server
	srvDone chan error

	closers []func() error
}

func sumSnapshots(fs []*vfs.CountingFS) func() vfs.Snapshot {
	return func() vfs.Snapshot {
		var s vfs.Snapshot
		for _, c := range fs {
			s = s.Sub(vfs.Snapshot{}.Sub(c.Stats.Snapshot())) // s + x: Snapshot has Sub but no Add
		}
		return s
	}
}

// buildStack builds a deployment and opens its engines. t is nil for the
// untraced run. crashSeed is used only by the traced served stack.
func buildStack(kind stackKind, mode core.Mode, t *tracer, crashSeed int64) (st *stack, err error) {
	st = &stack{t: t}
	defer func() {
		if err != nil {
			st.close() //nolint:errcheck // the build error is the one to report
		}
	}()

	cfg := core.Config{Mode: mode, WALBufferSize: 512, EncryptionThreads: 2}
	switch mode {
	case core.ModeEncFS:
		if cfg.InstanceDEK, err = crypt.NewDEK(); err != nil {
			return nil, err
		}
	case core.ModeSHIELD:
		// The secure cache lives on the compute node's own memfs in every
		// deployment, as in a persistent shield-server.
		if st.cache, err = seccache.Open(vfs.NewMem(), "dek-cache.bin", []byte("benchmark-passkey")); err != nil {
			return nil, err
		}
		cfg.Cache = st.cache
		store := kds.NewStore(kds.DefaultPolicy())
		if kind == stackDS {
			store.Authorize("compute-1")
			ksrv, err := kds.NewServer(store, "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			st.closers = append(st.closers, ksrv.Close)
			kc := kds.NewClient("compute-1", ksrv.Addr())
			st.closers = append(st.closers, kc.Close)
			cfg.KDS = kc
		} else {
			cfg.KDS = kds.NewLocal(store, "benchmark")
		}
		if t != nil {
			st.kdsT = &tracedKDS{base: cfg.KDS, t: t}
			cfg.KDS = st.kdsT
		}
	}

	// traced wraps a compute-side FS with the vfs-layer span decorator.
	traced := func(fs vfs.FS) vfs.FS {
		if t == nil {
			return fs
		}
		return &tracedFS{base: fs, t: t, layer: spVFS}
	}

	if kind == stackDS {
		mem := vfs.NewMem()
		var base vfs.FS = mem
		if t != nil {
			base = &tracedFS{base: mem, t: t, layer: spSrv}
		}
		storage, err := dstore.NewServer(base, "127.0.0.1:0", 0, 0)
		if err != nil {
			return nil, err
		}
		st.closers = append(st.closers, storage.Close)
		client, err := dstore.Dial(storage.Addr(), 2)
		if err != nil {
			return nil, err
		}
		st.closers = append(st.closers, client.Close)
		wire := vfs.NewCounting(client)
		st.baseFS = []vfs.FS{mem}
		st.baseStats = storage.Stats
		st.vfsStats = wire.Stats.Snapshot
		ecfg := cfg
		ecfg.FS = traced(wire)
		st.engines = []*engineEnv{{dir: "db", cfg: ecfg, opts: engineOpts(), t: t}}
	} else {
		n := 1
		if kind == stackServed {
			n = 2
		}
		var counting []*vfs.CountingFS
		for i := 0; i < n; i++ {
			var mem vfs.FS = vfs.NewMem()
			if kind == stackServed && t != nil {
				c := vfs.NewCrash(crashSeed + int64(i))
				st.crash = append(st.crash, c)
				mem = c
			}
			c := vfs.NewCounting(mem)
			counting = append(counting, c)
			st.baseFS = append(st.baseFS, mem)
			ecfg := cfg
			ecfg.FS = traced(c)
			st.engines = append(st.engines, &engineEnv{dir: fmt.Sprintf("shard-%d", i), cfg: ecfg, opts: engineOpts(), t: t})
		}
		st.baseStats = sumSnapshots(counting)
		st.vfsStats = st.baseStats
	}

	for _, e := range st.engines {
		if err := e.cfg.FS.MkdirAll(e.dir); err != nil {
			return nil, err
		}
		if err := e.open(); err != nil {
			return nil, fmt.Errorf("open %s: %w", e.dir, err)
		}
	}
	return st, nil
}

// serve starts a RESP server over the engines as they are open now, with the
// shipped defaults (Sync on). stopServing must run before the engines close.
func (st *stack) serve() error {
	shards := make([]server.Engine, len(st.engines))
	for i, e := range st.engines {
		shards[i] = e.db
		if st.t != nil {
			shards[i] = &tracedEngine{db: e.db, t: st.t}
		}
	}
	srv, err := server.New(server.Config{Shards: shards})
	if err != nil {
		return err
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		return err
	}
	st.srv, st.srvDone = srv, make(chan error, 1)
	go func() { st.srvDone <- srv.Serve() }()
	return nil
}

func (st *stack) stopServing() error {
	if st.srv == nil {
		return nil
	}
	err := st.srv.Close()
	if serr := <-st.srvDone; err == nil {
		err = serr
	}
	st.srv = nil
	return err
}

// reopen closes and opens every engine and reads one key from each: the
// restart path (manifest and WAL replay, one WrapOpen and DEK resolve per
// live file, table-cache fill).
func (st *stack) reopen(firstKey []byte) (time.Duration, error) {
	t0 := time.Now()
	sp := st.t.begin(spOpReopen, lsm.FileKindOther)
	defer sp.end(0)
	for _, e := range st.engines {
		if err := e.db.Close(); err != nil {
			return 0, err
		}
		if err := e.open(); err != nil {
			return 0, err
		}
		if _, err := e.db.Get(firstKey); err != nil && err != lsm.ErrNotFound {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// settle flushes every engine and compacts it to the bottom level, leaving
// the tree quiescent and its shape a function of its contents alone.
func (st *stack) settle() error {
	for _, e := range st.engines {
		if err := e.db.Flush(); err != nil {
			return err
		}
		if err := e.db.CompactRange(); err != nil {
			return err
		}
	}
	return nil
}

// baseBytes is the size of everything at rest on the base filesystems.
func (st *stack) baseBytes() (int64, error) {
	var total int64
	for i, fs := range st.baseFS { // one per engine, in engine order
		infos, err := fs.List(st.engines[i].dir)
		if err != nil {
			return 0, err
		}
		for _, fi := range infos {
			total += fi.Size
		}
	}
	return total, nil
}

// addMetrics adds sign × x to m, for the engine counters the benchmark reads.
func addMetrics(m *lsm.Metrics, x lsm.Metrics, sign int64) {
	m.Flushes += sign * x.Flushes
	m.Compactions += sign * x.Compactions
	m.CompactionRead += sign * x.CompactionRead
	m.CompactionWritten += sign * x.CompactionWritten
	m.WALWritten += sign * x.WALWritten
	m.WALSyncs += sign * x.WALSyncs
	m.StallTime += time.Duration(sign) * x.StallTime
	m.Writes += sign * x.Writes
	m.BlockCacheHits += sign * x.BlockCacheHits
	m.BlockCacheMisses += sign * x.BlockCacheMisses
}

// engineMetrics sums the engines' counters. They restart from zero when an
// engine is reopened, so a window never spans a restart.
func (st *stack) engineMetrics() lsm.Metrics {
	var m lsm.Metrics
	for _, e := range st.engines {
		addMetrics(&m, e.db.Metrics(), 1)
	}
	return m
}

// close tears the deployment down in reverse build order and waits for every
// goroutine and listener it started.
func (st *stack) close() error {
	err := st.stopServing()
	for _, e := range st.engines {
		if e.db != nil {
			if cerr := e.db.Close(); err == nil {
				err = cerr
			}
		}
	}
	for i := len(st.closers) - 1; i >= 0; i-- {
		if cerr := st.closers[i](); err == nil {
			err = cerr
		}
	}
	return err
}
