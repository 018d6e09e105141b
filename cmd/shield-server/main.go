// Command shield-server serves a SHIELD-encrypted key-value store over the
// RESP (Redis) wire protocol.
//
// The keyspace is hash-partitioned across -shards independent engine
// instances — each with its own WAL, commit loop, compaction scheduler, and
// block cache — so shards never contend on engine locks. All shards share
// one KDS client (in-process by default; -kds points at external replicas).
//
// Usage:
//
//	shield-server                               # 4 in-memory SHIELD shards on :6399
//	shield-server -dir /data/kv -shards 8       # persistent, 8 shards
//	shield-server -mode none -addr :6400        # plaintext baseline
//	shield-server -kds host1:7001,host2:7001    # external KDS replica set
//	shield-server -dir /data/kv -migrate        # rewrite stores of older builds, then exit
//
// Then: redis-cli -p 6399 SET k v / GET k / DEL k / INFO.
//
// The server reads only the on-disk generation this build writes. A shard
// written by an older build (the EncFS file header, unauthenticated v1
// table bodies) fails to open with lsm.ErrNeedsMigrate; stop the server and
// run it once with -migrate and the same flags, which rewrites every shard
// in place (core.Migrate) and exits.
//
// Persistent encrypted deployments (-dir with -mode shield or encfs) must
// survive a restart, so key material cannot live only in process memory:
// the in-process KDS persists its key database to <dir>/kds.state, every
// shard shares a passkey-sealed DEK cache at <dir>/dek-cache.bin, and the
// EncFS instance DEK is derived from the passkey and a per-directory salt.
// All three are sealed under -passkey; the default is a development key,
// so real deployments should set their own (or run an external -kds).
package main

import (
	"crypto/rand"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"shield/internal/core"
	"shield/internal/crypt"
	"shield/internal/kds"
	"shield/internal/lsm"
	"shield/internal/seccache"
	"shield/internal/server"
	"shield/internal/vfs"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:6399", "listen address")
		nShards  = flag.Int("shards", 4, "number of engine shards (keys are hash-partitioned)")
		dir      = flag.String("dir", "", "data directory (shard-N subdirs); empty runs in-memory")
		mode     = flag.String("mode", "shield", "encryption mode: none, encfs, shield")
		kdsAddrs = flag.String("kds", "", "comma-separated external KDS replica addresses; empty runs an in-process KDS")
		sync     = flag.Bool("sync", true, "fsync the WAL on every acknowledged write batch (group commit coalesces the syncs)")
		memtable = flag.Int64("memtable", 4<<20, "per-shard memtable size in bytes")
		cache    = flag.Int64("block-cache", 8<<20, "per-shard decrypted-block cache in bytes; negative disables")
		pipeline = flag.Int("max-pipeline", 128, "max commands executed per reader cycle")
		idle     = flag.Duration("idle-timeout", 5*time.Minute, "drop a connection with no complete command for this long")
		passkey  = flag.String("passkey", "shield-dev-passkey", "seals persistent key material (KDS key log, DEK cache, EncFS DEK derivation)")
		migrate  = flag.Bool("migrate", false, "rewrite every shard under -dir written by an older build into the current on-disk generation, then exit instead of serving")
	)
	flag.Parse()

	if err := run(*addr, *nShards, *dir, *mode, *kdsAddrs, *sync, *memtable, *cache, *pipeline, *idle, *passkey, *migrate); err != nil {
		fmt.Fprintln(os.Stderr, "shield-server:", err)
		os.Exit(1)
	}
}

func run(addr string, nShards int, dir, mode, kdsAddrs string, sync bool, memtable, cache int64, pipeline int, idle time.Duration, passkey string, migrate bool) error {
	if nShards < 1 {
		return fmt.Errorf("-shards must be >= 1, got %d", nShards)
	}

	persistent := dir != ""
	if migrate && !persistent {
		return errors.New("-migrate needs -dir")
	}
	fs := vfs.NewOS()
	if persistent {
		if err := fs.MkdirAll(dir); err != nil {
			return fmt.Errorf("create %s: %w", dir, err)
		}
	}

	cfg := core.Config{WALBufferSize: 512}
	switch mode {
	case "none":
		cfg.Mode = core.ModeNone
	case "encfs":
		cfg.Mode = core.ModeEncFS
		dek, err := encfsDEK(fs, dir, passkey)
		if err != nil {
			return err
		}
		cfg.InstanceDEK = dek
	case "shield":
		cfg.Mode = core.ModeSHIELD
	default:
		return fmt.Errorf("unknown -mode %q (want none, encfs, shield)", mode)
	}

	// One KDS client shared by every shard: either a network client over
	// external replicas, or an in-process service for single-node use. The
	// in-process key database and the shared DEK cache persist under -dir so
	// a restarted server can still decrypt its own files (DefaultPolicy is
	// one-time provisioning: without the cache, re-fetching a DEK the first
	// boot already consumed would be denied).
	if cfg.Mode == core.ModeSHIELD {
		if kdsAddrs != "" {
			client := kds.NewClient("shield-server", strings.Split(kdsAddrs, ",")...)
			defer client.Close() //nolint:errcheck
			cfg.KDS = client
		} else if persistent {
			store, err := kds.OpenPersistentStore(fs, filepath.Join(dir, "kds.state"), []byte(passkey), kds.DefaultPolicy())
			if err != nil {
				return fmt.Errorf("open KDS state (wrong -passkey?): %w", err)
			}
			cfg.KDS = kds.NewLocal(store, "shield-server")
		} else {
			cfg.KDS = kds.NewLocal(kds.NewStore(kds.DefaultPolicy()), "shield-server")
		}
		if persistent {
			sc, err := seccache.Open(fs, filepath.Join(dir, "dek-cache.bin"), []byte(passkey))
			if err != nil {
				return fmt.Errorf("open DEK cache (wrong -passkey?): %w", err)
			}
			cfg.Cache = sc
		}
	}

	var shards []server.Engine
	var dbs []*lsm.DB
	closeAll := func() {
		for i, db := range dbs {
			if err := db.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "shield-server: close shard %d: %v\n", i, err)
			}
		}
	}
	for i := 0; i < nShards; i++ {
		shardCfg := cfg
		shardDir := fmt.Sprintf("shard-%d", i)
		if persistent {
			shardCfg.FS = fs
			shardDir = filepath.Join(dir, shardDir) // core.Open creates it
		} else {
			shardCfg.FS = vfs.NewMem()
		}
		opts := lsm.Options{MemtableSize: memtable, BlockCacheSize: cache}
		if migrate {
			if err := core.Migrate(shardDir, shardCfg, opts); err != nil {
				return fmt.Errorf("migrate shard %d: %w", i, err)
			}
			fmt.Fprintf(os.Stderr, "shield-server: migrated %s\n", shardDir)
			continue
		}
		db, err := core.Open(shardDir, shardCfg, opts)
		if err != nil {
			closeAll()
			return fmt.Errorf("open shard %d: %w", i, err)
		}
		dbs = append(dbs, db)
		shards = append(shards, db)
	}
	if migrate {
		return nil
	}
	defer closeAll()

	srv, err := server.New(server.Config{
		Shards:      shards,
		Sync:        &sync,
		MaxPipeline: pipeline,
		IdleTimeout: idle,
		Logger: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	if err := srv.Listen(addr); err != nil {
		return err
	}

	// SIGINT/SIGTERM: stop accepting, drain in-flight pipelines, then the
	// deferred closeAll flushes and shuts the shard engines down.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigCh
		fmt.Fprintf(os.Stderr, "shield-server: %v: draining\n", sig)
		srv.Close() //nolint:errcheck // Close only returns nil
	}()

	fmt.Fprintf(os.Stderr, "shield-server: mode=%s shards=%d sync=%v serving on %s\n",
		mode, nShards, sync, srv.Addr())
	return srv.Serve()
}

// pbkdf2Iter matches the secure cache's work factor (seccache.pbkdf2Iter).
const pbkdf2Iter = 4096

// encfsDEK produces the EncFS instance DEK. In-memory servers get a fresh
// random key; persistent ones derive it from the passkey and a random
// per-directory salt created on first boot, so a restart derives the same
// key and can reopen its own files. The salt is not secret — the passkey is
// the credential.
func encfsDEK(fs vfs.FS, dir, passkey string) (crypt.DEK, error) {
	if dir == "" {
		dek, err := crypt.NewDEK()
		if err != nil {
			return crypt.DEK{}, fmt.Errorf("generate instance DEK: %w", err)
		}
		return dek, nil
	}
	saltPath := filepath.Join(dir, "encfs.salt")
	salt, err := vfs.ReadFile(fs, saltPath)
	switch {
	case errors.Is(err, vfs.ErrNotFound):
		salt = make([]byte, 16)
		if _, err := rand.Read(salt); err != nil {
			return crypt.DEK{}, fmt.Errorf("generate EncFS salt: %w", err)
		}
		if err := vfs.WriteFile(fs, saltPath, salt); err != nil {
			return crypt.DEK{}, fmt.Errorf("write %s: %w", saltPath, err)
		}
		if err := fs.SyncDir(dir); err != nil {
			return crypt.DEK{}, fmt.Errorf("sync %s: %w", dir, err)
		}
	case err != nil:
		return crypt.DEK{}, fmt.Errorf("read %s: %w", saltPath, err)
	}
	raw := crypt.PBKDF2SHA256([]byte(passkey), salt, pbkdf2Iter, crypt.KeySize)
	defer crypt.Zeroize(raw)
	return crypt.DEKFromBytes(raw)
}
