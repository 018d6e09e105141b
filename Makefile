# Developer entry points. The only hard dependency is the Go toolchain;
# third-party linters are version-pinned below and fetched on demand by
# `go run`, so local runs and CI execute identical tool versions.

# Pinned linter versions. Bump deliberately, in this file only.
STATICCHECK_VERSION := 2024.1.1
GOVULNCHECK_VERSION := v1.1.3

.PHONY: all build test benchmark-check race flake io-path-check vet shield-vet shield-vet-suppressions loc knobs staticcheck govulncheck lint-extra fmt sim sim-long tamper-test replication-test fuzz server-test

all: build vet shield-vet test

build:
	go build ./...

test:
	go test ./...

# benchmark/ is a nested module (BENCHMARK.json runs it), so the root
# `./...` patterns never descend into it: this is the gate that catches an
# internal/ API change breaking it before benchmark time.
benchmark-check:
	cd benchmark && go vet ./... && go test ./...

race:
	go test -race ./...

# The flake lane: the picker, scheduler and CompactRange tests of
# internal/lsm, its open, recovery and scrub tests (the recovery
# pass checks tables concurrently), the offloaded-compaction orchestrator,
# and the KDS client and netretry, whose one control-plane client's Close
# races its request path, ten times each under the race detector, so an
# interleaving one PR-gate run misses shows up here. Nightly in CI.
flake:
	go test -race -count=10 -run 'Sched|Compact|Pick|Open|Recover|Scrub|BestEffort|Paranoid' ./internal/lsm/
	go test -race -count=10 ./internal/compactsvc/
	go test -race -count=10 ./internal/kds/ ./internal/netretry/

# The I/O paths' mechanisms, pinned. Reads: inner reads per sealed ReadAt, per
# table open, per cache miss and per digest walk. Writes: allocations per Put,
# per memtable entry, per sealed chunk, per WAL/MANIFEST flush, per replay
# read and per memfs append, and the equivalence tests of what the write path
# replaced (extent-backed memfs bodies against a flat slice, recycled
# sealed-writer jobs, pooled Put batches). The memtable arena: allocations
# per memtable lookup (0), the skiplist under concurrent readers
# and a looping GC across more than twenty chunks (Arena), clipped and
# surviving Key/Value views, and the seed corpus of its oracle fuzz target
# (SkiplistOracle). The allocation tests carry
# a !race build tag (allocation counts are meaningless under the race
# detector), so `make race` skips them and this target is where they run.
# Served commands: allocations per pipeline through server.handle and through
# resp.Client, per ReadCommand, the in-place parser against its bufio oracle,
# and the lazily armed deadlines. The dstore wire: frames per sequential,
# random and compaction read (counted at Server.Stats), read-ahead against
# direct reads, allocations per remote read and per read served from the
# read-ahead packet, the frame codec against hostile peers. Table opens:
# allocations per open, flat in the table's size. Gets: allocations per
# block-cache hit and per miss (TestGetAllocs). The block cache: allocations
# per evicting Put, and the cache against a map-plus-recency-slice oracle.
# Sealed reads: one inner read and no allocation per whole-record read (an
# SST block-cache miss) once the extent pool is warm, and the pool's
# retention cap. Record logs: allocations per Append. Manual compaction: bytes read by CompactRange against
# the tables it replaces (RewritesOnce).
io-path-check:
	go test -run 'InnerReads|Allocs|SliceOracle|Arena|OutlivesMemtable|PooledPutBatch|SealedWriter|WholeRecord|SmallRecords|OneWritePerBlock|Towers|MatchesOracle|SkiplistOracle|SplitAcrossReads|Deadline|ReadAhead|Frame|RewritesOnce' \
		./internal/crypt/ ./internal/lsm/ ./internal/lsm/skiplist/ ./internal/lsm/sstable/ ./internal/vfs/ ./internal/dstore/ \
		./internal/resp/ ./internal/server/ ./internal/netretry/ ./internal/cache/

fmt:
	test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }

vet:
	go vet ./...

# The repo's own analysis suite (cmd/shield-vet), eleven analyzers: nofs,
# syncdir, keyhygiene, lockio, errclass, authread (persistence and keys,
# DESIGN.md §9), testonly (every non-test function has a non-test caller
# somewhere in the module; //shield:notestonly <reason> keeps one that has
# none, §9) plus lockorder, atomics, goroleak, noncebound (concurrency and
# crypto misuse, §14). Stdlib-only — no downloads, works offline. Packages
# analyze on a worker pool; output is identical at any -parallel.
shield-vet:
	go run ./cmd/shield-vet ./...

# Audit the suppression inventory: list every //shield:no* directive with
# its reason, failing on stale ones (directives that suppress no finding).
shield-vet-suppressions:
	go run ./cmd/shield-vet -suppressions ./...

# Non-test Go lines per package outside benchmark/ (the number a change that
# claims to simplify quotes), with the total last.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path './.bench_build/*' \
		| xargs wc -l | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%6d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%6d total\n", t }'

# Every exported field of every Options/Config/Policy struct outside
# benchmark/, with the non-test files that set it (`Field:` in a literal,
# `.Field =`, or `&x.Field` handed to a flag); `-` marks a knob nothing sets.
# The declaring file is left out, so a withDefaults does not count as a
# setter. It is grep: a field name two structs share is credited to both.
# The rule the list is read against (DESIGN.md §11): a knob stays while a
# cmd/ flag, an example, a sim band or benchmark/ sets it to a
# non-default, or it is a safety check; otherwise it becomes a constant. A `-`
# row fails the target unless its field is listed here, with its reason:
#
# core.Config.RevokeOnDelete: ROADMAP.md item 6 decides it.
KNOBS_UNSET_OK += core.Config.RevokeOnDelete

knobs:
	@grep -rlE '^type [A-Za-z]*(Options|Config|Policy) struct' --include='*.go' --exclude='*_test.go' cmd internal | sort \
	| while read -r f; do awk -v f="$$f" ' \
		/^type [A-Za-z]*(Options|Config|Policy) struct/ { s = $$2; next } \
		s != "" && /^}/ { s = "" } \
		s != "" && /^\t[A-Z][A-Za-z0-9]*[ ,]/ { n = $$1; sub(/,$$/, "", n); print f, s, n }' "$$f"; done \
	| while read -r f s n; do \
		d=$$(dirname "$$f"); \
		set -- $$(grep -rlE "(^|[^A-Za-z0-9_])$$n:|\.$$n (=|\+=|\|=) |&[A-Za-z_.]*\.$$n[,)]" --include='*.go' --exclude='*_test.go' \
			cmd examples internal benchmark | grep -vx "$$f" | sort); \
		printf '%-52s %s\n' "$${d#internal/}.$$s.$$n" "$${*:--}"; \
	done \
	| awk -v ok="$(KNOBS_UNSET_OK)" 'BEGIN { n = split(ok, a, " "); for (i = 1; i <= n; i++) allowed[a[i]] = 1 } \
		{ print } $$2 == "-" && !($$1 in allowed) { bad = bad " " $$1 } \
		END { if (bad != "") { print "make knobs: nothing sets" bad "; make it a constant, delete it, or list it in KNOBS_UNSET_OK" > "/dev/stderr"; exit 1 } }'

# Seeded whole-stack fault simulation (cmd/shield-sim, DESIGN.md §10).
# `sim` is the quick local gate; `sim-long` widens the fault matrix with the
# disaggregated data path and bit-rot. Replay a failure with the exact
# command the reducer prints. SIM_SEEDS overrides the sweep width.
SIM_SEEDS ?= 50
sim:
	go run ./cmd/shield-sim -seeds $(SIM_SEEDS)

# Serving-layer gate (DESIGN.md §12): the RESP protocol package and the
# shield-server front-end under the race detector — pipelined clients,
# group-commit observation, protocol-error recovery, graceful drain — plus
# a serving-chaos sim sweep (connection storms, slow clients).
server-test:
	go test -race ./internal/resp/ ./internal/server/
	go run ./cmd/shield-sim -seeds 20 -connstorm

sim-long:
	go run ./cmd/shield-sim -seeds $(SIM_SEEDS)
	go run ./cmd/shield-sim -seeds $(SIM_SEEDS) -dstore
	go run ./cmd/shield-sim -seeds $(SIM_SEEDS) -bitrot
	go run ./cmd/shield-sim -seeds $(SIM_SEEDS) -dstore -bitrot

# Replication gate (DESIGN.md §15): the replica-set and orchestrator unit
# and integration tests under the race detector, the core quorum-loss
# degradation tests, then a nodeloss sim sweep — three storage nodes behind
# a quorum-2 replica set with offloaded compactions, replica kills
# overlapping in-flight writes, worker kills mid-lease, and the end-of-run
# byte-identical replica audit.
replication-test:
	go test -race ./internal/dstore/ ./internal/compactsvc/ ./internal/netretry/
	go test -race -run 'Replica|Quorum' ./internal/core/
	go run ./cmd/shield-sim -seeds $(SIM_SEEDS) -nodeloss

# Adversarial gate (DESIGN.md §13): seeded bit flips plus a manifest
# rollback every run. Tampering must surface only as typed integrity
# errors or quarantine-absence, the rollback must fail closed at reopen,
# and the end-of-run scrub audit must flag every still-tampered file.
tamper-test:
	go run ./cmd/shield-sim -seeds $(SIM_SEEDS) -bitrot -rollback

# Coverage-guided fuzzing. The sealed (format v3) parser and reader:
# arbitrary bodies must open and read or fail as integrity errors, and any
# span of a mutated or cut body must read back the written plaintext or fail
# as an integrity error, as the per-record oracle reads it — never panic,
# misclassify or release a byte that was not written there. The RESP command parser, differentially: the in-place
# reader and the bufio oracle must agree on commands, error class and stream
# position for any input in any chunking. The RESP reply parser the client
# reads with: any bytes parse or fail, never panic, within its limits. The two decoders a storage-side
# attacker reaches before any AEAD check: the dstore frame (typed error or a
# value that re-encodes to the bytes consumed, allocation bounded by the
# input) and the SHIELD file header. The SST table open: on any bytes, as
# given and with every block's checksum recomputed, open, scan and Get
# succeed or fail as sstable.ErrCorruption, allocation bounded by the input.
# The two decoders the recovery pass (Open and Scrub alike) reads: WAL
# records through readWAL, framing and batches, and manifest version edits
# through strict and salvage replay; each ends in a typed error or succeeds.
# The WAL/MANIFEST append stream, differentially: for any write sizes, buffer
# size, failed-and-retried inner write and read sizes, the body is one
# keystream pass over the plaintext and reads back as it. The sealed state
# file older builds kept the KDS key table and the secure cache in, read once
# to upgrade: any bytes decode or fail as a typed error, allocation bounded
# by the input. The record log (the KDS key table and the secure DEK cache,
# as crypt.StateLog): on any bytes the reader returns a
# prefix of the records written, then a clean end, a torn tail or a typed
# error. The KDS request path: any bytes
# through the server's JSON decode and handler never panic, every reply is
# OK or an error, and no request from an unenrolled server succeeds. The
# offloaded-compaction wire, both ends: any bytes as worker requests through
# the orchestrator's handler, and as orchestrator replies through the
# worker's reading of them (a claim runs its job); no panic, allocation
# bounded by the input. The memtable's arena skiplist, against a sorted-slice
# oracle: any insert and seek sequence (one user key at many sequence numbers,
# entries that straddle chunks or take a chunk of their own) seeks, scans and
# sizes as the oracle does.
# FUZZTIME bounds each target; CI uses a short burst, leave
# it running locally to dig deeper. Minimization is capped because its 60 s
# default otherwise eats a short burst whole (execs drop to 0/sec after the
# first new-coverage input).
FUZZTIME ?= 30s
FUZZFLAGS = -run='^$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s
fuzz:
	go test $(FUZZFLAGS) -fuzz=FuzzSealedOpen ./internal/crypt/
	go test $(FUZZFLAGS) -fuzz=FuzzSealedReadAt ./internal/crypt/
	go test $(FUZZFLAGS) -fuzz=FuzzReadCommand ./internal/resp/
	go test $(FUZZFLAGS) -fuzz=FuzzReadReply ./internal/resp/
	go test $(FUZZFLAGS) -fuzz=FuzzDstoreFrame ./internal/dstore/
	go test $(FUZZFLAGS) -fuzz=FuzzParseHeader ./internal/core/
	go test $(FUZZFLAGS) -fuzz=FuzzTableOpen ./internal/lsm/sstable/
	go test $(FUZZFLAGS) -fuzz=FuzzWALRecords ./internal/lsm/
	go test $(FUZZFLAGS) -fuzz=FuzzVersionEdit ./internal/lsm/
	go test $(FUZZFLAGS) -fuzz=FuzzAppendStream ./internal/crypt/
	go test $(FUZZFLAGS) -fuzz=FuzzStateFile ./internal/crypt/
	go test $(FUZZFLAGS) -fuzz=FuzzRecordLog ./internal/crypt/
	go test $(FUZZFLAGS) -fuzz=FuzzKDSRequest ./internal/kds/
	go test $(FUZZFLAGS) -fuzz=FuzzCompactsvcWire ./internal/compactsvc/
	go test $(FUZZFLAGS) -fuzz=FuzzSkiplistOracle ./internal/lsm/skiplist/

# Third-party linters. These reach the network to fetch the pinned tool the
# first time; they are deliberately NOT part of `make all` so an offline
# checkout can still run the full local gate.
staticcheck:
	go run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

govulncheck:
	go run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

lint-extra: staticcheck govulncheck
