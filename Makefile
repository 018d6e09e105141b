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

# The compaction scheduler's flake lane: the picker, scheduler, CompactRange,
# universal/FIFO and subcompaction tests of internal/lsm and the offloaded-
# compaction orchestrator, ten times each under the race detector, so an
# interleaving one PR-gate run misses shows up here. Nightly in CI.
flake:
	go test -race -count=10 -run 'Sched|Compact|Universal|FIFO|Subcompaction|Pick' ./internal/lsm/
	go test -race -count=10 ./internal/compactsvc/

# The I/O paths' mechanisms, pinned. Reads: inner reads per sealed ReadAt, per
# table open, per cache miss and per digest walk. Writes: allocations per Put,
# per memtable entry, per sealed chunk and per memfs append, and the
# equivalence tests of what the write path replaced (extent-backed memfs
# bodies against a flat slice, the memtable arena under concurrent readers,
# recycled sealed-writer jobs, pooled Put batches). The allocation tests carry
# a !race build tag (allocation counts are meaningless under the race
# detector), so `make race` skips them and this target is where they run.
# Served commands: allocations per pipeline through server.handle and through
# resp.Client, per ReadCommand, the in-place parser against its bufio oracle,
# and the lazily armed deadlines. The dstore wire: frames per sequential,
# random and compaction read (counted at Server.Stats), read-ahead against
# direct reads, allocations per remote read and per read served from the
# read-ahead packet, the frame codec against hostile peers. Table opens:
# allocations per open, flat in the table's size. Manual compaction: bytes
# read by CompactRange against the tables it replaces (RewritesOnce).
io-path-check:
	go test -run 'InnerReads|Allocs|SliceOracle|Arena|OutlivesMemtable|PooledPutBatch|SealedWriter|Towers|MatchesOracle|SplitAcrossReads|Deadline|ReadAhead|Frame|RewritesOnce' \
		./internal/crypt/ ./internal/lsm/ ./internal/lsm/skiplist/ ./internal/lsm/sstable/ ./internal/vfs/ ./internal/dstore/ \
		./internal/resp/ ./internal/server/ ./internal/netretry/

fmt:
	test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }

vet:
	go vet ./...

# The repo's own analysis suite (cmd/shield-vet), ten analyzers: nofs,
# syncdir, keyhygiene, lockio, errclass, authread (persistence and keys,
# DESIGN.md §9) plus lockorder, atomics, goroleak, noncebound (concurrency
# and crypto misuse, §14). Stdlib-only — no downloads, works offline.
# Packages analyze on a worker pool; output is identical at any -parallel.
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
# cmd/ flag, an example, a sim band, an experiment or benchmark/ sets it to a
# non-default, or it is a safety check; otherwise it becomes a constant.
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
	done

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

# Coverage-guided fuzzing. The sealed (format v2) parser and reader:
# arbitrary bodies must round-trip or fail as integrity errors, and any span
# of a tampered body must read as the per-block oracle reads it — never panic
# or misclassify. The RESP command parser, differentially: the in-place
# reader and the bufio oracle must agree on commands, error class and stream
# position for any input in any chunking. The two decoders a storage-side
# attacker reaches before any AEAD check: the dstore frame (typed error or a
# value that re-encodes to the bytes consumed, allocation bounded by the
# input) and the SHIELD file header. The SST table open: on any bytes, as
# given and with every block's checksum recomputed, open, scan and Get
# succeed or fail as sstable.ErrCorruption, allocation bounded by the input.
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
	go test $(FUZZFLAGS) -fuzz=FuzzDstoreFrame ./internal/dstore/
	go test $(FUZZFLAGS) -fuzz=FuzzParseHeader ./internal/core/
	go test $(FUZZFLAGS) -fuzz=FuzzTableOpen ./internal/lsm/sstable/

# Third-party linters. These reach the network to fetch the pinned tool the
# first time; they are deliberately NOT part of `make all` so an offline
# checkout can still run the full local gate.
staticcheck:
	go run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

govulncheck:
	go run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

lint-extra: staticcheck govulncheck
