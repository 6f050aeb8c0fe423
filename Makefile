# The check target runs exactly what CI runs: every step of the check
# job in .github/workflows/ci.yml is `make <target>` of a target below.
# `go test ./...` is the one gate for what has no target of its own:
# the analyzer over the whole tree (internal/vet's TestTreeClean), the
# model-checking and chaos smokes (TestDFSClean, TestKillSuite,
# TestSmokeSeedsClean) and the cmd/ tools' command lines. The lock
# order and pooled-buffer ownership are not vet rules: internal/sim and
# internal/bufpool check them at run time, under the same tests.

.PHONY: check build vet fmt ledger ledger-check test benchmark-check race mc-deep chaos-deep

check: build vet fmt ledger-check test benchmark-check race

build:
	go build ./...

vet:
	go vet ./...

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; \
		echo "$$out" >&2; \
		exit 1; \
	fi

# The structure ledger every simplicity PR quotes, counted once: per
# package and for the tree, code lines (non-test, non-blank, non-comment
# Go; testdata, benchmark/ and .bench_build/ excluded — ISSUE 20's
# definition), test lines (the same count over _test.go files) and
# vet:ignore directives (not counted in the analyzer's own package,
# which only talks about the directive), then the other things a change
# has to keep in step, down to the panic census (non-test, non-comment
# lines calling panic) the failure contract is shrinking. No cell
# depends on the host or the clock.
ledger:
	@echo '| package | code lines | test lines | `vet:ignore` |'; \
	echo '|---|---:|---:|---:|'; \
	find . -name '*.go' ! -path '*/testdata/*' ! -path './benchmark/*' ! -path './.bench_build/*' | xargs awk ' \
		FNR == 1 { d = FILENAME; sub("/[^/]*$$", "", d); seen[d] = 1; t = FILENAME ~ /_test\.go$$/ } \
		/vet:ignore/ && !t && d !~ /vet$$/ { ignore[d]++ } \
		/^[[:space:]]*$$/ || /^[[:space:]]*\/\// { next } \
		{ if (t) test[d]++; else code[d]++ } \
		END { for (d in seen) print d, code[d]+0, test[d]+0, ignore[d]+0 }' | LC_ALL=C sort | awk ' \
		{ printf "| `%s` | %d | %d | %d |\n", $$1, $$2, $$3, $$4; c += $$2; t += $$3; i += $$4 } \
		END { printf "| **whole tree** | %d | %d | %d |\n", c, t, i }'; \
	fields() { sed -n '/^type Config struct {/,/^}/p' $$1 | grep -c '^	[A-Za-z]'; }; \
	echo "| \`Config\` fields: \`dsm\` / \`cluster\` / \`mermaid\` | $$(fields internal/dsm/dsm.go) | $$(fields internal/cluster/cluster.go) | $$(fields mermaid.go) |"; \
	panics() { find $$1 -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './benchmark/*' ! -path './.bench_build/*' | xargs cat | grep -v '^[[:space:]]*//' | grep -c '\<panic('; }; \
	echo "| non-test \`panic(\` lines: \`internal/dsm\` / whole tree | $$(panics internal/dsm) | $$(panics .) | |"; \
	echo "| \`cmd/\` tools / Makefile targets / CI jobs | $$(ls -d cmd/*/ | wc -l | tr -d ' ') | $$(grep -c '^[a-z][a-z-]*:' Makefile) | $$(sed -n '/^jobs:/,$$p' .github/workflows/ci.yml | grep -c '^  [a-z][a-z-]*:$$') |"

# The committed copy of that table lives in EXPERIMENTS.md between the
# two markers; any .go line added or removed makes it stale. diff reads
# the committed block on fd 3 and the generated table on stdin.
ledger-check:
	@sed -n '/^<!-- ledger:begin -->$$/,/^<!-- ledger:end -->$$/p' EXPERIMENTS.md | sed '1d;$$d' | \
	{ $(MAKE) -s --no-print-directory ledger | diff /dev/fd/3 - ; } 3<&0 || \
	{ echo "EXPERIMENTS.md: the ledger block is stale; paste the output of 'make ledger' between its markers" >&2; exit 1; }

# The second line pins the byte-identical-output guarantee at one and
# at three sim.Each workers (-cpu sets GOMAXPROCS, the only control;
# Each leaves one processor free).
test:
	go test ./...
	go test -cpu 1,4 -run 'Golden' ./cmd/mermaid-bench/

# benchmark/ is a module of its own, so the root `go test ./...` never
# sees its smoke test: BENCHMARK.json against the code, all four
# workloads at -quick scale, and the flipped-shadow self-check.
benchmark-check:
	cd benchmark && go test ./...

# netsim, remoteop and bufpool hold the only state shared across kernels
# (netsim's txPool and remoteop's four sync.Pools, the encode buffers'
# atomic refcount, the size-classed free list that Put scans for a
# buffer put twice — bufpool's TestConcurrentGetPut runs that scan from
# four goroutines at once), and every call loop runs through them;
# matmul's table of reference products, one per N, is the one more. internal/exp is what
# actually runs kernels side by side (sim.Each, one cluster per worker),
# so the second line re-checks that list where it matters: Each's own
# tests, and three exp sweeps at one and at three workers (GOMAXPROCS 1
# and 4), under the detector, plus the table's first use from every
# Each worker at once. It selects those small tests because the whole exp suite
# takes most of a minute under -race.
race:
	go test -race ./internal/sim/... ./internal/dsm/... ./internal/dsync/... ./internal/threads/... ./internal/netsim/... ./internal/remoteop/... ./internal/bufpool/...
	go test -race -run 'Each|AcrossCores|ConcurrentFirstUse' ./internal/sim/... ./internal/exp/... ./internal/apps/matmul

# Nightly-depth chaos: 100 seeds per workload × class — the range the
# benchmark's verify-sweep draws its chaos seeds from, so a traffic
# change that moves an oracle failure into it fails here first — with a
# determinism double-run (-verify) on every campaign, then the three
# engine mutations the chaos oracles must kill. stale-quorum-read is
# caught in only 1 of its first 5 runs (5 of 25), so it runs 25.
chaos-deep:
	go run ./cmd/mermaid-chaos -workload=all -class=all -seed=1 -runs=100 -verify
	go run ./cmd/mermaid-chaos -workload=quorum -class=mix -seed=1 -runs=25 -mutation=stale-quorum-read
	go run ./cmd/mermaid-chaos -workload=quorum -class=mix -seed=1 -runs=5 -mutation=split-brain-write
	go run ./cmd/mermaid-chaos -workload=rc -class=drop -seed=1 -runs=5 -mutation=lost-diff

# Full mutation-kill suite plus a deeper clean sweep of every workload —
# the nightly-depth run. -workload=all includes crash (failure detection
# on, ≈9 s at this budget), which this target skipped while it spelled
# its workloads out.
mc-deep:
	go run ./cmd/mermaid-mc -kill -kill-budget=500
	go run ./cmd/mermaid-mc -workload=all -strategy=dfs -max-schedules=5000
	go run ./cmd/mermaid-mc -workload=basic -strategy=random -runs=2000
	go run ./cmd/mermaid-mc -workload=matmul -strategy=delay -delays=3 -max-schedules=5000
