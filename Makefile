# The check target runs exactly what CI runs (.github/workflows/ci.yml);
# keep the two in lockstep.

.PHONY: check build vet fmt test benchmark-check race mermaid-vet bench-files mc-smoke mc-deep chaos-smoke chaos-deep bench bench-smoke scale-smoke scale-deep

check: build vet fmt test benchmark-check race mermaid-vet bench-files mc-smoke chaos-smoke scale-smoke

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

test:
	go test ./...

# benchmark/ is a module of its own, so the root `go test ./...` never
# sees its smoke test: BENCHMARK.json against the code, all four
# workloads at -quick scale, and the flipped-shadow self-check.
benchmark-check:
	cd benchmark && go test ./...

race:
	go test -race ./internal/sim/... ./internal/dsm/... ./internal/dsync/... ./internal/threads/...

# Two runs: the first warms the build cache (and fails fast on
# findings), the second emits the JSON coverage report CI archives and
# asserts the analyzer's wall-clock budget — a regression that makes
# the interprocedural layer super-linear fails check, not just CI.
mermaid-vet:
	go run ./cmd/mermaid-vet ./...
	go run ./cmd/mermaid-vet -json -max-elapsed-ms=5000 ./... > mermaid-vet.json

# Wall-clock benchmark harness: run the Real* micro-benchmarks and
# freeze the numbers into BENCH_1.json via mermaid-benchjson. The
# intermediate text file keeps parse failures distinguishable from
# benchmark failures.
bench:
	go test -run '^$$' -bench Real -benchmem . > bench_real.txt
	go run ./cmd/mermaid-benchjson -o BENCH_1.json < bench_real.txt
	go run ./cmd/mermaid-benchjson -validate BENCH_1.json
	@rm -f bench_real.txt
	go test -run '^$$' -bench 'SimKernel1024Hosts|SimProcHandoff|SimSpawnExit|MCDFSBasic|ClusterStateHash|BusInvalidation|SwitchedInvalidation' -benchmem . > bench_scale.txt
	go run ./cmd/mermaid-benchjson -o BENCH_2.json < bench_scale.txt
	go run ./cmd/mermaid-benchjson -validate BENCH_2.json
	@rm -f bench_scale.txt
	go test -run '^$$' -bench QuorumFanout -benchmem . > bench_quorum.txt
	go run ./cmd/mermaid-benchjson -o BENCH_3.json < bench_quorum.txt
	go run ./cmd/mermaid-benchjson -validate BENCH_3.json
	@rm -f bench_quorum.txt
	go test -run '^$$' -bench 'RCDiffEncode|RCMerge' -benchmem . > bench_rc.txt
	go run ./cmd/mermaid-benchjson -o BENCH_4.json < bench_rc.txt
	go run ./cmd/mermaid-benchjson -validate BENCH_4.json
	@rm -f bench_rc.txt

# Every frozen BENCH_N.json this Makefile regenerates must be checked
# in: a bench step added without committing its baseline looks green
# locally and silently ships no reference numbers (BENCH_3 did exactly
# that for one release).
bench-files:
	@missing=0; \
	for f in $$(grep -oh 'BENCH_[0-9]*\.json' Makefile | sort -u); do \
		if [ ! -f "$$f" ]; then echo "missing frozen benchmark $$f (referenced by Makefile)" >&2; missing=1; fi; \
	done; \
	exit $$missing

# CI variant: a handful of iterations only — proves the harness and the
# JSON pipeline work without burning minutes on stable numbers.
bench-smoke:
	go test -run '^$$' -bench Real -benchmem -benchtime 10x . > bench_smoke.txt
	go run ./cmd/mermaid-benchjson -o bench_smoke.json < bench_smoke.txt
	go run ./cmd/mermaid-benchjson -validate bench_smoke.json
	@rm -f bench_smoke.txt bench_smoke.json

# Bounded model-checking smoke: exhaustive DFS over the 2-host smoke
# workload (must stay clean) plus one representative mutation per
# oracle family (must be killed). Budgeted to finish well under a
# minute; the full sweep is mc-deep.
mc-smoke:
	go run ./cmd/mermaid-mc -workload=basic -strategy=dfs -max-schedules=1200
	go run ./cmd/mermaid-mc -workload=basic -mutation=skip-invalidation -max-schedules=100
	go run ./cmd/mermaid-mc -workload=basic -mutation=skip-conversion -max-schedules=100
	go run ./cmd/mermaid-mc -workload=dynamic -strategy=dfs -max-schedules=1200
	go run ./cmd/mermaid-mc -workload=dynamic -mutation=stale-probable-owner -max-schedules=100
	go run ./cmd/mermaid-mc -workload=quorum -strategy=dfs -max-schedules=1200
	go run ./cmd/mermaid-mc -workload=quorum -mutation=stale-quorum-read -max-schedules=100
	go run ./cmd/mermaid-mc -workload=quorum -mutation=split-brain-write -max-schedules=100
	go run ./cmd/mermaid-mc -workload=rc -strategy=dfs -max-schedules=1200
	go run ./cmd/mermaid-mc -workload=rc -mutation=lost-diff -max-schedules=100
	go run ./cmd/mermaid-mc -workload=rc -mutation=stale-twin-merge -max-schedules=100

# Chaos smoke: one seed per workload × fault class (24 campaigns).
# Every run must survive its fault schedule — a violation prints a
# replay token and fails the build. Budgeted for CI; chaos-deep widens
# the seed range and double-runs everything for determinism.
chaos-smoke:
	go run ./cmd/mermaid-chaos -workload=slots -class=drop -seed=1 -runs=1
	go run ./cmd/mermaid-chaos -workload=slots -class=partition -seed=1 -runs=1
	go run ./cmd/mermaid-chaos -workload=slots -class=crash -seed=1 -runs=1
	go run ./cmd/mermaid-chaos -workload=slots -class=mix -seed=1 -runs=1
	go run ./cmd/mermaid-chaos -workload=counter -class=drop -seed=1 -runs=1
	go run ./cmd/mermaid-chaos -workload=counter -class=partition -seed=1 -runs=1
	go run ./cmd/mermaid-chaos -workload=counter -class=crash -seed=1 -runs=1
	go run ./cmd/mermaid-chaos -workload=counter -class=mix -seed=1 -runs=1
	go run ./cmd/mermaid-chaos -workload=handoff -class=drop -seed=1 -runs=1
	go run ./cmd/mermaid-chaos -workload=handoff -class=partition -seed=1 -runs=1
	go run ./cmd/mermaid-chaos -workload=handoff -class=crash -seed=1 -runs=1
	go run ./cmd/mermaid-chaos -workload=handoff -class=mix -seed=1 -runs=1
	go run ./cmd/mermaid-chaos -workload=forward -class=drop -seed=1 -runs=1
	go run ./cmd/mermaid-chaos -workload=forward -class=partition -seed=1 -runs=1
	go run ./cmd/mermaid-chaos -workload=forward -class=crash -seed=1 -runs=1
	go run ./cmd/mermaid-chaos -workload=forward -class=mix -seed=1 -runs=1
	go run ./cmd/mermaid-chaos -workload=switched -class=drop -seed=1 -runs=1
	go run ./cmd/mermaid-chaos -workload=switched -class=partition -seed=1 -runs=1
	go run ./cmd/mermaid-chaos -workload=switched -class=crash -seed=1 -runs=1
	go run ./cmd/mermaid-chaos -workload=switched -class=mix -seed=1 -runs=1
	go run ./cmd/mermaid-chaos -workload=quorum -class=drop -seed=1 -runs=1
	go run ./cmd/mermaid-chaos -workload=quorum -class=partition -seed=1 -runs=1
	go run ./cmd/mermaid-chaos -workload=quorum -class=crash -seed=1 -runs=1
	go run ./cmd/mermaid-chaos -workload=quorum -class=mix -seed=1 -runs=1
	go run ./cmd/mermaid-chaos -workload=rc -class=drop -seed=1 -runs=1
	go run ./cmd/mermaid-chaos -workload=rc -class=partition -seed=1 -runs=1
	go run ./cmd/mermaid-chaos -workload=rc -class=crash -seed=1 -runs=1
	go run ./cmd/mermaid-chaos -workload=rc -class=mix -seed=1 -runs=1

# Nightly-depth chaos: 25 seeds per workload × class with a
# determinism double-run (-verify) on every campaign.
chaos-deep:
	go run ./cmd/mermaid-chaos -workload=slots -class=drop -seed=1 -runs=25 -verify
	go run ./cmd/mermaid-chaos -workload=slots -class=partition -seed=1 -runs=25 -verify
	go run ./cmd/mermaid-chaos -workload=slots -class=crash -seed=1 -runs=25 -verify
	go run ./cmd/mermaid-chaos -workload=slots -class=mix -seed=1 -runs=25 -verify
	go run ./cmd/mermaid-chaos -workload=counter -class=drop -seed=1 -runs=25 -verify
	go run ./cmd/mermaid-chaos -workload=counter -class=partition -seed=1 -runs=25 -verify
	go run ./cmd/mermaid-chaos -workload=counter -class=crash -seed=1 -runs=25 -verify
	go run ./cmd/mermaid-chaos -workload=counter -class=mix -seed=1 -runs=25 -verify
	go run ./cmd/mermaid-chaos -workload=handoff -class=drop -seed=1 -runs=25 -verify
	go run ./cmd/mermaid-chaos -workload=handoff -class=partition -seed=1 -runs=25 -verify
	go run ./cmd/mermaid-chaos -workload=handoff -class=crash -seed=1 -runs=25 -verify
	go run ./cmd/mermaid-chaos -workload=handoff -class=mix -seed=1 -runs=25 -verify
	go run ./cmd/mermaid-chaos -workload=forward -class=drop -seed=1 -runs=25 -verify
	go run ./cmd/mermaid-chaos -workload=forward -class=partition -seed=1 -runs=25 -verify
	go run ./cmd/mermaid-chaos -workload=forward -class=crash -seed=1 -runs=25 -verify
	go run ./cmd/mermaid-chaos -workload=forward -class=mix -seed=1 -runs=25 -verify
	go run ./cmd/mermaid-chaos -workload=switched -class=drop -seed=1 -runs=25 -verify
	go run ./cmd/mermaid-chaos -workload=switched -class=partition -seed=1 -runs=25 -verify
	go run ./cmd/mermaid-chaos -workload=switched -class=crash -seed=1 -runs=25 -verify
	go run ./cmd/mermaid-chaos -workload=switched -class=mix -seed=1 -runs=25 -verify
	go run ./cmd/mermaid-chaos -workload=quorum -class=drop -seed=1 -runs=25 -verify
	go run ./cmd/mermaid-chaos -workload=quorum -class=partition -seed=1 -runs=25 -verify
	go run ./cmd/mermaid-chaos -workload=quorum -class=crash -seed=1 -runs=25 -verify
	go run ./cmd/mermaid-chaos -workload=quorum -class=mix -seed=1 -runs=25 -verify
	go run ./cmd/mermaid-chaos -workload=rc -class=drop -seed=1 -runs=25 -verify
	go run ./cmd/mermaid-chaos -workload=rc -class=partition -seed=1 -runs=25 -verify
	go run ./cmd/mermaid-chaos -workload=rc -class=crash -seed=1 -runs=25 -verify
	go run ./cmd/mermaid-chaos -workload=rc -class=mix -seed=1 -runs=25 -verify
	go run ./cmd/mermaid-chaos -workload=quorum -class=mix -seed=1 -runs=5 -mutation=stale-quorum-read
	go run ./cmd/mermaid-chaos -workload=quorum -class=mix -seed=1 -runs=5 -mutation=split-brain-write
	go run ./cmd/mermaid-chaos -workload=rc -class=drop -seed=1 -runs=5 -mutation=lost-diff

# Full mutation-kill suite plus a deeper clean sweep of every workload —
# the nightly-depth run.
mc-deep:
	go run ./cmd/mermaid-mc -kill -kill-budget=500
	go run ./cmd/mermaid-mc -workload=basic -strategy=dfs -max-schedules=5000
	go run ./cmd/mermaid-mc -workload=matmul -strategy=dfs -max-schedules=5000
	go run ./cmd/mermaid-mc -workload=ring -strategy=dfs -max-schedules=5000
	go run ./cmd/mermaid-mc -workload=sem -strategy=dfs -max-schedules=5000
	go run ./cmd/mermaid-mc -workload=barrier -strategy=dfs -max-schedules=5000
	go run ./cmd/mermaid-mc -workload=update -strategy=dfs -max-schedules=5000
	go run ./cmd/mermaid-mc -workload=dynamic -strategy=dfs -max-schedules=5000
	go run ./cmd/mermaid-mc -workload=quorum -strategy=dfs -max-schedules=5000
	go run ./cmd/mermaid-mc -workload=rc -strategy=dfs -max-schedules=5000
	go run ./cmd/mermaid-mc -workload=basic -strategy=random -runs=2000
	go run ./cmd/mermaid-mc -workload=matmul -strategy=delay -delays=3 -max-schedules=5000

# Directory-scaling smoke: the N∈{16,64,256} bus+switched ablation
# (single-digit seconds). The full 1024-host sweep is scale-deep.
scale-smoke:
	go run ./cmd/mermaid-bench -only scale

# Nightly-depth scaling: the 1024-host cluster ablation on both the
# one-segment bus and the 32×32 switched fabric.
scale-deep:
	go run ./cmd/mermaid-bench -only scale1k
