GO ?= go

.PHONY: all build vet test test-differential fuzz-smoke bench-smoke bench bench-json check

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The fast/slow, block-execution, tick-equivalence,
# recycled-vs-fresh, crash/resume and service-mode differential suites
# are the correctness contract of the hot-path optimizations, the
# machine-recycling subsystem, the fleet's crash-safety (journaled
# checkpointing, fault containment, resume convergence) and the fleetd
# journal byte-identity; this target fails if any of them is skipped or
# matches nothing.
test-differential:
	@out=$$($(GO) test -v -run 'TestDispatchDifferential|TestFastSlow|TestBlock|TestTickEquivalence|TestTimerTickClosedForm|TestRecycle|TestGenerated|TestCrashResume|TestFault|TestJournal|TestStreamPanic|TestStreamCancel|TestFleetCrashResumeCLI|TestFleetFaultInjectionCLI|TestCoord|TestFleetWorker|TestFleetCoordinator|TestServe|TestFleetdSmoke' \
		./internal/mem ./internal/core ./internal/periph ./internal/fleet ./internal/fleet/pool ./internal/fleet/coord ./internal/fleet/serve ./cmd/eilid-fleet ./cmd/eilid-fleetd) || { echo "$$out"; exit 1; }; \
	echo "$$out" | grep -q -- '--- PASS' || { echo 'no differential tests ran'; exit 1; }; \
	if echo "$$out" | grep -q -- '--- SKIP'; then echo "$$out" | grep -- '--- SKIP'; echo 'differential tests were skipped'; exit 1; fi; \
	echo "differential suites: $$(echo "$$out" | grep -c -- '--- PASS') passes, no skips"

# A few seconds of coverage-guided fuzzing per native target: the
# assembler must never panic on arbitrary source, no UART input may
# compromise the protected overflow victim, and no generated
# instruction stream may run differently on the fast paths than on the
# reference interpreter under any defense. The committed seed corpora
# under */testdata/fuzz/ anchor the search; real finds land there as
# regression inputs.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzAssemble$$' -fuzztime=5s ./internal/asm
	$(GO) test -run='^$$' -fuzz='^FuzzUARTPayload$$' -fuzztime=5s ./internal/attacks
	$(GO) test -run='^$$' -fuzz='^FuzzExecDifferential$$' -fuzztime=5s ./internal/core

# One-iteration benchmark pass so throughput regressions surface in PRs
# without burning CI minutes. NoBlocks rides along so the block layer's
# contribution stays individually measurable; DefenseThroughput tracks
# each defense column on a real app; MachineChurn guards the recycled
# machine-lifecycle overhead, and Coordinator_ShardScaling the
# multi-process spawn/supervise/merge overhead.
bench-smoke:
	$(GO) test -run='^$$' -bench='BenchmarkSimulator_Throughput$$|BenchmarkSimulator_ThroughputNoBlocks$$|BenchmarkSimulator_DefenseThroughput|BenchmarkFleet_MachineChurn' -benchtime=1x .
	$(GO) test -run='^$$' -bench='BenchmarkCoordinator_ShardScaling' -benchtime=1x ./cmd/eilid-fleet
	$(GO) test -run='^$$' -bench='BenchmarkFleetd_WarmResubmit' -benchtime=1x ./cmd/eilid-fleetd

bench:
	$(GO) test -run='^$$' -bench=. -benchmem .

# bench-json records the performance trajectory in-repo: the simulator
# throughput benchmarks, per defense column too (timed), plus the
# Table IV sweep (one iteration),
# parsed into the first free BENCH_<n>.json so each PR appends a point
# to the trajectory instead of overwriting the previous one. The bench
# output goes through a temp file so a failing/panicking benchmark fails
# the target instead of silently writing a partial record.
bench-json:
	$(GO) test -run='^$$' -bench='BenchmarkSimulator_Throughput|BenchmarkSimulator_DefenseThroughput|BenchmarkFleet_MachineChurn' -benchtime=2s . > BENCH.txt.tmp
	$(GO) test -run='^$$' -bench='BenchmarkSimulator_FleetMatrix$$|BenchmarkTable4$$' -benchtime=1x . >> BENCH.txt.tmp
	$(GO) test -run='^$$' -bench='BenchmarkCoordinator_ShardScaling' -benchtime=1x ./cmd/eilid-fleet >> BENCH.txt.tmp
	$(GO) test -run='^$$' -bench='BenchmarkFleetd_WarmResubmit' -benchtime=10x ./cmd/eilid-fleetd >> BENCH.txt.tmp
	@f=$$($(GO) run ./cmd/eilid-benchjson -next < BENCH.txt.tmp) || { rm -f BENCH.txt.tmp; exit 1; }; \
	rm -f BENCH.txt.tmp; echo "wrote $$f"

check: build vet test test-differential bench-smoke
