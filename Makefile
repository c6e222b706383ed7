GO ?= go

.PHONY: build fmt-check lint test simbench-check race race-smoke determinism trace-smoke profile-smoke flight-smoke hostprof-smoke memlens-smoke schedlens-smoke bench-json speed-bench results check bench

build:
	$(GO) build ./...

# Fails on any Go file gofmt would rewrite. The analyzer fixtures under
# testdata/ are exempt: their // want comments assert exact positions.
fmt-check:
	@out=$$(gofmt -l . | grep -v '/testdata/'); \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# -mode=all runs the per-package suite (detlint, cyclelint, statlint) plus
# the module-wide call-graph analyzer (hotlint). hotlint findings not
# covered by SIMCHECK_BASELINE fail the build — the baseline is a ratchet:
# counts may go down, never up (-update-baseline tightens it).
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/simcheck -mode=all ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The benchmark harness under simbench/ is its own module, so the root
# build and test never compile it; it still imports the sim, hostprof,
# memlens and schedlens APIs, so vet and test it against this checkout.
simbench-check:
	cd simbench && $(GO) vet ./... && $(GO) test ./...

# Fast race-detector pass over the tick path's packages. An unobserved run
# ticks its memory domain on a second goroutine beside the SMs, and
# internal/sim's TestConcurrentRunMatchesSerial races the two; the suite's
# concurrent runs are raced by cmd/capsweep's test under `make race` and
# CI's full `go test -race ./...`.
race-smoke:
	$(GO) test -race ./internal/sim ./internal/mem ./internal/sched \
		./internal/core ./internal/prefetch ./internal/obs ./internal/stats

# Replays a benchmark subset twice with the invariant sanitizer on and
# compares state hashes (see internal/invariant/determinism).
determinism:
	$(GO) run ./cmd/simcheck -mode=determinism

# End-to-end observability smoke test: one short CAPS run with tracing and
# metrics enabled, then validate the exported Chrome trace (well-formed
# JSON, cycle-ordered tracks; see cmd/simcheck -mode=tracecheck).
trace-smoke:
	$(GO) run ./cmd/capsim -bench MM -prefetch caps -insts 50000 \
		-trace /tmp/caps-trace.json -metrics /tmp/caps-metrics.csv
	$(GO) run ./cmd/simcheck -mode=tracecheck /tmp/caps-trace.json

# End-to-end stall-stack smoke test: the same CAPS run twice with the
# stall-stack profiler on (capsim -profile; the stacks must sum to the run's
# cycles or capsim exits 1). The fold is deterministic, so the profiles
# must be byte-identical (cmp); the stall-diff gate and the HTML report run
# on top of that, and bench-diff gates the committed BENCH_caps.json
# against itself.
profile-smoke:
	$(GO) run ./cmd/capsim -bench CNV -prefetch caps -insts 50000 \
		-profile /tmp/caps-prof-a.json 2>/dev/null
	$(GO) run ./cmd/capsim -bench CNV -prefetch caps -insts 50000 \
		-profile /tmp/caps-prof-b.json 2>/dev/null
	cmp /tmp/caps-prof-a.json /tmp/caps-prof-b.json
	$(GO) run ./cmd/capsprof stall-diff /tmp/caps-prof-a.json /tmp/caps-prof-b.json
	$(GO) run ./cmd/capsprof stall /tmp/caps-prof-a.json -html /tmp/caps-prof-a.html
	$(GO) run ./cmd/capsprof bench-diff BENCH_caps.json BENCH_caps.json

# End-to-end flight-recorder smoke test, run fully in-process by capscope:
# a synthetic invariant violation must abort the run, produce a black-box
# dump, survive a JSONL round-trip, and re-render as a Chrome trace the
# validator accepts (stall pairs repaired).
flight-smoke:
	$(GO) run ./cmd/capscope smoke

# End-to-end host-profiling smoke test: one short run with the wall-clock
# self-profiler on (capsim -hostprof), the written profile re-validated by
# `capsprof host -validate` (phase times must sum to the run's wall-clock
# within the sampling tolerance) and rendered to HTML, then host-diff'd
# against a second identical run. Wall-clock noise between two short runs
# is real, so the diff runs with loose thresholds — it gates the machinery
# (read, compare, context match), not the numbers.
hostprof-smoke:
	$(GO) run ./cmd/capsim -bench MM -prefetch caps -insts 50000 \
		-hostprof /tmp/caps-host-a.json
	$(GO) run ./cmd/capsim -bench MM -prefetch caps -insts 50000 \
		-hostprof /tmp/caps-host-b.json
	$(GO) run ./cmd/capsprof host /tmp/caps-host-a.json -validate
	$(GO) run ./cmd/capsprof host /tmp/caps-host-a.json \
		-html /tmp/caps-host-a.html
	$(GO) run ./cmd/capsprof host-diff /tmp/caps-host-a.json \
		/tmp/caps-host-b.json -wall 2.0 -util 0.5

# End-to-end memory-observability smoke test: the same CAPS run twice with
# the memory-hierarchy profiler on (capsim -memlens; the profile must
# reconcile exactly against stats.Sim or capsim exits 1). The two runs are
# identical, so this is a determinism check: the profiles must be
# byte-identical (cmp), not merely diff-clean; the text and HTML
# renderings and the mem-diff gate run on top of that.
memlens-smoke:
	$(GO) run ./cmd/capsim -bench BFS -prefetch caps -insts 50000 \
		-memlens /tmp/caps-mem-a.json 2>/dev/null
	$(GO) run ./cmd/capsim -bench BFS -prefetch caps -insts 50000 \
		-memlens /tmp/caps-mem-b.json 2>/dev/null
	cmp /tmp/caps-mem-a.json /tmp/caps-mem-b.json
	$(GO) run ./cmd/capsprof mem /tmp/caps-mem-a.json
	$(GO) run ./cmd/capsprof mem /tmp/caps-mem-a.json -html /tmp/caps-mem-a.html
	$(GO) run ./cmd/capsprof mem-diff /tmp/caps-mem-a.json /tmp/caps-mem-b.json

# End-to-end scheduler-observability smoke test: the same CAPS run twice
# with the scheduler/CTA profiler on (capsim -schedlens; the profile must
# reconcile exactly against stats.Sim or capsim exits 1). The two runs are
# identical, so this is a determinism check: the profiles must be
# byte-identical (cmp), not merely diff-clean; the text and HTML
# renderings and the sched-diff gate run on top of that.
schedlens-smoke:
	$(GO) run ./cmd/capsim -bench BFS -prefetch caps -insts 50000 \
		-schedlens /tmp/caps-sched-a.json 2>/dev/null
	$(GO) run ./cmd/capsim -bench BFS -prefetch caps -insts 50000 \
		-schedlens /tmp/caps-sched-b.json 2>/dev/null
	cmp /tmp/caps-sched-a.json /tmp/caps-sched-b.json
	$(GO) run ./cmd/capsprof sched /tmp/caps-sched-a.json
	$(GO) run ./cmd/capsprof sched /tmp/caps-sched-a.json -html /tmp/caps-sched-a.html
	$(GO) run ./cmd/capsprof sched-diff /tmp/caps-sched-a.json /tmp/caps-sched-b.json

# Regenerates BENCH_caps.json: headline IPC + prefetch metrics for every
# benchmark under the CAPS configuration. capsprof bench-diff gates a fresh
# report or a profile against it, turning the committed numbers into a
# regression gate.
bench-json:
	$(GO) run ./cmd/capsweep -insts 200000 -bench-json BENCH_caps.json

# Times every benchmark for BENCH_speed.json: the median wall-clock of
# three round-robin serial runs per benchmark, with its hostprof breakdown
# (every repeat must simulate the same cycles and instructions or the
# build fails). `capsprof speed-diff` against the committed copy fails on
# a changed cycle or instruction count or a >20% wall-time rise; wall
# times only compare between like hosts, so it also warns on a host
# context mismatch. Copy /tmp/caps-speed.json over BENCH_speed.json to
# regenerate the committed record.
speed-bench:
	$(GO) run ./cmd/capsweep -insts 200000 \
		-speed-json /tmp/caps-speed.json
	$(GO) run ./cmd/capsprof speed-diff BENCH_speed.json /tmp/caps-speed.json

# Regenerates results_all.txt, the checked-in sweep output EXPERIMENTS.md
# quotes. The caps match the ones documented there: Tables I–IV and
# Figures 1/4/10 at the default 1M-instruction cap, Figures 12–15 at a
# 250k cap, Figure 11 at 250k over a four-benchmark subset. Rerun after
# any change that moves simulated counters, then update the EXPERIMENTS.md
# tables that quote it. ≈45 core-minutes.
results:
	$(GO) run ./cmd/capsweep -table 1 >  results_all.txt
	$(GO) run ./cmd/capsweep -table 2 >> results_all.txt
	$(GO) run ./cmd/capsweep -table 3 >> results_all.txt
	$(GO) run ./cmd/capsweep -table 4 >> results_all.txt
	$(GO) run ./cmd/capsweep -fig 1,4,10 >> results_all.txt
	$(GO) run ./cmd/capsweep -insts 250000 -fig 12,13,14a,14b,15 >> results_all.txt
	$(GO) run ./cmd/capsweep -insts 250000 -benches CNV,MM,MRQ,BFS -fig 11 >> results_all.txt

check: build fmt-check lint test simbench-check race-smoke determinism trace-smoke profile-smoke flight-smoke hostprof-smoke memlens-smoke schedlens-smoke

bench:
	$(GO) test -bench=. -benchmem .
