# Developer entry points.  All targets assume the repository root as cwd.

PYTHON ?= python
export PYTHONPATH := src
export REPRO_SCALE ?= ci

.PHONY: test test-slow sim-equivalence bench-smoke bench-record bench-figures \
	campaign-smoke docs-check bench-regress chaos-smoke cluster-smoke \
	backend-smoke perfbench-selftest smoke

## Tier-1 test suite (the gate every PR must keep green).  Tests marked
## `slow` (paper-scale simulation sweeps) are deselected here.
test:
	$(PYTHON) -m pytest -x -q

## The heavy, paper-scale simulation tests only.
test-slow:
	$(PYTHON) -m pytest -q -m slow

## The broad simulator-equivalence sweep (40 random seeds across buf
## 1-19, linkl 1-3, routl 0-3 and credit_delay 0-3, on every available
## backend) that tier-1 deselects: the fast lane's lone-packet jump and
## the compiled event drain are checked against the frozen oracle here.
sim-equivalence:
	$(PYTHON) -m pytest -q -m slow tests/sim/test_simulator_equivalence.py

## End-to-end campaign-engine smoke: expand (dry run), run a tiny spec
## into a fresh result store with every exporter, then re-run to prove
## resume replays all jobs from the store.
CAMPAIGN_SMOKE_DIR ?= .campaign-smoke
campaign-smoke:
	rm -rf $(CAMPAIGN_SMOKE_DIR)
	$(PYTHON) -m repro campaign examples/specs/campaign_smoke.json --dry-run
	$(PYTHON) -m repro campaign examples/specs/campaign_smoke.json \
		--run-dir $(CAMPAIGN_SMOKE_DIR)/run \
		--csv-dir $(CAMPAIGN_SMOKE_DIR)/csv \
		--json-dir $(CAMPAIGN_SMOKE_DIR)/json
	$(PYTHON) -m repro campaign examples/specs/campaign_smoke.json \
		--run-dir $(CAMPAIGN_SMOKE_DIR)/run \
		--csv-dir $(CAMPAIGN_SMOKE_DIR)/csv \
		--json-dir $(CAMPAIGN_SMOKE_DIR)/json

## Execute every fenced bash/python block in README.md and docs/*.md
## against a scratch directory (skip-marked blocks excepted), so the
## documented commands provably run as written.
docs-check:
	$(PYTHON) tools/docs_check.py

## Compare the two latest BENCH_engine.json entries; fail on a >20%
## regression in any tracked metric (pure file read, no benchmarks run).
bench-regress:
	$(PYTHON) tools/bench_regress.py

## Fault-injection scenarios at smoke scale: poison quarantine, worker
## crash + pool self-heal, hang timeout, CLI worker kill (CSV must be
## byte-identical to an undisturbed run), and a live-server pool kill.
chaos-smoke:
	$(PYTHON) tools/chaos.py

## Sharded-cluster smoke: three supervised front-ends plus a store
## daemon take a keep-alive load while one front-end is SIGKILLed —
## every request must answer and the shard store must hold exactly one
## line per distinct job hash.
cluster-smoke:
	$(PYTHON) tools/cluster_smoke.py

## Backend seam smoke: the `repro backend` diagnostic (with its timed
## micro-probe) plus the two ≥3x speedup gates — which skip themselves,
## and leave the target green, on hosts where the C extension cannot
## build (numpy is always available).
backend-smoke:
	$(PYTHON) -m repro backend --probe
	$(PYTHON) -m pytest benchmarks/bench_backend.py -q

## The end-to-end benchmark's self-test: tiny fig4 and validate runs
## through `perfbench/run.py`, with the tracer patching the program's
## functions by dotted name and the answer checks on, so a renamed
## function or a changed answer fails here rather than in a full run.
perfbench-selftest:
	$(PYTHON) -m pytest perfbench/tests -q

## The full smoke path: tier-1 tests, the broad simulator-equivalence
## sweep, executable documentation, the fault-injection scenarios
## (cluster kills included), the cluster smoke, the backend seam smoke,
## the benchmark's self-test, and the perf-trajectory regression gate.
smoke: test sim-equivalence docs-check chaos-smoke cluster-smoke \
	backend-smoke perfbench-selftest bench-regress

## Fast perf gate: ci-scale hot-path microbenchmarks (analysis kernel +
## simulator + serve throughput) plus the campaign-engine smoke and the
## executable docs, then append the wall-clock numbers to
## BENCH_engine.json so the trajectory across PRs stays comparable.
bench-smoke: campaign-smoke docs-check
	REPRO_SCALE=ci $(PYTHON) -m pytest benchmarks/bench_engine_hotpath.py -q
	REPRO_SCALE=ci $(PYTHON) -m pytest benchmarks/bench_sim_hotpath.py -q
	REPRO_SCALE=ci $(PYTHON) -m pytest benchmarks/bench_serve.py -q
	REPRO_SCALE=ci $(PYTHON) -m pytest benchmarks/bench_batch.py -q
	REPRO_SCALE=ci $(PYTHON) -m pytest benchmarks/bench_allocate.py -q
	REPRO_SCALE=ci $(PYTHON) -m pytest benchmarks/bench_durability.py -q
	REPRO_SCALE=ci $(PYTHON) benchmarks/record_engine_bench.py smoke

## Append a BENCH_engine.json entry only (LABEL=<name> to tag it).
LABEL ?= run
bench-record:
	REPRO_SCALE=ci $(PYTHON) benchmarks/record_engine_bench.py $(LABEL)

## Paper-figure benchmarks at the configured REPRO_SCALE.
bench-figures:
	$(PYTHON) -m pytest benchmarks/bench_fig4.py benchmarks/bench_fig5.py -q
