# Development entry points. `make check` is what CI runs.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test bench bench-quick bench-runtime bench-serving bench-planner bench-store bench-gateway bench-baseline coverage lint lint-invariants typecheck check-docs check

# Tier-1 verification: the full unit + benchmark suite, fail-fast.
test:
	$(PYTHON) -m pytest -x -q

# Benchmarks only (pytest-benchmark timings for the paper's tables/figures).
bench:
	$(PYTHON) -m pytest benchmarks -q

# The perf benchmarks below write their BENCH_*.json results under the
# untracked bench-out/ directory; the committed BENCH_*.json files at the
# repository root are the baselines scripts/bench_compare.py gates them
# against, and change only through `make bench-baseline`.

# Pipeline throughput benchmark in its reduced configuration; writes
# bench-out/BENCH_pipeline_throughput.json (CI uploads it).
bench-quick:
	REPRO_BENCH_QUICK=1 $(PYTHON) -m pytest benchmarks/test_bench_pipeline_throughput.py -q

# Shard-count scaling benchmark in its reduced configuration; writes
# bench-out/BENCH_runtime_scaling.json (CI uploads it).
bench-runtime:
	REPRO_BENCH_QUICK=1 $(PYTHON) -m pytest benchmarks/test_bench_runtime_scaling.py -q

# Multi-tenant serving benchmark in its reduced configuration; writes
# bench-out/BENCH_serving_throughput.json (CI uploads it).
bench-serving:
	REPRO_BENCH_QUICK=1 $(PYTHON) -m pytest benchmarks/test_bench_serving_throughput.py -q

# Batch-planner scaling benchmark (2,000-claim pending pool) in its
# reduced configuration; writes bench-out/BENCH_planner_scaling.json (CI
# uploads it).
bench-planner:
	REPRO_BENCH_QUICK=1 $(PYTHON) -m pytest benchmarks/test_bench_planner_scaling.py -q

# Out-of-core store benchmark (100k-claim pool through SQLite + memmap
# with SQL pushdown planning) in its reduced configuration; merges the
# "store_100k" row into bench-out/BENCH_planner_scaling.json (CI uploads it).
bench-store:
	REPRO_BENCH_QUICK=1 $(PYTHON) -m pytest benchmarks/test_bench_store_scaling.py -q

# Gateway end-to-end throughput benchmark (NDJSON wire + journal fsync in
# the ack path) in its reduced configuration; writes
# bench-out/BENCH_gateway_throughput.json (CI uploads it).
bench-gateway:
	REPRO_BENCH_QUICK=1 $(PYTHON) -m pytest benchmarks/test_bench_gateway_throughput.py -q

# Adopt the latest benchmark results as the committed baselines: copies
# bench-out/BENCH_*.json over the BENCH_*.json files at the repository root.
bench-baseline:
	@ls bench-out/BENCH_*.json >/dev/null 2>&1 || \
		{ echo "no results in bench-out/; run the benchmarks first"; exit 1; }
	cp bench-out/BENCH_*.json .

# Coverage gate over the unit suite (pytest-cov): fails below COV_FLOOR
# percent line coverage of src/repro and writes an HTML report to
# htmlcov/ (CI uploads it as an artifact).  The floor sits just below the
# measured coverage so genuine regressions fail while noise does not.
COV_FLOOR ?= 88
coverage:
	@if $(PYTHON) -c "import pytest_cov" 2>/dev/null; then \
		$(PYTHON) -m pytest tests -q --cov=repro --cov-report=term \
			--cov-report=html:htmlcov --cov-fail-under=$(COV_FLOOR); \
	else \
		echo "pytest-cov not installed; pip install -r requirements-dev.txt"; \
		exit 1; \
	fi

# Bytecode-compile every source tree (skipping __pycache__ artifacts);
# additionally runs ruff when installed (CI installs it from
# requirements-dev.txt, so the Lint step always gets the real linter).
lint:
	$(PYTHON) -m compileall -q -x '(^|/)__pycache__(/|$$)' src tests benchmarks examples scripts
	@if $(PYTHON) -c "import ruff" 2>/dev/null; then \
		$(PYTHON) -m ruff check src tests benchmarks examples scripts; \
	else \
		echo "ruff not installed; compileall only"; \
	fi

# Project-specific invariant checks (reprolint): RNG discipline, snapshot
# coverage, lock discipline, layering, error taxonomy and output/wall-clock
# hygiene.  Pure stdlib — always runs.  Pre-existing violations are
# grandfathered in reprolint.baseline.json; only new ones fail.
lint-invariants:
	$(PYTHON) -m repro.analysis src/repro --strict-baseline

# Static types for the strict-checked foundations (see mypy.ini).  Skipped
# with a notice when mypy is absent locally; CI installs it from
# requirements-dev.txt, so the Lint job always gets the real check.
typecheck:
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy; \
	else \
		echo "mypy not installed; skipping typecheck"; \
	fi

# Dead-link check over docs/**/*.md and the root Markdown pages.  Pure
# stdlib — always runs; a relative link to a missing file fails the build.
check-docs:
	$(PYTHON) scripts/check_docs.py

check: lint lint-invariants typecheck check-docs test
