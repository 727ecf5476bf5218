# Verification pipeline for the repro codebase.
#
#   make verify       # everything below, in order
#   make lint         # ruff + mypy when installed (skipped with a notice otherwise)
#   make test         # tier-1 pytest suite; its test_lint_clean.py is the repro-lint gate
#   make bench        # the BENCHMARK.json benchmark at --smoke size + its self-check
#   make faults-smoke # small fault-injection matrix (crash/bitflip/torn)
#   make chaos-smoke  # WAL crash-matrix slice: kill update flushes, recover, diff
#   make service-smoke# boot the document-store service and exercise every endpoint
#   make examples     # run every script under examples/ to completion
#
# ruff and mypy are optional deep-net linters (pyproject [lint] extra);
# verify skips them with a notice when the environment lacks them, so
# the target works in the minimal container and in a dev checkout alike.

export PYTHONPATH := src

PYTHON ?= python

.PHONY: verify lint test bench faults-smoke chaos-smoke service-smoke examples

verify: lint test bench faults-smoke chaos-smoke service-smoke examples
	@echo "verify: OK"

lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	else \
		echo "lint: ruff not installed, skipping"; \
	fi
	@if command -v mypy >/dev/null 2>&1; then \
		mypy; \
	else \
		echo "lint: mypy not installed, skipping"; \
	fi

# Tier-1, which includes the one repro-lint gate
# (tests/analysis/test_lint_clean.py: every pass over src/repro, zero
# findings) and the linear-work counters (tests/test_linear_work.py).
test:
	$(PYTHON) -m pytest -x -q

# The repo's one benchmark (BENCHMARK.json) on tiny inputs: every
# workload's schema and oracles, then the benchmark's own unit tests.
# The scripts find the checkout's src/ themselves.
bench:
	$(PYTHON) benchmarks/e2e/run.py --smoke
	$(PYTHON) benchmarks/e2e/selfcheck.py

faults-smoke:
	$(PYTHON) -m repro.faults.cli --scale 0.002 --crash-points 2 --flip-pages 2

chaos-smoke:
	$(PYTHON) -m repro.faults.cli --updates --crash-points 2 --batches 2 --ops-per-batch 8

service-smoke:
	$(PYTHON) -m repro.service.smoke

# The user-facing scripts (quickstart, import, updates, recovery, query
# performance, ...): each must run to a zero exit. Kept out of tier-1;
# they print rather than assert.
examples:
	@for script in examples/*.py; do \
		echo "examples: $$script"; \
		$(PYTHON) $$script > /dev/null || exit 1; \
	done
