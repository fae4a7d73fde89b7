#!/usr/bin/env bash
# Tier-1 CI gate: the full unit/property/regression/integration suite (with the
# deterministic `ci` hypothesis profile) plus the `smoke` benchmark subset (the
# fastest scenario per figure family), so figure-level regressions surface
# without paying for the full benchmark matrix; the `bench-smoke` perf stage,
# which re-measures the hot paths at the quick scale and fails on a >30%
# machine-normalized regression against the committed BENCH_perf.json; and the
# `fuzz-smoke` stage, a bounded scenario-fuzzer pass over every serving loop
# plus a full replay of the committed tests/regression/ corpus; and the
# `chaos-smoke` stage, a fault-enabled campaign (unannounced crashes, storms,
# slowdowns, retry budgets, admission control) plus the `chaos`-marked tests;
# and the `pipeline-smoke` stage, a bounded task-graph fuzzing campaign over
# the pipeline serving loop plus an explicit replay of the committed pipeline
# scenarios (the fig20 smoke benchmark runs under `smoke benchmarks` above);
# and the `health-smoke` stage, a gray-failure campaign (permanent
# degradations, flaky windows, zombie servers, health scoring, quarantine
# breakers, hedged dispatch) plus the `gray`-marked tests and an explicit
# replay of the committed gray scenarios; the `perfbench` stage, the repo
# benchmark's own tests (tiny capacity/fleet/churn/dag passes with their output
# checks, plus the traced run); and last, a tree-clean check that no stage
# rewrote a tracked file.
#
# Usage: tools/ci.sh [extra pytest args...]
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# No stage may rewrite tracked files (committed results hold only host-independent
# figures, and the perf gate compares without re-recording): snapshot the tree
# state here and compare it at the end.
tree_state() {
    git status --porcelain --untracked-files=all
    git diff --no-ext-diff | sha256sum
}
tree_before="$(tree_state)"

echo "== tier-1: unit / property / regression / integration tests =="
python -m pytest tests -x -q --hypothesis-profile=ci "$@"

echo "== smoke benchmarks =="
python -m pytest benchmarks -m smoke -q "$@"

echo "== bench-smoke: perf regression gate =="
# compare against the committed BENCH_perf.json without rewriting it (re-record
# deliberately with `python tools/bench.py`)
python tools/bench.py --quick --dry-run

echo "== fuzz-smoke: bounded invariant fuzzing + regression corpus replay =="
python tools/fuzz.py --budget 25 --seed 1
python tools/fuzz.py --corpus

echo "== sweep-smoke: parallel fan-out must be byte-identical to serial =="
python tools/sweep.py --check --seeds 1 2 --workers 2 > /dev/null

echo "== chaos-smoke: fault-enabled fuzzing + chaos-marked tests =="
python tools/fuzz.py --budget 25 --seed 2 --chaos
python -m pytest tests -m chaos -q --hypothesis-profile=ci "$@"

echo "== pipeline-smoke: bounded task-graph fuzzing + pipeline corpus replay =="
python tools/fuzz.py --budget 25 --seed 3 --loop pipeline
python tools/fuzz.py --replay tests/regression/scenarios/pipeline-*.json

echo "== health-smoke: gray-failure fuzzing + gray-marked tests + gray corpus replay =="
python tools/fuzz.py --budget 25 --seed 4 --gray
python -m pytest tests -m gray -q --hypothesis-profile=ci "$@"
python tools/fuzz.py --replay tests/regression/scenarios/gray-*.json

echo "== perfbench: tiny benchmark passes, output checks and traced run =="
python -m pytest perfbench/test_perfbench.py -q "$@"

echo "== tree-clean: no stage above changed the git tree =="
tree_after="$(tree_state)"
if [ "$tree_before" != "$tree_after" ]; then
    echo "the stages above changed the git tree:" >&2
    diff <(echo "$tree_before") <(echo "$tree_after") >&2 || true
    exit 1
fi

echo "CI gate passed."
