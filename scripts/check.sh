#!/usr/bin/env bash
# Acceptance check: the Tier-1 suite, then every sample config rerun into
# scripts/results by run_all.sh (which prints each sample's wall_s and the
# src_lines, src_code_lines and test_lines counts to stderr), then the
# benchmark's range check of the kpp invasion and saturation checks, then a
# short benchmark smoke run of both workloads, untraced and traced.
# Exits non-zero if a test or a sample fails, if any committed output under
# scripts/results changed (then it first prints scripts/compare_results.py's
# report of how far each column moved from HEAD's tree), if the range check
# finds a problem, or if a benchmark workload reports an incorrect output or
# a failed run.
set -euo pipefail
cd "$(dirname "$0")/.."
PYTHONPATH="src${PYTHONPATH:+:${PYTHONPATH}}" python -m pytest -q --continue-on-collection-errors
scripts/run_all.sh
changed="$(git status --porcelain scripts/results)"
if [ -n "${changed}" ]; then
    printf 'scripts/results differs from the committed outputs:\n%s\n' "${changed}" >&2
    committed="$(mktemp -d)"
    trap 'rm -rf "${committed}"' EXIT
    git archive HEAD scripts/results | tar -x -C "${committed}"
    printf 'how far the numbers moved from HEAD (scripts/compare_results.py):\n' >&2
    PYTHONPATH=src python3 scripts/compare_results.py "${committed}/scripts/results" scripts/results >&2
    exit 1
fi
python3 perfbench/workloads.py --verify-range

# Run perfbench/run.py with the given options; fail unless it prints
# $1 JSON result lines, each with "correct": true and "failed": 0.
bench_smoke() {
    local lines="$1" out
    shift
    out="$(python3 perfbench/run.py "$@")"
    printf '%s\n' "${out}"
    printf '%s\n' "${out}" | python3 -c '
import json, sys
results = [json.loads(line) for line in sys.stdin if line.startswith("{")]
ok = len(results) == int(sys.argv[1]) and all(r["correct"] and r["failed"] == 0 for r in results)
sys.exit(0 if ok else "benchmark smoke failed: an incorrect output or a failed run")
' "${lines}"
}
bench_smoke 2 --workload all --seed 3 --seconds 1
bench_smoke 2 --workload all --seed 3 --trace 1
echo "check passed: Tier-1 green, scripts/results unchanged, range check and benchmark smoke correct"
