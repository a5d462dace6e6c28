#!/usr/bin/env bash
# Acceptance check: the Tier-1 suite, then every sample config rerun into
# scripts/results by run_all.sh (which prints each sample's wall_s and the
# package's src_lines to stderr).  Exits non-zero if a test or a sample
# fails, or if any committed output under scripts/results changed.
set -euo pipefail
cd "$(dirname "$0")/.."
PYTHONPATH="src${PYTHONPATH:+:${PYTHONPATH}}" python -m pytest -q --continue-on-collection-errors
scripts/run_all.sh
changed="$(git status --porcelain scripts/results)"
if [ -n "${changed}" ]; then
    printf 'scripts/results differs from the committed outputs:\n%s\n' "${changed}" >&2
    exit 1
fi
echo "check passed: Tier-1 green, scripts/results unchanged"
