#!/usr/bin/env bash
# Run every sample configuration into scripts/results/<name>/.
set -euo pipefail
cd "$(dirname "$0")"

run() {
    local sub="$1" cfg="$2"
    local out="results/$(basename "${cfg%.cfg}")"
    echo "== dispersal ${sub} --config ${cfg} --out ${out}"
    python3 -m dispersal.cli "${sub}" --config "${cfg}" --out "${out}"
}

run simulate   configs/simulate_periodic_wave.cfg
run spectrum   configs/spectrum_pinned_zero.cfg
run kpp-orbit  configs/kpp_orbit_seasonal.cfg
run converge-a configs/converge_a_neumann.cfg
run converge-b configs/converge_b_dirichlet.cfg
run converge-c configs/converge_c_periodic.cfg

echo "== summaries"
for dir in results/converge_*; do
    python3 summarize_report.py "${dir}/report.csv"
done
