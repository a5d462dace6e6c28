#!/usr/bin/env bash
# Run every sample configuration into scripts/results/<name>/.
# The checkout's own package (../src) comes first on PYTHONPATH, so an
# installed copy is never run by mistake.  Each sample's wall seconds,
# interpreter start and import included, go to stderr as
# "wall_s <name> <seconds>", followed by "src_lines <n>", the line count of
# the package's sources, "src_code_lines <n>", the lines of those that hold
# code (blank, comment and docstring lines left out; see code_lines.py), and
# "test_lines <n>", that of the test modules, so that code moved from one to
# the other shows as a move.
set -euo pipefail
cd "$(dirname "$0")"
export PYTHONPATH="../src${PYTHONPATH:+:${PYTHONPATH}}"

run() {
    local sub="$1" cfg="$2"
    local name out start
    name="$(basename "${cfg%.cfg}")"
    out="results/${name}"
    echo "== dispersal ${sub} --config ${cfg} --out ${out}"
    start="$(date +%s.%N)"
    python3 -m dispersal.cli "${sub}" --config "${cfg}" --out "${out}"
    awk -v name="${name}" -v start="${start}" -v end="$(date +%s.%N)" \
        'BEGIN { printf "wall_s %s %.3f\n", name, end - start > "/dev/stderr" }'
}

run simulate   configs/simulate_periodic_wave.cfg
run simulate   configs/simulate_box_2d.cfg
run spectrum   configs/spectrum_pinned_zero.cfg
run kpp-orbit  configs/kpp_orbit_seasonal.cfg
run converge-a configs/converge_a_neumann.cfg
run converge-b configs/converge_b_dirichlet.cfg
run converge-c configs/converge_c_periodic.cfg

echo "== summaries"
for dir in results/converge_*; do
    python3 summarize_report.py "${dir}/report.csv"
done

wc -l ../src/dispersal/*.py | awk 'END { printf "src_lines %d\n", $1 > "/dev/stderr" }'
printf 'src_code_lines %d\n' "$(python3 code_lines.py ../src/dispersal/*.py)" >&2
wc -l ../tests/*.py | awk 'END { printf "test_lines %d\n", $1 > "/dev/stderr" }'
