"""Benchmark of the dispersal CLI: seeded workloads timed end to end.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --workload NAME --write-refs

Workloads are defined in ``workloads.py``.  Every CLI process runs in a
fresh interpreter on the program under ``src/``, at its default ``jobs``.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: median wall time of one pass, a pass being the workload's
  CLI processes run one after another, import and output writing included.
* ``setup_s``: median over probes of the time from a fresh interpreter
  until ``dispersal.cli`` is imported and every operator the workload uses
  is assembled, with its matrix and implicit solvers built
  (``setup_probe.py``).
* ``peak_rss_mb``: the largest resident set of any CLI process, from
  ``os.wait4``.

Passes and set-up probes alternate while another pair fits in
``--seconds``, so both sample the machine over the whole run; at least
one pass and ``MIN_SETUP_PROBES`` probes run.

Failed processes (non-zero exit or failed output check, see ``checks.py``)
are counted in ``failed`` of ``attempted``; their ratio is ``fail_share``.

``--trace 1`` runs one untraced pass and two passes through
``trace_cli.py``, and reports the per-layer metrics of the first traced
pass.  It checks that traced outputs are byte-identical to untraced ones
and that the counts of the two traced passes are identical.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Scratch files go
to ``.perfbench_runs/`` in the checkout and are removed at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

#: Fewest set-up probes per run.  Import time dominates 1D set-up and
#: varied by 20% from probe to probe on a 2-core VM.
MIN_SETUP_PROBES = 3
#: A CLI process still running after this many seconds is killed and failed.
PROCESS_TIMEOUT_S = 170.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: Per-layer metrics and their units.  Times are summed over the CLI
#: processes of one traced pass.
PER_LAYER = {
    "cli.import_s": "s",
    "config.parse_s": "s",
    "cli.write_s": "s",
    "kernels.quadrature_s": "s",
    "operators.assemble_s": "s",
    "operators.csr_build_s": "s",
    "operators.nnz": "count",
    "operators.csr_mb_computed": "MB",
    "evolution.solver_setup_s": "s",
    "evolution.solves": "count",
    "evolution.solve_s": "s",
    "evolution.krylov_iters": "count",
    "evolution.us_per_iter": "us",
    "evolution.rescues": "count",
    "evolution.steps": "count",
    "spectral.period_maps": "count",
    "spectral.power_iters": "count",
    "spectral.principal_value_s": "s",
    "kpp.bracket_periods": "count",
    "kpp.orbit_s": "s",
    "sweep.reference_s": "s",
    "sweep.radius_max_s": "s",
    "sweep.radius_sum_s": "s",
    "trace.overhead_share": "share",
}

#: Per-layer counts that must repeat exactly between two traced runs.
COUNTS = (
    "operators.nnz",
    "evolution.solves",
    "evolution.krylov_iters",
    "evolution.rescues",
    "evolution.steps",
    "spectral.period_maps",
    "spectral.power_iters",
    "kpp.bracket_periods",
)


@dataclass
class Pass:
    """One run of every CLI process of a workload."""

    directory: Path
    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    spans: list[Path] = field(default_factory=list)


def child_env() -> dict[str, str]:
    """The caller's environment, importing ``src/`` with bytecode caching on.

    An installed package imports from cached bytecode; without the cache
    every process would compile the program again and time that too.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], cwd: Path, log: Path) -> tuple[int, float, float]:
    """Run one process to completion: exit code, wall seconds, peak RSS in MB."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def run_pass(load: workloads.Workload, inputs: Path, directory: Path, reference, traced: bool) -> Pass:
    """Run the workload's CLI processes once, then check their outputs."""
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    result = Pass(directory)
    for proc in load.processes:
        args = [proc.command, "--config", str(inputs / f"{proc.name}.cfg"), "--out", proc.name]
        if traced:
            spans = directory / f"{proc.name}.spans.json"
            argv = [sys.executable, str(HERE / "trace_cli.py"), str(spans), *args]
            result.spans.append(spans)
        else:
            argv = [sys.executable, "-m", "dispersal.cli", *args]
        code, wall, rss = run_child(argv, directory, directory / f"{proc.name}.log")
        result.wall_s += wall
        result.peak_rss_mb = max(result.peak_rss_mb, rss)
        result.attempted += 1
        out_dir = directory / proc.name
        if code != 0:
            found = [f"{proc.name}: exit code {code}"]
        else:
            found = checks.certificate_problems(proc.command, out_dir)
            if not found and reference is not None:
                found = checks.reference_problems(proc.command, proc.name, out_dir, reference)
        if found:
            result.failed += 1
            result.problems += found
    return result


def setup_probe(load: workloads.Workload, inputs: Path, directory: Path) -> float:
    specs = [f"{proc.command}={inputs / f'{proc.name}.cfg'}" for proc in load.processes]
    log = directory / "setup_probe.log"
    argv = [sys.executable, str(HERE / "setup_probe.py"), repr(time.monotonic()), *specs]
    code, _, _ = run_child(argv, directory, log)
    if code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}; see {log}")
    return json.loads(log.read_text(encoding="ascii").splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------------- #
# per-layer metrics from spans                                             #
# ---------------------------------------------------------------------- #


def layer_metrics(span_files: list[Path]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, summed over its processes."""
    total = dict.fromkeys(PER_LAYER, 0.0)
    for path in filter(Path.is_file, span_files):  # a failed process may leave none
        spans = json.loads(path.read_text(encoding="ascii"))["spans"]
        for name, value in _process_metrics(spans).items():
            total[name] += value
    iters = total["evolution.krylov_iters"]
    total["evolution.us_per_iter"] = 1e6 * total["evolution.solve_s"] / iters if iters else 0.0
    return total


def _process_metrics(spans: list[list]) -> dict[str, float]:
    children: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        children.setdefault(span[3], []).append(index)

    def duration(index: int) -> float:
        return spans[index][2] - spans[index][1]

    def ancestors(index: int):
        parent = spans[index][3]
        while parent != -1:
            yield parent
            parent = spans[parent][3]

    def inclusive(*names: str) -> float:
        """Time in the named spans, not counting spans nested in one another."""
        return sum(
            duration(i)
            for i, span in enumerate(spans)
            if span[0] in names and not any(spans[a][0] in names for a in ancestors(i))
        )

    def exclusive(name: str) -> float:
        """Time in the named spans minus the spans directly inside them."""
        return sum(
            duration(i) - sum(duration(c) for c in children.get(i, ()))
            for i, span in enumerate(spans)
            if span[0] == name
        )

    def count(name: str, attr: str | None = None) -> float:
        """Spans of a name, or the sum of one of their attrs (absent where a call raised)."""
        return sum(
            1 if attr is None else (span[4] or {}).get(attr, 0) for span in spans if span[0] == name
        )

    builds = [span[4] for span in spans if span[0] == "operators.csr_build" and "nnz" in span[4]]
    reference = radius_max = radius_sum = 0.0
    for index, span in enumerate(spans):
        if span[0] == "sweep":
            buckets = _sweep_buckets(index, spans, children, duration)
            radii = [t for key, t in buckets.items() if key != "reference"]
            reference += buckets.get("reference", 0.0)
            radius_max += max(radii, default=0.0)
            radius_sum += sum(radii)
    return {
        "cli.import_s": inclusive("cli.import"),
        "config.parse_s": inclusive("config.parse"),
        "cli.write_s": inclusive("cli.write"),
        "kernels.quadrature_s": inclusive("kernels.quadrature"),
        "operators.assemble_s": exclusive("operators.assemble"),
        "operators.csr_build_s": inclusive("operators.csr_build"),
        "operators.nnz": sum(b["nnz"] for b in builds),
        "operators.csr_mb_computed": sum(12 * b["nnz"] + 4 * (b["rows"] + 1) for b in builds) / 1e6,
        "evolution.solver_setup_s": exclusive("evolution.solver_setup"),
        "evolution.solves": count("evolution.solve"),
        "evolution.solve_s": inclusive("evolution.solve"),
        "evolution.krylov_iters": count("evolution.krylov", "iters"),
        "evolution.rescues": count("evolution.rescue"),
        "evolution.steps": count("evolution.time_steps", "steps"),
        "spectral.period_maps": count("spectral.period_map"),
        "spectral.power_iters": count("spectral.principal_value", "iterations"),
        "spectral.principal_value_s": inclusive("spectral.principal_value"),
        "kpp.bracket_periods": count("kpp.orbit", "periods"),
        "kpp.orbit_s": inclusive("kpp.orbit"),
        "sweep.reference_s": reference,
        "sweep.radius_max_s": radius_max,
        "sweep.radius_sum_s": radius_sum,
    }


def _sweep_buckets(root: int, spans, children, duration) -> dict[str, float]:
    """Time inside one sweep, attributed to the operator each outermost call received."""
    buckets: dict[str, float] = {}
    stack = list(children.get(root, ()))
    while stack:
        index = stack.pop()
        attrs = spans[index][4]
        if attrs and "key" in attrs:
            buckets[attrs["key"]] = buckets.get(attrs["key"], 0.0) + duration(index)
        else:
            stack.extend(children.get(index, ()))
    return buckets


def same_outputs(a: Path, b: Path, load: workloads.Workload) -> list[str]:
    """Output files of two passes that are not byte-identical."""
    differ = []
    for proc in load.processes:
        files_a = {p.relative_to(a) for p in (a / proc.name).rglob("*") if p.is_file()}
        files_b = {p.relative_to(b) for p in (b / proc.name).rglob("*") if p.is_file()}
        differ += [str(p) for p in sorted(files_a ^ files_b)]
        differ += [str(p) for p in sorted(files_a & files_b) if (a / p).read_bytes() != (b / p).read_bytes()]
    return differ


# ---------------------------------------------------------------------- #
# runs                                                                     #
# ---------------------------------------------------------------------- #


def load_reference(load: workloads.Workload, seed: int):
    if seed != workloads.DEFAULT_SEED:
        return None
    return json.loads((HERE / "refs" / f"{load.name}.json").read_text(encoding="ascii"))


def warm_up(run_dir: Path) -> None:
    """Import the program once, so byte-compilation is not timed."""
    code, _, _ = run_child([sys.executable, "-c", "import dispersal.cli"], run_dir, run_dir / "warm_up.log")
    if code != 0:
        raise RuntimeError(f"importing dispersal.cli failed; see {run_dir / 'warm_up.log'}")


def measure(load, inputs: Path, run_dir: Path, reference, seconds: float) -> dict:
    """End-to-end metrics with tracing off."""
    setups: list[float] = []
    passes: list[Pass] = []
    pairs: list[float] = []
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        passes.append(run_pass(load, inputs, run_dir / f"pass{len(passes)}", reference, False))
        setups.append(setup_probe(load, inputs, run_dir))
        pairs.append(time.perf_counter() - begun)
        if time.perf_counter() - start + max(pairs) > seconds:
            break
    while len(setups) < MIN_SETUP_PROBES:
        setups.append(setup_probe(load, inputs, run_dir))
    walls = [p.wall_s for p in passes]
    return {
        "metrics": {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(p.peak_rss_mb for p in passes),
        },
        "walls": walls,
        "setups": setups,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "problems": [m for p in passes for m in p.problems],
    }


def measure_traced(load, inputs: Path, run_dir: Path, reference) -> dict:
    """Per-layer metrics from traced passes, with the hygiene checks."""
    plain = run_pass(load, inputs, run_dir / "untraced", reference, False)
    traced = [run_pass(load, inputs, run_dir / f"traced{k}", reference, True) for k in range(2)]
    problems = plain.problems + [m for p in traced for m in p.problems]
    for p in traced:
        differ = same_outputs(plain.directory, p.directory, load)
        if differ:
            problems.append(f"{p.directory.name}: outputs differ from the untraced pass: {differ}")
    metrics = layer_metrics(traced[0].spans)
    again = layer_metrics(traced[1].spans)
    for name in COUNTS:
        if metrics[name] != again[name]:
            problems.append(f"count {name} did not repeat: {metrics[name]} then {again[name]}")
    traced_wall = statistics.mean(p.wall_s for p in traced)
    metrics["trace.overhead_share"] = (traced_wall - plain.wall_s) / plain.wall_s
    runs = [plain, *traced]
    return {
        "metrics": metrics,
        "walls": [p.wall_s for p in runs],
        "attempted": sum(p.attempted for p in runs),
        "failed": sum(p.failed for p in runs),
        "problems": problems,
    }


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples above it, and its value."""
    ordered = sorted(values)
    if len(ordered) < 11:
        return None
    k = len(ordered) - 11
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    load = workloads.workload(name, seed)
    run_dir = ROOT / ".perfbench_runs" / f"{name}-s{seed}-{os.getpid()}"
    inputs = run_dir / "inputs"
    workloads.write_inputs(load, inputs)
    try:
        warm_up(run_dir)
        reference = load_reference(load, seed)
        if trace:
            return measure_traced(load, inputs, run_dir, reference)
        return measure(load, inputs, run_dir, reference, seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            run_dir.parent.rmdir()


def write_refs(name: str) -> Path:
    """Run the default seed once and store its outputs as the reference."""
    load = workloads.workload(name, workloads.DEFAULT_SEED)
    run_dir = ROOT / ".perfbench_runs" / f"{name}-refs-{os.getpid()}"
    try:
        workloads.write_inputs(load, run_dir / "inputs")
        done = run_pass(load, run_dir / "inputs", run_dir / "pass", None, False)
        if done.problems:
            raise RuntimeError("; ".join(done.problems))
        target = HERE / "refs" / f"{name}.json"
        checks.write_references(target, {p.name: done.directory / p.name for p in load.processes})
        return target
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def fingerprint() -> dict:
    """Machine and library versions the numbers were measured with."""
    import platform
    from importlib.metadata import version

    model = next(
        (line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (index / "level").read_text().strip()
        if level in ("2", "3"):
            caches[f"l{level}"] = (index / "size").read_text().strip()
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        **caches,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
    }


def _print_report(name: str, seed: int, outcome: dict, units: dict[str, str]) -> None:
    load = workloads.workload(name, seed)
    print(f"workload {name}  seed {seed}  c={workloads.amplitude(seed)!r}")
    print(f"  why: {load.why}; {load.seed_varies}")
    for metric, unit in units.items():
        print(f"  {metric:28s} {outcome['metrics'][metric]:.6g} {unit}")
    walls = outcome["walls"]
    if "setups" in outcome:
        tail = tail_percentile(walls)
        tail_text = f"p{tail[0]:.0f} {tail[1]:.4f} s" if tail else "tail percentile needs >= 11 samples"
        print(f"  wall per pass: {len(walls)} samples, {tail_text}: {', '.join(f'{w:.4f}' for w in walls)} s")
        print(f"  setup probes: {', '.join(f'{s:.4f}' for s in outcome['setups'])} s")
    else:
        print(f"  wall per pass, untraced then traced twice: {', '.join(f'{w:.4f}' for w in walls)} s")
    share = outcome["failed"] / outcome["attempted"]
    print(f"  {'fail_share':28s} {share:.6g} share ({outcome['failed']} of {outcome['attempted']} runs)")
    for problem in outcome["problems"]:
        print(f"  problem: {problem}")


def _number(value: float, unit: str):
    return int(value) if unit == "count" else value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help=f"one of {', '.join(workloads.NAMES)}, or all")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-refs", action="store_true", help="store default-seed outputs in refs/")
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "dispersal" / "cli.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'dispersal'}; run from a full checkout", file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    if not set(names) <= set(workloads.NAMES):
        parser.error(f"unknown workload {args.workload!r}")
    if args.write_refs:
        for name in names:
            print(f"wrote {write_refs(name)}")
        return 0
    if args.workload == "all":
        # one interpreter per workload: a child's peak RSS from os.wait4 also
        # counts the memory of the process that started it
        codes = []
        for name in names:
            child = subprocess.Popen([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                                      "--seconds", str(args.seconds), "--trace", str(args.trace)])
            try:
                codes.append(child.wait())
            except BaseException:
                child.terminate()  # lets it stop its own CLI process
                child.wait()
                raise
        return max(codes)
    units = PER_LAYER if args.trace else END_TO_END
    print("machine", json.dumps(fingerprint()))
    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_report(args.workload, args.seed, outcome, units)
    print(
        json.dumps(
            {
                "correct": not outcome["problems"],
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": {
                    metric: {"value": _number(outcome["metrics"][metric], unit), "unit": unit}
                    for metric, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
