"""Run the dispersal CLI in this interpreter with its layers wrapped in spans.

Usage::

    python3 trace_cli.py SPANS_JSON COMMAND --config FILE --out DIR

The wrappers are installed at run time and nothing under ``src/`` changes.
Every module-level name in ``dispersal.*`` that refers to a wrapped
function is rebound, so calls made through ``from .module import name``
are traced as well as calls through the defining module.

A span is ``[name, start, end, parent, attrs]``: ``parent`` is the index
of the enclosing span (-1 at top level) and ``attrs`` holds counts read
at the boundary (Krylov iterations, non-zeros, steps, ...) and ``key``,
the operator a call worked on (``"reference"`` for the local kind, else
its kernel radius).  Spans are kept in memory and written to SPANS_JSON
when the CLI returns.  The CLI runs with its default ``jobs``, so calls
nest on one thread.
"""

from __future__ import annotations

import functools
import json
import pathlib
import sys
import time

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        self.spans.append([name, _clock(), None, parent, None])
        return index

    def close(self, index: int, attrs: dict | None = None) -> None:
        span = self.spans[index]
        span[2] = _clock()
        span[4] = attrs
        self._stack.pop()

    def wrap(self, name: str, fn, describe=None):
        """Wrap ``fn`` in a span; ``describe(args, kwargs, result)`` gives its attrs."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(index, {"raised": 1})
                raise
            self.close(index, describe(args, kwargs, result) if describe else None)
            return result

        return traced


def operator_key(op) -> str:
    return "reference" if op.kind == "local" else repr(op.delta)


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def rebind(original, replacement) -> None:
    """Point every ``dispersal.*`` module-level name for ``original`` at ``replacement``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "dispersal" or module_name.startswith("dispersal.")):
            continue
        namespace = vars(module)
        for attr in [a for a, value in namespace.items() if value is original]:
            namespace[attr] = replacement


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer."""
    from dispersal import config, evolution, grids, kernels, kpp, operators, reports, spectral

    def wrap_function(module, attr, span_name, describe=None):
        original = getattr(module, attr)
        rebind(original, tracer.wrap(span_name, original, describe))

    # cli and config: parse and write
    wrap_function(config, "load_config", "config.parse")
    wrap_function(grids, "write_field_csv", "cli.write")
    reports.ConvergenceReport.to_csv = tracer.wrap("cli.write", reports.ConvergenceReport.to_csv)
    pathlib.Path.write_text = tracer.wrap("cli.write", pathlib.Path.write_text)

    # kernels: quadrature
    wrap_function(kernels, "kernel_profile", "kernels.quadrature")
    wrap_function(kernels, "scaled_kernel", "kernels.quadrature")

    # operators: assembly and the first CSR build of each operator
    wrap_function(
        operators,
        "assemble_nonlocal",
        "operators.assemble",
        lambda args, kwargs, result: {"key": operator_key(result)},
    )
    wrap_function(operators, "assemble_local", "operators.assemble", lambda *_: {"key": "reference"})
    build_matrix = operators.DispersalOperator.matrix

    @functools.wraps(build_matrix)
    def matrix(self):
        if self._matrix is not None:
            return build_matrix(self)
        index = tracer.open("operators.csr_build")
        try:
            m = build_matrix(self)
        except BaseException:
            tracer.close(index, {"raised": 1})
            raise
        tracer.close(index, {"nnz": int(m.nnz), "rows": int(m.shape[0]), "key": operator_key(self)})
        return m

    operators.DispersalOperator.matrix = matrix

    # evolution: solver set-up, solves, Krylov iterations, rescues, time steps
    make_solver = evolution.implicit_solver

    @functools.wraps(make_solver)
    def implicit_solver(op, scale):
        attrs = {"key": operator_key(op)}
        index = tracer.open("evolution.solver_setup")
        try:
            solve = make_solver(op, scale)
        finally:
            tracer.close(index, attrs)
        return tracer.wrap("evolution.solve", solve, lambda *_: attrs)

    rebind(make_solver, implicit_solver)

    def counting(method):
        @functools.wraps(method)
        def traced(*args, callback=None, **kwargs):
            count = 0

            def counter(xk):
                nonlocal count
                count += 1
                if callback is not None:
                    callback(xk)

            index = tracer.open("evolution.krylov")
            try:
                return method(*args, callback=counter, **kwargs)
            finally:
                tracer.close(index, {"iters": count})

        return traced

    rebind(evolution.cg, counting(evolution.cg))
    rebind(evolution.bicgstab, counting(evolution.bicgstab))
    wrap_function(evolution, "spsolve", "evolution.rescue")
    wrap_function(
        evolution,
        "solve",
        "evolution.time_steps",
        lambda args, kwargs, result: {
            "steps": result.steps,
            "key": operator_key(_arg(args, kwargs, 0, "problem").operator),
        },
    )

    # spectral: period maps and power iteration
    spectral.PeriodMap.advance = tracer.wrap(
        "spectral.period_map",
        spectral.PeriodMap.advance,
        lambda args, kwargs, result: {"key": operator_key(args[0].operator)},
    )
    wrap_function(
        spectral,
        "principal_value",
        "spectral.principal_value",
        lambda args, kwargs, result: {
            "iterations": result.iterations,
            "key": operator_key(_arg(args, kwargs, 0, "period_map").operator),
        },
    )

    # kpp: monotone bracketing
    wrap_function(
        kpp,
        "positive_periodic_solution",
        "kpp.orbit",
        lambda args, kwargs, result: {
            "periods": result.super_iterations + result.sub_iterations + 1,
            "key": operator_key(_arg(args, kwargs, 0, "problem").operator),
        },
    )

    # the radius sweeps
    wrap_function(evolution, "solution_convergence_experiment", "sweep")
    wrap_function(spectral, "spectrum_convergence_experiment", "sweep")
    wrap_function(kpp, "orbit_convergence_experiment", "sweep")


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    start = _clock()
    import dispersal.cli

    tracer.spans.append(["cli.import", start, _clock(), -1, None])
    install(tracer)
    try:
        return dispersal.cli.main(cli_args)
    finally:
        with open(spans_path, "w", encoding="ascii") as handle:
            json.dump({"spans": tracer.spans}, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
