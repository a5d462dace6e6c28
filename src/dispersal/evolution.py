"""Time integration of semilinear dispersal equations and their radius sweep.

Every time loop of the package (:func:`solve`, the nonlinear period map
:meth:`dispersal.kpp.KPPProblem.one_period` and the linear
:class:`dispersal.spectral.PeriodMap`) steps ``u' = A u + F(t, x, u)`` by
one symmetric splitting (Strang, SIAM J. Numer. Anal. 5, 1968),
:func:`strang_step`: half a step of the reaction's exact flow
(:class:`ReactionTerm`), one dispersal step, then the other half.  Each
flow increases in ``u``, so a step preserves order whenever its dispersal
step does.

The dispersal step is prepared once per step size as a :class:`LinearStep`
and works on an array of rows advanced together, each row with its own
operator: the two brackets of :mod:`dispersal.kpp`, and the local reference
and every radius of a sweep, which share each numpy call.  On periodic
closures, in any dimension, the FFT diagonalizes ``A`` and the step is its
exact flow, each row's spectrum times ``exp(dt * symbol)``: two transforms,
no solve and no matrix, and positive for every ``dt``.  On boxes it is one
implicit solve of ``(I - s A) x = b`` warm-started from the rows:
Crank-Nicolson in :func:`solve` and the period map, backward Euler in the
brackets, which need a positive map (a linear rational step that is
positive for every step size is at most first order: Bolley & Crouzeix,
RAIRO Anal. Numer. 12, 1978).  Box nodes sit at the cell centres, so none
is pinned and every box matrix is symmetric.  A one-dimensional box is
solved exactly up to rounding by one FFT of the stencil wrapped on its
nodes plus a capacitance correction on the face rows (Buzbee, Dorr, George
& Golub, SIAM J. Numer. Anal. 8, 1971; :class:`_CapacitanceStep`), a
two-dimensional box by conjugate gradients to relative residual ``1e-10``
on each operator's CSR matrix, with a sparse direct rescue.  Every box
solve returns a warm start that already passes the ``1e-10`` residual test
unchanged, so constant equilibria persist bitwise.  :func:`implicit_solver`
gives the solve for one vector; on a periodic cell it is the exact diagonal
solve in Fourier space.

scipy is a dependency of two-dimensional boxes only: ``scipy.sparse`` and
``scipy.sparse.linalg`` are imported when such a solver is first built, so
periodic and one-dimensional runs never load them.  The solvers ``cg``
and ``spsolve`` are module functions that import scipy's on their first
call, and the Krylov path calls whatever the module holds at call time, so
a wrapper bound over one of those names sees every call.  ``bicgstab`` is
one too, which no step calls; ``perfbench/trace_cli.py`` still rebinds it.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .coefficients import TimePeriodicCoefficient, parse_coefficient, split_call
from .errors import BlowUpError, SolverFailureError, ValidationError
from .grids import Field, field_from_function, same_grid, sup_distance
from .kernels import KernelProfile
from .operators import BoundaryCondition, DispersalOperator, sweep_operators
from .reports import ConvergenceReport, empirical_orders

#: Sup-norm ceiling beyond which a run is declared to have left the regime
#: of existing bounded solutions.
BLOW_UP_THRESHOLD = 1e12

_SOLVE_RTOL = 1e-10


def _scipy_solver(name: str):
    """The module function ``name``: runs ``scipy.sparse.linalg``'s, imported on the first call."""

    def solver(*args, **kwargs):
        import scipy.sparse.linalg

        return getattr(scipy.sparse.linalg, name)(*args, **kwargs)

    solver.__name__ = solver.__qualname__ = name
    return solver


cg, bicgstab, spsolve = map(_scipy_solver, ("cg", "bicgstab", "spsolve"))


#: Four-point Gauss-Legendre nodes on ``[-1, 1]`` with their weights.
_GAUSS_LEGENDRE = (
    (-0.8611363115940526, 0.34785484513745385),
    (-0.33998104358485626, 0.6521451548625461),
    (0.33998104358485626, 0.6521451548625461),
    (0.8611363115940526, 0.34785484513745385),
)


@dataclass(frozen=True)
class ReactionTerm:
    """Reaction ``F(t, x, u)``, held as the exact flow of ``u' = F(t, x, u)``.

    ``flow(t0, t1, coords)`` computes the per-node factors of the flow over
    ``[t0, t1]`` once and returns the map from ``u(t0)`` to ``u(t1)`` on rows.
    """

    flow: Callable[[float, float, tuple], Callable[[np.ndarray], np.ndarray]]
    description: str


def zero_reaction() -> ReactionTerm:
    return ReactionTerm(flow=lambda t0, t1, coords: lambda rows: rows, description="zero")


def linear_reaction(a: TimePeriodicCoefficient) -> ReactionTerm:
    """``F = a(t, x) u`` — the linearization driving the spectral theory.

    Its flow multiplies by the integrating factor ``exp(int_{t0}^{t1} a)``.
    """

    def flow(t0, t1, coords):
        factor = np.exp(a.integral(t0, t1, coords))
        return lambda rows: rows * factor

    return ReactionTerm(flow=flow, description=f"linear({a.description})")


def logistic_reaction(a: TimePeriodicCoefficient) -> ReactionTerm:
    """``F = u (a(t, x) - u)`` — saturating growth with carrying level ``a``.

    Its flow sends ``u`` to ``u E / (1 + u Q)``, with ``E = exp(I(t1))``,
    ``Q = int_{t0}^{t1} exp(I(s)) ds`` and ``I(s) = int_{t0}^{s} a``: the
    reciprocal ``1 / u`` solves a linear equation.  For a ``steady`` ``a``,
    ``Q = expm1(a (t1 - t0)) / a`` (``t1 - t0`` where ``a = 0``) and
    ``E = 1 + a Q``, so ``u = a = 1`` stays 1 bitwise; otherwise ``Q``
    comes by four-point Gauss-Legendre.  The map increases in ``u`` for every
    ``Q >= 0``.  Where ``1 + u Q <= 0`` a negative ``u`` has left every bound
    inside ``[t0, t1]``: there the flow raises :class:`BlowUpError`.
    """

    def flow(t0, t1, coords):
        span, total = t1 - t0, a.integral(t0, t1, coords)
        if a.steady:
            growth, rate = np.expm1(total), total / span
            crowding = np.divide(growth, rate, out=np.full_like(total, span), where=rate != 0.0)
            growth += 1.0
        else:
            half = span / 2.0
            crowding = half * sum(
                weight * np.exp(a.integral(t0, t0 + half * (1.0 + node), coords))
                for node, weight in _GAUSS_LEGENDRE
            )
            growth = np.exp(total)

        def apply(rows):
            denominator = 1.0 + rows * crowding
            if not np.all(denominator > 0.0):
                raise BlowUpError(f"the logistic flow passed its pole before t={t1!r}")
            return rows * growth / denominator

        return apply

    return ReactionTerm(flow=flow, description=f"logistic({a.description})")


def parse_reaction(text: str, period: float) -> ReactionTerm:
    """Parse ``zero``, ``linear(<coefficient>)``, or ``logistic(<coefficient>)``."""
    text = text.strip()
    if text == "zero":
        return zero_reaction()
    name, inner = split_call(text)
    if name == "linear":
        return linear_reaction(parse_coefficient(inner, period))
    if name == "logistic":
        return logistic_reaction(parse_coefficient(inner, period))
    raise ValidationError(f"unknown reaction {name!r}; catalog: zero, linear(a), logistic(a)")


@dataclass
class SemilinearProblem:
    """An initial-value problem for one operator and one reaction on ``[0, t_final]``."""

    operator: DispersalOperator
    reaction: ReactionTerm
    initial: Field
    t_final: float

    def __post_init__(self):
        if not same_grid(self.initial.grid, self.operator.grid):
            raise ValidationError("initial field does not live on the operator grid")
        if self.t_final <= 0.0:
            raise ValidationError(f"t_final {self.t_final!r} must be positive")


@dataclass
class Trajectory:
    """Snapshots of one run, ordered in time; first snapshot is the start state."""

    times: tuple[float, ...]
    states: tuple[Field, ...]
    steps: int
    dt: float


def implicit_solver(op: DispersalOperator, scale: float):
    """Return ``solve(b, x0)`` for the system ``(I - scale * A) x = b``.

    The solve is that of :func:`linear_step` on one row: an exact diagonal
    solve in Fourier space for periodic closures (``x0`` unread), the FFT
    of the wrapped stencil with a face capacitance correction for 1D
    boxes, and CG with a sparse direct rescue for 2D boxes.  On a box, a
    warm start ``x0`` whose residual is already below ``1e-10 |b|`` comes
    back unchanged (as a copy); ``b = 0`` gives zeros.
    """
    return linear_step(op, scale).solve


def linear_step(op: DispersalOperator | Sequence[DispersalOperator], scale: float) -> LinearStep:
    """The dispersal step of ``(I - scale * A)`` for one or more operators."""
    ops = [op] if isinstance(op, DispersalOperator) else list(op)
    first = ops[0]
    if any(o.bc is not first.bc or not same_grid(o.grid, first.grid) for o in ops):
        raise ValidationError("the operators of one step must share one closure and one grid")
    if first.bc is BoundaryCondition.PERIODIC:
        return _FourierStep(ops, scale)
    if first.grid.dimension == 1:
        return _CapacitanceStep(ops, scale)
    return _MatrixStep(ops, scale)


def strang_step(rows: np.ndarray, flows, disperse) -> np.ndarray:
    """One symmetric step: the first half-step flow of ``flows``, ``disperse``, the second."""
    first, second = flows
    return second(disperse(first(rows)))


def step_flows(reaction: ReactionTerm, coords, dt: float, steps: int):
    """Yield the reaction's flows over the halves of each step ``[k dt, (k + 1) dt]``, ``k < steps``."""
    for k in range(steps):
        t0, t1 = k * dt, (k + 1) * dt
        middle = t0 + dt / 2.0
        yield reaction.flow(t0, middle, coords), reaction.flow(middle, t1, coords)


class OnePeriod:
    """Base of the period maps: ``steps`` steps ``dt`` of ``reaction`` on ``operator``'s grid."""

    @cached_property
    def _flows(self) -> list:
        """The half-step flows of each step, made on first use and kept."""
        return list(step_flows(self.reaction, self.operator.grid.coordinates, self.dt, self.steps))


class LinearStep:
    """The dispersal step for one scale ``s`` and its operators.

    Every method works on an array of rows, shape ``(rows, num_nodes)``,
    each row one field.  The step keeps one table of each kind per
    operator, which broadcast against the rows: row ``i`` uses operator
    ``i``, or the only one; :meth:`select` assigns operators otherwise.

    :meth:`crank_nicolson` advances the rows by ``2 s`` and
    :meth:`backward_euler` by ``s``: on a periodic cell by the exact flow,
    on a box by the implicit step named, one solve of ``(I - s A) x = b``
    warm-started from the rows, which keeps a row whose residual is already
    below ``1e-10`` times its right-hand side's norm.  ``solve`` solves one
    vector.
    """

    #: The per-operator tables: arrays stacked along their first axis, or lists.
    _per_operator: tuple[str, ...] = ()
    #: ``s`` of ``I - s A``.
    scale: float

    def select(self, which: list[int]) -> LinearStep:
        """This step for rows where row ``i`` uses operator ``which[i]``."""
        picked = copy.copy(self)
        for name in vars(self).keys() & self._per_operator:  # tables not made yet follow the picks
            table = getattr(self, name)
            picks = [table[o] for o in which] if isinstance(table, list) else table[which]
            setattr(picked, name, picks)
        return picked

    @staticmethod
    def _each(table: list, rows) -> list:
        """A per-operator list's entry for each of ``rows``."""
        return table * len(rows) if len(table) == 1 else table


class _FourierStep(LinearStep):
    """Periodic closures: the FFT diagonalizes ``A`` with eigenvalues ``symbol``.

    Both methods are the exact flow, each row's spectrum times ``exp(span *
    symbol)`` between two transforms, :meth:`crank_nicolson` over ``2 s``
    and :meth:`backward_euler` over ``s``; each makes its table on first
    use.  ``A`` has no negative entry off its diagonal, so neither has
    ``exp(span A)``: the step is positive for every span.  ``solve``
    divides the spectrum by ``1 - scale * symbol``.
    """

    _per_operator = ("_symbol", "_flow", "_double")

    def __init__(self, ops: Sequence[DispersalOperator], scale: float):
        self.scale = scale
        self._shape = ops[0].grid.shape
        symbols = [op.symbol() for op in ops]  # a lone operator's cached symbol is not copied
        self._symbol = np.stack(symbols) if len(symbols) > 1 else symbols[0][None]

    @cached_property
    def _flow(self) -> np.ndarray:  # over s
        return np.exp(self.scale * self._symbol.real)

    @cached_property
    def _double(self) -> np.ndarray:  # over 2 s
        return np.exp(2.0 * self.scale * self._symbol.real)

    def _forward(self, rows: np.ndarray) -> np.ndarray:
        if len(self._shape) == 1:
            return np.fft.rfft(rows)
        return np.fft.rfftn(rows.reshape((-1,) + self._shape), axes=(1, 2))

    def _inverse(self, spectra: np.ndarray) -> np.ndarray:
        if len(self._shape) == 1:
            return np.fft.irfft(spectra, self._shape[0])
        rows = np.fft.irfftn(spectra, s=self._shape, axes=(1, 2))
        return rows.reshape(len(rows), -1)

    def crank_nicolson(self, rows: np.ndarray) -> np.ndarray:
        return self._inverse(self._forward(rows) * self._double)

    def backward_euler(self, rows: np.ndarray) -> np.ndarray:
        return self._inverse(self._forward(rows) * self._flow)

    def solve(self, b: np.ndarray, x0: np.ndarray) -> np.ndarray:
        spectrum = self._forward(b.reshape(1, -1)) / (1.0 - self.scale * self._symbol)
        return self._inverse(spectrum)[0]


class _BoxStep(LinearStep):
    """Box closures: subclasses supply ``_act`` (the action on rows) and
    ``_solve_rows(b, x0, Ax0)``, the solve and its warm-start test, given
    ``Ax0 = A @ x0`` when the caller has it."""

    def crank_nicolson(self, rows: np.ndarray) -> np.ndarray:
        """One trapezoidal step ``x = (I - sA)^-1 (I + sA) rows``."""
        action = self._act(rows)
        return self._solve_rows(rows + self.scale * action, rows, action)

    def backward_euler(self, rows: np.ndarray) -> np.ndarray:
        """One backward Euler step ``x = (I - sA)^-1 rows``."""
        return self._solve_rows(rows, rows, None)

    def solve(self, b: np.ndarray, x0: np.ndarray) -> np.ndarray:
        return self._solve_rows(b.reshape(1, -1), x0.reshape(1, -1), None)[0].copy()


class _CapacitanceStep(_BoxStep):
    """One-dimensional boxes: the FFT of the wrapped stencil plus a face correction.

    On the ``m`` grid nodes the action is the stencil's band and a
    diagonal; ``_act`` applies it by ``np.convolve``, apart from the
    operator's entries, as the independent check of the solve.  The system
    ``M = I - sA`` differs from ``P = I - sC``, where ``C`` is the circulant
    of the stencil wrapped on the ``m`` nodes with self term ``-sum_o w_o``,
    only in ``E = M - P``, its ``k`` rows ``R`` within stencil reach of a
    face, where ``M`` is read from :meth:`DispersalOperator.matrix_rows`.
    Writing ``x = P^-1 y`` leaves ``y = b`` off ``R`` and ``y_R = b_R - G b``
    on it, with the gain ``G = Q^-1 E P^-1`` and the capacitance matrix
    ``Q = I + (E P^-1)_R`` (``k x k``).  A solve is one ``k x m`` product
    and one FFT pair, twice on the stiff steps that need a refinement step
    (see ``__init__``); ``E P^-1`` takes ``k`` batched transforms at
    set-up, and ``G`` one LAPACK solve with ``Q``, which is never inverted.

    ``m`` comes from the grid alone, so one FFT pair serves every
    operator's rows and a row is solved bitwise as its operator's step
    alone would solve it; each operator has its own ``P``, face rows, gain
    and refinement decision.
    """

    _per_operator = ("_kernels", "_diagonal", "_eig", "_faces", "_gain", "_refine")

    def __init__(self, ops: Sequence[DispersalOperator], scale: float):
        self.scale = scale
        m = ops[0].grid.num_nodes
        nodes = np.arange(m)
        columns = np.stack([op.wrapped_column() for op in ops])  # first columns of C
        self._eig = 1.0 - scale * np.fft.rfft(columns)
        self._diagonal = np.stack([op.diagonal() for op in ops])
        self._kernels, self._faces, self._gain = [], [], []
        for op, column, eig in zip(ops, columns, self._eig):
            reach = max(abs(offset) for (offset,), _ in op.offsets)
            band = np.zeros(2 * reach + 1)  # band[reach + o] = w_o
            for (offset,), weight in op.offsets:
                band[reach + offset] += weight
            self._kernels.append(band[::-1].copy())  # np.convolve flips its kernel

            faces = np.flatnonzero((nodes < reach) | (nodes >= m - reach))
            E = scale * (column[(faces[:, None] - nodes) % m] - op.matrix_rows(faces))
            EP = np.fft.irfft(np.fft.rfft(E) / np.conj(eig), m)  # rows of E P^-1
            capacitance = np.eye(faces.size) + EP[:, faces]
            self._faces.append(faces)
            self._gain.append(np.linalg.solve(capacitance, EP))
            del E, EP, capacitance  # no k x m arrays held into the next operator

        # The correction cancels modes of P that M lacks (the constant mode
        # under a hostile exterior); on stiff steps the cancellation loses
        # digits (relative residual 1.5e-10 at scale * sum(w) = 1.3e8, local
        # closure, h = 1/256), which one step of iterative refinement
        # restores.  A probe solve decides for each operator: refine where
        # one step removes most of a residual above 1e-13.
        probe = np.tile(1.0 + np.cos(nodes), (len(ops), 1))
        x = self._solve(probe)
        before = _row_norms(self._residual(probe, x))
        x += self._solve(self._residual(probe, x))
        after = _row_norms(self._residual(probe, x))
        self._refine = (before > 1e-13 * _row_norms(probe)) & (after < before / 4.0)

    def _act(self, u):
        out = np.empty_like(u)
        m = u.shape[1]
        for target, values, kernel in zip(out, u, self._each(self._kernels, u)):
            r = len(kernel) // 2
            target[:] = np.convolve(values, kernel)[r : r + m]
        out += self._diagonal * u
        return out

    def _solve_rows(self, b, x0, Ax0):
        Ax = self._act(x0) if Ax0 is None else Ax0
        keep = _row_norms(b - x0 + self.scale * Ax) < _SOLVE_RTOL * _row_norms(b)
        kept = keep.tolist()  # a handful of rows: Python's all/any are cheaper
        if all(kept):
            return x0
        x = self._solve(b)
        if self._refine.any():
            x += np.where(self._refine[:, None], self._solve(self._residual(b, x)), 0.0)
        if any(kept):
            x[keep] = x0[keep]
        return x

    def _residual(self, b, x):
        return b - x + self.scale * self._act(x)

    def _solve(self, b):
        """``(I - scale * A)^-1 b`` for rows ``b``: face correction, then one FFT pair."""
        y = b.copy()
        gains = zip(self._each(self._faces, b), self._each(self._gain, b))
        for row, values, (faces, gain) in zip(y, b, gains):
            row[faces] -= gain @ values
        return np.fft.irfft(np.fft.rfft(y) / self._eig, b.shape[1])


class _MatrixStep(_BoxStep):
    """Two-dimensional boxes, backed by each operator's CSR matrix.

    Every box matrix is symmetric, so each row is solved with its own
    operator's matrix by CG, whose own first residual check is the
    warm-start test, with a sparse direct solve as rescue.  ``cg`` and
    ``spsolve`` are looked up in the module at each call, not captured
    here.
    """

    _per_operator = ("_A", "_M")

    def __init__(self, ops: Sequence[DispersalOperator], scale: float):
        self.scale = scale
        import scipy.sparse as sparse

        self._A = [op.matrix() for op in ops]
        self._M = [sparse.identity(A.shape[0], format="csr") - scale * A for A in self._A]

    def _act(self, rows):
        return np.stack([A @ row for A, row in zip(self._each(self._A, rows), rows)])

    def _solve_rows(self, b, x0, Ax0):
        systems = zip(self._each(self._M, b), b, x0)
        return np.stack([self._krylov(*system) for system in systems])

    def _krylov(self, M, b: np.ndarray, x0: np.ndarray) -> np.ndarray:
        x, info = cg(M, b, x0=x0, rtol=_SOLVE_RTOL, atol=0.0)
        if info == 0:
            return x
        x = spsolve(M.tocsc(), b)
        residual = float(np.linalg.norm(b - M @ x))
        bound = _SOLVE_RTOL * float(np.linalg.norm(b))
        if residual > max(bound, 1e-13):
            raise SolverFailureError(
                f"implicit solve stalled: residual {residual:.3e} exceeds {bound:.3e}"
            )
        return x


def _row_norms(rows: np.ndarray) -> np.ndarray:
    # einsum sums each row's squares without a squared temporary
    return np.sqrt(np.einsum("ij,ij->i", rows, rows))


def whole_steps(span: float, dt: float) -> int:
    """Number of steps ``dt`` in ``span``; it must be a positive whole number."""
    if dt <= 0.0:
        raise ValidationError(f"dt must be positive, got {dt}")
    steps = round(span / dt)
    if steps < 1 or abs(span / dt - steps) > 1e-6:
        raise ValidationError(f"dt={dt!r} does not divide {span!r} into whole steps")
    return steps


def solve(problem: SemilinearProblem, dt: float, snapshots: int) -> Trajectory:
    """Advance the problem over ``[0, t_final]`` and keep ``snapshots`` states after the start.

    Each step is :func:`strang_step` around a Crank-Nicolson step on boxes
    and the exact dispersal flow on periodic cells.  The kept steps are
    :func:`_uniform_snapshot_steps` (``round(j * steps / snapshots)``,
    each once), stamped ``k * dt``; the initial state is always the first
    snapshot.  Raises :class:`BlowUpError` at the end of the first step
    whose sup norm passes ``1e12``, or within which the reaction flow
    passes its pole.
    """
    return _solve_together(problem, [problem.operator], dt, snapshots)[0]


def _solve_together(problem: SemilinearProblem, ops, dt: float, snapshots: int):
    """:func:`solve` of ``problem`` with each of ``ops`` in its place, as rows of one array.

    The operators share the problem's grid and closure.  The first row to
    blow up raises at once.  The flows are made step by step, never kept.
    """
    nsteps = whole_steps(problem.t_final, dt)
    wanted = set(_uniform_snapshot_steps(nsteps, snapshots))
    grid = problem.operator.grid
    step = linear_step(ops, dt / 2.0)
    u = np.repeat(problem.initial.values[None], len(ops), axis=0)
    times, states = [0.0], [u.copy()]
    flows = step_flows(problem.reaction, grid.coordinates, dt, nsteps)
    for k, halves in enumerate(flows, start=1):
        try:
            u = strang_step(u, halves, step.crank_nicolson)
        except BlowUpError:  # the reaction flow passed its pole: u left every bound
            bounded = False
        else:
            bounded = np.all(np.isfinite(u)) and np.max(np.abs(u)) <= BLOW_UP_THRESHOLD
        if not bounded:
            raise BlowUpError(f"field exceeded {BLOW_UP_THRESHOLD:.0e} at t={k * dt:.12g}")
        if k in wanted:
            times.append(k * dt)
            states.append(u.copy())
    runs = [[Field(grid, s[i], t) for s, t in zip(states, times)] for i in range(len(ops))]
    return [Trajectory(tuple(times), tuple(run), nsteps, dt) for run in runs]


def _uniform_snapshot_steps(nsteps: int, count: int) -> list[int]:
    if count < 1:
        raise ValidationError(f"snapshot count must be at least 1, got {count}")
    marks = sorted({int(round(j * nsteps / count)) for j in range(count + 1)})
    return [k for k in marks if 0 <= k <= nsteps]


def solution_convergence_experiment(
    domain,
    bc: BoundaryCondition,
    profile: KernelProfile,
    reaction: ReactionTerm,
    initial_fn,
    t_final: float,
    deltas: Sequence[float],
    h: float,
    dt: float,
    snapshots: int = 8,
) -> ConvergenceReport:
    """Sweep the kernel radius and compare against the Laplacian run.

    Both kinds share one grid (spatial error is common mode) and one time
    step; the reported ``error`` row is the max over the stored snapshots
    of the sup distance between the two solutions.  Requires ``deltas``
    strictly decreasing and ``h <= min(deltas) / 8`` so every kernel stays
    well resolved.
    """
    deltas, local_op, nonlocal_ops = sweep_operators(domain, bc, profile, deltas, h)
    u0 = field_from_function(local_op.grid, initial_fn)
    problem = SemilinearProblem(local_op, reaction, u0, t_final)
    reference, *runs = _solve_together(problem, [local_op, *nonlocal_ops], dt, snapshots)

    errors = [max(sup_distance(a, b) for a, b in zip(run.states, reference.states)) for run in runs]
    observed_min = min(
        float(np.min(state.values)) for run in (reference, *runs) for state in run.states
    )
    orders = empirical_orders(deltas, errors)
    rows = [(d, e, p) for d, e, p in zip(deltas, errors, orders)]
    meta = {
        "bc": local_op.bc.value,
        "h": h,
        "dt": dt,
        "t_final": t_final,
        "kernel": profile.family,
        "min_nodal_value": observed_min,
    }
    return ConvergenceReport(("delta", "error", "empirical_order"), rows, meta)
