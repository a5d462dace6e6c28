"""Time integration of semilinear dispersal equations and their radius sweep.

The stepper treats the stiff linear dispersal part implicitly by the
trapezoidal rule and the reaction explicitly by a Heun predictor-corrector,
so one time step solves two linear systems with the same well-conditioned
matrix ``I - (dt/2) A``.  The implicit treatment removes the ``dt ~ h**2``
(local) and ``dt ~ delta**2`` (nonlocal) stability ceilings that an
explicit method would impose on refinement sweeps.

Every run solves ``(I - s A) x = b`` many times with fixed operators, so
the linear part of a step is prepared once per step size as a
:class:`LinearStep`.  It forms the explicit half step, solves, applies
the warm-start test and keeps pinned nodes at zero on an array of rows
advanced together, each row with its own operator: the two brackets of
:mod:`dispersal.kpp`, and the local reference and every radius of a sweep,
which share each numpy call.  Periodic closures, in any dimension, are
circulant: the FFT diagonalizes them exactly with eigenvalues
``1 - s * symbol``, and they are acted on, solved and residual-checked in
Fourier space without assembling a matrix; the step carries each row's
spectrum from one solve to the next, so a step of :func:`solve` costs
four transforms (plus one for the start), a backward Euler step of the
brackets four batched transforms, and a period-map step two.  On a
one-dimensional box the action is a band over the contiguous free nodes
(nonsymmetric for the mirrored local neumann closure), applied by
``np.convolve`` of the stencil; ``I - s A`` there equals the circulant of
the wrapped stencil except in the rows within stencil reach of a face, so
each solve is one FFT diagonalization of that circulant plus a small dense
capacitance correction on the face rows (Buzbee, Dorr, George & Golub,
SIAM J. Numer. Anal. 8, 1971), exact up to rounding (with one step of
iterative refinement on stiff steps under a hostile exterior); the
warm-start test reuses the explicit half step's ``A @ u``.
Two-dimensional boxes are backed by each operator's CSR matrix and solved
row by row, iteratively to relative residual ``1e-10`` (conjugate
gradients when the matrix is symmetric, stabilized bi-conjugate gradients
for the mirrored closure) with a sparse direct solve as rescue.  Every
path returns its warm start unchanged whenever the start already satisfies
the ``1e-10`` residual test; constant equilibria therefore persist
bitwise.  :func:`implicit_solver` gives the same solve for one vector.

scipy is a dependency of two-dimensional boxes only: ``scipy.sparse`` and
``scipy.sparse.linalg`` are imported when such a solver is first built, so
periodic and one-dimensional runs never load them.  The solvers ``cg``,
``bicgstab`` and ``spsolve`` are module functions that import scipy's on
their first call, and the Krylov path calls whatever the module holds at
call time, so a wrapper bound over one of those names sees every call.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
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


@dataclass(frozen=True)
class ReactionTerm:
    """Reaction ``F(t, x, u)``.

    ``evaluate`` receives the time, the grid coordinate columns and the
    nodal values.
    """

    evaluate: Callable
    description: str


def zero_reaction() -> ReactionTerm:
    return ReactionTerm(
        evaluate=lambda t, coords, u: np.zeros_like(u),
        description="zero",
    )


def linear_reaction(a: TimePeriodicCoefficient) -> ReactionTerm:
    """``F = a(t, x) u`` — the linearization driving the spectral theory."""
    return ReactionTerm(
        evaluate=lambda t, coords, u: a.evaluate(t, coords) * u,
        description=f"linear({a.description})",
    )


def logistic_reaction(a: TimePeriodicCoefficient) -> ReactionTerm:
    """``F = u (a(t, x) - u)`` — saturating growth with carrying level ``a``."""
    return ReactionTerm(
        evaluate=lambda t, coords, u: u * (a.evaluate(t, coords) - u),
        description=f"logistic({a.description})",
    )


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
        if np.any(np.abs(self.initial.values[self.operator.constrained]) > 1e-12):
            raise ValidationError(
                "initial data must vanish on pinned nodes (the faces of a local dirichlet box)"
            )


@dataclass
class Trajectory:
    """Snapshots of one run, ordered in time; first snapshot is the start state."""

    times: tuple[float, ...]
    states: tuple[Field, ...]
    steps: int
    dt: float


def implicit_solver(op: DispersalOperator, scale: float):
    """Return ``solve(b, x0)`` for the system ``(I - scale * A) x = b``.

    The solve is that of :func:`linear_step` on one row: an FFT
    diagonalization for periodic closures, the FFT of the wrapped stencil
    with a face capacitance correction for 1D boxes, and CG/BiCGSTAB with a
    sparse direct rescue for 2D boxes.  A warm start ``x0`` whose residual
    is already below ``1e-10 |b|`` comes back unchanged (as a copy), and
    ``b = 0`` gives zeros.
    """
    return linear_step(op, scale).solve


def linear_step(op: DispersalOperator | Sequence[DispersalOperator], scale: float) -> LinearStep:
    """The linear part of a time step with ``(I - scale * A)`` for one or more operators."""
    ops = [op] if isinstance(op, DispersalOperator) else list(op)
    first = ops[0]
    if any(o.bc is not first.bc or not same_grid(o.grid, first.grid) for o in ops):
        raise ValidationError("the operators of one step must share one closure and one grid")
    if first.bc is BoundaryCondition.PERIODIC:
        return _FourierStep(ops, scale)
    if first.grid.dimension == 1:
        return _CapacitanceStep(ops, scale)
    return _MatrixStep(ops, scale)


class LinearStep:
    """Explicit half step, implicit solve and warm-start test for one scale and its operators.

    Every method works on an array of rows, shape ``(rows, num_nodes)``,
    each row one field.  The step keeps one table of each kind per
    operator, which broadcast against the rows: row ``i`` uses operator
    ``i``, or the only one; :meth:`select` assigns operators otherwise.
    Rows entering a step must vanish on their operator's pinned nodes, and
    they leave it pinned too: a box step zeroes those nodes in every
    right-hand side it adds a reaction to, its action vanishes on pinned
    rows, and its solve returns zero wherever a pinned right-hand side is
    zero (periodic closures pin nothing).

    Each solve first tests its warm start: a row whose residual is already
    below ``1e-10`` times its right-hand side's norm is returned unchanged,
    so constant equilibria persist bitwise.  Alongside the rows a step
    carries a *companion* of its warm start, which saves work in the next
    solve: the spectrum of the rows on periodic closures, ``A @ rows`` (or
    ``None``) on boxes.  Callers only pass it back.

    The closures differ in four hooks: ``_start`` (the explicit part and
    the companion), ``_rhs`` (adds a reaction term), ``_solve_rows`` (the
    warm-start test and the solve) and ``solve`` (one vector).
    """

    #: The per-operator tables: arrays stacked along their first axis, or lists.
    _per_operator: tuple[str, ...] = ("_pinned",)

    def __init__(self, ops: Sequence[DispersalOperator], scale: float):
        self.scale = scale
        self._pinned = np.stack([op.constrained for op in ops])

    def select(self, which: list[int]) -> LinearStep:
        """This step for rows where row ``i`` uses operator ``which[i]``."""
        picked = copy.copy(self)
        for name in self._per_operator:
            table = getattr(self, name)
            picks = [table[o] for o in which] if isinstance(table, list) else table[which]
            setattr(picked, name, picks)
        return picked

    @staticmethod
    def _each(table: list, rows) -> list:
        """A per-operator list's entry for each of ``rows``."""
        return table * len(rows) if len(table) == 1 else table

    def pin(self, rows: np.ndarray) -> np.ndarray:
        """Zero the pinned nodes of ``rows`` in place and return them."""
        np.copyto(rows, 0.0, where=self._pinned)
        return rows

    def crank_nicolson(self, rows: np.ndarray) -> np.ndarray:
        """One trapezoidal step ``x = (I - sA)^-1 (I + sA) rows`` of pure dispersal."""
        base, companion = self._start(rows, None, explicit=True)
        return self._solve_rows(base, rows, companion)[0]

    def imex_step(self, t: float, rows: np.ndarray, rate, companion=None, *, trapezoid: bool):
        """One step of ``u' = A u + rate(t, u)``: implicit dispersal, Heun reaction.

        With ``trapezoid`` the dispersal is treated by the trapezoidal rule
        and the step is ``dt = 2 * scale``; otherwise by backward Euler with
        ``dt = scale``.  The predictor is the warm start of the corrector.
        Returns the new rows and their companion.
        """
        dt = 2.0 * self.scale if trapezoid else self.scale
        base, companion = self._start(rows, companion, explicit=trapezoid)
        fn = rate(t, rows)
        predictor, companion = self._solve_rows(self._rhs(base, dt, fn), rows, companion)
        fs = rate(t + dt, predictor)
        return self._solve_rows(self._rhs(base, dt / 2.0, fn + fs), predictor, companion)


class _FourierStep(LinearStep):
    """Periodic closures: every solve is exact and diagonal in Fourier space.

    The FFT diagonalizes ``I - scale * A`` with eigenvalues
    ``1 - scale * symbol`` (all ``>= 1``, since ``A`` is negative
    semidefinite).  The warm-start residual ``B - eig * X0`` and both
    norms are taken in Fourier space (by Parseval over the half spectrum),
    and each solved row's spectrum is carried into the next solve as the
    companion, so no warm start is transformed again.  An explicit half
    step is applied to the carried spectrum; without one, the right-hand
    side ``u + c f`` is formed in real space and transformed once, which
    costs the same single transform as transforming ``f`` and rounds
    ``b`` exactly as the real-space formula does.
    """

    _per_operator = ("_pinned", "_symbol", "_eig")

    def __init__(self, ops: Sequence[DispersalOperator], scale: float):
        super().__init__(ops, scale)
        self._shape = ops[0].grid.shape
        symbols = [op.symbol() for op in ops]  # a lone operator's cached symbol is not copied
        self._symbol = np.stack(symbols) if len(symbols) > 1 else symbols[0][None]
        self._eig = 1.0 - scale * self._symbol
        self._weights = half_spectrum_weights(self._shape)

    def _forward(self, rows: np.ndarray) -> np.ndarray:
        if len(self._shape) == 1:
            return np.fft.rfft(rows)
        return np.fft.rfftn(rows.reshape((-1,) + self._shape), axes=(1, 2))

    def _inverse(self, spectra: np.ndarray) -> np.ndarray:
        if len(self._shape) == 1:
            return np.fft.irfft(spectra, self._shape[0])
        rows = np.fft.irfftn(spectra, s=self._shape, axes=(1, 2))
        return rows.reshape(len(rows), -1)

    def _start(self, rows, companion, explicit):
        spectra = self._forward(rows) if companion is None else companion
        return (spectra + self.scale * (self._symbol * spectra) if explicit else rows), spectra

    def _rhs(self, base, weight, values):
        if np.iscomplexobj(base):
            return base + weight * self._forward(values)
        return self._forward(base + weight * values)

    def _norms(self, spectra: np.ndarray) -> np.ndarray:
        flat = spectra.reshape(len(spectra), -1).view(np.float64)
        return np.sqrt(np.einsum("ij,ij,j->i", flat, flat, self._weights))

    def _solve_rows(self, B, x0, X0):
        keep = self._norms(B - self._eig * X0) < _SOLVE_RTOL * self._norms(B)
        kept = keep.tolist()  # a handful of rows: Python's all/any are cheaper
        if all(kept):
            return x0, X0
        X = B / self._eig
        x = self._inverse(X)
        if any(kept):
            x[keep], X[keep] = x0[keep], X0[keep]
        return x, X

    def solve(self, b: np.ndarray, x0: np.ndarray) -> np.ndarray:
        x0 = x0.reshape(1, -1)
        x, _ = self._solve_rows(self._forward(b.reshape(1, -1)), x0, self._forward(x0))
        return x[0].copy()


class _BoxStep(LinearStep):
    """Box closures: real-space rows, companion ``A @ rows``.

    Subclasses supply ``_act`` (the action on rows) and ``_solve_rows``.
    """

    def _start(self, rows, companion, explicit):
        if not explicit:
            return rows, companion
        if companion is None:
            companion = self._act(rows)
        return rows + self.scale * companion, companion

    def _rhs(self, base, weight, values):
        return self.pin(base + weight * values)

    def solve(self, b: np.ndarray, x0: np.ndarray) -> np.ndarray:
        return self._solve_rows(b.reshape(1, -1), x0.reshape(1, -1), None)[0][0].copy()


class _CapacitanceStep(_BoxStep):
    """One-dimensional boxes: the FFT of the wrapped stencil plus a face correction.

    On the ``m`` grid nodes the action is the stencil's band, a diagonal
    and, for the mirrored closure, the entries ``(0, 1)`` and
    ``(m-1, m-2)``; ``_act`` applies it by
    ``np.convolve``, apart from the operator's entries, as the independent
    check of the solve.  An operator's free (unpinned) nodes form one
    contiguous block of them; zero-padded to a 5-smooth length ``L >= m``,
    the system ``M = I - sA`` on that block sits in the block matrix
    ``[[M, 0], [P_pf, P_pp]]``, where ``P = I - sC`` is the circulant of the
    stencil wrapped on ``L`` nodes with self term ``-sum_o w_o``: the
    padding rows (the two end nodes that the local dirichlet closure pins
    among them) are ``P``'s own, so the block matrix differs from ``P`` only
    in ``E``, its ``k`` rows ``R`` within stencil reach of a face, where
    ``M`` is read from :meth:`DispersalOperator.matrix_rows`.  Writing
    ``x = P^-1 y`` leaves ``y = b`` off ``R`` and ``y_R = b_R - G b`` on it,
    with the gain ``G = Q^-1 (E P^-1)_F`` and the capacitance matrix
    ``Q = I + (E P^-1)_R`` (``k x k``).  A solve is one ``k x m`` product
    and one FFT pair, twice on the stiff steps that need a refinement step
    (see ``__init__``); ``E P^-1`` takes ``k`` batched transforms at set-up,
    and ``G`` one LAPACK solve with ``Q``, which is never inverted.

    ``m`` and ``L`` come from the grid alone, so one FFT pair serves every
    operator's rows and a row is solved bitwise as its operator's step
    alone would solve it; each operator has its own ``P``, face rows, gain
    and refinement decision.
    """

    _per_operator = (
        "_pinned", "_kernels", "_diagonal", "_mirror", "_eig", "_faces", "_gain", "_refine"
    )

    def __init__(self, ops: Sequence[DispersalOperator], scale: float):
        super().__init__(ops, scale)
        m = ops[0].grid.num_nodes
        self._length = length = _fft_length(m)
        cols = np.arange(length)
        columns = np.stack([op.wrapped_column((length,)) for op in ops])  # first columns of C
        self._eig = 1.0 - scale * np.fft.rfft(columns)
        self._diagonal = np.stack([op.diagonal() for op in ops])
        self._mirror = np.array([op.mirror_weight if op.mirror else 0.0 for op in ops])
        self._kernels, self._faces, self._gain = [], [], []
        for op, inside, column, eig in zip(ops, ~self._pinned, columns, self._eig):
            block = np.flatnonzero(inside)
            a, b = int(block[0]), int(block[-1]) + 1
            if b - a != block.size:
                raise ValidationError("a one-dimensional box step needs contiguous free nodes")
            reach = max(abs(offset) for (offset,), _ in op.offsets)
            band = np.zeros(2 * reach + 1)  # band[reach + o] = w_o
            for (offset,), weight in op.offsets:
                band[reach + offset] += weight
            self._kernels.append(band[::-1].copy())  # np.convolve flips its kernel

            nodes = np.arange(b - a)
            faces = a + np.flatnonzero((nodes < reach) | (nodes >= b - a - reach))
            face_rows = np.zeros((faces.size, length))
            face_rows[:, :m] = op.matrix_rows(faces)
            E = scale * (column[(faces[:, None] - cols) % length] - face_rows)
            EP = np.fft.irfft(np.fft.rfft(E) / np.conj(eig), length)  # rows of E P^-1
            capacitance = np.eye(faces.size) + EP[:, faces]
            self._faces.append(faces)
            self._gain.append(np.linalg.solve(capacitance, EP[:, :m]))
            del face_rows, E, EP, capacitance  # no k x L arrays held into the next operator
        self._pins = bool(np.any(self._pinned))

        # The correction cancels modes of P that M lacks (the constant mode
        # under a hostile exterior); on stiff steps the cancellation loses
        # digits (relative residual 1.5e-10 at scale * sum(w) = 1.3e8, local
        # closure, h = 1/256), which one step of iterative refinement
        # restores.  A probe solve decides for each operator: refine where
        # one step removes most of a residual above 1e-13.
        probe = self.pin(np.tile(1.0 + np.cos(np.arange(m)), (len(ops), 1)))
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
        if np.any(self._mirror):
            out[:, 0] += self._mirror * u[:, 1]
            out[:, -1] += self._mirror * u[:, -2]
        return self.pin(out) if self._pins else out

    def _solve_rows(self, b, x0, Ax0):
        Ax = self._act(x0) if Ax0 is None else Ax0
        keep = _row_norms(b - x0 + self.scale * Ax) < _SOLVE_RTOL * _row_norms(b)
        kept = keep.tolist()  # a handful of rows: Python's all/any are cheaper
        if all(kept):
            return x0, Ax
        x = self._solve(b)
        if self._refine.any():
            x += np.where(self._refine[:, None], self._solve(self._residual(b, x)), 0.0)
        if any(kept):
            x[keep] = x0[keep]
        return x, None

    def _residual(self, b, x):
        return b - x + self.scale * self._act(x)

    def _solve(self, b):
        """``(I - scale * A)^-1 b`` for rows ``b``: face correction, then one FFT pair."""
        m = b.shape[1]
        y = np.zeros((len(b), self._length))
        y[:, :m] = b
        gains = zip(self._each(self._faces, b), self._each(self._gain, b))
        for row, values, (faces, gain) in zip(y, b, gains):
            row[faces] -= gain @ values
        x = np.fft.irfft(np.fft.rfft(y) / self._eig, self._length)[:, :m].copy()
        return self.pin(x) if self._pins else x


class _MatrixStep(_BoxStep):
    """Two-dimensional boxes, backed by each operator's CSR matrix.

    Each row is solved with its own operator's matrix by CG (BiCGSTAB for
    the mirrored closure), whose own first residual check is the
    warm-start test, with a sparse direct solve as rescue.  ``cg``,
    ``bicgstab`` and ``spsolve`` are looked up in the module at each call,
    not captured here.
    """

    _per_operator = ("_pinned", "_A", "_M", "_mirror")

    def __init__(self, ops: Sequence[DispersalOperator], scale: float):
        super().__init__(ops, scale)
        import scipy.sparse as sparse

        self._A = [op.matrix() for op in ops]
        self._M = [sparse.identity(A.shape[0], format="csr") - scale * A for A in self._A]
        self._mirror = [op.mirror for op in ops]

    def _act(self, rows):
        return np.stack([A @ row for A, row in zip(self._each(self._A, rows), rows)])

    def _solve_rows(self, b, x0, Ax0):
        systems = zip(self._each(self._M, b), self._each(self._mirror, b), b, x0)
        return np.stack([self._krylov(*system) for system in systems]), None

    def _krylov(self, M, mirror: bool, b: np.ndarray, x0: np.ndarray) -> np.ndarray:
        krylov = bicgstab if mirror else cg
        x, info = krylov(M, b, x0=x0, rtol=_SOLVE_RTOL, atol=0.0)
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


def _fft_length(n: int) -> int:
    """Smallest ``2**a * 3**b * 5**c >= n``.

    A prime length costs the FFT several times more: ``rfft`` and
    ``irfft`` took 59 us at 257 against 23 us at 270.
    """
    length = n
    while True:
        rest = length
        for prime in (2, 3, 5):
            while rest % prime == 0:
                rest //= prime
        if rest == 1:
            return length
        length += 1


def half_spectrum_weights(shape: tuple[int, ...]) -> np.ndarray:
    """Parseval weights for the half spectrum that ``rfftn`` keeps.

    With ``q = rfftn(r).view(float).ravel()`` (real and imaginary parts
    interleaved), ``sum(weights * q**2) == |r|**2``.  Interior bins of the
    last axis stand for themselves and their mirror images, so they count
    twice; bin 0, and the Nyquist bin when the last axis is even, count
    once; every weight carries Parseval's ``1 / n``.
    """
    half = shape[-1] // 2 + 1
    bins = np.full(half, 2.0 / math.prod(shape))
    bins[0] /= 2.0
    if shape[-1] % 2 == 0:
        bins[-1] /= 2.0
    return np.broadcast_to(np.repeat(bins, 2), shape[:-1] + (2 * half,)).ravel()


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

    The kept steps are :func:`_uniform_snapshot_steps` (``round(j * steps /
    snapshots)``, each once), stamped ``k * dt``; the initial state is
    always the first snapshot.  Raises :class:`BlowUpError` the moment the
    sup norm passes ``1e12``.
    """
    return _solve_together(problem, [problem.operator], dt, snapshots)[0]


def _solve_together(problem: SemilinearProblem, ops, dt: float, snapshots: int):
    """:func:`solve` of ``problem`` with each of ``ops`` in its place, as rows of one array.

    The operators share the problem's grid and closure.  The first row to
    blow up raises at once.
    """
    nsteps = whole_steps(problem.t_final, dt)
    wanted = set(_uniform_snapshot_steps(nsteps, snapshots))
    grid = problem.operator.grid
    step = linear_step(ops, dt / 2.0)
    evaluate = problem.reaction.evaluate

    def rate(t: float, rows: np.ndarray) -> np.ndarray:
        return evaluate(t, grid.coordinates, rows)

    u = step.pin(np.repeat(problem.initial.values[None], len(ops), axis=0))
    companion = None
    times, states = [0.0], [u.copy()]
    for k in range(1, nsteps + 1):
        u, companion = step.imex_step((k - 1) * dt, u, rate, companion, trapezoid=True)
        if not np.all(np.isfinite(u)) or np.max(np.abs(u)) > BLOW_UP_THRESHOLD:
            raise BlowUpError(f"field exceeded {BLOW_UP_THRESHOLD:.0e} at t={k * dt!r}")
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
