"""Ground-state profiles of -Q + Lap Q + r^{-b} Q^{alpha+1} = 0.

Two independent solvers:

* shooting: integrate the radial ODE outward from a series start and bisect
  the center value on the dichotomy {crosses zero} vs {diverges}, then graft
  the exact linearized decay tail (Bessel K) once the profile is small.  The
  bracket and bisection shots are classified from the step ends of a bare
  DOP853 solver; only the final shot builds the dense solution the graft
  samples;
* fixedpoint: normalized fixed-point iteration on the grid operator,
  Q <- M^{(alpha+1)/alpha} (I - Lap)^{-1}[r^{-b} Q^{alpha+1}], whose
  stabilizer M tends to 1 exactly when Q solves the discrete equation.

Both return the same GroundState record with the Pohozaev bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import DOP853, solve_ivp
from scipy.special import kv, roots_jacobi, roots_legendre

from .grid import (
    Measures,
    RadialField,
    RadialGrid,
    laplacian_radial,
    shifted_laplacian_solver,
)
from .params import ModelParams, validate_scope


class SolverFailure(RuntimeError):
    """A ground-state solver produced no valid profile."""


class NoBracket(SolverFailure):
    """The shooting parameter could not be bracketed."""


class NoConvergence(SolverFailure):
    """Fixed-point iteration failed to converge; carries the distance trace."""

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class GroundState:
    params: ModelParams
    profile: RadialField
    mass2: float
    grad2: float
    potential: float
    energy: float
    cgn: float
    method: str
    residual: float
    # classifying shots (bracket + bisection) or fixed-point iterations
    iterations: int


def _require_scope(params: ModelParams, test_mode: bool):
    if test_mode:
        return
    if not validate_scope(params).global_scope:
        raise ValueError(
            f"(N={params.N}, alpha={params.alpha}, b={params.b}) is outside "
            "the global-existence scope; pass test_mode=True to override"
        )


def _finalize(params, profile, method, residual, iterations) -> GroundState:
    me = Measures.of(profile, params.alpha, params.b)
    vals = np.real(profile.values)
    if np.any(vals <= 0):
        raise SolverFailure(f"{method}: profile is not strictly positive")
    if np.any(np.diff(vals) >= 0):
        raise SolverFailure(f"{method}: profile is not strictly decreasing")
    return GroundState(
        params=params,
        profile=profile,
        # ||Q||^2 squared from the norm: GS1's residual and the sharp-constant gap cancel
        # 4-5 digits, so the direct sum's last-bit difference would reach their 12th digit
        mass2=math.sqrt(me.mass) ** 2,
        grad2=me.grad2,
        potential=me.potential,
        energy=me.energy(params.alpha),
        cgn=_quotient(me, params),
        method=method,
        residual=residual,
        iterations=iterations,
    )


# ---------------------------------------------------------------------------
# shooting solver


def _series_start(a, params, r):
    """Two-term expansion near r = 0.

    The ODE balance Lap Q = Q - r^{-b} Q^{alpha+1} forces
    Q = a + a r^2/(2N) - a^{alpha+1} r^{2-b} / ((2-b)(N-b)) + h.o.t.;
    the r^{2-b} term carries the integrable forcing singularity.
    """
    N, alpha, b = params.N, params.alpha, params.b
    c2 = a / (2 * N)
    cb = -(a ** (alpha + 1)) / ((2 - b) * (N - b))
    q = a + c2 * r**2 + cb * r ** (2 - b)
    dq = 2 * c2 * r + (2 - b) * cb * r ** (1 - b)
    return q, dq


def _rhs(params):
    N, alpha, b = params.N, params.alpha, params.b

    def rhs(r, y):
        # Python floats: the same operations in the same order as numpy
        # scalars (so the same bits), without numpy's per-scalar dispatch
        q, dq = y.tolist()
        r = float(r)
        force = q - (r**-b) * abs(q) ** alpha * q
        return [dq, force - (N - 1) / r * dq]

    return rhs


_RTOL, _ATOL = 1e-12, 1e-14


def _shot_start(a, params, r_start):
    """Right-hand side, initial state and divergence cap 2a shared by every
    shot, so the classifying shots and the final dense shot cannot drift."""
    return _rhs(params), _series_start(a, params, r_start), 2.0 * a


def _classify_shot(a, params, r_end, r_start):
    """'cross' (q falls to 0), 'diverge' (q rises to 2a) or 'end' of one shot.

    Steps a bare DOP853 solver and decides from the sign of q and q - 2a at
    consecutive step ends, as solve_ivp's terminal events find them; it builds
    no dense interpolant and calls no event function.  Both cannot hold in
    one step because 2a > 0.
    """
    fun, y0, cap = _shot_start(a, params, r_start)
    solver = DOP853(fun, r_start, y0, r_end, rtol=_RTOL, atol=_ATOL)
    q_old = y0[0]
    while solver.status == "running":
        solver.step()
        if solver.status == "failed":
            break
        q = solver.y[0]
        if q_old >= 0 >= q:
            return "cross"
        if q_old <= cap <= q:
            return "diverge"
        q_old = q
    return "end"


def _final_shot(a, params, r_end, r_start):
    """The shot at the bisected center value, with its dense solution."""
    fun, y0, cap = _shot_start(a, params, r_start)

    def crossed(r, y):
        return y[0]

    crossed.terminal = True
    crossed.direction = -1

    def diverged(r, y):
        return y[0] - cap

    diverged.terminal = True
    diverged.direction = 1

    return solve_ivp(
        fun,
        (r_start, r_end),
        y0,
        method="DOP853",
        rtol=_RTOL,
        atol=_ATOL,
        events=(crossed, diverged),
        dense_output=True,
    )


def _bracket(params, r_end, r_start):
    """Find a_lo (diverges) < a_hi (crosses zero); also returns the shot count."""
    a = 1.0
    shots = 1
    kind = _classify_shot(a, params, r_end, r_start)
    if kind == "cross":
        a_hi = a
        for _ in range(60):
            a /= 1.5
            shots += 1
            kind = _classify_shot(a, params, r_end, r_start)
            if kind != "cross":
                return a, a_hi, shots
            a_hi = a
        raise NoBracket(f"no diverging shot found down to a={a}")
    a_lo = a
    for _ in range(60):
        a *= 1.5
        shots += 1
        kind = _classify_shot(a, params, r_end, r_start)
        if kind == "cross":
            return a_lo, a, shots
        a_lo = a
    raise NoBracket(f"no zero-crossing shot found up to a={a}")


def solve_shooting(params: ModelParams, grid: RadialGrid, *, test_mode=False) -> GroundState:
    """Bisection shooting for the ground state, sampled onto `grid`."""
    _require_scope(params, test_mode)
    N, alpha, b = params.N, params.alpha, params.b
    r_start = 1e-6
    r_end = grid.r_max + 1.0
    a_lo, a_hi, shots = _bracket(params, r_end, r_start)
    for _ in range(200):
        mid = 0.5 * (a_lo + a_hi)
        if mid == a_lo or mid == a_hi:
            break
        shots += 1
        if _classify_shot(mid, params, r_end, r_start) == "cross":
            a_hi = mid
        else:
            a_lo = mid
    sol = _final_shot(0.5 * (a_lo + a_hi), params, r_end, r_start)

    # Graft the linearized decay tail C r^{1-N/2} K_{N/2-1}(r) once the
    # trajectory drops below tail_cut; past that point the bisected shot is
    # dominated by the separatrix error growing like e^{+r}.
    tail_cut = 1e-5
    r_reach = sol.t[-1]

    def q_of(r):
        return sol.sol(r)[0]

    def tail_shape(r):
        nu = N / 2 - 1
        return r ** (1 - N / 2) * kv(nu, r)

    r_match = None
    rs = np.linspace(r_start, min(r_reach, r_end), 4000)
    qs = sol.sol(rs)[0]
    small = np.nonzero(qs < tail_cut)[0]
    if small.size:
        r_match = rs[small[0]]
    nodes = grid.nodes
    values = np.empty(grid.J)
    if r_match is None:
        if q_of(min(r_reach, grid.r_max)) > 1e-3:
            raise NoBracket(
                f"profile did not decay inside the domain (bracket [{a_lo}, {a_hi}])"
            )
        r_match = min(r_reach, grid.r_max) * 0.999
    logder = sol.sol(r_match)[1] / q_of(r_match)
    if not (-1.5 < logder < -0.5):
        raise NoBracket(
            f"tail logarithmic derivative {logder:.3f} at r={r_match:.2f} is "
            "not in (-1.5, -0.5); the shot left the decaying separatrix"
        )
    c_tail = q_of(r_match) / tail_shape(r_match)
    inner = nodes < r_match
    values[inner] = sol.sol(nodes[inner])[0]
    values[~inner] = c_tail * tail_shape(nodes[~inner])
    profile = grid.field(values)
    residual = shooting_residual(sol, params, grid, r_match, c_tail, tail_shape)
    return _finalize(params, profile, "shooting", residual, shots)


def shooting_residual(sol, params, grid, r_match, c_tail, tail_shape) -> float:
    """Finite-volume defect of the shot, weighted l2 over the grid cells.

    Per cell: flux difference of F = r^{N-1} Q' minus the cell integral of
    r^{N-1} (Q - r^{-b} Q^{alpha+1}), evaluated with Gauss quadrature and a
    Gauss-Jacobi rule for the r^{-b}-weighted part on the innermost cells,
    normalized by the cell weight.  For the exact solution this is zero; it
    measures the integrator defect, not the grid truncation error.
    """
    N, alpha, b = params.N, params.alpha, params.b

    def q_val(r):
        r = np.asarray(r)
        out = np.empty_like(r)
        inner = r < r_match
        if np.any(inner):
            out[inner] = sol.sol(r[inner])[0]
        if np.any(~inner):
            out[~inner] = c_tail * tail_shape(r[~inner])
        return out

    def dq_val(r):
        r = np.asarray(r)
        out = np.empty_like(r)
        inner = r < r_match
        if np.any(inner):
            out[inner] = sol.sol(r[inner])[1]
        if np.any(~inner):
            eps = 1e-6
            out[~inner] = (
                c_tail
                * (tail_shape(r[~inner] + eps) - tail_shape(r[~inner] - eps))
                / (2 * eps)
            )
        return out

    faces = grid.faces
    # tail cells contribute residual only through the (tiny) mismatch of the
    # grafted tail; restrict to cells fully inside the integrated region
    j_max = min(grid.J, int(math.floor(sol.t[-1] / grid.h)))
    xg, wg = roots_legendre(6)
    res = np.zeros(grid.J)
    flux = faces ** (N - 1) * dq_val(np.maximum(faces, 1e-12))
    if N >= 2:
        flux[0] = 0.0
    mid = grid.nodes[:j_max]
    half = grid.h / 2
    rq = mid[:, None] + half * xg[None, :]
    qq = q_val(rq.ravel()).reshape(rq.shape)
    s_lin = (wg[None, :] * rq ** (N - 1) * qq).sum(axis=1) * half
    s_pot = (wg[None, :] * rq ** (N - 1 - b) * qq ** (alpha + 1)).sum(axis=1) * half
    # first cell touches r = 0 where the r^{-b} weight is singular; redo its
    # source integral with a Gauss-Jacobi rule carrying weight r^{N-1-b}
    hi = faces[1]
    xj, wj = roots_jacobi(6, 0.0, float(N - 1 - b))  # weight (1+x)^{N-1-b}
    rj = hi * (1 + xj) / 2
    s_pot[0] = (hi / 2) ** (N - b) * np.sum(wj * q_val(rj) ** (alpha + 1))
    res[:j_max] = (flux[1 : j_max + 1] - flux[:j_max] - (s_lin - s_pot)) / (
        mid ** (N - 1) * grid.h
    )
    return math.sqrt(float(np.sum(grid.weights * res**2)))


# ---------------------------------------------------------------------------
# fixed-point solver


def solve_fixedpoint(
    params: ModelParams,
    grid: RadialGrid,
    *,
    tol: float = 1e-12,
    max_iter: int = 500,
    test_mode: bool = False,
    stabilizer_exponent: float | None = None,
) -> GroundState:
    """Normalized fixed-point iteration on the discrete operator.

    stabilizer_exponent defaults to (alpha+1)/alpha, the unique power that
    neutralizes the homogeneity of the nonlinearity; exponent 1 diverges.
    """
    _require_scope(params, test_mode)
    N, alpha, b = params.N, params.alpha, params.b
    gamma = (alpha + 1) / alpha if stabilizer_exponent is None else stabilizer_exponent
    solve = shifted_laplacian_solver(grid, 1.0)  # (I - Lap)^{-1}
    r = grid.nodes
    w = grid.weights
    rb = r ** (-b)
    q = np.exp(-(r**2)) * 2.0
    trace = []
    for _ in range(max_iter):
        f = rb * np.abs(q) ** alpha * q
        num = float(np.sum(w * (q - laplacian_radial(grid.field(q)).values) * q))
        den = float(np.sum(w * f * q))
        if den <= 0:
            raise NoConvergence("nonlinear term lost positivity", trace)
        m = num / den
        q_next = m**gamma * solve(f)
        dist = math.sqrt(float(np.sum(w * (q_next - q) ** 2)))
        trace.append((m, dist))
        q = q_next
        if dist < tol * max(1.0, math.sqrt(float(np.sum(w * q**2)))):
            break
    else:
        raise NoConvergence(f"no convergence after {max_iter} iterations", trace)
    profile = grid.field(q)
    res_vec = -q + laplacian_radial(profile).values + rb * np.abs(q) ** alpha * q
    residual = math.sqrt(float(np.sum(w * res_vec**2)))
    return _finalize(params, profile, "fixedpoint", residual, len(trace))


# ---------------------------------------------------------------------------
# identities and the sharp constant


def identity_sides(gs: GroundState) -> dict:
    """(lhs, rhs) of the three ground-state identities GS1, GS2 and EGS."""
    N, alpha, b = gs.params.N, gs.params.alpha, gs.params.b
    denom = N * alpha + 2 * b
    return {
        "GS1": (gs.grad2, denom / (4 - 2 * b - alpha * (N - 2)) * gs.mass2),
        "GS2": (gs.potential, 2 * (alpha + 2) / denom * gs.grad2),
        "EGS": (gs.energy, alpha * gs.params.s_c / denom * gs.grad2),
    }


def verify_identities(gs: GroundState) -> dict:
    """Relative residuals of the three ground-state identities."""
    scale = {"GS1": gs.grad2, "GS2": gs.potential, "EGS": max(abs(gs.energy), gs.grad2 * 1e-3)}
    return {key: abs(lhs - rhs) / scale[key] for key, (lhs, rhs) in identity_sides(gs).items()}


def weinstein_quotient(u: RadialField, params: ModelParams) -> float:
    """P(u) / (||grad u||^{(N a + 2b)/2} ||u||^{(4 - 2b - a(N-2))/2})."""
    return _quotient(Measures.of(u, params.alpha, params.b), params)


def _quotient(me: Measures, params: ModelParams) -> float:
    """weinstein_quotient from the field's measures."""
    N, alpha, b = params.N, params.alpha, params.b
    gn, l2 = math.sqrt(me.grad2), math.sqrt(me.mass)
    if gn == 0 or l2 == 0:
        return 0.0
    return me.potential / (gn ** ((N * alpha + 2 * b) / 2) * l2 ** ((4 - 2 * b - alpha * (N - 2)) / 2))


def sharp_constant(gs: GroundState) -> dict:
    """Closed-form sharp constant vs the extremal quotient at Q."""
    params = gs.params
    N, alpha, b = params.N, params.alpha, params.b
    s_c = params.s_c
    if not (0 < s_c < 1):
        raise ValueError(f"sharp-constant formula needs 0 < s_c < 1, got {s_c}")
    denom = N * alpha + 2 * b
    cgn_formula = (
        2 * (alpha + 2)
        / denom
        * ((4 - 2 * b - alpha * (N - 2)) / denom) ** (alpha * s_c / 2)
        / gs.mass2 ** (alpha / 2)
    )
    cgn_direct = gs.cgn
    return {
        "cgn_formula": cgn_formula,
        "cgn_direct": cgn_direct,
        "rel_gap": abs(cgn_formula - cgn_direct) / cgn_formula,
    }


def gn_maximality_probe(
    gs: GroundState, trials: int = 200, seed: int = 0, tol: float = 1e-3
) -> dict:
    """Weinstein quotient over random Gaussian mixtures never beats Q."""
    rng = np.random.default_rng(seed)
    grid = gs.profile.grid
    best = 0.0
    for _ in range(trials):
        n_terms = int(rng.integers(1, 4))
        u = np.zeros(grid.J)
        for _ in range(n_terms):
            amp = rng.uniform(0.1, 3.0)
            width = rng.uniform(0.3, 3.0)
            u = u + amp * np.exp(-((grid.nodes / width) ** 2))
        quot = weinstein_quotient(grid.field(u), gs.params)
        best = max(best, quot)
    return {
        "max_quotient": best,
        "q_quotient": gs.cgn,
        "holds": best <= gs.cgn * (1 + tol),
        "trials": trials,
        "tol": tol,
    }
