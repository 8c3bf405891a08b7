"""Ground-state profiles of -Q + Lap Q + r^{-b} Q^{alpha+1} = 0.

Two independent solvers:

* shooting: find the center value a* between {crosses zero} and
  {stays positive} by Brent's method on a signed exit margin, then graft the
  exact linearized decay tail (Bessel K) once the profile is small.  Every
  shot starts at r_s from the Frobenius series of Q in x = r^2 and
  y = r^{2-b} through total degree 12; r_s is read off the coefficients as
  the radius where the first omitted shell falls to 1e-16 a, and profile
  nodes and residual quadrature points inside r_s take the series values.
  The bracket and Brent shots are stepped by the compiled DOP853 that
  scipy.integrate.ode wraps, stopped by a solout callback, and return
  +W where q crosses zero, or -W where they stop otherwise, with W the
  Wronskian |r^{N-1}(q' k - q k')| of the shot with the decaying tail mode
  k = r^{-nu} K_nu(r) at the exit step end: it is constant along the
  linearized equation, so W is linear in a - a* with one slope on both
  sides.  Margins are kept by center value, so no value is shot twice, and
  a solve takes 10-15 shots at the reference points.  A shot stops as
  "not cross" once its energy q'^2/2 - q^2/2 + r^{-b}q^{alpha+2}/(alpha+2),
  which never increases along a shot and is >= 0 wherever q = 0, falls
  below -1e-3 q^2.  Only the final shot builds a dense solution, and a
  terminal event stops it where q falls to 1e-5: the tail is grafted at that
  radius r_match, matching q, with its derivative in closed form.  That shot
  stays on solve_ivp's DOP853, since the graft and the sampling read its
  dense interpolant, which the compiled wrapper does not expose.  The two
  DOP853 codes put the separatrix about 1e-13 apart relative, far closer
  than the final shot needs to stay on it down to the graft level.  Every
  shot runs until it exits (a crossing, the cap, the energy certificate or
  the graft); the module bound _R_SHOT lies far past those exits, so the
  center, the shot and r_match depend on (N, alpha, b) alone and the grid
  only samples Q.  The shooting residual in solver.csv is the finite-volume
  defect of the profile over the grid cells inside r_match, so it measures
  the series truncation inside r_s and the integrator defect beyond it, not
  the graft;
* fixedpoint: normalized fixed-point iteration on the grid operator,
  Q <- M^{(alpha+1)/alpha} (I - Lap)^{-1}[r^{-b} Q^{alpha+1}], whose
  stabilizer M tends to 1 exactly when Q solves the discrete equation.  It
  converges only linearly (Pelinovsky & Stepanyants, SIAM J. Numer. Anal.
  42 (2004) 1110), so it serves as the warm start: once its step falls below
  1e-3 of max(1, ||Q||), Newton steps on the discrete equation, one
  tridiagonal LAPACK factorization each, finish the solve (21 steps in all
  at the README grid, against 83 for the iteration alone).

Both return the same GroundState record with the Pohozaev bookkeeping.
Neither checks the (N, alpha, b) scope: the command line does, where
outside input reaches a solver.

scipy is imported inside the functions that call it, so importing the module
loads none of it: scipy.integrate, scipy.optimize and scipy.special take
most of a fresh process's start-up, and only the shooting solver calls them.
ode and solve_ivp stay module functions that forward to scipy's, so a test
or a tracer can replace them.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grid import (
    Measures,
    NumericalFailure,
    RadialField,
    RadialGrid,
    get_lapack_funcs,
    laplacian_radial,
    shifted_laplacian_solver,
)
from .params import ModelParams, validate_scope


def ode(f):
    """scipy.integrate.ode, imported when called."""
    from scipy.integrate import ode

    return ode(f)


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported when called."""
    from scipy.integrate import solve_ivp

    return solve_ivp(*args, **kwargs)


class SolverFailure(NumericalFailure):
    """A ground-state solver produced no valid profile."""


class NoBracket(SolverFailure):
    """The shooting parameter could not be bracketed."""


class NoConvergence(SolverFailure):
    """The fixed-point solve failed to converge; carries the trace of (M, step)
    per step, fixed-point and Newton alike."""

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
    cgn: float  # weinstein_quotient(profile, params), as gn_maximality_probe evaluates its mixtures
    method: str
    residual: float
    # classifying shots (bracket + Brent), or fixed-point and Newton steps
    iterations: int


def _finalize(params, profile, method, residual, iterations) -> GroundState:
    me = Measures.of(profile, params.alpha, params.b)
    vals = np.real(profile.values)
    if np.any(vals <= 0):
        raise SolverFailure(f"{method}: profile is not strictly positive")
    if np.any(np.diff(vals) >= 0):
        raise SolverFailure(f"{method}: profile is not strictly decreasing")
    if not math.isfinite(residual):
        raise SolverFailure(f"{method}: residual {residual} is not finite")
    energy = me.energy(params.alpha)
    if validate_scope(params).mass_supercritical and not energy > 0:
        # for s_c > 0, EGS gives E(Q) = alpha s_c ||grad Q||^2 / (N alpha + 2b) > 0
        g = profile.grid
        raise SolverFailure(
            f"{method}: E(Q) = {energy} is not positive on the grid J={g.J}, h={g.h}, which does not resolve Q"
        )
    return GroundState(
        params=params,
        profile=profile,
        mass2=me.mass,
        grad2=me.grad2,
        potential=me.potential,
        energy=energy,
        cgn=weinstein_quotient(profile, params),
        method=method,
        residual=residual,
        iterations=iterations,
    )


# ---------------------------------------------------------------------------
# shooting solver


# Frobenius series of the shot near r = 0.  With x = r^2 and y = r^{2-b},
# Q = sum c_ij x^i y^j solves Lap Q = Q - r^{-b} Q^{alpha+1} term by term.
# The c_ij carry a^{1+alpha j}, so they are stored as a * g_ij and y is read as
# z = a^alpha y: then every g_ij depends on (N, alpha, b) only and no power of
# a can overflow.
_SERIES_DEGREE = 12  # K: the series keeps the terms of total degree i + j <= K
_SERIES_TOL = 1e-16  # the omitted shell i + j = K + 1 is below this times a at r_s


@functools.lru_cache(maxsize=16)
def _unit_series(N, alpha, b):
    """(i, j, g) of Q/a = sum g_ij x^i z^j through total degree K + 1.

    With e_ij = 2i + (2-b)j the exponent of r, Lap r^e = e(e+N-2) r^{e-2}
    and r^{-b} y^j = y^{j+1}/r^2 give g_ij e(e+N-2) = g_{i-1,j} - p_{i,j-1},
    where p are the coefficients of (Q/a)^{alpha+1}.  The Euler operator
    r d/dr multiplies x^i z^j by e_ij, and (Q/a) r(P)' = (alpha+1) P r(Q/a)'
    gives the power recurrence
    p_m = sum_{0 < k <= m} g_k p_{m-k} ((alpha+1) e_k - e_{m-k}) / e_m.
    A shell of degree d needs g of degree d - 1 and p of degree <= d, so the
    shells are filled in order of degree.
    """
    g, p, e = {(0, 0): 1.0}, {(0, 0): 1.0}, {(0, 0): 0.0}
    for d in range(1, _SERIES_DEGREE + 2):
        shell = [(i, d - i) for i in range(d, -1, -1)]
        for i, j in shell:
            e[i, j] = ei = 2 * i + (2 - b) * j
            g[i, j] = (g.get((i - 1, j), 0.0) - p.get((i, j - 1), 0.0)) / (ei * (ei + N - 2))
        for m1, m2 in shell:
            total = 0.0
            for k1 in range(m1 + 1):
                for k2 in range(m2 + 1):
                    if k1 or k2:
                        rest = (m1 - k1, m2 - k2)
                        total += g[k1, k2] * p[rest] * ((alpha + 1) * e[k1, k2] - e[rest])
            p[m1, m2] = total / e[m1, m2]
    tables = (*(np.array(idx) for idx in zip(*g)), np.array(list(g.values())))
    for table in tables:
        table.setflags(write=False)  # shared by every caller of the cache
    return tables


class _Series(NamedTuple):
    """Q = sum a g_ij r^{2i} (lam r)^{(2-b)j} through degree K, lam = a^{alpha/(2-b)}."""

    a: float
    lam: float
    g: np.ndarray
    ex: np.ndarray  # 2i
    ey: np.ndarray  # (2-b)j
    r_s: float  # the shot starts here

    def __call__(self, r):
        """(Q, Q') at the radii r > 0."""
        r = np.asarray(r, dtype=float)[..., None]
        terms = self.a * self.g * r**self.ex * (self.lam * r) ** self.ey
        return terms.sum(axis=-1), ((self.ex + self.ey) * terms).sum(axis=-1) / r[..., 0]


def _series(a, params) -> _Series:
    """The series of the shot with center value a, and its start radius r_s.

    r_s is the largest radius at which each of the K + 2 omitted terms of
    degree K + 1 is at most _SERIES_TOL * a / (K + 2), so the first omitted
    shell is below _SERIES_TOL * a: a g r^{2i} (lam r)^{(2-b)j} <= that bound
    solves for r in closed form, and r_s is the smallest of those radii.
    """
    b = params.b
    i, j, g = _unit_series(params.N, params.alpha, b)
    lam = a ** (params.alpha / (2 - b))
    ex, ey = 2 * i, (2 - b) * j
    kept, omitted = i + j <= _SERIES_DEGREE, i + j > _SERIES_DEGREE
    bound = _SERIES_TOL / ((_SERIES_DEGREE + 2) * np.abs(g[omitted]))
    e = ex[omitted] + ey[omitted]
    r_s = float(np.min(bound ** (1 / e) * lam ** (-ey[omitted] / e)))
    return _Series(a, lam, g[kept], ex[kept], ey[kept], r_s)


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
# A classifying shot stops as "not cross" once E < -_ENERGY_MARGIN q^2 at
# q > 0.  Where E < 0 each term of E is below q^2/2, and the integrator's
# error in E is near _RTOL q^2 (_ATOL q where q is tiny), so the margin leaves
# orders of magnitude of room.  It costs next to nothing: a shot that turns
# back above the axis has E near -q^2/2 at its turn (E = -2AB for
# q = A e^{-r} + B e^{r}), and margins from 1e-1 to 1e-9 stopped a one-ulp
# bisection at each reference point after the same DOP853 steps within 2%.
_ENERGY_MARGIN = 1e-3
# Every shot is integrated on (r_s, _R_SHOT].  Classifying shots exit before
# r = 20 at the reference points and at random scope points, and the final
# shot reaches the graft level near r = 10, so the bound only keeps a runaway
# shot finite; no grid sets it.
_R_SHOT = 64.0
# The compiled classifying shots' step cap: a shot to _R_SHOT takes a few
# hundred steps at these tolerances, so the cap only ends a runaway shot.
_MAX_STEPS = 100_000


def _shot_start(a, params):
    """Right-hand side, series, initial state at r_s and divergence cap 2a
    shared by every shot, so the classifying shots and the final dense shot
    cannot drift."""
    series = _series(a, params)
    q, dq = series(series.r_s)
    return _rhs(params), series, [float(q), float(dq)], 2.0 * a


def _exit_margin(a, params) -> float:
    """Signed exit margin of the shot with center value a: +W if it falls to
    q <= 0, else -W, with W = |r^{N-1}(q' k - q k')| at the step end r where
    it stopped and k = r^{-nu} K_nu(r), nu = N/2 - 1, the decaying tail mode.

    The shot is stepped by the compiled DOP853 of Hairer, Norsett and Wanner
    (Solving ODEs I, 1993) that scipy.integrate.ode wraps, about 4x faster
    than scipy's pure-Python DOP853 class.  Its solout callback stops it at
    the first step end with q <= 0 (crossing), with q >= 2a (the divergence
    cap) or with a negative energy certificate; otherwise it runs to _R_SHOT,
    or ends at a failed step (any negative return code), which stops a shot
    as quietly as an exit does.  The rule is checked at r_s first, since the
    compiled code also calls solout at the initial point and a stop there is
    a failure with a warning.  The shot builds no dense interpolant and calls
    no event function.  Along a shot the energy
    E = q'^2/2 - q^2/2 + r^{-b}|q|^{alpha+2}/(alpha+2) has
    dE/dr = -(N-1)q'^2/r - b r^{-b-1}|q|^{alpha+2}/(alpha+2) <= 0, and
    E = q'^2/2 >= 0 wherever q = 0, so a shot whose E is negative at q > 0
    never crosses: it stops there without integrating on.

    The sign is the shot's kind, so the margin brackets the center a* where
    it changes sign.  Its size is linear in a - a*: near a* the shot is Q
    plus (a - a*) times a solution of the linearized equation, which leaves Q
    along the growing mode while Q and the nonlinear term decay, and the
    Wronskian W with the decaying mode k is constant along the linear
    equation.  So W is |a - a*| times one slope on both sides of a*, wherever
    the shot exits, and Brent's interpolation steps land close to a*; far
    from a*, where they would not help, brentq falls back to bisection steps
    and keeps the bracket.
    """
    from scipy.special import kv

    fun, series, y0, cap = _shot_start(a, params)
    N, alpha, b = params.N, params.alpha, params.b

    def exits(r, y):
        """-1 (stop) at a crossing, the cap or a negative energy, else 0."""
        q, dq = y
        if q <= 0 or q >= cap:
            return -1
        energy = 0.5 * (dq * dq - q * q) + r**-b * q ** (alpha + 2) / (alpha + 2)
        return -1 if energy < -_ENERGY_MARGIN * q * q else 0

    r, (q, dq) = series.r_s, y0
    if not exits(r, y0):
        solver = ode(fun).set_integrator("dop853", rtol=_RTOL, atol=_ATOL, nsteps=_MAX_STEPS)
        solver.set_solout(lambda r, y: exits(r, y.tolist()))
        solver.set_initial_value(y0, r)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a failed step ends the shot, as an exit does
            solver.integrate(_R_SHOT)
        # every exit but a crossing leaves the last step end at q > 0
        r, (q, dq) = solver.t, solver.y.tolist()
    nu = N / 2 - 1
    # r^{N-1} k = r^{nu+1} K_nu(r) and r^{N-1} k' = -r^{nu+1} K_{nu+1}(r)
    wronskian = abs(r ** (nu + 1) * (dq * kv(nu, r) + q * kv(nu + 1, r)))
    return wronskian if q <= 0 else -wronskian


def _final_shot(a, params, q_graft):
    """The shot at the center value a*, with its dense solution, and
    the series that stands in for it inside r_s.  It stops where q falls to
    q_graft, which every crossing shot passes first."""
    fun, series, y0, cap = _shot_start(a, params)

    def grafted(r, y):
        return y[0] - q_graft

    grafted.terminal = True
    grafted.direction = -1

    def diverged(r, y):
        return y[0] - cap

    diverged.terminal = True
    diverged.direction = 1

    sol = solve_ivp(
        fun,
        (series.r_s, _R_SHOT),
        y0,
        method="DOP853",
        rtol=_RTOL,
        atol=_ATOL,
        events=(grafted, diverged),
        dense_output=True,
    )
    return sol, series


def _bracket(params):
    """Find a_lo (does not cross) < a_hi (crosses zero); also returns the
    exit margins of the shots taken, keyed by center value."""
    margins = {}

    def crosses(a):
        margins[a] = _exit_margin(a, params)
        return margins[a] > 0

    a = 1.0
    if crosses(a):
        for _ in range(60):
            a_hi, a = a, a / 1.5
            if not crosses(a):
                return a, a_hi, margins
        raise NoBracket(f"no shot that stays positive found down to a={a}")
    for _ in range(60):
        a_lo, a = a, a * 1.5
        if crosses(a):
            return a_lo, a, margins
    raise NoBracket(f"no zero-crossing shot found up to a={a}")


# brentq's iteration cap, far above the 10-16 shots it takes at the reference points
_BRENT_MAXITER = 200


def _center(params):
    """The center value a* where the exit margin changes sign, by Brent's
    method on the bracket, and the number of distinct shots taken to find it.

    Margins are kept by center value, so Brent's opening evaluations at the
    bracket ends reuse the bracket's last two shots and no center value is
    shot twice."""
    from scipy.optimize import brentq

    a_lo, a_hi, margins = _bracket(params)

    def margin(a):
        if a not in margins:
            margins[a] = _exit_margin(a, params)
        return margins[a]

    try:
        center = brentq(
            margin,
            a_lo,
            a_hi,
            # stop within a few ulps of a*: the tightest rtol brentq accepts,
            # and an xtol that only has to be positive
            xtol=1e-300,
            rtol=4 * np.finfo(float).eps,
            maxiter=_BRENT_MAXITER,
        )
    except RuntimeError as exc:
        raise SolverFailure(
            f"shooting: no center value in [{a_lo}, {a_hi}] after {_BRENT_MAXITER} Brent steps"
        ) from exc
    return center, len(margins)


def solve_shooting(params: ModelParams, grid: RadialGrid) -> GroundState:
    """Shooting for the ground state, sampled onto `grid`."""
    from scipy.special import kv

    N = params.N
    center, shots = _center(params)
    # Graft the linearized decay tail C r^{-nu} K_nu(r), nu = N/2 - 1, where
    # the trajectory falls to tail_cut; past that point the shot at the center
    # is dominated by the separatrix error growing like e^{+r}.
    tail_cut = 1e-5
    nu = N / 2 - 1
    sol, series = _final_shot(center, params, tail_cut)
    if sol.t_events[0].size == 0:
        raise NoBracket(
            f"the shot at the center never fell to the graft level (center value {center})"
        )
    r_match = sol.t[-1]

    def q_of(r):
        return sol.sol(r)[0]

    def tail_shape(r):
        return r ** (1 - N / 2) * kv(nu, r)

    logder = sol.sol(r_match)[1] / q_of(r_match)
    if not (-1.5 < logder < -0.5):
        raise NoBracket(
            f"tail logarithmic derivative {logder:.3f} at r={r_match:.2f} is "
            "not in (-1.5, -0.5); the shot left the decaying separatrix"
        )
    c_tail = q_of(r_match) / tail_shape(r_match)

    def shot(r, k):
        """Q (k = 0) or Q' (k = 1) at the radii r > 0: the series inside r_s,
        the dense shot up to r_match and the grafted tail beyond."""
        r = np.asarray(r, dtype=float)
        out = np.empty_like(r)
        near, tail = r < series.r_s, r >= r_match
        body = ~(near | tail)
        out[near] = series(r[near])[k]
        if np.any(body):
            out[body] = sol.sol(r[body])[k]
        rt = r[tail]
        if k == 0:
            out[tail] = c_tail * tail_shape(rt)
        else:  # (r^{-nu} K_nu)' = -r^{-nu} K_{nu+1}
            out[tail] = -c_tail * rt ** (1 - N / 2) * kv(nu + 1, rt)
        return out

    profile = grid.field(shot(grid.nodes, 0))
    residual = shooting_residual(shot, params, grid, r_match)
    return _finalize(params, profile, "shooting", residual, shots)


def shooting_residual(shot, params, grid, r_match) -> float:
    """Finite-volume defect of the shot, weighted l2 over the grid cells
    inside r_match.

    shot(r, k) is Q (k = 0) or Q' (k = 1) on (0, r_match].  Per cell: flux
    difference of F = r^{N-1} Q' minus the cell integral of
    r^{N-1} (Q - r^{-b} Q^{alpha+1}), evaluated with Gauss quadrature and a
    Gauss-Jacobi rule for the r^{-b}-weighted part on the innermost cells,
    normalized by the cell weight.  For the exact solution this is zero; it
    measures the integrator defect (and inside r_s the series truncation),
    not the grid truncation error.  Cells past r_match hold the grafted
    linear tail, whose defect is the neglected r^{-b} Q^{alpha+1}, and are
    left out.  A grid with no cell inside r_match (h > r_match) measures
    nothing: the residual is the sum over no cells, 0.0.
    """
    from scipy.special import roots_jacobi, roots_legendre

    N, alpha, b = params.N, params.alpha, params.b
    j_max = min(grid.J, int(math.floor(r_match / grid.h)))
    if j_max == 0:
        return 0.0
    faces = grid.faces[: j_max + 1]
    xg, wg = roots_legendre(6)
    res = np.zeros(grid.J)
    flux = faces ** (N - 1) * shot(np.maximum(faces, 1e-12), 1)
    if N >= 2:
        flux[0] = 0.0
    mid = grid.nodes[:j_max]
    half = grid.h / 2
    rq = mid[:, None] + half * xg[None, :]
    qq = shot(rq, 0)
    s_lin = (wg[None, :] * rq ** (N - 1) * qq).sum(axis=1) * half
    s_pot = (wg[None, :] * rq ** (N - 1 - b) * qq ** (alpha + 1)).sum(axis=1) * half
    # first cell touches r = 0 where the r^{-b} weight is singular; redo its
    # source integral with a Gauss-Jacobi rule carrying weight r^{N-1-b}
    hi = faces[1]
    xj, wj = roots_jacobi(6, 0.0, float(N - 1 - b))  # weight (1+x)^{N-1-b}
    rj = hi * (1 + xj) / 2
    s_pot[0] = (hi / 2) ** (N - b) * np.sum(wj * shot(rj, 0) ** (alpha + 1))
    res[:j_max] = (flux[1 : j_max + 1] - flux[:j_max] - (s_lin - s_pot)) / (
        mid ** (N - 1) * grid.h
    )
    return math.sqrt(float(np.sum(grid.weights * res**2)))


# ---------------------------------------------------------------------------
# fixed-point solver


# The normalized iteration hands off to Newton steps once its step falls
# below this part of max(1, ||q||).  On 83 grids sampled across the scope,
# the first Newton step was rejected on none at 1e-3, on one at 3e-3 and
# 1e-2 and on twelve at 1e-1, each leaving the rest to the slower iteration.
_NEWTON_HANDOFF = 1e-3


def solve_fixedpoint(
    params: ModelParams,
    grid: RadialGrid,
    *,
    tol: float = 1e-12,
    max_iter: int = 500,
) -> GroundState:
    """Ground state of the discrete equation F(q) = -q + Lap q + r^{-b}|q|^alpha q = 0.

    The normalized fixed-point iteration, which converges only linearly,
    runs as a warm start until its step falls below _NEWTON_HANDOFF of
    max(1, ||q||); Newton steps on F finish the solve.  Each solves the
    tridiagonal Jacobian Lap - I + (alpha+1) r^{-b}|q|^alpha with LAPACK
    gttrf/gttrs.  The Jacobian is indefinite, so its factorization may
    interchange rows, which shifted_laplacian_solver refuses.  A Newton step
    whose factorization is singular, whose result is not finite or which
    does not lower ||F|| is rejected, and fixed-point steps finish the solve
    from where it stands.  Both kinds of step stop on one test: the step
    moved q by less than tol * max(1, ||q||).  max_iter caps the steps of
    both kinds together, and iterations and NoConvergence.trace count them
    all, each trace entry (M, step) with M the stabilizer at the iterate.
    """
    N, alpha, b = params.N, params.alpha, params.b
    # m scales like |Q|^{-alpha} and the source like |Q|^{alpha+1}, so the
    # power (alpha+1)/alpha is the one that makes the update homogeneous of
    # degree 0 in Q; power 1 leaves the amplitude free and diverges
    gamma = (alpha + 1) / alpha
    solve = shifted_laplacian_solver(grid, 1.0)  # (I - Lap)^{-1}
    gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), dtype=np.float64)
    lower, diag, upper = grid.laplacian
    r = grid.nodes
    w = grid.weights
    rb = r ** (-b)

    def norm(v):
        return math.sqrt(float(np.sum(w * v**2)))

    def residual_norm(q, lap, pot):
        """||F(q)||; an overflow reads inf, which every test refuses."""
        with np.errstate(over="ignore"):
            return norm(-q + lap + pot * q)

    def terms(q):
        """Lap q and r^{-b}|q|^alpha, whose product with q is the source."""
        return laplacian_radial(grid.field(q)).values, rb * np.abs(q) ** alpha

    def newton(q, lap, pot):
        """The Newton step from q with its terms, or None where it is rejected."""
        dl, d, du, du2, ipiv, info = gttrf(lower, diag - 1 + (alpha + 1) * pot, upper)
        if info != 0:
            return None
        dq, info = gttrs(dl, d, du, du2, ipiv, q - lap - pot * q)
        q_next = q + dq
        if info != 0 or not np.all(np.isfinite(q_next)):
            return None
        lap_next, pot_next = terms(q_next)
        if not residual_norm(q_next, lap_next, pot_next) < residual_norm(q, lap, pot):
            return None
        return q_next, lap_next, pot_next

    q = np.exp(-(r**2)) * 2.0
    lap, pot = terms(q)
    # "warm" until a step falls below the handoff, then "newton"; "fixed"
    # once a Newton step is rejected
    stage = "warm"
    trace = []
    for _ in range(max_iter):
        f = pot * q
        num = float(np.sum(w * (q - lap) * q))
        den = float(np.sum(w * f * q))
        if den <= 0:
            raise NoConvergence("nonlinear term lost positivity", trace)
        m = num / den
        step = newton(q, lap, pot) if stage == "newton" else None
        if step is None:
            if stage == "newton":
                stage = "fixed"
            q_next = m**gamma * solve(f)
            lap_next, pot_next = terms(q_next)
        else:
            q_next, lap_next, pot_next = step
        dist = norm(q_next - q)
        trace.append((m, dist))
        q, lap, pot = q_next, lap_next, pot_next
        scale = max(1.0, norm(q))
        if dist < tol * scale:
            break
        if stage == "warm" and dist < _NEWTON_HANDOFF * scale:
            stage = "newton"
    else:
        raise NoConvergence(f"no convergence after {max_iter} iterations", trace)
    return _finalize(params, grid.field(q), "fixedpoint", residual_norm(q, lap, pot), len(trace))


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
    """P(u) / (||grad u||^{(N a + 2b)/2} ||u||^{(4 - 2b - a(N-2))/2}).

    P has degree a + 2, the sum of the exponents, so the quotient does not change
    under u -> c u; it is evaluated on u / max|u|, which keeps every term in range.
    """
    N, alpha, b = params.N, params.alpha, params.b
    m = np.max(np.abs(u.values)) or 1.0  # u = 0 has quotient 0
    me = Measures.of(u.grid.field(u.values / m), alpha, b)
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
