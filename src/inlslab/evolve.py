"""Time integration of i u_t + Lap u + r^{-b} |u|^alpha u = 0 on radial grids.

Strang splitting: the pure nonlinear subflow conserves |u| pointwise, so its
flow over time tau is the exact phase rotation
P_tau v = v exp(i tau r^{-b} |v|^alpha); the linear step L is trapezoidal
(Crank-Nicolson) with the weighted-self-adjoint discrete Laplacian, which
makes every step exactly unitary in the weighted inner product.  With
A = I - (i dt/2) Lap and B = I + (i dt/2) Lap = 2I - A, the step A^{-1} B w
is taken in its Cayley form 2 A^{-1} w - w: one solve with the grid's
factored A, whose pivot scaling carries the factor 2, and one subtraction,
with no product by B.  Mass is conserved to solver round-off and energy
drift, measured with the Laplacian's quadratic form as gradient, is O(dt^2).

Because P_tau keeps |v| fixed, P_{dt/2} P_{dt/2} = P_dt, so n Strang steps
(P_{dt/2} L P_{dt/2})^n equal P_{-dt/2} (P_dt L)^n P_{dt/2}.  The run loop
therefore advances the staggered field w = P_{dt/2} v with one phase
rotation and one linear solve per step, and un-staggers with P_{-dt/2} only
where the physical field v is needed: at the records and at the end.

A dispersing Gaussian underflows to exact zeros past r ~ 27 widths, and a
solve over those zeros would run its geometric tail down through the
subnormal range, where arithmetic is slow.  So a field whose last node has
modulus below T = 2^-600 steps on its support only: the leading n nodes, n
being the last node with a part of magnitude >= T/2 plus a margin of 32,
are solved with the leading n x n block of A and rotated, and every node
past the new support is written as an exact zero.  That is Crank-Nicolson
with u_n = 0, unitary as before, and a node below T adds exactly 0 to any
|u|^2 sum.  A field with a resolved tail (its last node >= T) steps on the
whole grid exactly as it would without the window, bit for bit.

The module also evaluates the localized virial quantities z_R, z'_R and the
four-term direct expression for z''_R, plus the rigidity lower bound
z''_R >= 8 A E[u] - (exterior remainder budget).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize import minimize_scalar

from .grid import (
    Measures,
    NumericalFailure,
    RadialField,
    RadialGrid,
    _support,
    radial_derivative,
    shifted_laplacian_solver,
    support_power,
)
from .params import ModelParams

_DT_SAFETY = 100.0  # stability is unconditional; dt <= _DT_SAFETY h^2 caps the splitting error
_BOUNDARY_SHELL = 0.03  # outer fraction of the domain whose mass counts as leaked
_BUDGET_FRACTION = 0.5  # initial exterior budget share of the rigidity bound that makes R too small
_DECAY_FRACTION = 0.05  # final/initial potential ratio below which a run counts as decayed
_TAIL = 2.0**-600  # a node of modulus below this adds exactly 0 to any |u|^2 sum
_MARGIN = 32  # nodes past the support that a windowed step solves on

# the classifier verdicts of data strictly below the ground-state threshold
BELOW_THRESHOLD = ("GlobalScatters", "GlobalOnly")


class LinearSolveFailure(NumericalFailure):
    """The linear step was singular or produced non-finite values."""


class BoundaryLeak(NumericalFailure):
    """Mass reached the outer boundary beyond the configured budget."""


class GradientBoundViolation(NumericalFailure):
    """A below-threshold run exceeded the uniform gradient bound."""


@dataclass(frozen=True)
class EvolutionConfig:
    params: ModelParams
    J: int
    h: float
    dt: float
    t_end: float
    record_every: int = 10
    virial_R: float | None = None
    linear_only: bool = False
    boundary_budget: float = 1e-6

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (math.isfinite(self.t_end) and self.t_end > 0):
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        if self.n_steps < 1:
            raise ValueError(f"t_end={self.t_end} rounds to zero steps of dt={self.dt}")
        if self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")
        r_max = self.J * self.h
        if self.virial_R is not None and not (0 < self.virial_R < r_max / 2):
            raise ValueError(
                f"virial_R must lie in (0, {r_max / 2}) so the cutoff fits, "
                f"got {self.virial_R}"
            )
        if self.dt > _DT_SAFETY * self.h**2:
            raise ValueError(
                f"dt={self.dt} exceeds the accuracy budget "
                f"{_DT_SAFETY} * h^2 = {_DT_SAFETY * self.h**2}"
            )

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


@dataclass(frozen=True)
class EvolutionTrace:
    config: EvolutionConfig
    times: np.ndarray
    mass_series: np.ndarray
    energy_series: np.ndarray
    grad_series: np.ndarray
    potential_series: np.ndarray
    gm_product_series: np.ndarray
    zR_series: np.ndarray
    zR_prime_series: np.ndarray
    zR_second_direct_series: np.ndarray
    ext_budget_series: np.ndarray
    final_field: RadialField


# trace.csv's columns in order, each with the EvolutionTrace series that holds it
TRACE_COLUMNS = {
    "t": "times",
    "mass": "mass_series",
    "energy": "energy_series",
    "grad2": "grad_series",
    "potential": "potential_series",
    "gm_product": "gm_product_series",
    "zR": "zR_series",
    "zR_prime": "zR_prime_series",
    "zR_second": "zR_second_direct_series",
    "ext_budget": "ext_budget_series",
}


class Evolver:
    """Factorized Strang stepper bound to one (grid, params, dt) triple.

    step_values advances the staggered field w = P_{dt/2} v; stagger and
    unstagger convert between v and w.  Its linear step is the Cayley form
    L w = 2 A^{-1} w - w of Crank-Nicolson, A = I - (i dt/2) Lap, with the
    2 folded into the factored solve.  For linear_only the phase rotation
    P is the identity.  A field whose last node has modulus below _TAIL
    steps on its support only, as the module docstring describes.
    """

    def __init__(self, grid: RadialGrid, params: ModelParams, dt: float, linear_only=False):
        self.grid = grid
        self.params = params
        self.dt = dt
        self.linear_only = linear_only
        try:
            self._solve2 = shifted_laplacian_solver(grid, 1j * dt / 2, 2.0)  # 2 A^{-1}
        except np.linalg.LinAlgError as exc:
            raise LinearSolveFailure(str(exc)) from exc
        rb = grid.nodes ** (-params.b)
        self._phase = dt * rb
        self._half_phase = (dt / 2) * rb

    def _rotate(self, v: np.ndarray, coef: np.ndarray) -> np.ndarray:
        """P_tau v for coef = tau r^{-b}.

        e^{i theta}, theta = coef |v|^alpha, is written as cos theta and
        sin theta into the real and imaginary parts of one buffer, which takes
        a third less time than np.exp of the complex array 1j * theta.  For
        finite nonzero coef the result is v * np.exp(1j * coef * |v|^alpha)
        bit for bit, signed zeros and subnormals included: numpy's complex exp
        of 0 + i theta is cos theta + i sin theta, and v * e keeps the
        operand order of that formula (an in-place e *= v gave other bits).
        """
        if self.linear_only:
            return v
        theta = coef * np.abs(v) ** self.params.alpha
        e = np.empty(v.shape, dtype=complex)
        np.cos(theta, out=e.real)
        np.sin(theta, out=e.imag)
        return v * e

    def stagger(self, v: np.ndarray) -> np.ndarray:
        """w = P_{dt/2} v."""
        return self._rotate(v, self._half_phase)

    def unstagger(self, w: np.ndarray) -> np.ndarray:
        """v = P_{-dt/2} w."""
        return self._rotate(w, -self._half_phase)

    def step_values(self, w: np.ndarray) -> np.ndarray:
        """One step of the staggered field: P_dt(L w), on w's support only
        where its last node is below _TAIL (a NaN there is not).

        Raises LinearSolveFailure when L w holds a NaN or an infinity, or
        when its squared norm overflows.
        """
        if abs(w.item(-1)) < _TAIL:  # item: a Python scalar tests faster than a numpy one
            return self._step_window(w)
        w = self._solve2(w) - w
        if not math.isfinite(np.vdot(w, w).real):
            raise LinearSolveFailure("linear step produced non-finite values")
        return self._rotate(w, self._phase)

    def _step_window(self, w: np.ndarray) -> np.ndarray:
        """P_dt(L w) on w's support plus _MARGIN nodes, exact zeros past
        the support of L w.

        The margin keeps the sweeps' values normal: _TAIL rho^32 is normal
        for dt/h^2 >= 1e-3, rho being the sweeps' decay per node.  The
        window doubles while L w reaches _TAIL at its last node.
        """
        J = w.size
        n = _support(w, _TAIL / 2) + _MARGIN
        while n < J:
            x = self._solve2(w[:n]) - w[:n]
            if abs(x[-1]) < _TAIL:
                break
            n *= 2
        else:
            x = self._solve2(w) - w
        if not math.isfinite(np.vdot(x, x).real):
            raise LinearSolveFailure("linear step produced non-finite values")
        m = _support(x, _TAIL / 2)  # every node past m has modulus below _TAIL
        out = np.zeros(J, dtype=complex)
        out[:m] = self._rotate(x[:m], self._phase[:m])
        return out


# ---------------------------------------------------------------------------
# virial cutoff

# phi(s) = s^2 for s <= 1, a C^3 blend on [1, 2] with a quadruple root at
# s = 2, 0 for s >= 2.  The blend is the degree-7 polynomial matching
# (phi, phi', phi'', phi''') = (1, 2, 2, 0) at s = 1 and (0, 0, 0, 0) at
# s = 2; it stays positive on (1, 2).  C^3 matters: with only a C^2 cutoff
# the distributional bi-Laplacian of phi picks up surface terms at the
# junctions from the jump of phi''', and the classical formula used below
# would miss them whenever the solution has mass near s = 1 or s = 2.
_PHI_POLY = np.array([44.0, -465.0, 2060.0, -4950.0, 6960.0, -5728.0, 2560.0, -480.0])
_PHI_CORE = np.array([1.0, 0.0, 0.0])  # s^2


def _blend(s, k):
    """The k-th derivative of the blend polynomial at s, on any s."""
    return np.polyval(np.polyder(_PHI_POLY, k), s)


def phi(s, k=0):
    """The k-th derivative of the cutoff at s."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    core = s <= 1.0
    mid = (s > 1.0) & (s < 2.0)
    out[core] = np.polyval(np.polyder(_PHI_CORE, k), s[core])
    out[mid] = _blend(s[mid], k)
    return out


def _phi_laplacian(s, N, f=phi):
    """(Lap f)(s) = f'' + (N-1) f'/s for the radial profile whose k-th
    derivative at s is f(s, k): the cutoff phi, or its blend polynomial."""
    return f(s, 2) + (N - 1) * f(s, 1) / s


def _phi_bilaplacian(s, N, f=phi):
    """Radial bi-Laplacian at s of the profile f, as in _phi_laplacian."""
    return (
        f(s, 4)
        + 2 * (N - 1) * f(s, 3) / s
        + (N - 1) * (N - 3) * f(s, 2) / s**2
        - (N - 1) * (N - 3) * f(s, 1) / s**3
    )


@functools.cache
def _phi_deviation_constants(N):
    """Sup over s > 1 of the cutoff's deviation from the pure-quadratic phi.

    Used to convert exterior integrals into a remainder budget.  Each is the
    maximum over the closed [1, 2] of a deviation of the blend B: s = 1 gives
    the limits at 1+, where c_bilap = |B^(4)(1)| = 2040 (B matches s^2 to
    third order), and s = 2 the deviations 2, 2N and 2 of phi = 0 on s >= 2.
    """
    s = np.linspace(1.0, 2.0, 4001)

    def sup(deviation):
        # the largest sample, refined between its two neighbours: the samples
        # alone fall short of an interior maximum by up to 3e-7, relative
        values = deviation(s)
        i = int(np.argmax(values))
        bounds = (s[max(i - 1, 0)], s[min(i + 1, s.size - 1)])
        peak = minimize_scalar(lambda x: -deviation(x), bounds=bounds, method="bounded", options={"xatol": 1e-12})
        return max(float(values[i]), -float(peak.fun))

    c_hess = sup(lambda x: np.abs(_blend(x, 2) - 2.0))
    c_bilap = sup(lambda x: np.abs(_phi_bilaplacian(x, N, _blend)))
    c_lap = sup(lambda x: np.abs(_phi_laplacian(x, N, _blend) - 2 * N))
    c_grad = sup(lambda x: np.abs(_blend(x, 1) - 2 * x) / x)
    return c_hess, c_bilap, c_lap, c_grad


class _VirialTables(NamedTuple):
    """Quadrature weight times each cutoff factor of virial_series, on one (grid, R)."""

    phi: np.ndarray  # w phi(r/R)
    d1: np.ndarray  # w phi'(r/R)
    d2: np.ndarray  # w phi''(r/R)
    bilap: np.ndarray  # w (Lap^2 phi)(r/R)
    lap: np.ndarray  # w (Lap phi)(r/R)
    t4: np.ndarray  # -b w r^{-b-1} phi'(r/R)
    r_b: np.ndarray  # r^{-b}
    ext: int  # first node with r > R


@functools.lru_cache(maxsize=8)
def _virial_tables(grid: RadialGrid, b: float, R: float) -> _VirialTables:
    """The cutoff tables of one (grid, b, R); read-only, since the cache shares them."""
    N, r, w = grid.N, grid.nodes, grid.weights
    s = r / R
    d1 = phi(s, 1)
    tables = _VirialTables(
        phi=w * phi(s),
        d1=w * d1,
        d2=w * phi(s, 2),
        bilap=w * _phi_bilaplacian(s, N),
        lap=w * _phi_laplacian(s, N),
        t4=w * (-b) * r ** (-b - 1) * d1,
        r_b=r ** (-b),
        ext=int(np.searchsorted(r, R, side="right")),
    )
    for table in tables[:-1]:
        table.setflags(write=False)
    return tables


def virial_series(u: RadialField, params: ModelParams, R: float, *, absv2=None, vpow=None) -> dict:
    """z_R, z'_R, the four-term direct z''_R and the exterior budget at one time slice.

    absv2 and vpow, when given, are |u|^2 and |u|^{alpha+2} as the caller
    already evaluated them; the cutoff tables are cached per (grid, b, R).

    The integrands use the centered radial_derivative, not the face
    differences of grad_norm_sq_form, so that z''_R stays the time derivative
    of the discrete z'_R: face differences raise the acceptance suite's chain
    constants from 5.28/6.55 to 23.89/28.44, above their bound of 10.

    ext_budget bounds |z''_R - (8 |grad u|^2 - 4(N alpha + 2b)/(alpha+2) P)|:
    every deviation of the cutoff from phi = s^2 lives in r > R, so the gap is
    bounded by the deviation constants times exterior integrals of
    |grad u|^2, |u|^2 / R^2 and the potential density.
    """
    grid = u.grid
    N, alpha, b = params.N, params.alpha, params.b
    tab = _virial_tables(grid, b, R)
    v = u.values
    if absv2 is None or vpow is None:
        absv = np.abs(v)
        absv2, vpow = absv**2, support_power(absv, alpha + 2)
    pot_density = tab.r_b * vpow
    du = radial_derivative(u)
    du2 = np.abs(du) ** 2

    zR = R**2 * float(np.sum(tab.phi * absv2))
    zR_prime = 2 * R * float(np.sum(tab.d1 * np.imag(du * np.conj(v))))
    t1 = 4 * float(np.sum(tab.d2 * du2))
    t2 = -(1 / R**2) * float(np.sum(tab.bilap * absv2))
    t3 = -(2 * alpha / (alpha + 2)) * float(np.sum(tab.lap * pot_density))
    t4 = (4 * R / (alpha + 2)) * float(np.sum(tab.t4 * vpow))

    c_hess, c_bilap, c_lap, c_grad = _phi_deviation_constants(N)
    wm = grid.weights[tab.ext:]
    ext_grad = float(np.sum(wm * du2[tab.ext:]))
    ext_mass = float(np.sum(wm * absv2[tab.ext:]))
    ext_pot = float(np.sum(wm * pot_density[tab.ext:]))
    ext_budget = (
        4 * c_hess * ext_grad
        + c_bilap * ext_mass / R**2
        + (2 * alpha / (alpha + 2)) * c_lap * ext_pot
        + (4 * b / (alpha + 2)) * c_grad * ext_pot
    )
    return {"zR": zR, "zR_prime": zR_prime, "zR_second_direct": t1 + t2 + t3 + t4,
            "ext_budget": ext_budget}


# ---------------------------------------------------------------------------
# the main run loop


def run(u0: RadialField, config: EvolutionConfig, threshold=None) -> EvolutionTrace:
    """Advance u0 to t_end, recording conservation and virial series.

    threshold, when given, is a ThresholdReport for u0; below-threshold runs
    then assert the uniform gradient bound at every recorded time.  The
    gradient entering the traces is the operator-consistent quadratic form,
    so its drift reflects the time discretization alone.  The run steps on
    u0's grid, whose (J, h, N) must be the configuration's.
    """
    params = config.params
    grid = u0.grid
    if (grid.J, grid.h, grid.N) != (config.J, config.h, params.N):
        raise ValueError("initial field grid does not match the configuration")
    alpha, b, s_c = params.alpha, params.b, params.s_c
    ev = Evolver(grid, params, config.dt, linear_only=config.linear_only)
    n_steps = config.n_steps

    enforce_gm = threshold is not None and threshold.verdict in BELOW_THRESHOLD
    records = []  # one tuple per record in TRACE_COLUMNS order, virial_series's keys last

    shell = int(np.searchsorted(grid.nodes, (1 - _BOUNDARY_SHELL) * grid.r_max))
    v = u0.values.astype(complex)

    def record(t, v):
        u = grid.field(v)
        absv = np.abs(v)
        absv2, vpow = absv**2, support_power(absv, alpha + 2)
        me = Measures.of(u, alpha, b, absv2=absv2, vpow=vpow)
        gm = me.gm_product(s_c) if 0 < s_c < 1 else math.nan
        vs = (
            virial_series(u, params, config.virial_R, absv2=absv2, vpow=vpow).values()
            if config.virial_R is not None else (math.nan,) * 4
        )
        records.append((t, me.mass, me.energy(alpha), me.grad2, me.potential, gm, *vs))
        if enforce_gm and not gm < threshold.gm_threshold:
            raise GradientBoundViolation(
                f"gm_product {gm} reached threshold {threshold.gm_threshold} at t={t}"
            )
        shell_mass = float(np.sum(grid.weights[shell:] * absv2[shell:]))
        mass0 = records[0][1]  # M[u] at t = 0
        leak = shell_mass / mass0 if mass0 > 0 else 0.0  # zero data leaks nothing
        if leak > config.boundary_budget:
            raise BoundaryLeak(
                f"outer-shell mass fraction {leak:.3e} exceeds budget "
                f"{config.boundary_budget:.3e} at t={t}"
            )

    # records un-stagger a copy of w; stepping always goes on from w itself
    record(0.0, v)
    w = ev.stagger(v)
    for n in range(1, n_steps + 1):
        w = ev.step_values(w)
        if n % config.record_every == 0 or n == n_steps:
            v = ev.unstagger(w)
            record(n * config.dt, v)

    series = dict(zip(TRACE_COLUMNS.values(), map(np.asarray, zip(*records))))
    return EvolutionTrace(config=config, final_field=grid.field(v), **series)


# ---------------------------------------------------------------------------
# post-run reports


@dataclass(frozen=True)
class RigidityReport:
    holds: bool
    r_too_small: bool
    lower_bound: float
    min_slack: float
    max_budget: float
    integrated_holds: bool
    A: float
    energy: float


def rigidity_check(trace: EvolutionTrace, threshold) -> RigidityReport:
    """z''_R >= 8 A E[u] - budget(t) pointwise, plus the integrated form.

    The budget grows once the dispersing solution crosses the cutoff, which
    is the estimate doing its job; vacuity is judged at t = 0 instead:
    r_too_small flags a cutoff whose initial exterior budget already eats
    _BUDGET_FRACTION (one half) of the lower bound, and the check then
    refuses to certify rather than pass trivially.
    """
    if threshold.verdict not in BELOW_THRESHOLD:
        raise ValueError(
            f"rigidity bound needs below-threshold data, verdict is {threshold.verdict}"
        )
    if trace.config.virial_R is None:
        raise ValueError("trace was recorded without a virial cutoff radius")
    A = threshold.A
    e = threshold.energy
    bound = 8 * A * e
    budget = trace.ext_budget_series
    max_budget = float(np.max(budget))
    r_too_small = bool(budget[0] >= _BUDGET_FRACTION * bound > 0)
    slack = trace.zR_second_direct_series - (bound - budget)
    min_slack = float(np.min(slack))
    holds = bool(np.all(slack >= 0)) and not r_too_small
    t = trace.times
    zp = trace.zR_prime_series
    # integrate the budget alongside the bound: z'_R gains at least
    # bound * t minus the accumulated remainder
    acc = np.concatenate([[0.0], np.cumsum(0.5 * (budget[1:] + budget[:-1]) * np.diff(t))])
    integrated = bool(
        np.all(zp - zp[0] >= bound * t - acc - 1e-9 * (1 + np.abs(t)))
    )
    return RigidityReport(
        holds=holds,
        r_too_small=r_too_small,
        lower_bound=bound,
        min_slack=min_slack,
        max_budget=max_budget,
        integrated_holds=integrated,
        A=A,
        energy=e,
    )


@dataclass(frozen=True)
class DiagnosticReport:
    decayed: bool
    final_fraction: float
    decay_exponent: float
    grad_limit: float
    grad_flat: bool


def scattering_diagnostic(trace: EvolutionTrace) -> DiagnosticReport:
    """Potential-decay proxy for scattering, with a power-law tail fit."""
    pot = trace.potential_series
    t = trace.times
    final_fraction = float(pot[-1] / pot[0]) if pot[0] > 0 else 0.0
    tail = t > 0.5 * t[-1]
    if np.count_nonzero(tail) >= 3 and np.all(pot[tail] > 0):
        slope = np.polyfit(np.log(t[tail]), np.log(pot[tail]), 1)[0]
    else:
        slope = math.nan
    quarter = t > 0.75 * t[-1]
    grad_tail = np.sqrt(trace.grad_series[quarter])
    grad_limit = float(np.mean(grad_tail))
    spread = float(np.ptp(grad_tail)) / max(grad_limit, 1e-300)
    return DiagnosticReport(
        decayed=final_fraction < _DECAY_FRACTION,
        final_fraction=final_fraction,
        decay_exponent=float(slope),
        grad_limit=grad_limit,
        grad_flat=spread < 0.05,
    )
