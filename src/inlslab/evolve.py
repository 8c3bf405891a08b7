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
modulus below T steps on its support only: the leading n nodes, n being the
last node with a part of magnitude >= T/2 plus a margin of 32, are solved
with the leading n x n block of A and rotated, and every node past the new
support is an exact zero.  That is Crank-Nicolson with u_n = 0, unitary as
before.  T = 2^-290 (M0 / sum w)^(1/2) is fixed once per evolver
from the datum's mass M0, sum w being the sum of the grid weights, so the
window sits at the same depth below every datum's scale: each dropped node
has parts below T/2, and all of them together add less than 2^-580 M0 to
any |u|^2 sum whose weights are at most the grid's.  On the README datum
T is about 2^-300.5.  Where M0 is not a positive finite number (zero data,
or a mass that overflows) T is 0 and every step takes the whole grid.  The
windowed rotation evaluates cos and sin only up to the last node where
theta >= 2^-27: below that angle cos theta rounds to 1 and sin theta to
theta, so it writes 1 and theta there, the same bits; the un-stagger
rotates the same way, writing 1 and -theta.  A field with a resolved tail
(its last node >= T) steps on the whole grid exactly as it would without
the window, bit for bit.

A windowed step returns its support alone: the leading m nodes of the
new field, m being its last node with a part of magnitude >= T/2, and
step_values reads any w shorter than the grid as +0 past w.size.  So the
run loop holds the staggered field as that prefix, and its length is the
node from which the field is exact zeros.  A step given such a prefix
reads its support as w.size itself where the last node still has a part
>= T/2 after the rotation, and searches the prefix otherwise; the input is
padded with +0 to the solve's n nodes, and the Cayley w subtracted on its
own length, which is the zero-tailed field's step bit for bit.  Un-staggering
rotates the prefix and writes +0 past it, which is what the rotation of a
zero node gives.  The support search itself looks at the last 64 nodes
first, where a windowed step's answer lies, before it scans the rest.

run records the un-staggered field with m = w.size: every elementwise
term of a record (|u|, |u|^{alpha+2}, the face differences, the radial
derivative and the z'_R cross term) is formed on the leading nodes only and
written into a zero-filled array of the whole grid's length, the support
keyword of Measures.of, grad_norm_sq_form, radial_derivative and
virial_series.  Each np.sum then sees the array the whole-grid call would
build, entry for entry, and returns its bits.  Summing the prefix alone
would not: numpy sums pairwise, splitting at halves of the length rounded
to blocks of 8, so the length sets the order of the additions and a
shorter array rounds differently.

The module also evaluates the localized virial quantities z_R, z'_R and the
four-term direct expression for z''_R, plus the rigidity lower bound
z''_R >= 8 A E[u] - (exterior remainder budget).

The exterior budget's four cutoff constants are suprema of rational
functions on [1, 2], located on samples and refined in exact rationals
(_phi_deviation_constants), so no optimizer is imported for them: a run
with a virial radius loads scipy.linalg and scipy.special alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .grid import (
    Measures,
    NumericalFailure,
    RadialField,
    RadialGrid,
    _leading,
    _moduli,
    _support,
    radial_derivative,
    shifted_laplacian_solver,
)
from .params import ModelParams

_DT_SAFETY = 100.0  # stability is unconditional; dt <= _DT_SAFETY h^2 caps the splitting error
_BOUNDARY_SHELL = 0.03  # outer fraction of the domain whose mass counts as leaked
_BUDGET_FRACTION = 0.5  # initial exterior budget share of the rigidity bound that makes R too small
_DECAY_FRACTION = 0.05  # final/initial potential ratio below which a run counts as decayed
_TAIL_DEPTH = 2.0**-290  # the window threshold T over the datum's rms amplitude (M0 / sum w)^(1/2)
_MARGIN = 32  # nodes past the support that a windowed step solves on
_SMALL_ANGLE = 2.0**-27  # below it cos rounds to 1 and sin to its argument

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
    P is the identity.  A field shorter than the grid, or whose last node
    has modulus below T = 2^-290 (mass / sum w)^(1/2), steps on its support
    only and comes back as its new support, the leading nodes up to its
    last part >= T/2; unstagger returns the whole grid's field, +0 past w.
    mass is the mass of the datum the evolver will step (1.0 where it is
    not given); where it is not a positive finite number, or T overflows,
    T is 0 and every whole-grid field steps on the whole grid.
    """

    def __init__(self, grid: RadialGrid, params: ModelParams, dt: float, linear_only=False,
                 mass=1.0):
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
        tail = _TAIL_DEPTH * math.sqrt(mass / float(np.sum(grid.weights))) if mass > 0 else 0.0
        self._tail = tail if math.isfinite(tail) else 0.0  # T; 0 steps the whole grid

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

    def _rotate_window(self, x: np.ndarray, coef: np.ndarray, out: np.ndarray, inverse=False) -> None:
        """out = P_tau x for coef = |tau| r^{-b}, tau < 0 where inverse: the
        bits of _rotate(x, -coef if inverse else coef), with cos and sin
        evaluated only up to the last node where theta = coef |x|^alpha is
        >= _SMALL_ANGLE.  Past it cos(+-theta) rounds to 1 and sin(+-theta)
        to +-theta, which are written instead.  The inverse rotation negates
        theta before cos and sin, since (-c) y is -(c y) bit for bit.  out
        may be x itself."""
        theta = coef * np.abs(x) ** self.params.alpha
        k = _leading(theta, _SMALL_ANGLE)
        if inverse:
            np.negative(theta, out=theta)
        e = np.empty(x.size, dtype=complex)
        np.cos(theta[:k], out=e.real[:k])
        np.sin(theta[:k], out=e.imag[:k])
        e.real[k:] = 1.0
        e.imag[k:] = theta[k:]
        np.multiply(x, e, out=out)

    def stagger(self, v: np.ndarray) -> np.ndarray:
        """w = P_{dt/2} v."""
        return self._rotate(v, self._half_phase)

    def unstagger(self, w: np.ndarray) -> np.ndarray:
        """v = P_{-dt/2} w on the whole grid, w read as +0 past w.size: the
        bits of _rotate(w, -dt/2 r^{-b}) of the zero-padded w, complex.

        The rotation is the windowed step's small-angle one: cos and sin
        only up to the last node where the angle is >= _SMALL_ANGLE, 1 and
        the (negative) angle past it.  Only w's own nodes are rotated, and
        +0 is written past them: P of a zero node is (0 + 0i)(1 - 0i) = +0.
        """
        m = w.size
        v = np.zeros(self.grid.J, dtype=complex)
        if self.linear_only:
            v[:m] = w
        else:
            self._rotate_window(w, self._half_phase[:m], v[:m], inverse=True)
        return v

    def step_values(self, w: np.ndarray) -> np.ndarray:
        """One step of the staggered field: P_dt(L w), w read as +0 past
        w.size.

        A w shorter than the grid, or whose last node is below the
        evolver's T (a NaN there is not), steps on its support only and
        returns the leading nodes of the new field up to its last part
        >= T/2; any other w steps on the whole grid.

        Raises LinearSolveFailure when L w holds a NaN or an infinity, or
        when its squared norm overflows.
        """
        # item: a Python scalar tests faster than a numpy one
        if w.size < self.grid.J or abs(w.item(-1)) < self._tail:
            return self._step_window(w)
        w = self._solve2(w) - w
        if not math.isfinite(np.vdot(w, w).real):
            raise LinearSolveFailure("linear step produced non-finite values")
        return self._rotate(w, self._phase)

    def _step_window(self, w: np.ndarray) -> np.ndarray:
        """P_dt(L w) on w's support plus _MARGIN nodes, cut to the support
        of L w.

        The margin keeps the sweeps' values normal: rho being their decay
        per node, rho >= 2^-11 for dt/h^2 >= 1e-3, so T rho^32 is normal
        wherever the datum's rms amplitude (M0 / sum w)^(1/2) is at least
        2^-380; below that the sweeps may pass through subnormals, which is
        slower, not wrong.  The nodes dropped past the support have parts
        below T/2 and together add less than 2^-580 M0 to the mass.  The
        window doubles while L w reaches T at its last node.  The
        rotation is _rotate_window's: _rotate's bits, with cos and sin
        evaluated only up to the last node where theta >= _SMALL_ANGLE,
        written in place over the solve's fresh output.

        The support of w is read by _carried_support: O(1) on the output of
        a windowed step wherever its last node still has a part >= T/2
        after the rotation.
        """
        J, tail = self.grid.J, self._tail
        n = _carried_support(w, tail / 2) + _MARGIN
        while n < J:
            x = self._cayley(w, n)
            if abs(x[-1]) < tail:
                break
            n *= 2
        else:
            x = self._cayley(w, J)
        if not math.isfinite(np.vdot(x, x).real):
            raise LinearSolveFailure("linear step produced non-finite values")
        x = x[: _support(x, tail / 2)]  # every node past it has modulus below T
        if not self.linear_only:
            self._rotate_window(x, self._phase[: x.size], x)
        return x

    def _cayley(self, w: np.ndarray, n: int) -> np.ndarray:
        """2 A_n^{-1} w - w on the leading n nodes, A_n being A's leading
        n x n block and w read as +0 past w.size.  The solve takes w padded
        with +0, and w is subtracted on its own length only, since
        x - (+0) is x bit for bit."""
        w = w[:n]
        x = self._solve2(np.concatenate((w, np.zeros(n - w.size, dtype=complex))) if w.size < n else w)
        x[: w.size] -= w
        return x


def _carried_support(w: np.ndarray, threshold: float) -> int:
    """_support(w, threshold), read from the last node alone where it has
    a part >= threshold or a NaN, and searched as _support does otherwise."""
    if w.size:
        z = w.item(-1)
        if not (abs(z.real) < threshold and abs(z.imag) < threshold):
            return w.size
    return _support(w, threshold)


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


def phi(s, k=0):
    """The k-th derivative of the cutoff at s."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    core = s <= 1.0
    mid = (s > 1.0) & (s < 2.0)
    out[core] = np.polyval(np.polyder(_PHI_CORE, k), s[core])
    out[mid] = np.polyval(np.polyder(_PHI_POLY, k), s[mid])
    return out


def _phi_laplacian(s, N):
    """(Lap phi)(s) = phi'' + (N-1) phi'/s."""
    return phi(s, 2) + (N - 1) * phi(s, 1) / s


def _phi_bilaplacian(s, N):
    """Radial bi-Laplacian of phi at s."""
    return (
        phi(s, 4)
        + 2 * (N - 1) * phi(s, 3) / s
        + (N - 1) * (N - 3) * phi(s, 2) / s**2
        - (N - 1) * (N - 3) * phi(s, 1) / s**3
    )


_SAMPLES = 4001  # the samples of [1, 2] that locate each deviation's maximum


def _deviation_numerators(N):
    """(p, k) for each deviation of _phi_deviation_constants, in its order:
    on [1, 2] the deviation is |p(s)| / s^k, p an integer np.poly1d built
    from the blend B (the numerator of each ratio, cleared of powers of s)."""
    d = [np.poly1d(_PHI_POLY.astype(int)).deriv(j) for j in range(5)]  # B and its derivatives
    s = np.poly1d([1, 0])
    m = (N - 1) * (N - 3)
    return (
        (d[2] - 2, 0),  # B'' - 2
        (s**3 * d[4] + 2 * (N - 1) * s**2 * d[3] + m * (s * d[2] - d[1]), 3),  # s^3 Lap^2 B
        (s * d[2] + (N - 1) * d[1] - 2 * N * s, 1),  # s (Lap B - 2N)
        (d[1] - 2 * s, 1),  # B' - 2s
    )


def _scaled_value(p, x: Fraction) -> int:
    """p(x) d^n for x = c/d in lowest terms and n the degree of p: an
    integer with the sign of p(x), by Horner's rule in integers alone."""
    c, d = x.numerator, x.denominator
    y, d_j = 0, 1
    for a in p.coeffs:
        y = y * c + int(a) * d_j
        d_j *= d
    return y


def _deviation(p, k, x: Fraction) -> Fraction:
    """|p(x)| / x^k, exactly."""
    return abs(Fraction(_scaled_value(p, x), x.denominator**p.order)) / x**k


def _refined_bracket(p, k) -> tuple[Fraction, Fraction]:
    """[lo, hi] around the maximum of |p(s)| / s^k nearest its largest sample
    on [1, 2]: the sample's two neighbours, bisected on the sign of the
    derivative's numerator q = s p' - k p to 2^-64 of a sample step."""
    s = np.linspace(1.0, 2.0, _SAMPLES)
    i = int(np.argmax(np.abs(np.polyval(p, s)) / s**k))
    lo, hi = Fraction(s[max(i - 1, 0)]), Fraction(s[min(i + 1, s.size - 1)])
    q = np.poly1d([1, 0]) * p.deriv() - k * p  # s^(k+1) (p / s^k)'
    width = Fraction(1, (_SAMPLES - 1) << 64)
    while hi - lo > width:
        mid = (lo + hi) / 2
        if _scaled_value(p, mid) * _scaled_value(q, mid) > 0:  # |p| / s^k rises at mid
            lo = mid
        else:
            hi = mid
    return lo, hi


@functools.cache
def _phi_deviation_constants(N):
    """Sup over s > 1 of the cutoff's deviation from the pure-quadratic phi.

    Used to convert exterior integrals into a remainder budget.  Each is the
    maximum over the closed [1, 2] of a deviation of the blend B: s = 1 gives
    the limits at 1+, where c_bilap = |B^(4)(1)| = 2040 (B matches s^2 to
    third order), and s = 2 the deviations 2, 2N and 2 of phi = 0 on s >= 2.

    Each deviation is f = |p| / s^k with p an integer polynomial
    (_deviation_numerators), so it is evaluated exactly in Fractions; in
    floats, polyval of the degree-7 blend loses about 1e-10 of its value to
    cancellation.  The largest of _SAMPLES float samples locates the maximum,
    _refined_bracket narrows it to a bracket of width w = 2^-64 / 4000, and
    the constant is the least float at or above the exact maximum of f at
    the bracket's ends and at s = 1 and s = 2.  On the bracket f exceeds its
    larger end value by at most w max|f'|, and |f'| < 4e4 on [1, 2] for
    N <= 10: a remainder below 1e-18, far under one ulp of any constant
    (8.9e-16 for the least, c_grad = 4.35).
    """
    ends = (Fraction(1), Fraction(2))
    constants = []
    for p, k in _deviation_numerators(N):
        top = max(_deviation(p, k, x) for x in _refined_bracket(p, k) + ends)
        c = float(top)  # the nearest float, raised one ulp where it lies below
        constants.append(c if Fraction(c) >= top else math.nextafter(c, math.inf))
    return tuple(constants)


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


def virial_series(u: RadialField, params: ModelParams, R: float, *, absv2=None, vpow=None,
                  support=None) -> dict:
    """z_R, z'_R, the four-term direct z''_R and the exterior budget at one time slice.

    absv2 and vpow, when given, are |u|^2 and |u|^{alpha+2} as the caller
    already evaluated them; the cutoff tables are cached per (grid, b, R).
    support m, when given, says that u is +0 from node m on: |u|, the
    radial derivative, its square and the z'_R cross term are then formed
    on the leading m + 2 nodes and +0 is written past them, so every sum
    sees the whole-grid array and gives its bits.

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
        absv2, vpow = _moduli(v, alpha + 2, support)
    pot_density = tab.r_b * vpow
    du = radial_derivative(u, support=support)
    n = v.size if support is None else min(support + 2, v.size)  # du is +0 past node n - 1
    du2, cross = np.zeros(v.size), np.zeros(v.size)
    du2[:n] = np.abs(du[:n]) ** 2
    cross[:n] = np.imag(du[:n] * np.conj(v[:n]))

    zR = R**2 * float(np.sum(tab.phi * absv2))
    zR_prime = 2 * R * float(np.sum(tab.d1 * cross))
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
    n_steps = config.n_steps

    enforce_gm = threshold is not None and threshold.verdict in BELOW_THRESHOLD
    records = []  # one tuple per record in TRACE_COLUMNS order, virial_series's keys last

    shell = int(np.searchsorted(grid.nodes, (1 - _BOUNDARY_SHELL) * grid.r_max))
    v = u0.values.astype(complex)

    def record(t, v, m):
        # v is +0 from node m on, so every elementwise term is formed on the
        # leading nodes only; each sum still sees the whole grid's array
        u = grid.field(v)
        absv2, vpow = _moduli(v, alpha + 2, m)
        me = Measures.of(u, alpha, b, absv2=absv2, vpow=vpow, support=m)
        if not records:
            me.require_finite(alpha)  # the datum's
        gm = me.gm_product(s_c) if 0 < s_c < 1 else math.nan
        vs = (
            virial_series(u, params, config.virial_R, absv2=absv2, vpow=vpow, support=m).values()
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

    # records un-stagger a copy of w; stepping always goes on from w itself.
    # The t = 0 record refuses a datum whose mass, potential or energy is not
    # finite, with no floating-point warning before it: every later record
    # would read inf or nan, and the leak check, which divides by M0, could
    # never fire.  The evolver's window threshold is set by the datum's mass
    with np.errstate(over="ignore", invalid="ignore"):
        record(0.0, v, grid.J)
    ev = Evolver(grid, params, config.dt, linear_only=config.linear_only, mass=records[0][1])
    w = ev.stagger(v)
    for n in range(1, n_steps + 1):
        w = ev.step_values(w)
        if n % config.record_every == 0 or n == n_steps:
            v = ev.unstagger(w)  # +0 from node w.size on
            record(n * config.dt, v, w.size)

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
