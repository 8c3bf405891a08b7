"""Radial grids, weighted quadrature and discrete radial operators.

Cell-centered nodes r_j = (j + 1/2) h never touch r = 0, where the |x|^{-b}
weight is singular; the weight r^{N-1-b} stays integrable for b < 1, so
midpoint quadrature converges at second order.  The Laplacian is the
flux (conservative) form of u'' + (N-1)/r u', which is self-adjoint in the
weighted inner product by construction: zero-flux face at r = 0 (the
reflection ghost u_{-1} = u_0) and a homogeneous Dirichlet ghost u_J = 0.
Every linear solve factors I - c Lap once with LAPACK gttrf; the matrix is
strictly diagonally dominant for every c the package uses, so the factors need
no row interchange and a solve is a pivot scaling plus two unit-bidiagonal
BLAS sweeps with no division.  The scaling adds the reciprocal pivots'
rounding residual, so it carries no per-node bias that a time stepper would
accumulate, and it can carry a constant factor (the 2 of the evolver's
Cayley step 2 A^{-1} w - w).  The one discrete ||grad u||^2 is this
Laplacian's quadratic form <-Lap u, u>.
Measures holds a field's three full-grid sums and the formulas built on them.

scipy is imported where it is first used: LAPACK and BLAS when a solver is
built, Gamma when sphere_area first meets a dimension (it is cached per N).
Importing scipy.linalg and scipy.special takes most of a fresh process's
start-up, and the exact-rational subcommands (params, pairs) never call
either.  get_lapack_funcs stays a module function that a test can replace.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np


class NumericalFailure(RuntimeError):
    """A computation stopped because a numerical check failed: the one root of
    the evolver's and the ground-state solvers' failures."""


def get_lapack_funcs(names, dtype=None):
    """scipy.linalg.lapack.get_lapack_funcs, imported when called."""
    from scipy.linalg.lapack import get_lapack_funcs

    return get_lapack_funcs(names, dtype=dtype)


@functools.cache
def sphere_area(N: int) -> float:
    """Surface measure of the unit sphere, 2 pi^{N/2} / Gamma(N/2)."""
    from scipy.special import gamma

    return 2 * math.pi ** (N / 2) / gamma(N / 2)


@dataclass(frozen=True)
class RadialGrid:
    J: int
    h: float
    N: int
    # derived from (J, h, N), so a grid compares and hashes by those three
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    faces: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)
    # a_j = face_j^{N-1}, the face areas over the unit sphere's, and (lower,
    # diag, upper) of the flux-form Laplacian built from them; all read-only
    face_areas: np.ndarray = field(init=False, repr=False, compare=False)
    laplacian: tuple[np.ndarray, np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.J < 3:
            raise ValueError(f"need at least 3 cells, got {self.J}")
        if not (math.isfinite(self.h) and self.h > 0):
            raise ValueError(f"mesh width must be positive and finite, got {self.h}")
        if self.N < 1:
            raise ValueError(f"dimension must be >= 1, got {self.N}")
        # every sum and solve reads the weights and the Laplacian; a zero or an
        # overflow in one of them would surface later as a singular
        # factorization or an inf result
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            nodes = (np.arange(self.J) + 0.5) * self.h
            faces = np.arange(self.J + 1) * self.h
            rn = nodes ** (self.N - 1)
            weights = sphere_area(self.N) * rn * self.h
            object.__setattr__(self, "nodes", nodes)
            object.__setattr__(self, "faces", faces)
            object.__setattr__(self, "weights", weights)
            h2 = np.float64(self.h) ** 2  # inf past the float range, so every entry below is 0
            # Laplacian row j: (a_{j+1}(u_{j+1}-u_j) - a_j(u_j-u_{j-1})) / (r_j^{N-1} h^2), a_j = face_j^{N-1};
            # zero flux at r = 0 (for N = 1 the reflection ghost cancels it) and u_J = 0
            a = faces ** (self.N - 1)
            scale = rn * h2
            lower = a[1:-1] / scale[1:]  # couples u_{j-1}, j = 1..J-1
            upper = a[1:-1] / scale[:-1]  # couples u_{j+1}, j = 0..J-2
            diag = -(a[1:] + a[:-1]) / scale
            if self.N == 1:
                diag[0] += a[0] / scale[0]  # reflection ghost u_{-1} = u_0
        laplacian = (lower, diag, upper)
        if not all(np.all(np.isfinite(e) & (e != 0)) for e in (weights, *laplacian)):
            raise ValueError(
                f"mesh width {self.h} leaves a quadrature weight or Laplacian entry "
                f"zero or not finite in float64 at J={self.J}, N={self.N}"
            )
        for e in (a, *laplacian):
            e.setflags(write=False)
        object.__setattr__(self, "face_areas", a)
        object.__setattr__(self, "laplacian", laplacian)

    @property
    def r_max(self) -> float:
        return self.J * self.h

    def field(self, values) -> "RadialField":
        return RadialField(self, np.asarray(values))


@dataclass(frozen=True)
class RadialField:
    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.shape != (self.grid.J,):
            raise ValueError(
                f"expected {self.grid.J} samples, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("field contains non-finite samples")
        object.__setattr__(self, "values", values)


def gaussian_field(grid: RadialGrid, amplitude=1.0, width=1.0) -> RadialField:
    """amplitude * exp(-(r/width)^2) sampled on the grid."""
    if not (math.isfinite(amplitude) and math.isfinite(width) and width > 0):
        raise ValueError(
            "gaussian needs a finite amplitude and a positive finite width, "
            f"got ({amplitude}, {width})"
        )
    return grid.field(amplitude * np.exp(-((grid.nodes / width) ** 2)))


def radial_derivative(u: RadialField) -> np.ndarray:
    """Centered differences, one-sided at both ends (virial integrands only)."""
    v = u.values
    h = u.grid.h
    d = np.empty_like(v)
    d[1:-1] = (v[2:] - v[:-2]) / (2 * h)
    d[0] = (v[1] - v[0]) / h
    d[-1] = (v[-1] - v[-2]) / h
    return d


def grad_norm_sq_form(u: RadialField) -> float:
    """<-Lap u, u> via the face fluxes: the one discrete ||grad u||^2.

    This is the quadratic form conserved by the implicit linear step.
    """
    grid = u.grid
    omega = sphere_area(grid.N)
    v = u.values
    a = grid.face_areas
    dif = np.diff(v)  # u_{j+1} - u_j, j = 0..J-2
    total = np.sum(a[1:-1] * np.abs(dif) ** 2)
    total += a[-1] * np.abs(v[-1]) ** 2  # Dirichlet face
    return float(omega * total / grid.h)


@functools.lru_cache(maxsize=8)
def _potential_weights(grid: RadialGrid, b: float) -> np.ndarray:
    """w_j r_j^{-b} on one grid; read-only, since the cache shares it."""
    if b >= grid.N:
        raise ValueError(f"need b < N for integrability, got b={b}, N={grid.N}")
    weights = grid.weights * grid.nodes ** (-b)
    weights.setflags(write=False)
    return weights


_TAIL_BLOCK = 64  # trailing nodes that _support searches before the rest


def _leading(x: np.ndarray, threshold: float) -> int:
    """The number of leading entries of x >= 0 up to its last entry with
    x >= threshold or NaN; 0 where there is none."""
    if x.size == 0:
        return 0
    small = x < threshold  # a forward comparison vectorizes, one on x[::-1] does not
    last = int(small[::-1].argmin())  # argmin stops at the first False
    return 0 if small[-1 - last] else x.size - last


def _support(v: np.ndarray, threshold: float) -> int:
    """The number of leading nodes of v up to its last node with a real or
    imaginary part of magnitude >= threshold or NaN; 0 where there is none,
    an empty v included.  Private, like _leading, so that a tracer wrapping
    the package's public functions adds no span to a time step.

    The search looks at the last _TAIL_BLOCK nodes first and scans the rest
    only when they hold no such part: a windowed step's answer lies within
    a few nodes of its window's end.
    """
    if v.size == 0:
        return 0
    parts = np.ascontiguousarray(v).view(np.float64)  # real, or (re, im) per node
    per_node = parts.size // v.size
    start = max(parts.size - _TAIL_BLOCK * per_node, 0)
    k = _leading(np.abs(parts[start:]), threshold)
    if k == 0:
        start, k = 0, _leading(np.abs(parts[:start]), threshold)
    return (start + k - 1) // per_node + 1


def support_power(x: np.ndarray, p: float) -> np.ndarray:
    """x ** p for x >= 0 and p > 0, with pow evaluated only up to the last
    node where x >= 2^(-1080/p) (or is NaN) and +0 written past it.

    Past that node x^p < 2^-1080, below half the least subnormal, so pow
    rounds it to +0 and the result is x ** p bit for bit.  pow is slow on the
    zeros and subnormals of a dispersing field's tail: |v|**4 took 174 us at
    J = 4096 on a zero tail, against 15.6 us on the prefix that holds the
    field.
    """
    n = _leading(x, 2.0 ** (-1080 / p))
    out = np.zeros_like(x)
    np.power(x[:n], p, out=out[:n])
    return out


class Measures(NamedTuple):
    """M[u], ||grad u||^2 and the potential integral P[u] of one field."""

    mass: float
    grad2: float
    potential: float

    @classmethod
    def of(cls, u: RadialField, alpha: float, b: float, *, absv2=None, vpow=None) -> "Measures":
        """Each sum evaluated once; absv2 and vpow, when given, are |u|^2 and |u|^{alpha+2}."""
        if absv2 is None or vpow is None:
            absv = np.abs(u.values)
            absv2, vpow = absv**2, support_power(absv, alpha + 2)
        grid = u.grid
        return cls(
            mass=float(np.sum(grid.weights * absv2)),
            grad2=grad_norm_sq_form(u),
            potential=float(np.sum(_potential_weights(grid, b) * vpow)),
        )

    def energy(self, alpha: float) -> float:
        """E = ||grad u||^2 / 2 - P / (alpha + 2)."""
        return 0.5 * self.grad2 - self.potential / (alpha + 2)

    def gm_product(self, s_c: float) -> float:
        """||grad u||^{s_c} ||u||^{1-s_c}."""
        return math.sqrt(self.grad2) ** s_c * math.sqrt(self.mass) ** (1 - s_c)

    def require_finite(self, alpha: float) -> None:
        """Raise NumericalFailure where these measures of a datum have a mass
        M0, potential P0 or energy E0 that is not finite, as a datum that
        overflows them has: every later quantity of it reads inf or nan."""
        for name, value in (("mass M0", self.mass), ("potential P0", self.potential),
                            ("energy E0", self.energy(alpha))):
            if not math.isfinite(value):
                raise NumericalFailure(f"the datum's {name} = {value} is not finite")


def laplacian_radial(u: RadialField) -> RadialField:
    """Second-order flux-form discretization of u'' + (N-1)/r u'."""
    lower, diag, upper = u.grid.laplacian
    v = u.values
    out = diag * v
    out[1:] += lower * v[:-1]
    out[:-1] += upper * v[1:]
    return u.grid.field(out)


def shifted_laplacian_solver(grid: RadialGrid, c, scale=1.0):
    """Factor I - c Lap once and return rhs -> scale (I - c Lap)^{-1} rhs.

    For real c > 0 and for c = i dt/2 every row of A = I - c Lap is strictly
    diagonally dominant: its diagonal is 1 + c t and its off-diagonal moduli
    sum to |c| s, with s the row's off-diagonal Laplacian weights and t >= s
    its diagonal one, and |1 + c t| > |c| s.  Also |A[i+1, i]| <= |A[i, i+1]|,
    because r^{N-1} h^2 does not decrease with r.  With dominance each pivot of the
    elimination exceeds the superdiagonal entry of its row, so LAPACK gttrf's
    partial pivoting never interchanges rows, and elimination without
    pivoting is stable (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., sec. 9.5).  A = L U is stored as A = D Lh Up with
    the pivots D = diag(U), the unit lower factor Lh = D^{-1} L D and the unit
    upper factor Up = D^{-1} U.  A solve multiplies by scale/D and runs two
    unit-diagonal BLAS tbsv sweeps in place, so no division sits in the
    sweeps' dependent chain (LAPACK's own tridiagonal solve divides once per
    row).

    For c = i dt/2 a pivot is 1 + delta with |delta| = O(dt/h^2) small, and
    both d = fl(1 + delta) and 1/d are rounded to multiples of ulp(1).  Each
    solve would then scale node j by the same 1 + eta_j, and a time stepper
    would add that bias up once per step.  So delta is formed in small
    numbers from gttrf's multipliers and superdiagonal, and 1/D is applied
    as rhs * rres + rhs * rinv, where rinv = 1/d and
    rres = rinv ((1 - rinv) - delta rinv) is rinv's rounding residual
    against the exact 1/(1 + delta).  The same formula serves every c: where
    d is far from 1 it is a harmless refinement.  scale is folded into both
    vectors once here; Evolver's Crank-Nicolson step uses scale = 2.

    The solve returns a new array and leaves rhs as it was.  rhs must have
    the dtype of c (real or complex).  An rhs of n < J entries is solved with
    the leading n x n block of A: without row interchanges the leading block
    of A's factors is the factorization of A's leading block, so that solve
    is the same operator on the first n cells with u_n = 0.  A singular
    matrix, or a factorization that interchanges rows, raises
    numpy.linalg.LinAlgError.
    """
    from scipy.linalg.blas import get_blas_funcs

    lower, diag, upper = grid.laplacian
    dtype = np.result_type(c, diag)
    dl, d, du, _, ipiv, info = get_lapack_funcs("gttrf", dtype=dtype)(-c * lower, 1 - c * diag, -c * upper)
    if info > 0:
        raise np.linalg.LinAlgError(f"I - c Lap is singular (gttrf info {info})")
    # compared as lists: a process's first int32-against-int64 array
    # comparison faults in ~0.4 MB of numpy code pages
    if ipiv.tolist() != list(range(1, grid.J + 1)):
        raise np.linalg.LinAlgError("I - c Lap is not diagonally dominant (gttrf interchanged rows)")
    rinv = 1 / d
    delta = -c * diag
    delta[1:] -= dl * du
    rres = rinv * ((1 - rinv) - delta * rinv)
    # 2 x J Fortran band storage of the unit factors (tbsv reads no diagonal)
    lo = np.ones((2, grid.J), dtype=dtype, order="F")
    lo[1, :-1] = dl * d[:-1] * rinv[1:]
    up = np.ones((2, grid.J), dtype=dtype, order="F")
    up[0, 1:] = du * rinv[:-1]
    rinv *= scale
    rres *= scale
    tbsv = get_blas_funcs("tbsv", dtype=dtype)

    @functools.lru_cache(maxsize=2)
    def leading(n: int) -> tuple:
        # tbsv takes n from its band's columns; cached, since slicing the
        # four factors on every call cost about 1.5 us, a sixth of a solve
        # at J = 256
        return rres[:n], rinv[:n], lo[:, :n], up[:, :n]

    def solve(rhs: np.ndarray) -> np.ndarray:
        res, inv, lower_band, upper_band = leading(len(rhs))
        y = rhs * res
        y += rhs * inv
        # positional (k, a, x, incx, offx, lower, trans, diag, overwrite_x):
        # keywords cost about a microsecond per call
        tbsv(1, lower_band, y, 1, 0, 1, 0, 1, 1)
        tbsv(1, upper_band, y, 1, 0, 0, 0, 1, 1)
        return y

    return solve


def strauss_check(u: RadialField, R: float, tol: float = 1e-6) -> dict:
    """Pointwise radial decay bound sup_{r >= R} |u| <= R^{-(N-1)/2} ||u||^{1/2} ||grad u||^{1/2}."""
    grid = u.grid
    if not (0 < R < grid.r_max):
        raise ValueError(f"R must lie in (0, {grid.r_max}), got {R}")
    mask = grid.nodes >= R
    lhs = float(np.max(np.abs(u.values[mask]))) if np.any(mask) else 0.0
    me = Measures.of(u, 0.0, 0.0)  # the potential goes unread; alpha = b = 0 keeps it cheap
    rhs = R ** (-(grid.N - 1) / 2) * (me.mass * me.grad2) ** 0.25
    return {"lhs": lhs, "rhs": rhs, "holds": lhs <= rhs * (1 + tol), "tol": tol}

