"""Model parameters and the criticality algebra.

The model is i u_t + Lap(u) + |x|^{-b} |u|^alpha u = 0 in dimension N.
Everything downstream branches on the critical index
s_c = N/2 - (2-b)/alpha and on where (N, alpha, b) sits relative to the
mass-critical exponent (4-2b)/N and the energy-critical ceilings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction


def exact(x) -> Fraction:
    """x as an exact Fraction of the decimal it was written as.

    A float becomes Fraction(repr(x)), so 0.9 is 9/10 and not the binary
    double nearest to it; Fractions and integers pass through unchanged, and
    a string such as "1/100" or "0.01" is read as Fraction reads it.  NaN,
    the infinities, a zero denominator, a bool and whatever is not a number
    have no exact value and raise ValueError.
    """
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"{x} is not a finite number")
        return Fraction(repr(float(x)))
    if isinstance(x, bool):  # Fraction(True) would read it as 1
        raise ValueError(f"{x} is not a number")
    try:
        return Fraction(x)
    except (TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"{x!r} has no exact value: {exc}") from exc


def critical_index(N: int, alpha, b):
    """Scaling-critical Sobolev index N/2 - (2-b)/alpha.

    A float for float alpha or b (N/2 is exact in binary), a Fraction for
    Fraction alpha and b; plain arithmetic, so an exact number type that
    takes Fraction operands (exponents' ratios) passes through as well.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return Fraction(N, 2) - (2 - b) / alpha


def upper_exponents(N: int, b) -> tuple[Fraction | float, Fraction | float]:
    """Energy-subcritical ceiling and the stricter scattering ceiling.

    Returns (two_star, two_lower_star), exact Fractions of the decimal b:
      two_star       = (4-2b)/(N-2) for N >= 3, math.inf for N = 2;
      two_lower_star = (4-2b)/(N-2) for N >= 4, 3-2b for N = 3,
                       math.inf for N = 2.
    """
    if N < 2:
        raise ValueError(f"dimension must be >= 2, got {N}")
    if b < 0:
        raise ValueError(f"b must be nonnegative, got {b}")
    bf = exact(b)
    if N == 2:
        return math.inf, math.inf
    two_star = (4 - 2 * bf) / (N - 2)
    if N == 3:
        two_lower_star = 3 - 2 * bf
    else:
        two_lower_star = two_star
    return two_star, two_lower_star


@dataclass(frozen=True)
class ModelParams:
    """Dimension, nonlinearity power, inhomogeneity exponent and deriveds."""

    N: int
    alpha: float
    b: float
    s_c: float = field(init=False)

    def __post_init__(self):
        if self.N < 1:
            raise ValueError(f"dimension must be >= 1, got {self.N}")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not (math.isfinite(self.b) and self.b >= 0):
            raise ValueError(f"b must be nonnegative and finite, got {self.b}")
        object.__setattr__(self, "s_c", critical_index(self.N, self.alpha, self.b))

    @property
    def sigma(self):
        """(1 - s_c)/s_c, defined only for s_c > 0; None otherwise."""
        if self.s_c <= 0:
            return None
        return (1 - self.s_c) / self.s_c


@dataclass(frozen=True)
class ScopeReport:
    """Strict-inequality flags for the global-existence and scattering theorems."""

    mass_supercritical: bool
    energy_subcritical: bool
    scattering_subcritical: bool
    b_theorem_ok: bool
    b_global_ok: bool
    theorem_scope: bool
    global_scope: bool


def validate_scope(params: ModelParams) -> ScopeReport:
    """Evaluate every hypothesis flag; reports, never raises.

    theorem_scope: (4-2b)/N < alpha < 2_* , 0 < b < min(N/3, 1), 0 < s_c < 1.
    global_scope:  (4-2b)/N < alpha < 2*  , 0 < b < min(2, N).
    All inequalities strict and decided exactly on the decimals alpha and b
    were written as (see exact); N = 1 fails both (the ceilings need N >= 2).
    """
    N = params.N
    if N < 2:
        return ScopeReport(False, False, False, False, False, False, False)
    af, bf = exact(params.alpha), exact(params.b)
    two_star, two_lower_star = upper_exponents(N, bf)
    mass_super = af > (4 - 2 * bf) / N
    energy_sub = af < two_star
    scatter_sub = af < two_lower_star
    b_theorem = 0 < bf < min(Fraction(N, 3), 1)
    b_global = 0 < bf < min(2, N)
    sc_ok = 0 < critical_index(N, af, bf) < 1
    return ScopeReport(
        mass_supercritical=mass_super,
        energy_subcritical=energy_sub,
        scattering_subcritical=scatter_sub,
        b_theorem_ok=b_theorem,
        b_global_ok=b_global,
        theorem_scope=mass_super and scatter_sub and b_theorem and sc_ok,
        global_scope=mass_super and energy_sub and b_global,
    )


@dataclass(frozen=True)
class ScalingReport:
    """Multipliers picked up by u_delta(x) = delta^{(2-b)/alpha} u(delta x)."""

    L2: float
    gradL2: float
    potential: float


def scaling_exponents(params: ModelParams, delta: float) -> ScalingReport:
    """Scale factors of the L2 norm, gradient norm and weighted potential."""
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    s_c = params.s_c
    return ScalingReport(
        L2=delta ** (-s_c),
        gradL2=delta ** (1 - s_c),
        potential=delta ** (2 * (1 - s_c)),
    )
