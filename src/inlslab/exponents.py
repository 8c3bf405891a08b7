"""Exact-rational engine for Strichartz admissible pairs.

Finite exponents are exact rationals and the one infinite exponent, r =
infinity, is math.inf, with which every comparison is exact: the range checks
and Hoelder-splitting identities asserted for the pair families are algebraic
identities, and rounding must not blur them.  Every entry point reads its
inputs once with params.exact, so a float means the decimal it was written
as, and evaluates on _Ratio, an integer ratio n/d (d > 0) kept unreduced:
its arithmetic takes no gcd and its comparisons cross-multiply (Knuth, TAOCP
Vol. 2, 4.5.1).  A value is reduced to a fractions.Fraction once, where it
leaves the module, so the public functions return Fractions and bools.  Each
family's exponents are stated once, in plain arithmetic (_lemma43, _claim1,
_claim2), and its pairs once, in PAIR_ROWS; the judge _family makes every
comparison.  One rule, _admissible, judges every pair class: its level's sign
comes from _CLASSES and its r-range, each end open or closed, from _r_range.
Endpoint markers a+ / a- are realized as a +- eps with the fixed ENDPOINT_EPS
so sweeps are reproducible; shifted endpoints are treated as closed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .params import critical_index, exact

# the a+ / a- endpoint shift of the admissibility ranges; well inside (0, 1/100)
ENDPOINT_EPS = Fraction(1, 10**9)
# Claim 2's default epsilon (N = 2 family, A3 bounds); default_theta judges at it
CLAIM2_EPS = Fraction(1, 100)


class _Ratio:
    """The exact rational n/d with integer n and d > 0, kept unreduced.

    + - * / take _Ratio, int and Fraction operands; comparisons take those
    and +-math.inf, and any other float raises TypeError rather than round.
    fraction() is the value as a reduced Fraction.
    """

    __slots__ = ("n", "d")

    def __init__(self, n: int, d: int = 1):
        self.n = n
        self.d = d

    def fraction(self) -> Fraction:
        return Fraction(self.n, self.d)

    def __str__(self) -> str:
        return str(self.fraction())

    def __repr__(self) -> str:
        return f"_Ratio({self.n}, {self.d})"

    def __add__(a, b):
        if type(b) is _Ratio:
            return _Ratio(a.n * b.d + b.n * a.d, a.d * b.d)
        if type(b) is int:
            return _Ratio(a.n + b * a.d, a.d)
        b = _operand(b)
        return NotImplemented if b is None else a + b

    __radd__ = __add__

    def __sub__(a, b):
        if type(b) is _Ratio:
            return _Ratio(a.n * b.d - b.n * a.d, a.d * b.d)
        if type(b) is int:
            return _Ratio(a.n - b * a.d, a.d)
        b = _operand(b)
        return NotImplemented if b is None else a - b

    def __rsub__(a, b):
        if type(b) is int:
            return _Ratio(b * a.d - a.n, a.d)
        b = _operand(b)
        return NotImplemented if b is None else b - a

    def __mul__(a, b):
        if type(b) is _Ratio:
            return _Ratio(a.n * b.n, a.d * b.d)
        if type(b) is int:
            return _Ratio(a.n * b, a.d)
        b = _operand(b)
        return NotImplemented if b is None else a * b

    __rmul__ = __mul__

    def __truediv__(a, b):
        if type(b) is _Ratio:
            return _quotient(a.n * b.d, a.d * b.n)
        if type(b) is int:
            return _quotient(a.n, a.d * b)
        b = _operand(b)
        return NotImplemented if b is None else a / b

    def __rtruediv__(a, b):
        if type(b) is int:
            return _quotient(b * a.d, a.n)
        b = _operand(b)
        return NotImplemented if b is None else b / a

    def __eq__(a, b):
        c = _cross(a, b)
        return NotImplemented if c is None else c[0] == c[1]

    def __lt__(a, b):
        c = _cross(a, b)
        return NotImplemented if c is None else c[0] < c[1]

    def __le__(a, b):
        c = _cross(a, b)
        return NotImplemented if c is None else c[0] <= c[1]

    def __gt__(a, b):
        c = _cross(a, b)
        return NotImplemented if c is None else c[0] > c[1]

    def __ge__(a, b):
        c = _cross(a, b)
        return NotImplemented if c is None else c[0] >= c[1]


def _operand(x) -> _Ratio | None:
    """An int or Fraction operand as a _Ratio; None for any other type."""
    if isinstance(x, (int, Fraction)):
        return _Ratio(x.numerator, x.denominator)
    return None


def _quotient(n: int, d: int) -> _Ratio:
    """n/d with the sign moved into the numerator."""
    if d > 0:
        return _Ratio(n, d)
    if d < 0:
        return _Ratio(-n, -d)
    raise ZeroDivisionError(f"ratio {n}/0")


def _cross(a: _Ratio, b) -> tuple[int, int] | None:
    """(x, y) such that a compares with b as x with y: the cross products for
    an exact b, (0, 1) for b = inf and (1, 0) for b = -inf; None for a type
    that is not a number.  Any other float raises TypeError."""
    if type(b) is _Ratio:
        return a.n * b.d, b.n * a.d
    if type(b) is int:
        return a.n, b * a.d
    if isinstance(b, float):
        if b == math.inf:
            return 0, 1
        if b == -math.inf:
            return 1, 0
        raise TypeError(f"an exact ratio compares with a float only at +-inf, got {b!r}")
    b = _operand(b)
    return None if b is None else _cross(a, b)


def _ratio(x) -> _Ratio:
    """x read by params.exact, as a _Ratio; a _Ratio passes as it is."""
    if type(x) is _Ratio:
        return x
    x = exact(x)
    return _Ratio(x.numerator, x.denominator)


_ENDPOINT_EPS = _ratio(ENDPOINT_EPS)

# each class's verdict key and the sign of its level: L2 at 0, Hs at +s_c, Hneg at -s_c
_CLASSES = {"L2": ("l2_admissible", 0), "Hs": ("hs_admissible", 1), "Hneg": ("hneg_admissible", -1)}


def _exponent(a) -> _Ratio | float:
    """An exponent as an exact _Ratio (see params.exact), math.inf as is."""
    return a if a == math.inf else _ratio(a)


def _inv(a):
    """1/a for a positive exponent, with 1/inf = 0."""
    return 0 if a == math.inf else 1 / a


def plus_conjugate(a, eps) -> Fraction:
    """(a+)' = a+ . a / (a+ - a) with a+ = a + eps.

    Satisfies 1/a = 1/(a+)' + 1/a+ exactly.
    """
    return _plus_conjugate(_ratio(a), _ratio(eps)).fraction()


def _plus_conjugate(a: _Ratio, eps: _Ratio) -> _Ratio:
    return (a + eps) * a / eps


def _scaling_holds(q, r, N: int, s) -> bool:
    # 2/q = N/2 - N/r - s, with 1/inf = 0
    return 2 * _inv(q) == _Ratio(N, 2) - N * _inv(r) - s


def _unit_s(s: _Ratio) -> _Ratio:
    """s, which must lie in (0, 1)."""
    if not (0 < s < 1):
        raise ValueError(f"s must lie in (0, 1), got {s}")
    return s


def _r_range(klass: str, N: int, s: _Ratio) -> tuple:
    """(lo, lo_closed, hi, hi_closed): the r-range of klass at level s.

    L2 [2, 2N/(N-2)], r < inf at N = 2; Hs (2N/(N-2s), 2N/(N-2)-], at N = 2
    (2/(1-s), ((2/(1-s))+)'] and at N = 1 (2/(1-2s), inf], or [1, inf] for
    s >= 1/2; Hneg as Hs, with a closed lower end lo+ where Hs's is open and
    the N = 2 ceiling ((2/(1+s))+)'.
    """
    sign = _CLASSES[klass][1]
    if sign == 0:
        return 2, True, (_Ratio(2 * N, N - 2) if N >= 3 else math.inf), N != 2
    if N >= 3:
        lo, hi = 2 * N / (N - 2 * s), _Ratio(2 * N, N - 2) - _ENDPOINT_EPS  # N - 2s > 0: s < 1
    elif N == 2:
        lo, hi = 2 / (1 - s), _plus_conjugate(2 / (1 - sign * s), _ENDPOINT_EPS)
    elif 1 - 2 * s <= 0:
        return 1, True, math.inf, True  # the lower constraint is vacuous when s >= 1/2 in 1D
    else:
        lo, hi = 2 / (1 - 2 * s), math.inf
    return (lo + _ENDPOINT_EPS, True, hi, True) if sign < 0 else (lo, False, hi, True)


def _admissible(klass: str, q, r, N: int, s) -> bool:
    """klass-admissibility of exact (q, r) at level s: q, r >= 1, the scaling
    identity 2/q = N/2 - N/r - sign*s and r in _r_range."""
    if q < 1 or r < 1 or not _scaling_holds(q, r, N, _CLASSES[klass][1] * s):
        return False
    lo, lo_closed, hi, hi_closed = _r_range(klass, N, s)
    return (lo <= r if lo_closed else lo < r) and (r <= hi if hi_closed else r < hi)


def is_l2_admissible(q, r, N: int) -> bool:
    """Mass-level admissibility: 2/q = N/2 - N/r with r in the N-range."""
    return _admissible("L2", _exponent(q), _exponent(r), N, 0)


def is_hs_admissible(q, r, N: int, s) -> bool:
    """H^s-level admissibility, 0 < s < 1: 2/q = N/2 - N/r - s plus range."""
    s = _unit_s(_ratio(s))
    return _admissible("Hs", _exponent(q), _exponent(r), N, s)


def is_hneg_admissible(q, r, N: int, s) -> bool:
    """Dual-level admissibility, 0 < s < 1: 2/q = N/2 - N/r + s plus range."""
    s = _unit_s(_ratio(s))
    return _admissible("Hneg", _exponent(q), _exponent(r), N, s)


class DegenerateFamilyError(ValueError):
    """A family denominator vanished or went nonpositive."""


class ThetaWindowError(ValueError):
    """theta violates the admissible window for the requested family."""


# Each family's exponents as plain arithmetic in (N, a = alpha, b, t = theta,
# eps): {name: (numerator, denominator)} and the residual of its splitting
# identity over one denominator.  They use + - * / only, so any number type
# passes through them; _family makes every comparison.


def _lemma43_p(a, b, t):
    """Lemma 4.3's p = 6a(a+1-t)/((4-2b)(a-t)+a)."""
    return 6 * a * (a + 1 - t), (4 - 2 * b) * (a - t) + a


def _lemma43(N, a, b, t, eps):
    """Lemma 4.3 (N = 3), a = alpha: k = 4a(a+1-t)/(4-2b-a), p as _lemma43_p,
    l = 4a(a+1-t)/(a(3a-2+2b)-t(3a-4+2b)); time Hoelder split 1/2' = (a-t)/k + 1/l."""
    n = 4 * a * (a + 1 - t)
    d_k = 4 - 2 * b - a
    d_l = a * (3 * a - 2 + 2 * b) - t * (3 * a - 4 + 2 * b)
    # 1/2 - (a-t)/k - 1/l over the numerator n of k and l
    return {"k": (n, d_k), "p": _lemma43_p(a, b, t), "l": (n, d_l)}, (n / 2 - (a - t) * d_k - d_l, n)


def _claim1(N, a, b, t, eps):
    """Claim 1, a = alpha and c = a(a+2-t): q^ = 4c/(a(Na+2b)-t(Na-4+2b)), r^ = Nc/(a(N-b)-t(2-b)),
    a~ = 2c/(a(N(a+1-t)-2+2b)-(4-2b)(1-t)), a^ = 2c/(4-2b-(N-2)a);
    time Hoelder split 1/a~' = (a-t)/a^ + 1/a^."""
    c = a * (a + 2 - t)
    c2, s = 2 * c, a + 1 - t
    d_at = a * (N * s - 2 + 2 * b) - (4 - 2 * b) * (1 - t)
    d_ah = 4 - 2 * b - (N - 2) * a
    exps = {
        "q_hat": (2 * c2, a * (N * a + 2 * b) - t * (N * a - 4 + 2 * b)),
        "r_hat": (N * c, a * (N - b) - t * (2 - b)),
        "a_tilde": (c2, d_at),
        "a_hat": (c2, d_ah),
    }
    # (1 - 1/a~) - (a-t)/a^ - 1/a^ over the numerator c2 = 2c of a~ and a^
    return exps, (c2 - d_at - s * d_ah, c2)


def _claim2_d_r(N, al, b):
    """Claim 2's D = 4-2b-al(N-2) and r = 2al N(N+2)/((4-2b)(N+2) - ND), N >= 3.

    The denominator of r, 2(4-2b) + N(N-2)al, is positive for b < 2.
    """
    D = 4 - 2 * b - al * (N - 2)
    return D, (2 * al * N * (N + 2), (4 - 2 * b) * (N + 2) - N * D)


def _claim2(N, al, b, t, eps):
    """Claim 2, al = alpha.  N >= 3, with D and r as _claim2_d_r:
    a = 4al(N+2)/(ND), a_bar = 4al(N+2)/(4al(N+2) - (al+1-t)ND),
    r_bar = 2al N(N+2)/(2(N+2)(al(N-2)-(2-b)) + ND(al+1-t)).
    N = 2: a = 2al(al+1-t)/(2-b+eps), r = 2al(al+1-t)/((2-b)(al-t)-eps),
    a_bar = 2al/(2al-(2-b)-eps), r_bar = 2al/eps.  Split a = (al+1-t) a_bar'."""
    s = al + 1 - t
    if N >= 3:
        D, r = _claim2_d_r(N, al, b)
        n, ND = 4 * al * (N + 2), N * D
        exps = {
            "a": (n, ND),
            "r": r,
            "a_bar": (n, n - s * ND),
            "r_bar": (r[0], 2 * (N + 2) * (al * (N - 2) - (2 - b)) + s * ND),
        }
    else:
        n, c = 2 * al * s, 2 - b
        exps = {
            "a": (n, c + eps),
            "r": (n, c * (al - t) - eps),
            "a_bar": (2 * al, 2 * al - c - eps),
            "r_bar": (2 * al, eps),
        }
    (n_a, d_a), (n_ab, d_ab) = exps["a"], exps["a_bar"]
    # a - (al+1-t) a_bar', with a_bar' = n_ab/(n_ab - d_ab)
    d_dual = n_ab - d_ab
    return exps, (n_a * d_dual - s * n_ab * d_a, d_a * d_dual)


def claim2_theta_window(N: int, alpha, b) -> tuple[Fraction, Fraction]:
    """Open window (lo, hi) that theta must occupy for the N >= 3 family."""
    lo, hi = _theta_window(N, _ratio(alpha), _ratio(b))
    return lo.fraction(), hi.fraction()


def _theta_window(N: int, a: _Ratio, b: _Ratio) -> tuple[_Ratio, _Ratio]:
    hi = min(2 * (1 - b) / N, a)
    lo = _Ratio(0)
    if N == 3:
        lo = max(lo, 2 * (1 - 3 * b) / 3)
    return lo, hi


class PairRow(NamedTuple):
    """One certified pair of a family: keys into the family's result dict."""

    pair: str
    q: str
    r: str
    klass: str  # "L2", "Hs" (H^{s_c} level) or "Hneg" (H^{-s_c} level)


# every pair each family certifies; lemma43 applies to N = 3 only
PAIR_ROWS = {
    "lemma43": (
        PairRow("(l,p)", "l", "p", "L2"),
        PairRow("(k,p)", "k", "p", "Hs"),
    ),
    "claim1": (
        PairRow("(q^,r^)", "q_hat", "r_hat", "L2"),
        PairRow("(a^,r^)", "a_hat", "r_hat", "Hs"),
        PairRow("(a~,r^)", "a_tilde", "r_hat", "Hneg"),
    ),
    "claim2": (
        PairRow("(a,r)", "a", "r", "Hs"),
        PairRow("(a-,r-)", "a_bar", "r_bar", "Hneg"),
    ),
}
_FORMULAS = {"lemma43": _lemma43, "claim1": _claim1, "claim2": _claim2}
_RESIDUAL_KEY = {"lemma43": "holder_residual", "claim1": "split_residual", "claim2": "split_residual"}


def _check_dimension(N: int) -> None:
    if N < 2:
        raise ValueError("the pair families need N >= 2")


def _check_eps(eps: _Ratio) -> None:
    if eps <= 0:
        raise ThetaWindowError(f"need eps > 0, got {eps}")


def _family(name: str, N: int, alpha, b, theta, eps) -> dict:
    """The family's exponents, one verdict per PAIR_ROWS row, its residual and
    s_c, reduced to Fractions; the inputs are read by _ratio."""
    _check_dimension(N)
    reads_eps = name == "claim2" and N < 3
    al, b, t = _ratio(alpha), _ratio(b), _ratio(theta)
    eps = _ratio(eps) if reads_eps else None  # only claim2 at N = 2 reads eps
    if name == "claim2" and N >= 3:
        lo, hi = _theta_window(N, al, b)
        if not (lo < t < hi):
            raise ThetaWindowError(f"theta={t} outside ({lo}, {hi}) for N={N}, alpha={al}, b={b}")
    elif not (0 < t < al):
        raise ThetaWindowError(f"need 0 < theta < alpha, got theta={t}")
    elif reads_eps:
        _check_eps(eps)
    exps, residual = _FORMULAS[name](N, al, b, t, eps)
    for _, den in (*exps.values(), residual):
        if den <= 0:
            raise DegenerateFamilyError(
                f"degenerate denominator(s) of {name} for N={N}, alpha={al}, b={b}, theta={t}"
                + (f", eps={eps}" if reads_eps else "")
            )
    values = {key: num / den for key, (num, den) in exps.items()}
    # a _Ratio, checked since every family has an Hs or Hneg pair
    s_c = _unit_s(critical_index(N, al, b))
    fam = {key: value.fraction() for key, value in values.items()}
    for row in PAIR_ROWS[name]:
        fam[_CLASSES[row.klass][0]] = _admissible(row.klass, values[row.q], values[row.r], N, s_c)
    fam[_RESIDUAL_KEY[name]] = (residual[0] / residual[1]).fraction()
    fam["s_c"] = s_c.fraction()
    return fam


def family_lemma43(alpha, b, theta) -> dict:
    """3D pair family used for the gradient estimate of the nonlinearity
    (_lemma43): (l,p) L2-admissible, (k,p) H^{s_c}-admissible."""
    return _family("lemma43", 3, alpha, b, theta, CLAIM2_EPS)


def family_claim1(alpha, b, theta, N: int) -> dict:
    """Profile-decomposition pair family, all N >= 2 (_claim1): (q^,r^)
    L2-admissible, (a^,r^) H^{s_c}- and (a~,r^) H^{-s_c}-admissible."""
    return _family("claim1", N, alpha, b, theta, CLAIM2_EPS)


def family_claim2(alpha, b, theta, N: int, eps=CLAIM2_EPS) -> dict:
    """Uniform-bound pair family; N >= 3 and N = 2 take different shapes (_claim2).

    (a, r) H^{s_c}-admissible and (a_bar, r_bar) H^{-s_c}-admissible; theta
    lies in claim2_theta_window for N >= 3.  The two verdicts already imply
    Claim 2's interior ranges: 2N/(N-2s_c) < r, r_bar < 2N/(N-2) for N >= 3,
    and r, r_bar > 2/(1-s_c) for N = 2.
    """
    return _family("claim2", N, alpha, b, theta, eps)


def _evaluate(family: str, N: int, al: _Ratio, b: _Ratio, theta: _Ratio, eps: _Ratio) -> dict:
    # the family functions are looked up at call time, so wrappers see every call
    if family == "lemma43":
        return family_lemma43(al, b, theta)
    if family == "claim1":
        return family_claim1(al, b, theta, N)
    return family_claim2(al, b, theta, N, eps)


def _theta_search(N: int, al: _Ratio, b: _Ratio, family: str, eps: _Ratio) -> tuple[_Ratio, dict | None]:
    """default_theta, with claim2 judged at eps, and the family dict evaluated there.

    The dict is None for the claim2 window midpoint, chosen without evaluating.
    """
    if family == "claim2" and N >= 3:
        lo, hi = _theta_window(N, al, b)
        if lo >= hi:
            raise ThetaWindowError(f"empty theta window for N={N}, alpha={al}, b={b}")
        return (lo + hi) / 2, None
    theta = min(2 * (1 - b) / N, al) / 4
    if theta <= 0:
        theta = al / 8
    if family not in PAIR_ROWS:
        raise ValueError(f"unknown family {family!r}")
    for _ in range(64):
        try:
            fam = _evaluate(family, N, al, b, theta, eps)
        except (DegenerateFamilyError, ThetaWindowError):
            fam = None
        if fam is not None and all(fam[_CLASSES[row.klass][0]] for row in PAIR_ROWS[family]):
            return theta, fam
        theta = theta / 2
    raise ThetaWindowError(
        f"no admissible theta found for family={family}, N={N}, alpha={al}, b={b}"
    )


def default_theta(N: int, alpha, b, family: str = "claim1") -> Fraction:
    """Deterministic in-window theta for a family at given (N, alpha, b).

    The underlying estimates only require theta "sufficiently small" inside an
    explicit window, so any reproducible choice works.  For claim2 with
    N = 3 the window has a positive lower endpoint and the midpoint is used;
    otherwise start from min(2(1-b)/N, alpha)/4 and halve until every
    admissibility flag of the family's PAIR_ROWS holds.
    """
    _check_dimension(N)  # before the search, whose first theta divides by N
    return _theta_search(N, _ratio(alpha), _ratio(b), family, _ratio(CLAIM2_EPS))[0].fraction()


def certificate_rows(N: int, alpha, b, theta=None, eps=CLAIM2_EPS) -> list[dict]:
    """Certificate table for every family applicable at (N, alpha, b).

    One row per PAIR_ROWS entry with the admissibility verdict and the exact
    residual of the family's splitting identity.  Each family is evaluated
    once per call: at the given theta, or at its default theta searched at
    the given eps, where the dict the search already evaluated is reused.
    """
    _check_dimension(N)  # before the search, whose first theta divides by N
    al, b_, eps = _ratio(alpha), _ratio(b), _ratio(eps)
    given = None if theta is None else _ratio(theta)
    if N == 2:
        _check_eps(eps)  # before the claim2 search, which would only halve theta
    families = ("lemma43", "claim1", "claim2") if N == 3 else ("claim1", "claim2")
    point = {"N": N, "alpha": al.fraction(), "b": b_.fraction()}
    rows = []
    for family in families:
        if given is None:
            th, fam = _theta_search(N, al, b_, family, eps)
        else:
            th, fam = given, None
        if fam is None:
            fam = _evaluate(family, N, al, b_, th, eps)
        th = th.fraction()
        for row in PAIR_ROWS[family]:
            key, sign = _CLASSES[row.klass]
            rows.append(
                {
                    "family": family,
                    "pair": row.pair,
                    **point,
                    "theta": th,
                    "q": fam[row.q],
                    "r": fam[row.r],
                    "class": f"Hs({sign * fam['s_c']})" if sign else "L2",
                    "admissible": fam[key],
                    "identity_residual": fam[_RESIDUAL_KEY[family]],
                }
            )
    return rows


def appendix_checks(N: int, alpha, b, theta, eps=CLAIM2_EPS) -> list[dict]:
    """Range-bound equivalences behind the pair families, both directions.

    Each row records an exponent bound (evaluated on the exact formula) next
    to the elementary condition it is algebraically equivalent to, so a sweep
    can assert bound_holds == condition_holds even at out-of-scope points
    where the bound fails:

      A1 (N = 3 only): 3a/(2-b) < p and p < 6  <=>  a < 4 - 2b;
      A2 (N >= 3): Na/(2-b) < r and r < 2N/(N-2)  <=>  a < (4-2b)/(N-2);
      A3 (N = 2): 2a/(2-b) < r_bar = 2a/eps  <=>  eps < 2 - b, and
                  r_bar <= ((2/(1+s_c))+)'  <=>  the endpoint shift is small
                  enough, ENDPOINT_EPS * (2a - a_conj * eps) <= a_conj^2 * eps.
    """
    _check_dimension(N)
    al, b_, th, eps = _ratio(alpha), _ratio(b), _ratio(theta), _ratio(eps)
    if N == 2:
        _check_eps(eps)  # A3's equivalences presume eps > 0, and r_bar divides by it
    rows = []

    def add(check, bound_holds, condition_holds):
        rows.append(
            {
                "check": check,
                "bound_holds": bool(bound_holds),
                "condition_holds": bool(condition_holds),
                "equivalent": bool(bound_holds) == bool(condition_holds),
            }
        )

    if N == 3:
        p_num, d_p = _lemma43_p(al, b_, th)
        p = p_num / d_p
        cond = al < 4 - 2 * b_
        add("A1_lower", 3 * al / (2 - b_) < p, cond)
        add("A1_upper", p < 6, cond)
    if N >= 3:
        r_num, d_r = _claim2_d_r(N, al, b_)[1]
        r = r_num / d_r
        cond = al < (4 - 2 * b_) / (N - 2)
        add("A2_lower", N * al / (2 - b_) < r, cond)
        add("A2_upper", r < _Ratio(2 * N, N - 2), cond)
    if N == 2:
        s_c = critical_index(N, al, b_)
        r_bar = 2 * al / eps
        add("A3_lower", 2 * al / (2 - b_) < r_bar, eps < 2 - b_)
        a_conj = 2 / (1 + s_c)
        ceiling = _plus_conjugate(a_conj, _ENDPOINT_EPS)
        add(
            "A3_upper",
            r_bar <= ceiling,
            _ENDPOINT_EPS * (2 * al - a_conj * eps) <= a_conj * a_conj * eps,
        )
    return rows
