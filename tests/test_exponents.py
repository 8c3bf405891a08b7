import hashlib
import math
import operator
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inlslab import exponents
from inlslab.exponents import (
    CLAIM2_EPS,
    ENDPOINT_EPS,
    PAIR_ROWS,
    DegenerateFamilyError,
    ThetaWindowError,
    appendix_checks,
    certificate_rows,
    claim2_theta_window,
    default_theta,
    family_claim1,
    family_claim2,
    family_lemma43,
    is_hneg_admissible,
    is_hs_admissible,
    is_l2_admissible,
    plus_conjugate,
)
from inlslab.exponents import _Ratio
from inlslab.params import critical_index


def test_plus_conjugate_identity():
    # 1/a = 1/(a+) + 1/(a+)' with a+ = a + eps, exactly
    eps = Fraction(1, 10**9)
    for a in [Fraction(3, 2), Fraction(2), Fraction(12, 5)]:
        conj = plus_conjugate(a, eps)
        assert Fraction(1, 1) / a == Fraction(1, 1) / (a + eps) + Fraction(1, 1) / conj


def test_epsilon_policy_bounds():
    assert ENDPOINT_EPS == Fraction(1, 10**9)


def test_l2_admissible_examples():
    # 2/q = N/2 - N/r; the diagonal pair q = r = 2(N+2)/N
    for n in (1, 2, 3, 4):
        d = Fraction(2 * (n + 2), n)
        assert is_l2_admissible(d, d, n)
    assert is_l2_admissible(math.inf, 2, 3)
    assert is_l2_admissible(2, Fraction(6), 3)  # endpoint r = 2N/(N-2)
    assert not is_l2_admissible(2, 7, 3)  # past the ceiling
    assert not is_l2_admissible(3, 3, 3)  # scaling violated
    assert is_l2_admissible(4, math.inf, 1)  # r = inf allowed only for N = 1
    assert not is_l2_admissible(4, math.inf, 2)


def _written_ranges(n, s):
    """Each class's r-range at (N, s) as (lo, lo_closed, hi, hi_closed), as the pairs are defined."""
    e, inf = ENDPOINT_EPS, math.inf
    if n >= 3:
        ceiling = Fraction(2 * n, n - 2)
        floor = Fraction(2 * n, n - 2 * s)
        return {
            "L2": (2, True, ceiling, True),  # [2, 2N/(N-2)]
            "Hs": (floor, False, ceiling - e, True),  # (2N/(N-2s), 2N/(N-2)-]
            "Hneg": (floor + e, True, ceiling - e, True),  # [2N/(N-2s)+, 2N/(N-2)-]
        }
    if n == 2:
        return {
            "L2": (2, True, inf, False),  # [2, inf)
            "Hs": (2 / (1 - s), False, plus_conjugate(2 / (1 - s), e), True),  # (2/(1-s), ((2/(1-s))+)']
            "Hneg": (2 / (1 - s) + e, True, plus_conjugate(2 / (1 + s), e), True),  # [2/(1-s)+, ((2/(1+s))+)']
        }
    if s >= Fraction(1, 2):  # [2, inf], and no lower constraint past r >= 1 at either level
        return {"L2": (2, True, inf, True), "Hs": (1, True, inf, True), "Hneg": (1, True, inf, True)}
    return {
        "L2": (2, True, inf, True),  # [2, inf]
        "Hs": (2 / (1 - 2 * s), False, inf, True),  # (2/(1-2s), inf]
        "Hneg": (2 / (1 - 2 * s) + e, True, inf, True),  # [2/(1-2s)+, inf]
    }


def test_admissibility_range_ends():
    # the public predicates at and around each end of each class's r-range,
    # with q from the scaling identity 2/q = N/2 - N/r - sign*s
    predicates = {
        "L2": (0, lambda q, r, n, s: is_l2_admissible(q, r, n)),
        "Hs": (1, is_hs_admissible),
        "Hneg": (-1, is_hneg_admissible),
    }
    rng = random.Random(20261021)
    levels = [Fraction(1, 2)] + [Fraction(rng.randint(1, 999), 1000) for _ in range(12)]
    verdicts = Counter()
    for n in (1, 2, 3, 4, 5):
        for s in levels:
            for klass, (lo, lo_closed, hi, hi_closed) in _written_ranges(n, s).items():
                sign, admissible = predicates[klass]
                points = {"lo": lo, "lo-": lo - ENDPOINT_EPS, "lo+": lo + ENDPOINT_EPS, "inf": math.inf}
                if hi != math.inf:
                    points.update({"hi": hi, "hi+": hi + ENDPOINT_EPS})
                for where, r in points.items():
                    rhs = Fraction(n, 2) - (0 if r == math.inf else Fraction(n) / r) - sign * s
                    if rhs < 0:
                        continue  # no exponent q has this r at this level
                    q = math.inf if rhs == 0 else 2 / rhs
                    in_range = (lo <= r if lo_closed else lo < r) and (r <= hi if hi_closed else r < hi)
                    expected = q >= 1 and r >= 1 and in_range
                    assert admissible(q, r, n, s) == expected, (klass, n, s, where, q, r)
                    verdicts[klass, where, expected] += 1
    # each open end is seen refused and each closed end admitted, with its neighbours
    for klass, where, verdict in [
        ("L2", "lo", True), ("L2", "hi", True), ("L2", "hi+", False),
        ("Hs", "lo", False), ("Hs", "lo+", True), ("Hs", "hi", True), ("Hs", "hi+", False),
        ("Hneg", "lo-", False), ("Hneg", "lo", True), ("Hneg", "hi", True), ("Hneg", "hi+", False),
    ]:
        assert verdicts[klass, where, verdict], (klass, where, verdict)


def test_family_lemma43_reference_point():
    fam = family_lemma43(Fraction(2), Fraction(3, 10), Fraction(1, 10))
    assert fam["holder_residual"] == 0
    assert fam["l2_admissible"] and fam["hs_admissible"]
    # Hoelder split 1/2 = (alpha-theta)/k + 1/l re-checked here
    half = (Fraction(2) - Fraction(1, 10)) / fam["k"] + 1 / fam["l"]
    assert half == Fraction(1, 2)


def test_family_claim1_reference_points():
    for n, alpha, b in [
        (3, Fraction(2), Fraction(3, 10)),
        (4, Fraction(6, 5), Fraction(1, 4)),
        (4, Fraction(7, 5), Fraction(1, 5)),
    ]:
        th = default_theta(n, alpha, b, "claim1")
        fam = family_claim1(alpha, b, th, n)
        assert fam["split_residual"] == 0
        assert fam["l2_admissible"] and fam["hs_admissible"] and fam["hneg_admissible"]


def test_family_claim2_reference_points():
    for n, alpha, b in [
        (3, Fraction(2), Fraction(3, 10)),
        (4, Fraction(6, 5), Fraction(1, 4)),
    ]:
        th = default_theta(n, alpha, b, "claim2")
        fam = family_claim2(alpha, b, th, n)
        assert fam["split_residual"] == 0
        assert fam["hs_admissible"] and fam["hneg_admissible"]
    # the N = 2 branch carries its own epsilon
    th = default_theta(2, Fraction(3), Fraction(1, 5), "claim2")
    fam = family_claim2(Fraction(3), Fraction(1, 5), th, 2)
    assert fam["split_residual"] == 0
    assert fam["hs_admissible"] and fam["hneg_admissible"]


def test_claim2_theta_window_n3_has_positive_floor():
    lo, hi = claim2_theta_window(3, Fraction(2), Fraction(1, 10))
    assert lo == 2 * (1 - 3 * Fraction(1, 10)) / 3
    assert hi == 2 * (1 - Fraction(1, 10)) / 3
    assert lo < hi


def test_theta_out_of_window_rejected():
    lo, hi = claim2_theta_window(3, Fraction(2), Fraction(1, 10))
    with pytest.raises(ThetaWindowError):
        family_claim2(Fraction(2), Fraction(1, 10), hi + 1, 3)
    with pytest.raises(ThetaWindowError):
        family_claim2(Fraction(2), Fraction(1, 10), lo / 2, 3)


def test_certificate_rows_reference_point():
    rows = certificate_rows(3, Fraction(2), Fraction(3, 10))
    # lemma43 contributes two rows for N = 3, claim1 three, claim2 two
    assert len(rows) == 7
    assert all(r["admissible"] for r in rows)
    assert all(r["identity_residual"] == 0 for r in rows)
    assert {r["family"] for r in rows} == {"lemma43", "claim1", "claim2"}


def test_appendix_equivalences_both_directions():
    cases = [
        (3, Fraction(2), Fraction(3, 10)),  # in scope: bounds hold
        (3, Fraction(4), Fraction(3, 10)),  # alpha > 4 - 2b: bounds fail
        (4, Fraction(6, 5), Fraction(1, 4)),
        (4, Fraction(3), Fraction(1, 4)),  # alpha > (4-2b)/(N-2)
        (2, Fraction(3), Fraction(1, 5)),
        (5, Fraction(1, 2), Fraction(1, 2)),
    ]
    saw_failing_bound = False
    for n, alpha, b in cases:
        rows = appendix_checks(n, alpha, b, Fraction(1, 20))
        for r in rows:
            assert r["equivalent"], (n, alpha, b, r)
            saw_failing_bound = saw_failing_bound or not r["bound_holds"]
    # the sweep must exercise the failing direction, not only tautologies
    assert saw_failing_bound


def _random_scope_point(rng):
    n = rng.choice([2, 3, 4, 5])
    b_cap = Fraction(min(n, 3), 3) if n >= 3 else Fraction(2, 3)
    b = Fraction(rng.randint(1, 99), 100) * min(Fraction(99, 100), b_cap)
    lo = Fraction(4 - 2 * b, n)
    if n == 2:
        hi = lo + 4
    elif n == 3:
        hi = 3 - 2 * b  # the stricter scattering ceiling for N = 3
    else:
        hi = Fraction(4 - 2 * b, n - 2)
    alpha = lo + Fraction(rng.randint(5, 95), 100) * (hi - lo)
    return n, alpha, b


def test_random_sweep_admissibility_and_residuals():
    rng = random.Random(20240817)
    checked = 0
    for _ in range(200):
        n, alpha, b = _random_scope_point(rng)
        try:
            rows = certificate_rows(n, alpha, b)
        except (DegenerateFamilyError, ThetaWindowError):
            continue
        for r in rows:
            assert r["admissible"], (n, alpha, b, r)
            assert r["identity_residual"] == 0
        for r in appendix_checks(n, alpha, b, rows[0]["theta"]):
            assert r["equivalent"]
        checked += 1
    assert checked > 150


def test_family_formulas_are_number_generic():
    # the exponent formulas use + - * / only, so plain floats pass through
    # them and land on the exact values; the comparisons are the judge's
    rng = random.Random(20261020)
    checked = 0
    for _ in range(200):
        n, alpha, b = _random_scope_point(rng)
        for family in [f for f in PAIR_ROWS if f != "lemma43" or n == 3]:
            try:
                theta = default_theta(n, alpha, b, family)
            except (DegenerateFamilyError, ThetaWindowError):
                continue
            formula = exponents._FORMULAS[family]
            exps, (res_num, res_den) = formula(n, alpha, b, theta, CLAIM2_EPS)
            f_exps, (f_res_num, f_res_den) = formula(n, float(alpha), float(b), float(theta), float(CLAIM2_EPS))
            assert list(f_exps) == list(exps)
            for key, terms in exps.items():
                for x, y in zip(terms, f_exps[key]):
                    assert type(y) is float and math.isclose(y, float(x), rel_tol=1e-12), (family, key, x, y)
            # the residual is exactly 0; in floats it is rounding, small beside the exponents
            assert res_num == 0 and math.isclose(f_res_den, float(res_den), rel_tol=1e-12)
            largest = max(abs(num / den) for num, den in f_exps.values())
            assert abs(f_res_num / f_res_den) <= 1e-12 * largest, (family, n, alpha, b, theta)
            checked += 1
    assert checked > 400


def _class_predicate(row, s_c):
    """The admissibility predicate a certificate row's class names, on its (q, r)."""
    q, r, n = row["q"], row["r"], row["N"]
    if row["class"] == "L2":
        return is_l2_admissible(q, r, n)
    if row["class"] == f"Hs({s_c})":
        return is_hs_admissible(q, r, n, s_c)
    assert row["class"] == f"Hs(-{s_c})", row
    return is_hneg_admissible(q, r, n, s_c)


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_certificate_rows_exact_residuals_and_classes(rng):
    # exact splitting residuals, and every verdict re-derived from the row's
    # own (q, r) through the predicate its class names: a swapped key in
    # PAIR_ROWS certifies one pair under another pair's verdict and fails here
    n, alpha, b = _random_scope_point(rng)
    try:
        rows = certificate_rows(n, alpha, b)
    except (DegenerateFamilyError, ThetaWindowError):
        return  # empty window at this sample
    families = [f for f in PAIR_ROWS if f != "lemma43" or n == 3]
    assert [(r["family"], r["pair"]) for r in rows] == [
        (f, row.pair) for f in families for row in PAIR_ROWS[f]
    ]
    s_c = critical_index(n, alpha, b)
    for r in rows:
        assert r["identity_residual"] == 0, r
        assert r["admissible"] == _class_predicate(r, s_c), r


def _in_claim2_interior(n, s_c, r):
    """Claim 2's interior range: 2N/(N - 2 s_c) < r < 2N/(N - 2) for N >= 3, r > 2/(1 - s_c) for N = 2."""
    if n == 2:
        return r > 2 / (1 - s_c)
    return Fraction(2 * n, n - 2 * s_c) < r < Fraction(2 * n, n - 2)


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_claim2_interior_ranges_hold_at_default_theta(rng):
    # every certified claim2 pair, at the default theta and (N >= 3) at a
    # random in-window theta, has its r inside Claim 2's interior range,
    # which the two admissibility verdicts imply
    n, alpha, b = _random_scope_point(rng)
    s_c = critical_index(n, alpha, b)
    thetas = [None]
    if n >= 3:
        lo, hi = claim2_theta_window(n, alpha, b)
        thetas.append(lo + Fraction(rng.randint(1, 9), 10) * (hi - lo))
    for theta in thetas:
        try:
            rows = certificate_rows(n, alpha, b, theta=theta)
        except (DegenerateFamilyError, ThetaWindowError):
            continue  # empty window at this sample
        for row in rows:
            if row["family"] == "claim2" and row["admissible"]:
                assert _in_claim2_interior(n, s_c, row["r"]), (n, alpha, b, theta, row)


def test_claim2_verdicts_follow_class_where_they_differ():
    # beyond the N = 3 scattering ceiling 3 - 2b, (a, r) is still
    # H^{s_c}-admissible and (a-, r-) no longer H^{-s_c}-admissible, so
    # swapped admissibility keys in claim2's rows show here
    n, alpha, b, theta = 3, Fraction(17, 5), Fraction(4, 25), Fraction(221, 500)
    rows = [r for r in certificate_rows(n, alpha, b, theta=theta) if r["family"] == "claim2"]
    assert [r["admissible"] for r in rows] == [True, False]
    s_c = critical_index(n, alpha, b)
    for r in rows:
        assert r["admissible"] == _class_predicate(r, s_c), r


def test_certificate_rows_evaluates_each_family_once(monkeypatch):
    calls = Counter()
    for name in ("lemma43", "claim1", "claim2"):
        original = getattr(exponents, f"family_{name}")

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(exponents, f"family_{name}", counted)
    for n, alpha, b, theta, eps in [
        (2, Fraction(3), Fraction(1, 5), None, CLAIM2_EPS),
        # the N = 2 claim2 search runs at the eps it certifies
        (2, Fraction(3), Fraction(1, 5), None, Fraction(1, 50)),
        (3, Fraction(2), Fraction(3, 10), None, CLAIM2_EPS),
        (3, Fraction(2), Fraction(3, 10), Fraction(1, 5), CLAIM2_EPS),
        (4, Fraction(6, 5), Fraction(1, 4), None, CLAIM2_EPS),
        (5, Fraction(9, 10), Fraction(1, 4), None, CLAIM2_EPS),
    ]:
        calls.clear()
        rows = certificate_rows(n, alpha, b, theta=theta, eps=eps)
        assert all(r["admissible"] for r in rows)
        families = {"claim1", "claim2"} | ({"lemma43"} if n == 3 else set())
        assert calls == Counter(families), (n, alpha, b, theta, eps, calls)


@st.composite
def _decimal_scope_point(draw):
    # an in-scope (N, alpha, b) with alpha and b two-place decimals k/100
    n = draw(st.sampled_from([2, 3, 4, 5]))
    b_k = draw(st.integers(1, 66 if n == 2 else 99))  # b < min(N/3, 1)
    b = Fraction(b_k, 100)
    lo = Fraction(4 - 2 * b, n)
    hi = lo + 4 if n == 2 else (3 - 2 * b if n == 3 else Fraction(4 - 2 * b, n - 2))
    a_k = draw(st.integers(math.floor(100 * lo) + 1, math.ceil(100 * hi) - 1))
    return n, a_k, b_k


@settings(max_examples=100, deadline=None)
@given(_decimal_scope_point())
def test_float_inputs_mean_their_decimals(point):
    # a float alpha or b is the decimal it was written as, at every entry point
    n, a_k, b_k = point
    alpha, b = Fraction(a_k, 100), Fraction(b_k, 100)
    try:
        rows = certificate_rows(n, alpha, b)
    except (DegenerateFamilyError, ThetaWindowError) as exc:
        with pytest.raises(type(exc)):
            certificate_rows(n, a_k / 100, b_k / 100)
        return
    assert certificate_rows(n, a_k / 100, b_k / 100) == rows
    for r in rows:
        assert all(type(r[k]) is Fraction for k in ("q", "r", "theta", "identity_residual")), r
        assert r["identity_residual"] == 0, r
    theta = rows[-1]["theta"]
    assert appendix_checks(n, a_k / 100, b_k / 100, theta) == appendix_checks(n, alpha, b, theta)
    assert default_theta(n, a_k / 100, b_k / 100) == default_theta(n, alpha, b)
    assert claim2_theta_window(n, a_k / 100, b_k / 100) == claim2_theta_window(n, alpha, b)


def _outcome(call, *args, **kwargs):
    """call's result, or the type and text of the ValueError it raised."""
    try:
        return call(*args, **kwargs)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def test_certificates_digest_pinned():
    # values, types, verdicts and error texts of 400 seeded points (N = 2-5,
    # alpha up to half a scope width past the ceiling), at the default theta
    # and at a given one, each with a non-default eps; the digest was taken
    # when every value was still computed in Fractions
    rng = random.Random(20261021)
    digest = hashlib.sha256()
    for _ in range(400):
        n = rng.choice([2, 3, 4, 5])
        b_cap = Fraction(min(n, 3), 3) if n >= 3 else Fraction(2, 3)
        b = Fraction(rng.randint(1, 99), 100) * min(Fraction(99, 100), b_cap)
        lo = Fraction(4 - 2 * b, n)
        hi = lo + 4 if n == 2 else (3 - 2 * b if n == 3 else Fraction(4 - 2 * b, n - 2))
        alpha = lo + Fraction(rng.randint(5, 150), 100) * (hi - lo)
        theta = Fraction(rng.randint(1, 400), 1000)
        eps = Fraction(rng.choice([1, 2, 5, 150, 250]), 100)
        rows = _outcome(certificate_rows, n, alpha, b, eps=eps)
        given = _outcome(certificate_rows, n, alpha, b, theta=theta, eps=eps)
        app = _outcome(appendix_checks, n, alpha, b, theta, eps=eps)
        digest.update(repr((rows, given, app)).encode())
    assert digest.hexdigest() == "563a0791515ccb4fcb6200a40bc6c53e3806defc421d09d3c78d2d8b2eea49b5"


def test_pair_families_need_two_dimensions():
    # the families are stated for N >= 2; the predicates still cover N = 1
    for call in (
        lambda: family_claim1(5, 0.3, 0.1, 1),
        lambda: family_claim2(5, 0.3, 0.1, 1),
        lambda: appendix_checks(1, 5, 0.3, 0.1),
        lambda: certificate_rows(1, 5, 0.3),
        lambda: certificate_rows(1, 5, 0.3, theta=0.1),
        lambda: default_theta(1, 5, 0.3),
    ):
        with pytest.raises(ValueError) as info:
            call()
        assert type(info.value) is ValueError and str(info.value) == "the pair families need N >= 2"
    assert is_hs_admissible(20, math.inf, 1, Fraction(2, 5))


def test_nonpositive_eps_refused_before_the_search(monkeypatch):
    calls = Counter()
    for name in ("claim1", "claim2"):
        original = getattr(exponents, f"family_{name}")

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(exponents, f"family_{name}", counted)
    for eps in (0, Fraction(-1, 2), "-0.01"):
        with pytest.raises(ThetaWindowError) as info:
            certificate_rows(2, Fraction(3), Fraction(1, 5), eps=eps)
        assert str(info.value) == f"need eps > 0, got {exponents.exact(eps)}"
    assert not calls
    # only the N = 2 family reads eps
    assert certificate_rows(3, Fraction(2), Fraction(3, 10), eps=0) == certificate_rows(3, Fraction(2), Fraction(3, 10))


def test_public_values_leave_as_fractions():
    # exponents evaluates on private ratios; what it returns is Fractions and bools
    alpha, b = Fraction(2), Fraction(3, 10)
    theta = default_theta(3, alpha, b)
    assert type(theta) is Fraction
    assert all(type(x) is Fraction for x in claim2_theta_window(3, alpha, b))
    assert type(plus_conjugate(Fraction(3, 2), ENDPOINT_EPS)) is Fraction
    for fam in (
        family_lemma43(alpha, b, theta),
        family_claim1(alpha, b, theta, 3),
        family_claim2(alpha, b, default_theta(3, alpha, b, "claim2"), 3),
        family_claim2(Fraction(3), Fraction(1, 5), Fraction(1, 5), 2),
    ):
        for key, value in fam.items():
            assert type(value) is (bool if key.endswith("_admissible") else Fraction), (key, value)
    for row in appendix_checks(3, alpha, b, theta):
        assert all(type(row[k]) is bool for k in ("bound_holds", "condition_holds", "equivalent"))
    assert type(is_l2_admissible(4, math.inf, 1)) is bool


# unreduced ratios: a common factor k stays in n and d
_ints = st.integers(-(10**6), 10**6)
_ratios = st.builds(lambda n, d, k: _Ratio(n * k, d * k), _ints, st.integers(1, 10**6), st.integers(1, 60))
_operands = st.one_of(_ints, st.fractions(max_denominator=10**6), _ratios)
_ARITHMETIC = (operator.add, operator.sub, operator.mul, operator.truediv)
_COMPARISONS = (operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge)


def _value(x):
    """A _Ratio's n/d as a Fraction; anything else as it is."""
    return Fraction(x.n, x.d) if isinstance(x, _Ratio) else x


@settings(max_examples=300, deadline=None)
@given(_ratios, _operands, st.booleans())
def test_ratio_matches_fraction(r, other, reflected):
    x, y = (other, r) if reflected else (r, other)
    for op in _ARITHMETIC:
        try:
            expected = op(Fraction(_value(x)), _value(y))
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                op(x, y)
            continue
        got = op(x, y)
        # the divisor stays positive, and the value leaves reduced
        assert type(got) is _Ratio and got.d > 0, (op, x, y)
        value = got.fraction()
        assert type(value) is Fraction and value == expected
        assert math.gcd(value.numerator, value.denominator) == 1
        assert str(got) == str(expected)
    for op in _COMPARISONS:
        assert op(x, y) is op(_value(x), _value(y)), (op, x, y)


@settings(max_examples=100, deadline=None)
@given(_ratios, st.sampled_from([math.inf, -math.inf]), st.booleans())
def test_ratio_compares_exactly_with_infinities(r, inf, reflected):
    x, y = (inf, r) if reflected else (r, inf)
    for op in _COMPARISONS:
        assert op(x, y) is op(_value(x), _value(y)), (op, x, y)


@settings(max_examples=100, deadline=None)
@given(_ratios, st.floats(allow_infinity=False), st.booleans())
def test_ratio_refuses_finite_floats(r, f, reflected):
    # a finite float (or nan) is never rounded into a comparison or a result
    x, y = (f, r) if reflected else (r, f)
    for op in _COMPARISONS + _ARITHMETIC:
        with pytest.raises(TypeError):
            op(x, y)


@pytest.mark.parametrize("eps", [0, Fraction(-1, 100)])
def test_appendix_refuses_nonpositive_eps_at_two_dimensions(eps):
    # eps = 0 divided by zero in r_bar = 2a/eps; eps < 0 gave two A3 rows
    # that read equivalent: false, since A3's equivalences presume eps > 0
    with pytest.raises(ThetaWindowError) as info:
        appendix_checks(2, Fraction(3), Fraction(1, 5), Fraction(1, 5), eps=eps)
    assert str(info.value) == f"need eps > 0, got {eps}"
    # only A3, at N = 2, reads eps
    assert appendix_checks(3, Fraction(2), Fraction(3, 10), Fraction(1, 10), eps=eps) == appendix_checks(
        3, Fraction(2), Fraction(3, 10), Fraction(1, 10)
    )


def test_theta_search_refuses_nonpositive_dimensions(monkeypatch):
    # the search's first theta, min(2(1 - b)/N, alpha)/4, divided by N = 0,
    # and at N = -1 the search evaluated a family before the refusal
    calls = Counter()
    for name in ("claim1", "claim2"):
        original = getattr(exponents, f"family_{name}")

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(exponents, f"family_{name}", counted)
    for N in (0, -1):
        for call in (lambda: certificate_rows(N, 5, 0.3), lambda: default_theta(N, 5, 0.3),
                     lambda: default_theta(N, 5, 0.3, "claim2")):
            with pytest.raises(ValueError) as info:
                call()
            assert type(info.value) is ValueError and str(info.value) == "the pair families need N >= 2"
    assert not calls
