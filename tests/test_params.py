import csv
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inlslab.grid import Measures, RadialGrid, gaussian_field
from inlslab.params import (
    ModelParams,
    critical_index,
    exact,
    scaling_exponents,
    upper_exponents,
    validate_scope,
)


def test_critical_index_values():
    # s_c = N/2 - (2-b)/alpha
    assert critical_index(3, 2.0, 0.3) == pytest.approx(0.65)
    assert critical_index(2, 3.0, 0.2) == pytest.approx(0.4)
    assert critical_index(4, 1.2, 0.25) == pytest.approx(2 - 1.75 / 1.2)
    assert critical_index(1, 2.0, 0.0) == pytest.approx(-0.5)


def test_critical_index_exact_is_rational():
    s = critical_index(3, Fraction(2), Fraction(3, 10))
    assert isinstance(s, Fraction) and s == Fraction(13, 20)


@settings(max_examples=200, deadline=None)
@given(
    N=st.integers(1, 64),
    alpha=st.floats(1e-3, 1e3, allow_nan=False),
    b=st.floats(0.0, 10.0, allow_nan=False),
)
def test_critical_index_float_is_the_float_formula(N, alpha, b):
    # float inputs give a float with the bits of N/2 - (2-b)/alpha
    s = critical_index(N, alpha, b)
    assert type(s) is float and s == N / 2 - (2 - b) / alpha


def test_upper_exponents():
    # exact rationals in, exact rationals out
    two_star, two_lower = upper_exponents(3, Fraction(3, 10))
    assert isinstance(two_star, Fraction) and two_star == Fraction(17, 5)
    assert isinstance(two_lower, Fraction) and two_lower == Fraction(12, 5)
    two_star, two_lower = upper_exponents(4, 0.25)
    assert isinstance(two_star, Fraction) and two_star == two_lower == Fraction(7, 4)
    two_star, two_lower = upper_exponents(2, 0.5)
    assert two_star == math.inf and two_lower == math.inf
    with pytest.raises(ValueError):
        upper_exponents(1, 0.0)


def test_two_dimensional_ceilings_are_infinite():
    # alpha < 2* = inf holds for every finite alpha, however large
    rep = validate_scope(ModelParams(2, 1e300, 0.5))
    assert rep.energy_subcritical and rep.scattering_subcritical


def test_scope_flags_at_reference_points():
    for n, alpha, b in [(3, 2.0, 0.3), (2, 3.0, 0.2), (4, 1.2, 0.25)]:
        rep = validate_scope(ModelParams(n, alpha, b))
        assert rep.theorem_scope and rep.global_scope


def test_scope_boundaries_are_strict():
    # alpha exactly at the mass-critical endpoint (4-2b)/N fails
    p = ModelParams(3, (4 - 2 * 0.5) / 3, 0.5)
    rep = validate_scope(p)
    assert not rep.mass_supercritical and not rep.theorem_scope
    # b = 0 fails both b-conditions
    rep0 = validate_scope(ModelParams(3, 2.0, 0.0))
    assert not rep0.b_theorem_ok and not rep0.b_global_ok
    # b at N/3 for N = 3 fails the theorem window but not the global one
    rep3 = validate_scope(ModelParams(3, 2.0, 1.0))
    assert not rep3.b_theorem_ok
    assert rep3.b_global_ok


def test_scope_n1_all_false():
    rep = validate_scope(ModelParams(1, 2.0, 0.0))
    assert not any(
        [rep.mass_supercritical, rep.energy_subcritical, rep.theorem_scope, rep.global_scope]
    )


def test_sigma():
    p = ModelParams(3, 2.0, 0.3)
    assert p.sigma == pytest.approx((1 - 0.65) / 0.65)
    assert ModelParams(1, 2.0, 0.0).sigma is None


def test_scaling_multipliers():
    p = ModelParams(3, 2.0, 0.3)
    rep = scaling_exponents(p, 2.0)
    assert rep.L2 == pytest.approx(2.0 ** (-0.65))
    assert rep.gradL2 == pytest.approx(2.0**0.35)
    assert rep.potential == pytest.approx(2.0**0.7)
    with pytest.raises(ValueError):
        scaling_exponents(p, 0.0)


@settings(max_examples=100, deadline=None)
@given(
    N=st.integers(1, 5),
    alpha=st.floats(0.25, 4.0),
    b_frac=st.floats(0.0, 0.99),
    J=st.integers(3, 2000),
    h=st.floats(1 / 512, 1 / 8),
    delta=st.one_of(st.floats(0.5, 0.8), st.floats(1.25, 2.0)),
    amp=st.floats(0.1, 3.0),
    width=st.floats(0.25, 2.0),
)
def test_scaling_multipliers_match_grid_quadrature(N, alpha, b_frac, J, h, delta, amp, width):
    # u_delta(r) = delta^{(2-b)/alpha} u(delta r) sampled on the grid of width
    # h/delta has u's node values at nodes delta times closer to 0, so the grid
    # sums obey the continuum scaling law up to round-off (on one fixed grid
    # the singular r^{-b} weight alone leaves O(h^{N-b}) quadrature errors)
    b = b_frac * min(N, 3) / 3
    p = ModelParams(N, alpha, b)
    rep = scaling_exponents(p, delta)
    u = gaussian_field(RadialGrid(J=J, h=h, N=N), amp, width)
    u_delta = gaussian_field(
        RadialGrid(J=J, h=h / delta, N=N), delta ** ((2 - b) / alpha) * amp, width / delta
    )
    me_delta, me = Measures.of(u_delta, alpha, b), Measures.of(u, alpha, b)
    assert math.sqrt(me_delta.mass) / math.sqrt(me.mass) == pytest.approx(rep.L2, rel=1e-12)
    assert math.sqrt(me_delta.grad2) / math.sqrt(me.grad2) == pytest.approx(rep.gradL2, rel=1e-12)
    assert me_delta.potential / me.potential == pytest.approx(rep.potential, rel=1e-12)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        ModelParams(0, 2.0, 0.3)
    with pytest.raises(ValueError):
        ModelParams(3, 0.0, 0.3)
    with pytest.raises(ValueError):
        ModelParams(3, 2.0, -0.1)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_parameters_rejected(bad):
    with pytest.raises(ValueError, match="not a finite number"):
        exact(bad)
    with pytest.raises(ValueError, match="alpha must be positive and finite"):
        ModelParams(3, bad, 0.3)
    with pytest.raises(ValueError, match="b must be nonnegative and finite"):
        ModelParams(3, 2.0, bad)


@pytest.mark.parametrize("bad", [True, [1], "1/0", None])
def test_exact_refuses_what_is_not_a_number(bad):
    # a bool is not the number 1 or 0, and no other failure leaks out as a
    # TypeError or a ZeroDivisionError
    with pytest.raises(ValueError):
        exact(bad)


def test_exact_reads_the_written_decimal():
    assert exact(0.9) == Fraction(9, 10)
    assert exact(0.1 + 0.2) == Fraction("0.30000000000000004")
    assert exact(Fraction(2, 3)) == Fraction(2, 3)
    assert exact(3) == 3


def test_scope_decided_on_exact_decimals():
    # alpha = 0.9 is exactly the mass-critical (4 - 2b)/N for N = 4, b = 0.2
    rep = validate_scope(ModelParams(4, 0.9, 0.2))
    assert not rep.mass_supercritical and not rep.theorem_scope and not rep.global_scope
    # alpha = 2.4 is exactly the N = 3 scattering ceiling 3 - 2b for b = 0.3
    rep = validate_scope(ModelParams(3, 2.4, 0.3))
    assert not rep.scattering_subcritical and not rep.theorem_scope
    assert rep.mass_supercritical and rep.energy_subcritical and rep.global_scope
    # b = N/3 exactly for N = 2 fails the theorem's b window; just below passes
    assert not validate_scope(ModelParams(2, Fraction(3), Fraction(2, 3))).b_theorem_ok
    assert validate_scope(ModelParams(2, Fraction(3), Fraction(2, 3) - Fraction(1, 10**30))).b_theorem_ok
    # Fractions pass through: the same points given exactly decide alike
    assert validate_scope(ModelParams(4, Fraction(9, 10), Fraction(1, 5))) == validate_scope(ModelParams(4, 0.9, 0.2))


@pytest.mark.parametrize("n, alpha, b", [(3, 2, 0.3), (4, 0.9, 0.2), (3, 2.4, 0.3), (2, 3, 0.2), (3, 1.5, 0.9)])
def test_params_and_pairs_agree_on_scope(tmp_path, capsys, n, alpha, b):
    # cmd_params decides scope on the exact exponents that cmd_pairs certifies
    import json

    from inlslab.cli import main

    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"model": {"N": n, "alpha": alpha, "b": b}}))
    assert main(["params", "--config", str(cfg)]) == 0
    flags = dict(part.split("=") for part in capsys.readouterr().out.split())
    a_ex, b_ex = Fraction(str(alpha)), Fraction(str(b))  # the config text, read exactly
    lower = (4 - 2 * b_ex) / n
    ceiling = 3 - 2 * b_ex if n == 3 else ((4 - 2 * b_ex) / (n - 2) if n > 2 else None)
    s_c = Fraction(n, 2) - (2 - b_ex) / a_ex
    expected_scatter = ceiling is None or a_ex < ceiling
    theorem = a_ex > lower and expected_scatter and 0 < b_ex < min(Fraction(n, 3), 1) and 0 < s_c < 1
    assert flags["mass_supercritical"] == str(a_ex > lower).lower()
    assert flags["scattering_subcritical"] == str(expected_scatter).lower()
    assert flags["theorem_scope"] == str(theorem).lower()
    status = main(["pairs", "--config", str(cfg), "--out", str(tmp_path / "out")])
    capsys.readouterr()
    if 0 < s_c < 1:
        assert status == 0
        with open(tmp_path / "out" / "pairs.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {(r["alpha"], r["b"]) for r in rows} == {(str(a_ex), str(b_ex))}
    else:
        assert status == 2
