import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from inlslab import groundstate
from inlslab.grid import RadialGrid, gaussian_field
from inlslab.groundstate import (
    NoBracket,
    NoConvergence,
    SolverFailure,
    _bracket,
    _classify_shot,
    _finalize,
    _rhs,
    _series_start,
    gn_maximality_probe,
    sharp_constant,
    solve_fixedpoint,
    solve_shooting,
    verify_identities,
    weinstein_quotient,
)
from inlslab.params import ModelParams


def test_sech_oracle_fixedpoint(sech_pair):
    p, g, exact = sech_pair
    gs = solve_fixedpoint(p, g, test_mode=True)
    assert np.max(np.abs(gs.profile.values - exact)) < 1e-6
    assert gs.mass2 == pytest.approx(4.0, abs=1e-6)
    assert gs.grad2 == pytest.approx(4.0 / 3.0, abs=1e-6)
    assert gs.potential == pytest.approx(16.0 / 3.0, abs=1e-5)
    assert gs.cgn == pytest.approx(1 / math.sqrt(3), abs=1e-5)


def test_sech_oracle_shooting(sech_pair):
    p, g, exact = sech_pair
    gs = solve_shooting(p, g, test_mode=True)
    assert np.max(np.abs(gs.profile.values - exact)) < 1e-6
    assert gs.mass2 == pytest.approx(4.0, abs=1e-6)
    assert gs.grad2 == pytest.approx(4.0 / 3.0, abs=1e-6)


def test_scope_gate_without_test_mode(sech_pair):
    p, g, _ = sech_pair
    with pytest.raises(ValueError):
        solve_fixedpoint(p, g)


def test_stabilizer_exponent_one_diverges(params_330):
    g = RadialGrid(J=512, h=1 / 32, N=3)
    with pytest.raises((NoConvergence, RuntimeError)):
        solve_fixedpoint(params_330, g, stabilizer_exponent=1.0, max_iter=80)


def test_solver_failures_share_one_class(params_330):
    # the command line maps every SolverFailure to its numerical-failure exit code
    assert issubclass(NoBracket, SolverFailure) and issubclass(NoConvergence, SolverFailure)
    g = RadialGrid(J=64, h=1 / 8, N=3)
    with pytest.raises(SolverFailure, match="not strictly positive"):
        _finalize(params_330, g.field(np.linspace(1.0, -1.0, g.J)), "probe", 0.0, 0)
    with pytest.raises(SolverFailure, match="not strictly decreasing"):
        _finalize(params_330, g.field(np.linspace(1.0, 2.0, g.J)), "probe", 0.0, 0)


def test_fixedpoint_profile_shape(gs_330):
    v = np.real(gs_330.profile.values)
    assert np.all(v > 0)
    assert np.all(np.diff(v) < 0)
    assert gs_330.energy == pytest.approx(
        0.5 * gs_330.grad2 - gs_330.potential / 4, rel=1e-12
    )


def test_cross_method_agreement(gs_330, gs_330_shooting):
    for f in ("mass2", "grad2", "potential"):
        a, b = getattr(gs_330, f), getattr(gs_330_shooting, f)
        assert abs(a - b) / abs(b) < 1e-4, f


def test_shooting_residual_at_reference_point(gs_330_shooting):
    assert gs_330_shooting.residual <= 1e-8


def test_identities_reference_point(gs_330):
    res = verify_identities(gs_330)
    assert all(v <= 1e-4 for v in res.values()), res


def test_identities_refine_second_order(params_330):
    coarse = solve_fixedpoint(params_330, RadialGrid(J=2048, h=1 / 128, N=3))
    fine = solve_fixedpoint(params_330, RadialGrid(J=4096, h=1 / 256, N=3))
    rc = verify_identities(coarse)
    rf = verify_identities(fine)
    for key in ("GS1", "GS2", "EGS"):
        ratio = rc[key] / rf[key]
        assert 2.0 < ratio < 8.0, (key, rc[key], rf[key])


def test_sharp_constant_consistency(gs_330):
    rep = sharp_constant(gs_330)
    assert rep["rel_gap"] <= 1e-3
    sech = solve_fixedpoint(
        ModelParams(1, 2.0, 0.0), RadialGrid(J=2048, h=1 / 128, N=1), test_mode=True
    )
    with pytest.raises(ValueError):
        sharp_constant(sech)  # s_c = -1/2 is outside (0, 1)


def test_weinstein_scale_invariance(gs_330, params_330):
    # u -> delta^{(2-b)/alpha} u(delta r) leaves the quotient unchanged;
    # Gaussians rescale onto themselves so no resampling error enters
    g = gs_330.profile.grid
    base = weinstein_quotient(gaussian_field(g, 1.0, 1.0), params_330)
    for delta in (0.5, 2.0):
        amp = delta ** ((2 - params_330.b) / params_330.alpha)
        scaled = weinstein_quotient(gaussian_field(g, amp, 1.0 / delta), params_330)
        # the delta = 2 profile is twice as narrow, so the centered-difference
        # gradient quadrature carries ~4x the base error
        assert scaled == pytest.approx(base, rel=1e-4)


def test_gn_probe_never_beats_q(gs_330):
    rep = gn_maximality_probe(gs_330, trials=200, seed=0, tol=1e-3)
    assert rep["holds"]
    assert rep["max_quotient"] <= gs_330.cgn * 1.001
    # quotient at Q itself is the reported extremal value
    assert weinstein_quotient(gs_330.profile, gs_330.params) == pytest.approx(gs_330.cgn)


def test_other_scope_points_cross_method():
    for n, alpha, b in [(2, 3.0, 0.2), (4, 1.2, 0.25)]:
        p = ModelParams(n, alpha, b)
        g = RadialGrid(J=4096, h=1 / 256, N=n)
        fp = solve_fixedpoint(p, g)
        sh = solve_shooting(p, g)
        for f in ("mass2", "grad2", "potential"):
            assert abs(getattr(fp, f) - getattr(sh, f)) / getattr(fp, f) < 1e-4
        assert all(v <= 1e-4 for v in verify_identities(fp).values())
        assert sharp_constant(fp)["rel_gap"] <= 1e-3


# the reference points, shot as solve_shooting shoots them on J = 4096, h = 1/256
SHOT_POINTS = [(3, 2.0, 0.3), (2, 3.0, 0.2), (4, 1.2, 0.25)]
R_START, R_END = 1e-6, 16.0 + 1.0


@functools.cache
def _bisected_center(point):
    p = ModelParams(*point)
    a_lo, a_hi, _ = _bracket(p, R_END, R_START)
    while (mid := 0.5 * (a_lo + a_hi)) not in (a_lo, a_hi):
        if _classify_shot(mid, p, R_END, R_START) == "cross":
            a_hi = mid
        else:
            a_lo = mid
    return 0.5 * (a_lo + a_hi)


def _event_kind(a, p):
    """The shot's kind from solve_ivp's terminal events q = 0 and q = 2a."""

    def crossed(r, y):
        return y[0]

    def diverged(r, y):
        return y[0] - 2.0 * a

    crossed.terminal = diverged.terminal = True
    crossed.direction, diverged.direction = -1, 1
    sol = solve_ivp(_rhs(p), (R_START, R_END), list(_series_start(a, p, R_START)),
                    method="DOP853", rtol=1e-12, atol=1e-14, events=(crossed, diverged))
    if sol.t_events[0].size:
        return "cross"
    return "diverge" if sol.t_events[1].size else "end"


@settings(max_examples=40, deadline=None)
@given(
    point=st.sampled_from(SHOT_POINTS),
    factor=st.one_of(
        st.floats(0.5, 2.0),
        st.floats(-1e-12, 1e-12).map(lambda e: 1.0 + e),  # on the separatrix
    ),
)
def test_classify_shot_matches_terminal_events(point, factor):
    p = ModelParams(*point)
    a = _bisected_center(point) * factor
    assert _classify_shot(a, p, R_END, R_START) == _event_kind(a, p)


@settings(max_examples=300, deadline=None)
@given(
    N=st.integers(1, 5),
    alpha=st.floats(0.25, 4.0),
    b=st.floats(0.0, 0.99),
    r=st.floats(1e-7, 40.0),
    q=st.floats(-20.0, 20.0),
    dq=st.floats(-50.0, 50.0),
)
def test_rhs_is_bitwise_the_numpy_scalar_formula(N, alpha, b, r, q, dq):
    y = np.array([q, dq])
    r64 = np.float64(r)
    force = y[0] - (r64**-b) * np.abs(y[0]) ** alpha * y[0]
    expected = [y[1], force - (N - 1) / r64 * y[1]]
    assert _rhs(ModelParams(N, alpha, b))(r64, y) == expected


def test_iterations_count_shots_and_fixedpoint_steps(params_330, monkeypatch):
    g = RadialGrid(J=1024, h=1 / 64, N=3)
    calls = {"classify": 0, "solve_ivp": 0}

    def counting(name, original):
        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    monkeypatch.setattr(groundstate, "_classify_shot", counting("classify", _classify_shot))
    monkeypatch.setattr(groundstate, "solve_ivp", counting("solve_ivp", solve_ivp))
    sh = solve_shooting(params_330, g)
    # every bracket and bisection shot is counted; only the final shot is dense
    assert sh.iterations == calls["classify"] > 40
    assert calls["solve_ivp"] == 1
    fp = solve_fixedpoint(params_330, g)
    again = solve_fixedpoint(params_330, g, max_iter=fp.iterations)
    assert again.iterations == fp.iterations and again.residual == fp.residual
    with pytest.raises(NoConvergence) as exc:
        solve_fixedpoint(params_330, g, max_iter=fp.iterations - 1)
    assert len(exc.value.trace) == fp.iterations - 1
