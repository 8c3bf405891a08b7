import math

import numpy as np
import pytest

from inlslab.grid import RadialGrid, gaussian_field
from inlslab.groundstate import (
    NoBracket,
    NoConvergence,
    SolverFailure,
    _finalize,
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
        _finalize(params_330, g.field(np.linspace(1.0, -1.0, g.J)), "probe", 0.0)
    with pytest.raises(SolverFailure, match="not strictly decreasing"):
        _finalize(params_330, g.field(np.linspace(1.0, 2.0, g.J)), "probe", 0.0)


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
