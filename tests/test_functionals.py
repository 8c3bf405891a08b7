import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from inlslab.evolve import Evolver
from inlslab.functionals import (
    LgsReport,
    ThresholdReport,
    _coarsen,
    _signed_power,
    classify,
    lgs_verify,
    linear_decay_check,
)
from inlslab.grid import Measures, NumericalFailure, RadialGrid, gaussian_field, grad_norm_sq_form
from inlslab.params import ModelParams, validate_scope


def _mass(u):
    return float(np.sum(u.grid.weights * np.abs(u.values) ** 2))


def _energy(u, params):
    return 0.5 * grad_norm_sq_form(u) - Measures.of(u, params.alpha, params.b).potential / (params.alpha + 2)


def test_mass_energy_zero_field(grid_330, params_330):
    me = Measures.of(grid_330.field(np.zeros(grid_330.J)), params_330.alpha, params_330.b)
    assert me.mass == 0.0
    assert me.energy(params_330.alpha) == 0.0


def test_energy_gaussian_quadrature_oracle():
    # N = 3, alpha = 2, b = 0: independent adaptive-quadrature oracle
    p = ModelParams(3, 2.0, 0.0)
    g = RadialGrid(J=8192, h=1 / 512, N=3)
    u = gaussian_field(g)
    grad_o, _ = quad(lambda r: 4 * math.pi * r**2 * (2 * r * math.exp(-(r**2))) ** 2, 0, 12)
    pot_o, _ = quad(lambda r: 4 * math.pi * r**2 * math.exp(-4 * r**2), 0, 12)
    oracle = 0.5 * grad_o - pot_o / 4
    assert Measures.of(u, p.alpha, p.b).energy(p.alpha) == pytest.approx(oracle, abs=1e-5)


def test_energy_at_q_matches_identity(gs_330, params_330):
    n, alpha, b = 3, 2.0, 0.3
    coef = alpha * params_330.s_c / (n * alpha + 2 * b)
    assert _energy(gs_330.profile, params_330) == gs_330.energy
    assert gs_330.energy == pytest.approx(
        coef * gs_330.grad2, rel=1e-4
    )


def test_classify_zero_and_q(grid_330, gs_330):
    zero = grid_330.field(np.zeros(grid_330.J))
    assert classify(zero, gs_330).verdict == "GlobalScatters"
    assert classify(gs_330.profile, gs_330).verdict == "AtThreshold"


def test_classify_below_threshold_gaussian(grid_330, gs_330):
    rep = classify(gaussian_field(grid_330, 0.5, 1.0), gs_330)
    assert rep.verdict == "GlobalScatters"
    assert rep.em_product < rep.em_threshold
    assert rep.gm_product < rep.gm_threshold
    assert 0 < rep.w < 1 and 0 < rep.A < 1


@pytest.mark.parametrize("amplitude, measure", [(1e151, "potential P0"), (1e160, "mass M0")])
def test_classify_refuses_a_datum_whose_measures_overflow(gs_330, amplitude, measure):
    # every value of the datum is finite; at 1e151 its potential overflows,
    # at 1e160 its mass too.  The refusal is the only report, with no warning
    u0 = gaussian_field(RadialGrid(J=2048, h=1 / 8, N=3), amplitude, 40.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure, match=rf"^the datum's {measure} = inf is not finite$"):
            classify(u0, gs_330)


def test_classify_global_only_scope():
    # b = 0.9 > min(N/3, 1) for N = 3 breaks the scattering hypotheses but
    # not the global-existence ones
    p = ModelParams(3, 1.5, 0.9)
    scope = validate_scope(p)
    assert scope.global_scope and not scope.theorem_scope
    g = RadialGrid(J=2048, h=1 / 128, N=3)
    from inlslab.groundstate import solve_fixedpoint

    gs = solve_fixedpoint(p, g)
    rep = classify(gaussian_field(g, 0.3, 1.0), gs)
    assert rep.verdict == "GlobalOnly"


def test_classify_scale_invariant_verdict(grid_330, gs_330, params_330):
    # products are invariant under the amplitude-free rescaling, so the
    # verdict is too (Gaussians rescale exactly on the same grid)
    base = classify(gaussian_field(grid_330, 0.5, 1.0), gs_330)
    for delta in (0.5, 2.0):
        amp = 0.5 * delta ** ((2 - params_330.b) / params_330.alpha)
        rep = classify(gaussian_field(grid_330, amp, 1.0 / delta), gs_330)
        assert rep.verdict == base.verdict
        assert rep.em_product == pytest.approx(base.em_product, rel=1e-3)
        assert rep.gm_product == pytest.approx(base.gm_product, rel=1e-4)


def test_lgs_gaussian_slacks(grid_330, gs_330):
    rep = lgs_verify(gaussian_field(grid_330, 0.5, 1.0), gs_330)
    assert rep.hypotheses_ok
    assert rep.slack_coercivity >= 0
    assert rep.slack_gradient >= 0
    assert rep.slack_virial >= 0
    assert rep.energy_nonneg


def test_lgs_tq_sweep(grid_330, gs_330):
    for t in (0.1, 0.3, 0.5, 0.7, 0.9):
        u = grid_330.field(t * gs_330.profile.values)
        rep = lgs_verify(u, gs_330)
        assert rep.hypotheses_ok, t
        assert rep.slack_coercivity >= 0, t
        assert rep.energy_nonneg, t


def test_lgs_zero_boundary(grid_330, gs_330):
    rep = lgs_verify(grid_330.field(np.zeros(grid_330.J)), gs_330)
    assert rep.hypotheses_ok
    assert rep.slack_coercivity == 0
    assert rep.slack_gradient == 0
    assert rep.slack_virial == 0


def test_lgs_above_threshold_skips(grid_330, gs_330):
    rep = lgs_verify(gaussian_field(grid_330, 4.0, 1.0), gs_330)
    assert not rep.hypotheses_ok
    assert math.isnan(rep.slack_coercivity)


def _reference_reports(u, gs):
    """ThresholdReport and LgsReport written out with a separate full-grid
    evaluation for every quantity, as the formulas read."""
    params = gs.params
    N, alpha, b, s_c, sigma = params.N, params.alpha, params.b, params.s_c, params.sigma

    def products(v):
        em = _signed_power(_energy(v, params), s_c) * _mass(v) ** (1 - s_c)
        return em, math.sqrt(grad_norm_sq_form(v)) ** s_c * math.sqrt(_mass(v)) ** (1 - s_c)

    m, e = _mass(u), _energy(u, params)
    em, gm = products(u)
    em_c, gm_c = products(_coarsen(u))
    em_th = _signed_power(gs.energy, s_c) * gs.mass2 ** (1 - s_c)
    gm_th = math.sqrt(gs.grad2) ** s_c * math.sqrt(gs.mass2) ** (1 - s_c)
    w = em / em_th if em_th > 0 else math.inf
    A = 1 - _signed_power(w, alpha / 2)
    em_err, gm_err = abs(em - em_c), abs(gm - gm_c)
    scope = validate_scope(params)
    if abs(em - em_th) <= 3 * em_err or abs(gm - gm_th) <= 3 * gm_err:
        verdict = "AtThreshold"
    elif em < em_th and gm < gm_th:
        verdict = "GlobalScatters" if scope.theorem_scope else ("GlobalOnly" if scope.global_scope else "Unknown")
    else:
        verdict = "Unknown"
    grad2, pot = grad_norm_sq_form(u), Measures.of(u, alpha, b).potential
    threshold = ThresholdReport(m, e, em, gm, em_th, gm_th, w, A, verdict, em_err, gm_err, grad2, pot)
    if not (em < em_th and gm <= gm_th):
        return threshold, LgsReport(False, math.nan, math.nan, math.nan, w, A, e, e >= 0)
    c_low = alpha * s_c / (N * alpha + 2 * b)
    slack_i = min(e - c_low * grad2, 0.5 * grad2 - e)
    slack_ii = w * gs.grad2 * gs.mass2**sigma - grad2 * m**sigma
    chain_hi = 8 * grad2 - 4 * (N * alpha + 2 * b) / (alpha + 2) * pot
    slack_iii = min(8 * A * grad2 - 16 * A * e, chain_hi - 8 * A * grad2)
    return threshold, LgsReport(True, slack_i, slack_ii, slack_iii, w, A, e, e >= 0)


def test_reports_match_separate_evaluations(grid_330, gs_330):
    # classify and lgs_verify evaluate each full-grid sum once; every field
    # stays bit-identical to evaluating each quantity where the formula uses it
    for amp in (0.0, 0.5, 4.0):
        u = gaussian_field(grid_330, amp, 1.0)
        ref_threshold, ref_lgs = _reference_reports(u, gs_330)
        for got, ref in ((classify(u, gs_330), ref_threshold), (lgs_verify(u, gs_330), ref_lgs)):
            for name, value in vars(ref).items():
                actual = getattr(got, name)
                assert actual == value or (math.isnan(actual) and math.isnan(value)), (amp, name)
    u = grid_330.field(gs_330.profile.values)
    assert classify(u, gs_330) == _reference_reports(u, gs_330)[0]


def test_linear_decay_sup_norm(params_330):
    rep = linear_decay_check(params_330, math.inf, [0.5, 1, 2, 5], r_max=60.0)
    exact = (1 + 16 * rep.times**2) ** (-3 / 4)
    np.testing.assert_allclose(rep.lp_numeric, exact, rtol=1e-2)
    assert rep.mass_drift <= 1e-10
    assert rep.bounded


def test_linear_decay_lp_scaled_bounded(params_330):
    rep = linear_decay_check(params_330, 4.0, [0.5, 1, 2, 4], r_max=50.0)
    assert rep.bounded
    # numeric and closed-form L4 norms agree
    np.testing.assert_allclose(rep.lp_numeric, rep.lp_closed, rtol=1e-2)


def test_linear_decay_weighted_product_decays(params_330):
    rep = linear_decay_check(params_330, math.inf, [0.5, 2, 5], r_max=60.0)
    w = rep.weighted_product
    assert w[-1] < w[0] * 1e-2


def test_linear_decay_steps_stay_normal(params_330, monkeypatch):
    # e^{-r^2} underflows past r ~ 27; the evolver's support window keeps
    # every step's samples out of the subnormal range, where the solves run slowly
    tiny = np.finfo(float).tiny
    step, subnormal = Evolver.step_values, []

    def spying(self, w):
        out = step(self, w)
        parts = np.abs(np.concatenate([out.real, out.imag]))
        subnormal.append(int(np.count_nonzero((parts > 0) & (parts < tiny))))
        return out

    monkeypatch.setattr(Evolver, "step_values", spying)
    linear_decay_check(params_330, math.inf, [0.5], h=1 / 32, r_max=40.0)
    assert len(subnormal) == 250 and not any(subnormal)


def test_linear_decay_rejects_a_first_time_under_half_a_step(params_330):
    # 5e-4 rounds to zero steps of 2e-3: it would report the t = 0 datum
    with pytest.raises(ValueError, match="rounds to zero steps"):
        linear_decay_check(params_330, math.inf, [5e-4, 1.0], dt=2e-3)


def test_linear_decay_validation(params_330):
    with pytest.raises(ValueError):
        linear_decay_check(params_330, 2.0, [1.0])  # p must exceed 2
    with pytest.raises(ValueError):
        linear_decay_check(params_330, 7.0, [1.0])  # above 2N/(N-2) = 6
    with pytest.raises(ValueError):
        linear_decay_check(params_330, 4.0, [])
