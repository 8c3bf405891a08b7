import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from inlslab.evolve import (
    _DT_SAFETY,
    _TAIL,
    BoundaryLeak,
    EvolutionConfig,
    Evolver,
    GradientBoundViolation,
    LinearSolveFailure,
    _PHI_POLY,
    _phi_bilaplacian,
    _phi_deviation_constants,
    _phi_laplacian,
    _virial_tables,
    phi,
    rigidity_check,
    run,
    scattering_diagnostic,
    virial_series,
)
from inlslab.functionals import classify
from inlslab.grid import (
    Measures,
    RadialGrid,
    gaussian_field,
    grad_norm_sq_form,
    radial_derivative,
    shifted_laplacian_solver,
)
from inlslab.groundstate import solve_fixedpoint
from inlslab.params import ModelParams


def _mass(u):
    return Measures.of(u, 2.0, 0.3).mass


def _config(params, J=2048, h=1 / 64, dt=1e-3, t_end=0.5, **kw):
    return EvolutionConfig(params=params, J=J, h=h, dt=dt, t_end=t_end, **kw)


def test_config_validation(params_330):
    with pytest.raises(ValueError):
        _config(params_330, dt=-1e-3)
    with pytest.raises(ValueError):
        _config(params_330, dt=1.0)  # blows the dt <= safety * h^2 budget
    with pytest.raises(ValueError):
        _config(params_330, virial_R=64.0)  # cutoff must fit inside r_max/2
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            _config(params_330, dt=bad)
        with pytest.raises(ValueError, match="finite"):
            _config(params_330, t_end=bad)
    with pytest.raises(ValueError, match="zero steps"):
        _config(params_330, dt=1e-3, t_end=4e-4)
    assert _config(params_330, dt=1e-3, t_end=6e-4).n_steps == 1


def _strang_step(ev, v):
    """One Strang step P_{dt/2} L P_{dt/2} of the physical field v."""
    return ev.unstagger(ev.step_values(ev.stagger(v)))


def test_step_zero_field(params_330):
    g = RadialGrid(J=256, h=1 / 32, N=3)
    ev = Evolver(g, params_330, 1e-3)
    assert np.all(_strang_step(ev, np.zeros(g.J, dtype=complex)) == 0)


def test_step_mass_unitary(params_330):
    g = RadialGrid(J=1024, h=1 / 64, N=3)
    v = gaussian_field(g, 0.7, 1.0).values.astype(complex)
    before = _mass(g.field(v))
    after = _mass(g.field(_strang_step(Evolver(g, params_330, 1e-3), v)))
    assert abs(after - before) / before < 1e-12


def test_classify_and_run_record_read_the_same_measures(params_330):
    g = RadialGrid(J=2048, h=1 / 128, N=3)
    u0 = gaussian_field(g, 0.5, 1.0)
    rep = classify(u0, solve_fixedpoint(params_330, g))
    trace = run(u0, _config(params_330, J=g.J, h=g.h, dt=1e-3, t_end=1e-3))
    assert rep.mass == trace.mass_series[0]
    assert rep.energy == trace.energy_series[0]
    assert rep.grad2 == trace.grad_series[0]
    assert rep.potential == trace.potential_series[0]
    assert rep.gm_product == trace.gm_product_series[0]


def test_linear_step_matches_free_gaussian(params_330):
    # closed form: (1+4it)^{-N/2} exp(-r^2/(1+4it)); error is O(dt^2 + h^2)
    errs = []
    for h, dt in [(1 / 32, 2e-3), (1 / 64, 1e-3)]:
        g = RadialGrid(J=int(24 / h), h=h, N=3)
        ev = Evolver(g, params_330, dt, linear_only=True)
        v = np.exp(-g.nodes**2).astype(complex)
        t_end = 0.5
        for _ in range(int(round(t_end / dt))):
            v = ev.step_values(v)
        closed = (1 + 4j * t_end) ** (-1.5) * np.exp(-g.nodes**2 / (1 + 4j * t_end))
        errs.append(np.max(np.abs(v - closed)))
    assert errs[0] < 5e-4
    # doubling resolution and halving dt cuts the error by about 4x
    assert 2.5 < errs[0] / errs[1] < 7.0


def test_phi_cutoff_smoothness():
    # C^2 at both junctions, positive inside, identically zero beyond 2
    for k, val1 in [(0, 1.0), (1, 2.0), (2, 2.0)]:
        assert phi(np.array([1.0 - 1e-9]), k)[0] == pytest.approx(val1, abs=1e-6)
        assert phi(np.array([1.0 + 1e-9]), k)[0] == pytest.approx(val1, abs=1e-6)
        assert abs(phi(np.array([2.0 - 1e-9]), k)[0]) < 1e-6
    s = np.linspace(0.01, 1.99, 500)
    assert np.all(phi(s) > 0)
    assert np.all(phi(np.linspace(2.0, 5.0, 50)) == 0)


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
def test_bilaplacian_constant_is_the_limit_at_one(N):
    # the blend's fourth derivative jumps at s = 1, and the blend matches s^2
    # to third order there, so the supremum over s > 1 is |B''''(1)| = 2040
    assert _phi_deviation_constants(N)[1] == 2040.0


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
def test_deviation_constants_cover_the_exterior_and_the_blend(N):
    c_hess, _, c_lap, c_grad = _phi_deviation_constants(N)
    # phi = 0 on s >= 2 deviates from s^2 by 2, 2N and 2
    assert c_hess >= 2 and c_lap >= 2 * N and c_grad >= 2

    def blend(s, k):
        return np.polyval(np.polyder(_PHI_POLY, k), s)

    s = np.linspace(1.0, 2.0, 1_000_001)
    fine = (
        np.max(np.abs(blend(s, 2) - 2)),
        np.max(np.abs(blend(s, 2) + (N - 1) * blend(s, 1) / s - 2 * N)),
        np.max(np.abs(blend(s, 1) - 2 * s) / s),
    )
    # each constant is a supremum: no sample exceeds it, and it exceeds none by more than rounding
    for constant, sup in zip((c_hess, c_lap, c_grad), fine):
        assert sup <= constant <= sup * (1 + 1e-9)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_phi_k_is_the_derivative_of_phi_k_minus_1(k):
    # centered differences of the (k-1)-th derivative, away from the junctions
    s = np.concatenate([np.linspace(0.05, 0.95, 19), np.linspace(1.05, 1.95, 19), [2.5]])
    step = 1e-5
    slope = (phi(s + step, k - 1) - phi(s - step, k - 1)) / (2 * step)
    np.testing.assert_allclose(phi(s, k), slope, rtol=1e-6, atol=1e-3)
    assert phi(np.array([2.0, 3.0]), k).tolist() == [0.0, 0.0]


def test_virial_real_field_has_zero_zprime(params_330):
    g = RadialGrid(J=2048, h=1 / 64, N=3)
    u = gaussian_field(g, 0.5, 1.0)
    vs = virial_series(u, params_330, 4.0)
    assert vs["zR_prime"] == pytest.approx(0.0, abs=1e-14)
    assert vs["zR"] > 0


def test_virial_far_r_identity(params_330):
    g = RadialGrid(J=2048, h=1 / 64, N=3)
    u = gaussian_field(g, 0.5, 1.0)
    vs = virial_series(u, params_330, 14.0)
    n, alpha, b = 3, 2.0, 0.3
    me = Measures.of(u, alpha, b)
    rhs = 8 * me.grad2 - 4 * (n * alpha + 2 * b) / (alpha + 2) * me.potential
    assert vs["zR_second_direct"] == pytest.approx(rhs, rel=1e-4)


@pytest.fixture(scope="module")
def short_run(params_330):
    g = RadialGrid(J=2048, h=1 / 64, N=3)
    gs = solve_fixedpoint(params_330, g)
    u0 = gaussian_field(g, 0.5, 1.0)
    rep = classify(u0, gs)
    cfg = _config(params_330, J=2048, h=1 / 64, dt=5e-4, t_end=1.0, record_every=20, virial_R=10.0)
    return run(u0, cfg, threshold=rep), rep


def test_run_conservation(short_run):
    trace, _ = short_run
    m, e = trace.mass_series, trace.energy_series
    assert np.max(np.abs(m - m[0])) / m[0] < 1e-10
    assert np.max(np.abs(e - e[0])) / abs(e[0]) < 1e-6


def test_run_gradient_bound(short_run):
    trace, rep = short_run
    assert np.all(trace.gm_product_series < rep.gm_threshold)


def test_virial_chain_consistency(short_run):
    trace, _ = short_run
    t, z, zp, zs = (
        trace.times,
        trace.zR_series,
        trace.zR_prime_series,
        trace.zR_second_direct_series,
    )
    dz = (z[2:] - z[:-2]) / (t[2:] - t[:-2])
    dzp = (zp[2:] - zp[:-2]) / (t[2:] - t[:-2])
    rec = t[1] - t[0]
    h = trace.config.h
    scale = rec**2 + h**2
    assert np.max(np.abs(dz - zp[1:-1])) / scale < 10
    assert np.max(np.abs(dzp - zs[1:-1])) / scale < 10


def test_rigidity_holds(short_run):
    trace, rep = short_run
    rig = rigidity_check(trace, rep)
    assert rig.holds and not rig.r_too_small
    assert rig.integrated_holds
    assert rig.lower_bound == pytest.approx(8 * rep.A * rep.energy)


def test_rigidity_r_probe(params_330, short_run):
    # shrinking R flips to r_too_small, never to a silent pass
    _, rep = short_run
    g = RadialGrid(J=2048, h=1 / 64, N=3)
    u0 = gaussian_field(g, 0.5, 1.0)
    seen_too_small = False
    for R in (8.0, 4.0, 2.0, 1.0, 0.5):
        cfg = _config(params_330, J=2048, h=1 / 64, dt=5e-4, t_end=0.1, record_every=20, virial_R=R)
        rig = rigidity_check(run(u0, cfg, threshold=rep), rep)
        if seen_too_small:
            assert rig.r_too_small  # monotone once flipped
        if rig.r_too_small:
            seen_too_small = True
            assert not rig.holds
    assert seen_too_small


def test_rigidity_rejects_above_threshold(short_run, params_330):
    trace, _ = short_run

    class FakeReport:
        verdict = "Unknown"

    with pytest.raises(ValueError):
        rigidity_check(trace, FakeReport())


def test_gradient_bound_violation_raised(params_330):
    # feed a fake threshold whose gm bound is below the initial product
    g = RadialGrid(J=512, h=1 / 32, N=3)
    u0 = gaussian_field(g, 0.5, 1.0)

    class FakeReport:
        verdict = "GlobalScatters"
        gm_threshold = 1e-6

    cfg = _config(params_330, J=512, h=1 / 32, dt=1e-3, t_end=0.01)
    with pytest.raises(GradientBoundViolation):
        run(u0, cfg, threshold=FakeReport())


def test_boundary_leak_raised(params_330):
    # a wide profile on a tiny domain trips the outer-shell budget at once
    g = RadialGrid(J=256, h=1 / 64, N=3)
    u0 = gaussian_field(g, 0.5, 10.0)
    cfg = _config(params_330, J=256, h=1 / 64, dt=1e-3, t_end=0.01)
    with pytest.raises(BoundaryLeak):
        run(u0, cfg)


def test_linear_run_potential_decays(params_330):
    g = RadialGrid(J=2048, h=1 / 64, N=3)
    u0 = gaussian_field(g, 0.5, 1.0)
    cfg = _config(params_330, J=2048, h=1 / 64, dt=1e-3, t_end=2.0, record_every=50, linear_only=True)
    trace = run(u0, cfg)
    pot = trace.potential_series
    assert pot[-1] < 0.05 * pot[0]
    # monotone decay after the (here absent) transient
    assert np.all(np.diff(pot) < 0)
    diag = scattering_diagnostic(trace)
    assert diag.decayed
    # free-flow L4-potential of a Gaussian falls like t^{-3} in 3D (b = 0
    # would be exact; the r^{-0.3} weight steepens it slightly)
    assert diag.decay_exponent < -2.0


def test_soliton_stationary_short(params_330):
    # the standing wave is mass-supercritical and dynamically unstable
    # (growth rate ~14 here), so the splitting error seed must be tiny;
    # a short horizon keeps this module test fast, the t <= 1 persistence
    # bound is exercised at full depth in the acceptance suite
    g = RadialGrid(J=256, h=1 / 16, N=3)
    gs = solve_fixedpoint(params_330, g, tol=1e-14)
    cfg = _config(params_330, J=256, h=1 / 16, dt=2e-5, t_end=0.2, record_every=2000)
    trace = run(g.field(gs.profile.values.astype(complex)), cfg)
    dev = np.abs(trace.final_field.values) - gs.profile.values
    err = math.sqrt(float(np.sum(g.weights * dev**2)))
    assert err < 1e-4


def test_run_steps_on_the_datum_grid(params_330):
    g = RadialGrid(J=256, h=1 / 16, N=3)
    u0 = gaussian_field(g, 0.5, 1.0)
    trace = run(u0, _config(params_330, J=256, h=1 / 16, dt=1e-3, t_end=0.01, record_every=5))
    assert trace.final_field.grid is u0.grid


@pytest.mark.parametrize("J, h, N", [(255, 1 / 16, 3), (256, 1 / 32, 3), (256, 1 / 16, 2)])
def test_run_refuses_a_datum_on_another_grid(params_330, J, h, N):
    u0 = gaussian_field(RadialGrid(J=J, h=h, N=N), 0.5, 1.0)
    with pytest.raises(ValueError, match="initial field grid does not match the configuration"):
        run(u0, _config(params_330, J=256, h=1 / 16, dt=1e-3, t_end=0.01))


def test_run_zero_field(params_330):
    # zero data has no mass to leak and stays zero under the flow
    g = RadialGrid(J=256, h=1 / 16, N=3)
    cfg = _config(params_330, J=256, h=1 / 16, dt=1e-3, t_end=0.02, record_every=5, virial_R=4.0)
    trace = run(g.field(np.zeros(g.J)), cfg)
    assert trace.times[-1] == pytest.approx(0.02)
    for series in (
        trace.mass_series,
        trace.energy_series,
        trace.grad_series,
        trace.potential_series,
        trace.gm_product_series,
        trace.zR_series,
        trace.zR_prime_series,
        trace.zR_second_direct_series,
        trace.ext_budget_series,
        trace.final_field.values,
    ):
        assert np.all(series == 0)


def test_initial_gm_product_matches_classify(params_330):
    # the run checks the trace against the classifier's threshold, so both
    # must measure the same gradient
    g = RadialGrid(J=256, h=1 / 16, N=3)
    gs = solve_fixedpoint(params_330, g)
    u0 = gaussian_field(g, 0.5, 1.0)
    rep = classify(u0, gs)
    cfg = _config(params_330, J=256, h=1 / 16, dt=1e-3, t_end=1e-3)
    trace = run(u0, cfg, threshold=rep)
    assert trace.gm_product_series[0] == pytest.approx(rep.gm_product, rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    N=st.integers(1, 5),
    J=st.integers(3, 300),
    h=st.floats(1 / 256, 1.0),
    dt_over_h2=st.floats(1e-3, 100.0),  # the EvolutionConfig accuracy budget
    seed=st.integers(0, 2**32 - 1),
)
def test_linear_step_is_unitary(N, J, h, dt_over_h2, seed):
    g = RadialGrid(J=J, h=h, N=N)
    ev = Evolver(g, ModelParams(N, 2.0, 0.3), dt_over_h2 * h**2, linear_only=True)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(J) + 1j * rng.standard_normal(J)
    before = math.sqrt(_mass(g.field(v)))
    after = math.sqrt(_mass(g.field(ev.step_values(v))))
    assert abs(after - before) <= 1e-12 * before


def _apply_B(grid, z, v):
    """(I + z Lap) v, built from the Laplacian's diagonals."""
    lower, diag, upper = grid.laplacian
    out = (1 + z * diag) * v
    out[1:] += z * lower * v[:-1]
    out[:-1] += z * upper * v[1:]
    return out


def _classic_strang(v, grid, params, dt, steps):
    """steps classic P_{dt/2} L P_{dt/2} Strang steps with L = A^{-1} B."""
    z = 1j * dt / 2
    solve = shifted_laplacian_solver(grid, z)
    half = (dt / 2) * grid.nodes ** (-params.b)
    for _ in range(steps):
        v = v * np.exp(1j * half * np.abs(v) ** params.alpha)
        v = solve(_apply_B(grid, z, v))
        v = v * np.exp(1j * half * np.abs(v) ** params.alpha)
    return v


@settings(max_examples=100, deadline=None)
@given(
    N=st.integers(1, 5),
    J=st.integers(3, 3000),
    h=st.floats(1 / 512, 1.0),
    dt_over_h2=st.floats(1e-3, _DT_SAFETY),
    seed=st.integers(0, 2**32 - 1),
)
def test_cayley_step_is_crank_nicolson(N, J, h, dt_over_h2, seed):
    # B = 2I - A, so the step 2 A^{-1} w - w is A^{-1} B w up to round-off
    g = RadialGrid(J=J, h=h, N=N)
    dt = dt_over_h2 * h**2
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(J) + 1j * rng.standard_normal(J)
    oracle = shifted_laplacian_solver(g, 1j * dt / 2)(_apply_B(g, 1j * dt / 2, w))
    step = Evolver(g, ModelParams(N, 2.0, 0.3), dt, linear_only=True).step_values(w)
    assert np.linalg.norm(step - oracle) <= 1e-13 * np.linalg.norm(oracle)


def test_soliton_mass_drift(params_330):
    # the soliton-persistence setup for 1e5 steps: node j of a standing wave
    # takes the same rounding in every solve, so a biased pivot scaling adds
    # up step by step; scaling by 1/d alone drifts by -1.7e-11 here, and with
    # its rounding residual by -5.5e-12
    g = RadialGrid(J=256, h=1 / 16, N=3)
    gs = solve_fixedpoint(params_330, g, tol=1e-14)
    cfg = _config(params_330, J=256, h=1 / 16, dt=2.5e-7, t_end=0.025, record_every=100_000)
    trace = run(g.field(gs.profile.values.astype(complex)), cfg)
    assert cfg.n_steps == 100_000
    assert abs(trace.mass_series[-1] / trace.mass_series[0] - 1) <= 1e-11


@st.composite
def _in_scope_params(draw):
    n = draw(st.integers(2, 5))
    b = draw(st.floats(0.01, 0.99)) * min(n / 3, 1.0)
    lo = (4 - 2 * b) / n
    hi = lo + 4 if n == 2 else (3 - 2 * b if n == 3 else (4 - 2 * b) / (n - 2))
    alpha = lo + draw(st.floats(0.05, 0.95)) * (hi - lo)
    return ModelParams(n, alpha, b)


@settings(max_examples=40, deadline=None)
@given(
    params=_in_scope_params(),
    J=st.integers(8, 200),
    h=st.floats(1 / 64, 1 / 4),
    dt_over_h2=st.floats(1e-3, _DT_SAFETY),
    n_steps=st.integers(1, 30),
    record_every=st.integers(1, 10),
    r_frac=st.floats(0.1, 0.9),
    width_frac=st.floats(0.0, 1.0),
    total_phase=st.floats(1e-3, 0.5),
    seed=st.integers(0, 2**32 - 1),
)
# a datum that underflows to exact zeros: all 30 steps take the support window
@example(params=ModelParams(3, 2.0, 0.3), J=200, h=1 / 16, dt_over_h2=0.1, n_steps=30, record_every=7,
         r_frac=0.5, width_frac=0.0, total_phase=0.5, seed=1)
def test_run_matches_classic_strang(params, J, h, dt_over_h2, n_steps, record_every, r_frac,
                                    width_frac, total_phase, seed):
    # the staggered loop records the same fields as classic Strang steps
    g = RadialGrid(J=J, h=h, N=params.N)
    alpha, b = params.alpha, params.b
    dt = dt_over_h2 * h**2
    rng = np.random.default_rng(seed)
    # a complex Gaussian with 1% noise, scaled so the nonlinear phase summed
    # over the run stays below total_phase: data that focuses, or a larger
    # phase, amplifies round-off in any two orderings of the same arithmetic
    width = 2 * h + width_frac * (g.r_max / 4 - 2 * h)
    noise = 0.01 * (rng.standard_normal(J) + 1j * rng.standard_normal(J))
    v0 = (rng.standard_normal() + 1j * rng.standard_normal() + noise) * np.exp(-((g.nodes / width) ** 2))
    peak = n_steps * dt * float(np.max(g.nodes ** (-b) * np.abs(v0) ** alpha))
    v0 = v0 * (total_phase / peak) ** (1 / alpha)
    assert v0[-1] == 0 or g.nodes[-1] < 28 * width  # exp(-(r/width)^2) underflows past 27.3 widths
    R = r_frac * g.r_max / 2
    cfg = EvolutionConfig(params=params, J=J, h=h, dt=dt, t_end=n_steps * dt,
                          record_every=record_every, virial_R=R, boundary_budget=1.0)
    trace = run(g.field(v0), cfg)

    record_steps = [0] + [n for n in range(1, n_steps + 1) if n % record_every == 0 or n == n_steps]
    assert len(trace.times) == len(record_steps)
    v, done = v0, 0
    keys = ("mass", "grad", "pot", "zR", "zp", "zs", "budget")
    expected = {key: [] for key in keys}
    zp_scale = 0.0  # the integrand of z'_R in absolute value: z'_R itself may cancel to ~0
    for n in record_steps:
        v = _classic_strang(v, g, params, dt, n - done)
        done = n
        u = g.field(v)
        vs = virial_series(u, params, R)
        me = Measures.of(u, alpha, b)
        for key, val in zip(keys, (me.mass, grad_norm_sq_form(u), me.potential,
                                   vs["zR"], vs["zR_prime"], vs["zR_second_direct"], vs["ext_budget"])):
            expected[key].append(val)
        zp_scale = max(zp_scale, 2 * R * float(
            np.sum(g.weights * np.abs(phi(g.nodes / R, 1) * radial_derivative(u) * v))))
    diff = trace.final_field.values - v
    assert math.sqrt(_mass(g.field(diff))) <= 1e-12 * math.sqrt(_mass(g.field(v)))
    for key, series in zip(keys, (trace.mass_series, trace.grad_series, trace.potential_series,
                                  trace.zR_series, trace.zR_prime_series,
                                  trace.zR_second_direct_series, trace.ext_budget_series)):
        ref = np.asarray(expected[key])
        scale = zp_scale if key == "zp" else np.max(np.abs(ref))
        assert np.max(np.abs(series - ref)) <= 1e-12 * scale, key
    grad2, pot = np.asarray(expected["grad"]), np.asarray(expected["pot"])
    e_scale = np.max(0.5 * grad2 + pot / (alpha + 2))  # the energy's two terms may cancel
    assert np.max(np.abs(trace.energy_series - (0.5 * grad2 - pot / (alpha + 2)))) <= 1e-12 * e_scale


@settings(max_examples=60, deadline=None)
@given(
    J=st.integers(3, 300),
    index=st.integers(0, 299),
    imag_part=st.booleans(),
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
    linear_only=st.booleans(),
    zero_tail=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_step_values_rejects_non_finite(J, index, imag_part, bad, linear_only, zero_tail, seed):
    g = RadialGrid(J=J, h=1 / 32, N=3)
    ev = Evolver(g, ModelParams(3, 2.0, 0.3), 1e-3, linear_only=linear_only)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(J) + 1j * rng.standard_normal(J)
    if zero_tail:  # the step takes the support window, whose support holds the bad node
        v[J // 2 :] = 0
    if imag_part:
        v.imag[index % J] = bad
    else:
        v.real[index % J] = bad
    with np.errstate(invalid="ignore"), pytest.raises(LinearSolveFailure):
        ev.step_values(v)


def _fresh_virial(u, params, R):
    """virial_series evaluated term by term from the cutoff functions, nothing cached."""
    grid = u.grid
    N, alpha, b = params.N, params.alpha, params.b
    r, w = grid.nodes, grid.weights
    s = r / R
    v = u.values
    absv2 = np.abs(v) ** 2
    pot_density = r ** (-b) * np.abs(v) ** (alpha + 2)
    du = radial_derivative(u)
    du2 = np.abs(du) ** 2
    zR = R**2 * float(np.sum(w * phi(s) * absv2))
    zR_prime = 2 * R * float(np.sum(w * phi(s, 1) * np.imag(du * np.conj(v))))
    t1 = 4 * float(np.sum(w * phi(s, 2) * du2))
    t2 = -(1 / R**2) * float(np.sum(w * _phi_bilaplacian(s, N) * absv2))
    t3 = -(2 * alpha / (alpha + 2)) * float(np.sum(w * _phi_laplacian(s, N) * pot_density))
    t4 = (4 * R / (alpha + 2)) * float(
        np.sum(w * (-b) * r ** (-b - 1) * phi(s, 1) * np.abs(v) ** (alpha + 2))
    )
    c_hess, c_bilap, c_lap, c_grad = _phi_deviation_constants(N)
    mask = r > R
    wm = w[mask]
    ext_pot = float(np.sum(wm * pot_density[mask]))
    ext_budget = (
        4 * c_hess * float(np.sum(wm * du2[mask]))
        + c_bilap * float(np.sum(wm * absv2[mask])) / R**2
        + (2 * alpha / (alpha + 2)) * c_lap * ext_pot
        + (4 * b / (alpha + 2)) * c_grad * ext_pot
    )
    return {"zR": zR, "zR_prime": zR_prime, "zR_second_direct": t1 + t2 + t3 + t4,
            "ext_budget": ext_budget}


@settings(max_examples=30, deadline=None)
@given(
    J1=st.integers(8, 400),
    J2=st.integers(8, 400),
    h1=st.floats(1 / 64, 1 / 4),
    h2=st.floats(1 / 64, 1 / 4),
    r_fracs=st.lists(st.floats(0.05, 0.95), min_size=2, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_virial_tables_cached_per_grid_and_radius(J1, J2, h1, h2, r_fracs, seed):
    # alternating grids and radii reuse the cache and still give the fresh numbers
    params = ModelParams(3, 2.0, 0.3)
    rng = np.random.default_rng(seed)
    fields = []
    for J, h in ((J1, h1), (J2, h2)):
        g = RadialGrid(J=J, h=h, N=3)
        fields.append(g.field((rng.standard_normal(J) + 1j * rng.standard_normal(J))
                              * np.exp(-g.nodes / g.r_max)))
    for _ in range(2):
        for frac in r_fracs:
            for u in fields:
                R = frac * u.grid.r_max / 2
                assert virial_series(u, params, R) == _fresh_virial(u, params, R)
                absv = np.abs(u.values)
                assert virial_series(u, params, R, absv2=absv**2, vpow=absv**4.0) == _fresh_virial(u, params, R)
    tables = _virial_tables(fields[0].grid, 0.3, r_fracs[0] * J1 * h1 / 2)
    for table in tables[:-1]:
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0.0


def _exp_formula(v, coef, alpha):
    """The phase rotation written with numpy's complex exponential."""
    return v * np.exp(1j * coef * np.abs(v) ** alpha)


@settings(max_examples=80, deadline=None)
@given(
    params=_in_scope_params(),
    values=st.lists(
        st.one_of(
            st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310]),  # zeros, subnormals
            st.floats(-1e3, 1e3),
        ),
        min_size=6,
        max_size=400,
    ),
    real=st.booleans(),
    h=st.floats(1 / 64, 1.0),
    dt_over_h2=st.floats(1e-3, _DT_SAFETY),
    linear_only=st.booleans(),
)
def test_rotation_is_bitwise_the_exp_formula(params, values, real, h, dt_over_h2, linear_only):
    # cos and sin written into one complex buffer give the bits of
    # v * exp(1j * theta), signed zeros and subnormals included
    if real:
        v = np.array(values)
    else:
        v = np.empty(len(values) // 2, dtype=complex)
        v.real, v.imag = values[: v.size], values[v.size : 2 * v.size]
    g = RadialGrid(J=v.size, h=h, N=params.N)
    dt = dt_over_h2 * h**2
    ev = Evolver(g, params, dt, linear_only=linear_only)
    w = shifted_laplacian_solver(g, 1j * dt / 2, 2.0)(v) - v  # the Cayley step 2 A^{-1} v - v
    # a field whose last node is below _TAIL steps on its support instead,
    # which test_window_step_matches_the_whole_grid covers
    whole_grid = abs(v[-1]) >= _TAIL
    if linear_only:
        assert ev.stagger(v) is v and ev.unstagger(v) is v
        if whole_grid:
            assert ev.step_values(v).tobytes() == w.tobytes()
        return
    alpha, half = params.alpha, (dt / 2) * g.nodes ** (-params.b)
    assert ev.stagger(v).tobytes() == _exp_formula(v, half, alpha).tobytes()
    assert ev.unstagger(v).tobytes() == _exp_formula(v, -half, alpha).tobytes()
    if whole_grid:
        assert ev.step_values(v).tobytes() == _exp_formula(w, dt * g.nodes ** (-params.b), alpha).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    N=st.integers(1, 5),
    alpha=st.floats(0.5, 4.0),
    J=st.integers(64, 3000),
    h=st.floats(1 / 256, 1.0),
    dt_over_h2=st.floats(1e-3, _DT_SAFETY),
    widths=st.floats(28.0, 80.0),
    amplitude=st.floats(0.05, 3.0),
    angle=st.floats(0.0, 2 * math.pi),
    linear_only=st.booleans(),
)
def test_window_step_matches_the_whole_grid(N, alpha, J, h, dt_over_h2, widths, amplitude, angle,
                                            linear_only):
    # a Gaussian that underflows to exact zeros past r = 27.3 width steps on
    # its support only: off by at most _TAIL (1 + dt/h^2) from the step on
    # the whole grid, and the same to rounding wherever the field is resolved
    g = RadialGrid(J=J, h=h, N=N)
    dt = dt_over_h2 * h**2
    w = amplitude * np.exp(1j * angle) * np.exp(-((g.nodes * widths / g.r_max) ** 2))
    assert w[-1] == 0
    ev = Evolver(g, ModelParams(N, alpha, 0.3), dt, linear_only=linear_only)
    step = ev.step_values(w)
    full = ev._rotate(shifted_laplacian_solver(g, 1j * dt / 2, 2.0)(w) - w, ev._phase)
    diff = np.abs(step - full)
    assert np.all(diff <= _TAIL * (1 + dt_over_h2))
    resolved = np.abs(full) >= 2.0**-500
    assert np.all(diff[resolved] <= 1e-15 * np.abs(full[resolved]))
    # exact zeros past the last node with a part of at least _TAIL/2, and
    # no subnormal part anywhere
    parts = step.view(np.float64)
    held = np.flatnonzero(np.abs(parts) >= _TAIL / 2) // 2
    assert np.all(step[held[-1] + 1 if held.size else 0:] == 0)
    assert not np.any((parts != 0) & (np.abs(parts) < np.finfo(float).tiny))
