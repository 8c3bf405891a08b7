import functools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import ode, solve_ivp

from inlslab import cli, groundstate
from inlslab.grid import (
    Measures,
    NumericalFailure,
    RadialGrid,
    gaussian_field,
    get_lapack_funcs,
    laplacian_radial,
    shifted_laplacian_solver,
)
from inlslab.groundstate import (
    NoBracket,
    NoConvergence,
    SolverFailure,
    _bracket,
    _center,
    _ENERGY_MARGIN,
    _exit_margin,
    _finalize,
    _rhs,
    _series,
    _shot_start,
    gn_maximality_probe,
    sharp_constant,
    solve_fixedpoint,
    solve_shooting,
    verify_identities,
    weinstein_quotient,
)
from inlslab.params import ModelParams, validate_scope


def test_sech_oracle_fixedpoint(sech_pair):
    p, g, exact = sech_pair
    gs = solve_fixedpoint(p, g)
    assert np.max(np.abs(gs.profile.values - exact)) < 1e-6
    assert gs.mass2 == pytest.approx(4.0, abs=1e-6)
    assert gs.grad2 == pytest.approx(4.0 / 3.0, abs=1e-6)
    assert gs.potential == pytest.approx(16.0 / 3.0, abs=1e-5)
    assert gs.cgn == pytest.approx(1 / math.sqrt(3), abs=1e-5)


def test_sech_oracle_shooting(sech_pair):
    p, g, exact = sech_pair
    gs = solve_shooting(p, g)
    assert np.max(np.abs(gs.profile.values - exact)) < 1e-6
    assert gs.mass2 == pytest.approx(4.0, abs=1e-6)
    assert gs.grad2 == pytest.approx(4.0 / 3.0, abs=1e-6)


def test_scope_gate_without_test_mode(tmp_path, capsys):
    # the solvers take any model; the command line, where outside input
    # reaches them, refuses one outside the global-existence scope
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"model": {"N": 1, "alpha": 2, "b": 0}, "grid": {"J": 64, "h": 1 / 8}}))
    assert cli.main(["groundstate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "outside the global-existence scope" in err[0]


def test_solver_failures_share_one_class(params_330):
    # the command line maps every SolverFailure to its numerical-failure exit code
    assert issubclass(NoBracket, SolverFailure) and issubclass(NoConvergence, SolverFailure)
    assert issubclass(SolverFailure, NumericalFailure)
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
    sech = solve_fixedpoint(ModelParams(1, 2.0, 0.0), RadialGrid(J=2048, h=1 / 128, N=1))
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


@pytest.mark.parametrize("c", [1e-100, 1e100])
def test_weinstein_quotient_does_not_depend_on_the_amplitude(gs_330, params_330, c):
    # P has degree alpha + 2, the sum of the denominator's exponents, so c
    # cancels; evaluated directly, c = 1e-100 underflows the denominator to 0
    # and c = 1e100 overflows it
    u = gaussian_field(gs_330.profile.grid, 1.0, 1.0)
    base = weinstein_quotient(u, params_330)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = weinstein_quotient(u.grid.field(c * u.values), params_330)
    assert scaled == pytest.approx(base, rel=1e-12)


def test_gn_probe_never_beats_q(gs_330, gs_330_shooting):
    rep = gn_maximality_probe(gs_330, trials=200, seed=0, tol=1e-3)
    assert rep["holds"]
    assert rep["max_quotient"] <= gs_330.cgn * 1.001
    # quotient at Q itself is the reported extremal value, on the probe's one evaluation path
    for gs in (gs_330, gs_330_shooting):
        assert weinstein_quotient(gs.profile, gs.params) == gs.cgn


def test_other_scope_points_cross_method():
    for n, alpha, b in [(2, 3.0, 0.2), (4, 1.2, 0.25)]:
        p = ModelParams(n, alpha, b)
        g = RadialGrid(J=4096, h=1 / 256, N=n)
        fp = solve_fixedpoint(p, g)
        sh = solve_shooting(p, g)
        for f in ("mass2", "grad2", "potential"):
            assert abs(getattr(fp, f) - getattr(sh, f)) / getattr(fp, f) < 1e-4
        # ||Q||^2 is the one mass sum, with no round trip through the norm
        for gs in (fp, sh):
            assert gs.mass2 == Measures.of(gs.profile, alpha, b).mass
        assert all(v <= 1e-4 for v in verify_identities(fp).values())
        assert sharp_constant(fp)["rel_gap"] <= 1e-3


# the reference points
SHOT_POINTS = [(3, 2.0, 0.3), (2, 3.0, 0.2), (4, 1.2, 0.25)]
SHOT_FACTORS = st.one_of(
    st.floats(0.5, 2.0),
    st.floats(-1e-12, 1e-12).map(lambda e: 1.0 + e),  # on the separatrix
)


@functools.cache
def _bisected_center(point):
    """The center bisected on the exit margin's sign to a one-ulp bracket."""
    p = ModelParams(*point)
    a_lo, a_hi, _ = _bracket(p)
    while (mid := 0.5 * (a_lo + a_hi)) not in (a_lo, a_hi):
        if _exit_margin(mid, p) > 0:
            a_hi = mid
        else:
            a_lo = mid
    return 0.5 * (a_lo + a_hi)


def _compiled_shot(a, p, solout):
    """The package's shot with center value a, stepped by the same compiled
    DOP853 to _R_SHOT under solout(r, q, dq) instead of the package's exit
    rule; solout returns -1 to stop."""
    fun, series, y0, _ = _shot_start(a, p)
    solver = ode(fun).set_integrator("dop853", rtol=1e-12, atol=1e-14, nsteps=groundstate._MAX_STEPS)
    solver.set_solout(lambda r, y: solout(r, *y.tolist()))
    solver.set_initial_value(y0, series.r_s).integrate(groundstate._R_SHOT)


def _event_kind(a, p):
    """The shot's kind from the first step end with q <= 0 or q >= 2a, with
    no energy certificate."""
    cap = _shot_start(a, p)[3]
    kind = ["end"]

    def terminal(r, q, dq):
        if q <= 0 or q >= cap:
            kind[0] = "cross" if q <= 0 else "diverge"
            return -1
        return 0

    _compiled_shot(a, p, terminal)
    return kind[0]


@settings(max_examples=40, deadline=None)
@given(point=st.sampled_from(SHOT_POINTS), factor=SHOT_FACTORS)
def test_classify_shot_matches_terminal_events(point, factor):
    p = ModelParams(*point)
    a = _bisected_center(point) * factor
    assert (_exit_margin(a, p) > 0) == (_event_kind(a, p) == "cross")


def _uncertified_steps(a, p):
    """Compiled DOP853 steps to _R_SHOT with no energy stop: the radius of
    the first step end with q <= 0, with q >= 2a and with E < -margin q^2
    (inf where none occurs)."""
    cap = _shot_start(a, p)[3]
    first = {"cross": math.inf, "cap": math.inf, "certified": math.inf}

    def record(r, q, dq):
        if q <= 0:
            first["cross"] = r
            return -1
        energy = 0.5 * (dq * dq - q * q) + r**-p.b * q ** (p.alpha + 2) / (p.alpha + 2)
        for key, hit in (("cap", q >= cap), ("certified", energy < -_ENERGY_MARGIN * q * q)):
            if hit:
                first[key] = min(first[key], r)
        return 0

    _compiled_shot(a, p, record)
    return first


@settings(max_examples=40, deadline=None)
@given(point=st.sampled_from(SHOT_POINTS), factor=SHOT_FACTORS)
def test_energy_certificate_never_disagrees(point, factor):
    p = ModelParams(*point)
    a = _bisected_center(point) * factor
    first = _uncertified_steps(a, p)
    # a certified shot never crosses later, even when stepped on past the cap
    assert first["certified"] == math.inf or first["cross"] == math.inf
    # the uncertified classification: crossing before the cap or the end
    assert (_exit_margin(a, p) > 0) == (first["cross"] < first["cap"])


@pytest.mark.parametrize("point", SHOT_POINTS)
def test_energy_certificate_stops_shots_below_the_center(point):
    # just below the separatrix the shot never reaches the cap: without the
    # certificate it would be stepped to _R_SHOT
    first = _uncertified_steps(_bisected_center(point) * (1 - 1e-9), ModelParams(*point))
    assert first["certified"] < 16
    assert first["cap"] == first["cross"] == math.inf


@pytest.mark.parametrize("point", SHOT_POINTS)
def test_center_matches_bisection(point):
    center, shots = _center(ModelParams(*point))
    assert center == pytest.approx(_bisected_center(point), rel=1e-13, abs=0)
    # the one-ulp bisection took 55, 54 and 59 shots here
    assert shots <= 35


def test_center_at_the_sech_oracle():
    # N = 1, alpha = 2, b = 0: Q = sqrt(2) sech r, so a* = sqrt(2)
    center, _ = _center(ModelParams(1, 2.0, 0.0))
    assert center == pytest.approx(math.sqrt(2), rel=1e-13, abs=0)


def test_center_without_convergence_is_a_solver_failure(params_330, monkeypatch):
    monkeypatch.setattr(groundstate, "_BRENT_MAXITER", 3)
    with pytest.raises(SolverFailure, match="no center value"):
        solve_shooting(params_330, RadialGrid(J=1024, h=1 / 64, N=3))


@st.composite
def scope_points(draw):
    """(N, alpha, b) inside the theorem scope, alpha strictly between its bounds."""
    N = draw(st.integers(2, 5))
    b = draw(st.floats(0.01, 0.99)) * min(N / 3, 1.0)
    lo = (4 - 2 * b) / N
    hi = lo + 4 if N == 2 else 3 - 2 * b if N == 3 else (4 - 2 * b) / (N - 2)
    return N, lo + draw(st.floats(0.05, 0.95)) * (hi - lo), b


@settings(max_examples=60, deadline=None)
@given(point=scope_points(), a=st.floats(0.1, 200.0))
def test_series_matches_tight_integration(point, a):
    p = ModelParams(*point)
    assert validate_scope(p).theorem_scope
    series = _series(a, p)
    N, b = p.N, p.b
    # the two leading coefficients in closed form:
    # Q = a + a r^2/(2N) - a^{alpha+1} r^{2-b}/((2-b)(N-b)) + ...
    lead = dict(zip(zip(series.ex, series.ey), series.g))
    assert lead[2, 0] == pytest.approx(1 / (2 * N), rel=1e-15)
    assert lead[0, 2 - b] == pytest.approx(-1 / ((2 - b) * (N - b)), rel=1e-15)
    # from deep inside r_s, where the state is its leading terms, a tight
    # integration reaches the truncated series at r_s.  It runs in t = ln r on
    # the deviation (d, r d') of (q, r q') from the two leading terms P above.
    # d is a small part of a, so DOP853's relative error in it stays below 1%
    # of the bound; on (q, r q') themselves it reached 1.0016 times the bound
    # at (5, 1.05, 0.03125), a = 0.5, and 2.3 times at other scope points,
    # while a 30-digit integration put the series within 3e-17 there
    c2, cb = a / (2 * N), a ** (p.alpha + 1) / ((2 - b) * (N - b))

    def leading(r):
        """P = a + c2 r^2 - cb r^{2-b} and r P'."""
        return a + c2 * r * r - cb * r ** (2 - b), 2 * c2 * r * r - (2 - b) * cb * r ** (2 - b)

    def rhs_log(t, y):
        # Lap P = a - a^{alpha+1} r^{-b}, so Lap d = P - a + d - r^{-b}(q^{alpha+1} - a^{alpha+1})
        r = math.exp(t)
        q = leading(r)[0] + y[0]
        return [y[1], (2 - N) * y[1] + r * r * (c2 * r * r - cb * r ** (2 - b) + y[0])
                - r ** (2 - b) * (abs(q) ** p.alpha * q - a ** (p.alpha + 1))]

    r0 = min(1e-8, 1e-3 * series.r_s)
    q0, dq0 = series(r0)
    p0, rdp0 = leading(r0)
    sol = solve_ivp(rhs_log, (math.log(r0), math.log(series.r_s)), [float(q0) - p0, float(r0 * dq0) - rdp0],
                    method="DOP853", rtol=3e-14, atol=1e-20 * a)
    sol.y += np.array(leading(series.r_s))[:, None]  # back to (q, r q')
    q, dq = series(series.r_s)
    assert abs(q - sol.y[0, -1]) <= 1e-13 * a
    assert abs(series.r_s * dq - sol.y[1, -1]) <= 1e-13 * max(a, abs(series.r_s * dq))


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

    monkeypatch.setattr(groundstate, "_exit_margin", counting("classify", _exit_margin))
    monkeypatch.setattr(groundstate, "solve_ivp", counting("solve_ivp", solve_ivp))
    sh = solve_shooting(params_330, g)
    # every bracket and Brent shot is counted; only the final shot is dense
    assert sh.iterations == calls["classify"] < 30
    assert calls["solve_ivp"] == 1
    fp = solve_fixedpoint(params_330, g)
    again = solve_fixedpoint(params_330, g, max_iter=fp.iterations)
    assert again.iterations == fp.iterations and again.residual == fp.residual
    with pytest.raises(NoConvergence) as exc:
        solve_fixedpoint(params_330, g, max_iter=fp.iterations - 1)
    assert len(exc.value.trace) == fp.iterations - 1


# the measures the normalized iteration alone reached at the reference
# points, J = 4096, h = 1/256, in 83, 44 and 109 steps
ITERATION_MEASURES = {
    (3, 2.0, 0.3): (9.277320706898292, 43.73554132274248, 53.012862029622504),
    (2, 3.0, 0.2): (4.717681025676889, 8.387574859522928, 13.10525588519463),
    (4, 1.2, 0.25): (99.98382186066311, 481.7291914122632, 581.713013273022),
}


@pytest.mark.parametrize("point", SHOT_POINTS)
def test_newton_finish_keeps_the_iterations_measures(point):
    p = ModelParams(*point)
    gs = solve_fixedpoint(p, RadialGrid(J=4096, h=1 / 256, N=p.N))
    for name, expected in zip(("mass2", "grad2", "potential"), ITERATION_MEASURES[point]):
        assert getattr(gs, name) == pytest.approx(expected, rel=1e-10, abs=0), name


def test_newton_finish_takes_few_steps_at_the_readme_grid(params_330):
    # the normalized iteration alone took 83 steps here
    assert solve_fixedpoint(params_330, RadialGrid(J=4096, h=1 / 64, N=3)).iterations <= 30


@settings(max_examples=30, deadline=None)
@given(point=scope_points())
def test_fixedpoint_profile_passes_the_iterations_own_test(point):
    # one more normalized step from the returned profile moves it by less than
    # the iteration's stopping test, tol * max(1, ||Q||)
    p = ModelParams(*point)
    g = RadialGrid(J=512, h=1 / 32, N=p.N)
    q = solve_fixedpoint(p, g).profile.values
    f = g.nodes ** (-p.b) * np.abs(q) ** p.alpha * q
    m = np.sum(g.weights * (q - laplacian_radial(g.field(q)).values) * q) / np.sum(g.weights * f * q)
    step = m ** ((p.alpha + 1) / p.alpha) * shifted_laplacian_solver(g, 1.0)(f) - q
    norm = math.sqrt(np.sum(g.weights * q**2))
    assert math.sqrt(np.sum(g.weights * step**2)) < 1e-12 * max(1.0, norm)


def _spoiled_newton(monkeypatch, spoil):
    """Make every Newton step fail its check `spoil`; returns the count of
    Newton factorizations."""
    calls = []

    def spoiled(names, dtype=None):
        gttrf, gttrs = get_lapack_funcs(names, dtype=dtype)

        def factor(*args):
            calls.append(args)
            *factors, info = gttrf(*args)
            return (*factors, 1 if spoil == "singular" else info)

        def solve(*args):
            dq, info = gttrs(*args)
            # -dq goes uphill: F(q - dq) is about 2 F(q)
            return (dq * np.nan if spoil == "not finite" else -dq), info

        return factor, solve

    monkeypatch.setattr(groundstate, "get_lapack_funcs", spoiled)
    return calls


@pytest.mark.parametrize("spoil", ["singular", "not finite", "residual up"])
def test_a_rejected_newton_step_leaves_the_solve_to_the_iteration(params_330, monkeypatch, spoil):
    g = RadialGrid(J=1024, h=1 / 64, N=3)
    with monkeypatch.context() as patch:
        patch.setattr(groundstate, "_NEWTON_HANDOFF", 0.0)  # no Newton step at all
        plain = solve_fixedpoint(params_330, g)
    calls = _spoiled_newton(monkeypatch, spoil)
    gs = solve_fixedpoint(params_330, g)
    # one attempt, which changes nothing: the iteration's own path
    assert len(calls) == 1
    assert gs.iterations == plain.iterations and gs.residual == plain.residual
    assert np.array_equal(gs.profile.values, plain.profile.values)


@pytest.mark.parametrize("point", SHOT_POINTS)
def test_shot_does_not_depend_on_the_grid(point):
    # the shot runs until it exits, so a short domain only samples fewer nodes:
    # r_max = 5 and 8 lie inside the graft radius (9.7-10.9 here)
    p = ModelParams(*point)
    full = solve_shooting(p, RadialGrid(J=1024, h=1 / 64, N=p.N))
    for J in (320, 512):
        short = solve_shooting(p, RadialGrid(J=J, h=1 / 64, N=p.N))
        assert np.array_equal(short.profile.values, full.profile.values[:J]), J
        assert short.iterations == full.iterations


def _recording_ode(monkeypatch):
    """Record every compiled solver the package builds."""
    solvers = []

    def recording(fun):
        solvers.append(ode(fun))
        return solvers[-1]

    monkeypatch.setattr(groundstate, "ode", recording)
    return solvers


@pytest.mark.parametrize("point", SHOT_POINTS)
def test_classifying_shots_exit_before_the_bound(point, monkeypatch):
    solvers = _recording_ode(monkeypatch)
    _center(ModelParams(*point))
    # return code 2: stopped by the exit rule, not at _R_SHOT or a failed step
    assert solvers and all(s.get_return_code() == 2 and s.t < groundstate._R_SHOT for s in solvers)


def test_a_shot_that_exits_at_its_start_is_not_integrated(params_330, monkeypatch):
    # far below the center the energy certificate already holds at r_s; the
    # compiled code calls solout at the start too, and a stop there is its
    # failure code -3 with a UserWarning
    solvers = _recording_ode(monkeypatch)
    center, _ = _center(params_330)
    solvers.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _exit_margin(0.1 * center, params_330) < 0
    assert not solvers


def test_a_failed_shot_ends_quietly(params_330, monkeypatch):
    # a negative return code (here: too many steps) ends the shot where it
    # stopped, as an exit does, with no warning
    solvers = _recording_ode(monkeypatch)
    center, _ = _center(params_330)
    monkeypatch.setattr(groundstate, "_MAX_STEPS", 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        margin = _exit_margin(center, params_330)
    assert solvers[-1].get_return_code() < 0 and solvers[-1].t < 2
    assert math.isfinite(margin) and margin < 0


@pytest.mark.parametrize("point", SHOT_POINTS)
def test_exit_margin_has_one_slope_across_the_center(point):
    # the Wronskian with the decaying mode is linear in a - a*, with the same
    # slope on both sides; e^{-2 r_exit} had slopes 3-28x apart here
    p = ModelParams(*point)
    center, _ = _center(p)
    for eps in (1e-6, 1e-9):
        above = _exit_margin(center * (1 + eps), p) / eps
        below = -_exit_margin(center * (1 - eps), p) / eps
        assert above > 0 and below > 0
        assert above == pytest.approx(below, rel=1e-2), eps


@pytest.mark.parametrize("point", SHOT_POINTS)
def test_center_shoots_each_value_once(point, monkeypatch):
    shot = []

    def recording(a, params):
        shot.append(a)
        return _exit_margin(a, params)

    monkeypatch.setattr(groundstate, "_exit_margin", recording)
    _, shots = _center(ModelParams(*point))
    assert len(set(shot)) == len(shot) == shots
    # 10, 10 and 16 shots here; the e^{-2 r_exit} margin took 18, 16 and 34
    assert shots <= 20


def test_shooting_on_a_grid_coarser_than_the_graft_radius(params_330):
    # h = 12 puts no cell inside the graft radius (about 9.9 here): the
    # residual is the sum over no cells, where it read faces[1] of an empty slice
    gs = solve_shooting(params_330, RadialGrid(J=8, h=12.0, N=3))
    assert gs.residual == 0.0
    # at J = 64 the last node r = 762 puts Q below the smallest double, so
    # the profile fails its positivity check: a solver failure, not an IndexError
    with pytest.raises(SolverFailure, match="not strictly positive"):
        solve_shooting(params_330, RadialGrid(J=64, h=12.0, N=3))


def test_a_bound_inside_the_graft_radius_is_a_solver_failure(params_330, tmp_path, capsys, monkeypatch):
    # the center shot falls to the graft level near r = 10: with a bound of 8
    # the sign change Brent finds is a shot that crosses near 8, off the separatrix
    monkeypatch.setattr(groundstate, "_R_SHOT", 8.0)
    with pytest.raises(SolverFailure):
        solve_shooting(params_330, RadialGrid(J=64, h=1 / 8, N=3))
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"model": {"N": 3, "alpha": 2, "b": 0.3}, "grid": {"J": 64, "h": 1 / 8},
                               "solver": {"method": "shooting"}}))
    assert cli.main(["groundstate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: numerical failure: ")
