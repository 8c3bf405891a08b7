"""End-to-end acceptance suite.

One test per acceptance criterion; each prints a single pass/fail line so a
plain ``pytest -v`` run doubles as the acceptance report.  Tolerances are
pinned here and are not to be loosened to make a failing run green.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from inlslab.evolve import (
    EvolutionConfig,
    rigidity_check,
    run,
    scattering_diagnostic,
    virial_series,
)
from inlslab.exponents import (
    DegenerateFamilyError,
    ThetaWindowError,
    appendix_checks,
    certificate_rows,
    claim2_theta_window,
    default_theta,
    family_claim1,
    family_claim2,
    family_lemma43,
)
from inlslab.functionals import classify, linear_decay_check
from inlslab.grid import Measures, RadialGrid, gaussian_field
from inlslab.groundstate import (
    gn_maximality_probe,
    sharp_constant,
    solve_fixedpoint,
    solve_shooting,
    verify_identities,
    weinstein_quotient,
)
from inlslab.params import ModelParams

REFERENCE_POINTS = [(3, 2.0, 0.3), (2, 3.0, 0.2), (4, 1.2, 0.25)]


def _verdict(name, ok, detail=""):
    print(f"[acceptance] {name}: {'pass' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


def _random_scope_point(rng):
    n = rng.choice([2, 3, 4, 5])
    b_cap = Fraction(min(n, 3), 3) if n >= 3 else Fraction(2, 3)
    b = Fraction(rng.randint(1, 99), 100) * min(Fraction(99, 100), b_cap)
    lo = Fraction(4 - 2 * b, n)
    if n == 2:
        hi = lo + 4
    elif n == 3:
        hi = 3 - 2 * b  # stricter scattering ceiling in three dimensions
    else:
        hi = Fraction(4 - 2 * b, n - 2)
    alpha = lo + Fraction(rng.randint(5, 95), 100) * (hi - lo)
    return n, alpha, b


def test_exponent_certificates_random_sweep():
    # 1000 in-scope points, exact rational arithmetic throughout; claim2
    # gets a randomized in-window theta on every other point, the other
    # families use their deterministic in-window default
    rng = random.Random(20250824)
    t0 = time.perf_counter()
    checked = 0
    draws = 0
    while checked < 1000:
        draws += 1
        assert draws < 5000, "sampler failed to reach 1000 in-scope points"
        n, alpha, b = _random_scope_point(rng)
        try:
            rows = certificate_rows(n, alpha, b)
        except (DegenerateFamilyError, ThetaWindowError):
            continue  # empty window at this sample: not an in-scope tuple
        for r in rows:
            assert r["admissible"], (n, alpha, b, r)
            assert r["identity_residual"] == 0, (n, alpha, b, r)
        if checked % 2 == 1 and n >= 3:
            lo, hi = claim2_theta_window(n, alpha, b)
            if lo < hi:
                th = lo + Fraction(rng.randint(1, 9), 10) * (hi - lo)
                fam = family_claim2(alpha, b, th, n)
                assert fam["split_residual"] == 0, (n, alpha, b, th)
                assert fam["hs_admissible"] and fam["hneg_admissible"], (n, alpha, b, th)
        for r in appendix_checks(n, alpha, b, rows[-1]["theta"]):
            assert r["equivalent"], (n, alpha, b, r)
        checked += 1
    # out-of-scope points exercise the failing direction of the equivalences
    failing_seen = False
    for n, alpha, b in [(3, Fraction(4), Fraction(3, 10)), (4, Fraction(3), Fraction(1, 4))]:
        for r in appendix_checks(n, alpha, b, Fraction(1, 20)):
            assert r["equivalent"], (n, alpha, b, r)
            failing_seen = failing_seen or not r["bound_holds"]
    assert failing_seen
    elapsed = time.perf_counter() - t0
    _verdict(
        "exponent-certificates",
        elapsed < 10.0,
        f"({checked} points, {elapsed:.1f}s)",
    )


def test_soliton_closed_form_oracle(sech_pair):
    p, g, exact = sech_pair
    t0 = time.perf_counter()
    gs = solve_shooting(p, g)
    sup = float(np.max(np.abs(gs.profile.values - exact)))
    res = verify_identities(gs)
    quot = weinstein_quotient(gs.profile, p)
    checks = {
        "pointwise": sup <= 1e-6,
        "mass2": abs(gs.mass2 - 4.0) <= 1e-6,
        "grad2": abs(gs.grad2 - 4.0 / 3.0) <= 1e-6,
        "GS1": res["GS1"] <= 1e-6,
        "GS2": res["GS2"] <= 1e-6,
        "quotient": abs(quot - 1 / math.sqrt(3)) <= 1e-5,
        "runtime": time.perf_counter() - t0 < 5.0,
    }
    _verdict("closed-form-oracle", all(checks.values()), f"{checks}")


@pytest.fixture(scope="module")
def reference_solutions():
    out = {}
    for n, alpha, b in REFERENCE_POINTS:
        p = ModelParams(n, alpha, b)
        fine = solve_fixedpoint(p, RadialGrid(J=4096, h=1 / 256, N=n))
        coarse = solve_fixedpoint(p, RadialGrid(J=2048, h=1 / 128, N=n))
        shoot = solve_shooting(p, RadialGrid(J=4096, h=1 / 256, N=n))
        out[(n, alpha, b)] = (fine, coarse, shoot)
    return out


def test_groundstate_identities_in_scope(reference_solutions):
    t0 = time.perf_counter()
    worst_cross = 0.0
    worst_res = 0.0
    ratios = []
    for fine, coarse, shoot in reference_solutions.values():
        for f in ("mass2", "grad2", "potential"):
            a, b_ = getattr(fine, f), getattr(shoot, f)
            worst_cross = max(worst_cross, abs(a - b_) / abs(b_))
        rf, rc = verify_identities(fine), verify_identities(coarse)
        worst_res = max(worst_res, max(rf.values()))
        for key in ("GS1", "GS2", "EGS"):
            ratios.append(rc[key] / rf[key])
    ok = (
        worst_cross <= 1e-4
        and worst_res <= 1e-4
        and all(2.0 < r < 8.0 for r in ratios)
        and time.perf_counter() - t0 < 120.0
    )
    _verdict(
        "groundstate-identities",
        ok,
        f"(cross {worst_cross:.2e}, residual {worst_res:.2e}, "
        f"refinement ratios {min(ratios):.2f}..{max(ratios):.2f})",
    )


def test_sharp_constant_consistency(reference_solutions):
    worst_gap = 0.0
    for fine, _, _ in reference_solutions.values():
        worst_gap = max(worst_gap, sharp_constant(fine)["rel_gap"])
    gs = reference_solutions[(3, 2.0, 0.3)][0]
    probe = gn_maximality_probe(gs, trials=200, seed=0, tol=1e-3)
    ok = worst_gap <= 1e-3 and probe["holds"] and probe["max_quotient"] <= gs.cgn * 1.001
    _verdict(
        "sharp-constant",
        ok,
        f"(gap {worst_gap:.2e}, probe max/cgn {probe['max_quotient'] / gs.cgn:.6f})",
    )


@pytest.fixture(scope="module")
def below_threshold_run(params_330):
    g = RadialGrid(J=4096, h=1 / 64, N=3)
    gs = solve_fixedpoint(params_330, g)
    u0 = gaussian_field(g, 0.5, 1.0)
    rep = classify(u0, gs)
    assert rep.verdict == "GlobalScatters"
    cfg = EvolutionConfig(
        params=params_330, J=4096, h=1 / 64, dt=5e-4, t_end=5.0,
        record_every=20, virial_R=12.0,
    )
    cfg_half = EvolutionConfig(
        params=params_330, J=4096, h=1 / 64, dt=2.5e-4, t_end=5.0,
        record_every=20, virial_R=12.0,
    )
    return run(u0, cfg, threshold=rep), run(u0, cfg_half, threshold=rep), rep, u0


def test_conservation_and_scheme_order(below_threshold_run):
    trace, half, _, _ = below_threshold_run
    m, e = trace.mass_series, trace.energy_series
    mass_drift = float(np.max(np.abs(m - m[0])) / m[0])
    drift = float(np.max(np.abs(e - e[0])) / abs(e[0]))
    eh = half.energy_series
    drift_half = float(np.max(np.abs(eh - eh[0])) / abs(eh[0]))
    ratio = drift / drift_half
    ok = mass_drift <= 1e-10 and drift <= 1e-6 and 2.0 < ratio < 8.0
    _verdict(
        "conservation-and-order",
        ok,
        f"(mass {mass_drift:.1e}, energy {drift:.1e}, dt-halving ratio {ratio:.2f})",
    )


def test_uniform_gradient_bound(below_threshold_run):
    trace, _, rep, _ = below_threshold_run
    margin = rep.gm_threshold - trace.gm_product_series
    ok = bool(np.all(trace.gm_product_series < rep.gm_threshold))
    ratio = float(np.min(margin) / margin[0])
    ok = ok and ratio >= 0.5
    _verdict("uniform-gradient-bound", ok, f"(min/initial margin {ratio:.3f})")


def _chain_constant(trace):
    t, z, zp, zs = (
        trace.times,
        trace.zR_series,
        trace.zR_prime_series,
        trace.zR_second_direct_series,
    )
    dz = (z[2:] - z[:-2]) / (t[2:] - t[:-2])
    dzp = (zp[2:] - zp[:-2]) / (t[2:] - t[:-2])
    scale = (t[1] - t[0]) ** 2 + trace.config.h**2
    c1 = float(np.max(np.abs(dz - zp[1:-1])) / scale)
    c2 = float(np.max(np.abs(dzp - zs[1:-1])) / scale)
    return c1, c2


def test_localized_variance_chain(below_threshold_run, params_330):
    trace, half, _, u0 = below_threshold_run
    consts = [*_chain_constant(trace), *_chain_constant(half)]
    vs = virial_series(u0, params_330, 30.0)
    n, alpha, b = 3, 2.0, 0.3
    far = 8 * Measures.of(u0, alpha, b).grad2 - 4 * (n * alpha + 2 * b) / (alpha + 2) * Measures.of(u0, alpha, b).potential
    far_err = abs(vs["zR_second_direct"] - far) / abs(far)
    ok = all(c <= 10 for c in consts) and far_err <= 1e-4
    _verdict(
        "localized-variance-chain",
        ok,
        f"(constants {', '.join(f'{c:.2f}' for c in consts)}, far-R {far_err:.1e})",
    )


def test_rigidity_lower_bound(below_threshold_run):
    trace, _, rep, _ = below_threshold_run
    rig = rigidity_check(trace, rep)
    ok = rig.holds and rig.integrated_holds and not rig.r_too_small and rig.min_slack >= 0
    _verdict(
        "rigidity-lower-bound",
        ok,
        f"(min slack {rig.min_slack:.3f}, bound {rig.lower_bound:.3f})",
    )


def test_dispersive_decay(params_330):
    rep = linear_decay_check(params_330, math.inf, [1.0, 2.0, 5.0, 10.0], r_max=80.0)
    exact = (1 + 16 * rep.times**2) ** (-3 / 4)
    sup_err = float(np.max(np.abs(rep.lp_numeric - exact) / exact))

    rep20 = linear_decay_check(params_330, math.inf, [20.0], h=1 / 32, r_max=160.0)
    g = RadialGrid(J=5120, h=1 / 32, N=3)
    w0 = float(np.sum(g.weights * g.nodes ** (-0.3) * np.exp(-4 * g.nodes**2)))
    w_frac = float(rep20.weighted_product[-1] / w0)

    u0 = gaussian_field(g, 0.5, 1.0)
    cfg = EvolutionConfig(
        params=params_330, J=5120, h=1 / 32, dt=2e-3, t_end=20.0,
        record_every=500, boundary_budget=5e-3,
    )
    trace = run(u0, cfg)
    pot_frac = float(trace.potential_series[-1] / trace.potential_series[0])
    diag = scattering_diagnostic(trace)
    ok = sup_err <= 0.01 and w_frac <= 0.01 and pot_frac <= 0.05 and diag.decayed
    _verdict(
        "dispersive-decay",
        ok,
        f"(sup err {sup_err:.2e}, weighted frac {w_frac:.1e}, potential frac {pot_frac:.1e})",
    )


def test_soliton_persistence(params_330):
    # the standing wave is dynamically unstable (growth rate ~14), so the
    # O(dt^2) splitting seed must be tiny for the deviation to stay below
    # 1e-4 over a full unit of time; dt = 2.5e-7 leaves ~3x headroom
    g = RadialGrid(J=256, h=1 / 16, N=3)
    gs = solve_fixedpoint(params_330, g, tol=1e-14)
    cfg = EvolutionConfig(
        params=params_330, J=256, h=1 / 16, dt=2.5e-7, t_end=1.0,
        record_every=1_000_000,
    )
    trace = run(g.field(gs.profile.values.astype(complex)), cfg)
    dev = np.abs(trace.final_field.values) - gs.profile.values
    err = math.sqrt(float(np.sum(g.weights * dev**2)))
    _verdict("soliton-persistence", err <= 1e-4, f"(weighted deviation {err:.2e})")
