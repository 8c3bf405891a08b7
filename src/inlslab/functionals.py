"""Threshold classification, its energy bounds and the free-flow decay check.

The classifier compares E[u]^{s_c} M[u]^{1-s_c} and |grad u|^{s_c} |u|^{1-s_c}
against their values at the ground state Q.  Strict inequalities at machine
precision need an error model, so equality is declared inside a band of three
times a mesh-halving Richardson estimate of the quadrature error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evolve import Evolver
from .grid import Measures, RadialField, RadialGrid, _potential_weights
from .groundstate import GroundState, SolverFailure
from .params import ModelParams, validate_scope

CLASSIFIER_MIN_J = 6  # the error band's copy of the datum on the 2h grid needs 3 cells


def _signed_power(x: float, p: float) -> float:
    """x^p extended oddly to negative x, so E < 0 sorts below every threshold."""
    if x >= 0:
        return x**p
    return -((-x) ** p)


def _products(me: Measures, params: ModelParams) -> tuple[float, float]:
    """E^{s_c} M^{1-s_c} and ||grad u||^{s_c} ||u||^{1-s_c}."""
    s_c = params.s_c
    return _signed_power(me.energy(params.alpha), s_c) * me.mass ** (1 - s_c), me.gm_product(s_c)


def _coarsen(u: RadialField) -> RadialField:
    """Pair-average onto the 2h cell-centered grid (drops a trailing odd cell)."""
    g = u.grid
    if g.J < CLASSIFIER_MIN_J:
        raise ValueError(f"the classifier's mesh-halving error band needs J >= {CLASSIFIER_MIN_J}, got J={g.J}")
    J2 = g.J // 2
    v = u.values[: 2 * J2]
    coarse = RadialGrid(J=J2, h=2 * g.h, N=g.N)
    return coarse.field(0.5 * (v[0::2] + v[1::2]))


@dataclass(frozen=True)
class ThresholdReport:
    """Verdict and products of classify; grad2 and potential are the datum's
    ||grad u||^2 and potential integral, carried for lgs_verify."""

    mass: float
    energy: float
    em_product: float
    gm_product: float
    em_threshold: float
    gm_threshold: float
    w: float
    A: float
    verdict: str
    em_error: float
    gm_error: float
    grad2: float
    potential: float


def classify(u0: RadialField, gs: GroundState) -> ThresholdReport:
    """Place u0 relative to the ground-state thresholds.

    GlobalScatters / GlobalOnly need both products strictly below threshold
    (outside the equality band) plus the matching parameter scope;
    AtThreshold when either product sits within the band; Unknown otherwise.
    The band compares against u0 on the 2h grid, so u0's grid needs J >= 6
    (ValueError otherwise).  A datum whose mass, potential or energy is not
    finite raises NumericalFailure; a threshold that is not positive raises
    SolverFailure.  For s_c > 0 the solvers already refuse a Q with
    E(Q) <= 0 (EGS gives E(Q) > 0), so this fires only for s_c <= 0 or a
    GroundState built by hand.
    """
    params = gs.params
    # a datum that overflows its measures is refused, with no warning before it
    with np.errstate(over="ignore", invalid="ignore"):
        me = Measures.of(u0, params.alpha, params.b)
    me.require_finite(params.alpha)
    em, gm = _products(me, params)
    em_c, gm_c = _products(Measures.of(_coarsen(u0), params.alpha, params.b), params)
    em_err, gm_err = abs(em - em_c), abs(gm - gm_c)

    em_th, gm_th = _products(Measures(gs.mass2, gs.grad2, gs.potential), params)
    if not em_th > 0:
        g = gs.profile.grid
        raise SolverFailure(
            f"ground-state threshold E^s_c M^(1-s_c) = {em_th} is not positive: E(Q) = {gs.energy} "
            f"on the grid J={g.J}, h={g.h}, which does not resolve Q"
        )
    w = em / em_th
    A = 1 - _signed_power(w, params.alpha / 2)

    scope = validate_scope(params)
    at_em = abs(em - em_th) <= 3 * em_err
    at_gm = abs(gm - gm_th) <= 3 * gm_err
    if at_em or at_gm:
        verdict = "AtThreshold"
    elif em < em_th and gm < gm_th:
        if scope.theorem_scope:
            verdict = "GlobalScatters"
        elif scope.global_scope:
            verdict = "GlobalOnly"
        else:
            verdict = "Unknown"
    else:
        verdict = "Unknown"
    return ThresholdReport(
        mass=me.mass,
        energy=me.energy(params.alpha),
        em_product=em,
        gm_product=gm,
        em_threshold=em_th,
        gm_threshold=gm_th,
        w=w,
        A=A,
        verdict=verdict,
        em_error=em_err,
        gm_error=gm_err,
        grad2=me.grad2,
        potential=me.potential,
    )


@dataclass(frozen=True)
class LgsReport:
    """Slack values of the below-threshold energy bounds.

    slack_coercivity:  min of E - [alpha s_c/(N alpha + 2b)] |grad u|^2 and
                       |grad u|^2 / 2 - E  (both sides of the two-sided bound);
    slack_gradient:    w |grad Q|^2 ||Q||^{2 sigma} - |grad u|^2 ||u||^{2 sigma}
                       (the squared form; the s_c-powered restatement with
                       w^{1/2} follows by taking roots and is not re-checked);
    slack_virial:      min of 8A |grad u|^2 - 16A E and
                       8 |grad u|^2 - [4(N alpha + 2b)/(alpha+2)] P - 8A |grad u|^2.
    """

    hypotheses_ok: bool
    slack_coercivity: float
    slack_gradient: float
    slack_virial: float
    w: float
    A: float
    energy: float
    energy_nonneg: bool


def lgs_verify(u: RadialField, gs: GroundState) -> LgsReport:
    """Check the energy-coercivity chain for below-threshold u."""
    params = gs.params
    N, alpha, b = params.N, params.alpha, params.b
    s_c = params.s_c
    sigma = params.sigma
    rep = classify(u, gs)
    hyp = rep.em_product < rep.em_threshold and rep.gm_product <= rep.gm_threshold
    e, grad2, pot = rep.energy, rep.grad2, rep.potential
    w, A = rep.w, rep.A
    if not hyp:
        return LgsReport(False, math.nan, math.nan, math.nan, w, A, e, e >= 0)
    c_low = alpha * s_c / (N * alpha + 2 * b)
    slack_i = min(e - c_low * grad2, 0.5 * grad2 - e)
    slack_ii = w * gs.grad2 * gs.mass2**sigma - grad2 * rep.mass**sigma
    chain_hi = 8 * grad2 - 4 * (N * alpha + 2 * b) / (alpha + 2) * pot
    slack_iii = min(8 * A * grad2 - 16 * A * e, chain_hi - 8 * A * grad2)
    return LgsReport(True, slack_i, slack_ii, slack_iii, w, A, e, e >= 0)


# ---------------------------------------------------------------------------
# linear flow decay


@dataclass(frozen=True)
class DecayReport:
    p: float
    times: np.ndarray
    lp_numeric: np.ndarray
    lp_closed: np.ndarray
    scaled_lp: np.ndarray
    weighted_product: np.ndarray
    mass_drift: float
    bounded: bool


def _lp_norm(u: RadialField, p: float) -> float:
    if math.isinf(p):
        return float(np.max(np.abs(u.values)))
    return float(np.sum(u.grid.weights * np.abs(u.values) ** p)) ** (1 / p)


def linear_decay_check(
    params: ModelParams,
    p: float,
    t_list,
    *,
    h: float = 1 / 64,
    dt: float = 2e-3,
    r_max: float | None = None,
) -> DecayReport:
    """Free-flow decay rates for Gaussian data, numeric vs closed form.

    The closed form is (1 + 4it)^{-N/2} exp(-r^2/(1+4it)); the numeric flow
    is the trapezoidal linear step on a domain sized r_max >= 8 t_end to keep
    reflections away from the bulk, started from the bare Gaussian.  It
    underflows to exact zeros past r ~ 27, so the first steps take the
    evolver's support window and none computes with subnormals.  p = inf
    is accepted as the sup-norm proxy.  A first time under half a step dt
    raises ValueError: it would report the datum at t = 0.
    """
    N = params.N
    if not math.isinf(p):
        ceiling = 2 * N / (N - 2) if N >= 3 else math.inf
        if not (2 < p < ceiling):
            raise ValueError(f"p must lie in (2, {ceiling}), got {p}")
    t_list = np.asarray(sorted(t_list), dtype=float)
    if t_list.size == 0 or t_list[0] <= 0:
        raise ValueError("t_list must be increasing positive times")
    if round(t_list[0] / dt) == 0:
        raise ValueError(f"the first time {t_list[0]} rounds to zero steps of dt = {dt}")
    t_end = float(t_list[-1])
    if r_max is None:
        r_max = max(40.0, 8.0 * t_end)
    J = int(round(r_max / h))
    grid = RadialGrid(J=J, h=h, N=N)
    r = grid.nodes

    g_weight = np.exp(-(r**2))
    u0 = g_weight.astype(complex)
    mass0 = Measures.of(grid.field(u0), params.alpha, params.b).mass
    ev = Evolver(grid, params, dt, linear_only=True, mass=mass0)
    w = u0
    t = 0.0
    lp_num, lp_cl, scaled, wprod = [], [], [], []
    max_drift = 0.0
    for t_target in t_list:
        steps = int(round((t_target - t) / dt))
        for _ in range(steps):
            w = ev.step_values(w)
        t += steps * dt
        v = ev.unstagger(w)  # the whole grid's field, +0 past the support w holds
        field = grid.field(v)
        closed = (1 + 4j * t) ** (-N / 2) * np.exp(-(r**2) / (1 + 4j * t))
        ln = _lp_norm(field, p)
        lc = _lp_norm(grid.field(closed), p)
        lp_num.append(ln)
        lp_cl.append(lc)
        if math.isinf(p):
            rate = N / 2
        else:
            rate = (N / 2) * (1 - 2 / p)  # (N/2)(1/p' - 1/p)
        scaled.append(ln * t**rate)
        wprod.append(float(np.sum(_potential_weights(grid, params.b) * np.abs(v) ** (params.alpha + 1) * g_weight)))
        drift = abs(Measures.of(field, params.alpha, params.b).mass - mass0) / mass0
        max_drift = max(max_drift, drift)
    scaled = np.asarray(scaled)
    return DecayReport(
        p=p,
        times=t_list,
        lp_numeric=np.asarray(lp_num),
        lp_closed=np.asarray(lp_cl),
        scaled_lp=scaled,
        weighted_product=np.asarray(wprod),
        mass_drift=max_drift,
        # the Gaussian scaled norm increases monotonically to its asymptote,
        # so boundedness reduces to the last sample dominating the sweep
        bounded=bool(np.max(scaled) <= 1.05 * scaled[-1] + 1e-12),
    )
