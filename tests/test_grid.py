import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg.lapack import get_lapack_funcs

from inlslab import grid as grid_mod
from inlslab.cli import main
from inlslab.evolve import _DT_SAFETY, Evolver, LinearSolveFailure
from inlslab.grid import (
    Measures,
    RadialGrid,
    gaussian_field,
    grad_norm_sq_form,
    laplacian_radial,
    shifted_laplacian_solver,
    sphere_area,
    strauss_check,
)
from inlslab.params import ModelParams


def _inner(u, v):
    """The weighted inner product <u, v> = sum_j w_j u_j conj(v_j)."""
    return np.sum(u.grid.weights * u.values * np.conj(v.values))


def test_sphere_area():
    assert sphere_area(1) == pytest.approx(2.0)
    assert sphere_area(2) == pytest.approx(2 * math.pi)
    assert sphere_area(3) == pytest.approx(4 * math.pi)
    assert sphere_area(4) == pytest.approx(2 * math.pi**2)


def test_grid_geometry():
    g = RadialGrid(J=8, h=0.5, N=3)
    assert g.r_max == 4.0
    assert g.nodes[0] == 0.25 and g.nodes[-1] == 3.75
    assert g.faces[0] == 0.0 and g.faces[-1] == 4.0
    np.testing.assert_allclose(g.weights, 4 * math.pi * g.nodes**2 * 0.5)


def test_grid_equality_and_hash():
    # a grid is its (J, h, N); the node arrays are derived from them
    g = RadialGrid(J=8, h=0.5, N=3)
    assert g == RadialGrid(J=8, h=0.5, N=3) and hash(g) == hash(RadialGrid(J=8, h=0.5, N=3))
    assert g != RadialGrid(J=8, h=0.25, N=3) and g != RadialGrid(J=9, h=0.5, N=3)
    assert g != RadialGrid(J=8, h=0.5, N=2)
    assert len({g, RadialGrid(J=8, h=0.5, N=3)}) == 1


def test_grid_validation():
    with pytest.raises(ValueError):
        RadialGrid(J=2, h=0.1, N=3)
    with pytest.raises(ValueError):
        RadialGrid(J=8, h=-0.1, N=3)
    # NaN passes h <= 0; the others leave a weight or Laplacian entry 0 or inf
    for h in (math.nan, math.inf, 1e-300, 1e-100, 1e154, 1e300):
        with pytest.raises(ValueError, match="mesh width"):
            RadialGrid(J=8, h=h, N=3)
    g = RadialGrid(J=8, h=0.5, N=3)
    with pytest.raises(ValueError):
        g.field(np.zeros(7))
    with pytest.raises(ValueError):
        g.field(np.full(8, np.nan))
    for amplitude, width in ((math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, 0.0), (1.0, -1.0)):
        with pytest.raises(ValueError, match="gaussian needs"):
            gaussian_field(g, amplitude, width)


def test_gaussian_l2_closed_form():
    # ||e^{-r^2}||^2 over R^3 = (pi/2)^{3/2}
    g = RadialGrid(J=4096, h=1 / 256, N=3)
    u = gaussian_field(g)
    assert Measures.of(u, 2.0, 0.0).mass == pytest.approx((math.pi / 2) ** 1.5, rel=1e-12)


def test_gaussian_grad_closed_form():
    # int |grad e^{-r^2}|^2 over R^3 = 3 sqrt(2) pi^{3/2} / 4
    g = RadialGrid(J=4096, h=1 / 256, N=3)
    u = gaussian_field(g)
    exact = 3 * math.sqrt(2) * math.pi**1.5 / 4
    assert grad_norm_sq_form(u) == pytest.approx(exact, rel=1e-5)


def test_gaussian_potential_closed_form():
    # int |e^{-r^2}|^4 over R^3 = (pi/4)^{3/2}  (alpha = 2, b = 0)
    g = RadialGrid(J=4096, h=1 / 256, N=3)
    u = gaussian_field(g)
    assert Measures.of(u, 2.0, 0.0).potential == pytest.approx((math.pi / 4) ** 1.5, rel=1e-10)


def test_weighted_potential_vs_quadrature_oracle():
    # independent adaptive-quadrature oracle for the singular-weight integral
    alpha, b = 2.0, 0.3
    oracle, _ = quad(lambda r: 4 * math.pi * r ** (2 - b) * math.exp(-4 * r**2), 0, 12)
    g = RadialGrid(J=4096, h=1 / 256, N=3)
    assert Measures.of(gaussian_field(g), alpha, b).potential == pytest.approx(oracle, rel=1e-6)
    with pytest.raises(ValueError):
        Measures.of(gaussian_field(g), 2.0, 3.0)


def test_laplacian_polynomial_and_gaussian():
    g = RadialGrid(J=2048, h=1 / 128, N=3)
    # Lap r^2 = 2N at fixed r > 0; the first cells carry the finite-volume
    # cell-average offset, which decays like (h/r)^2
    lap = laplacian_radial(g.field(g.nodes**2)).values
    window = (g.nodes > 0.5) & (g.nodes < g.r_max - 1)
    np.testing.assert_allclose(lap[window], 6.0, atol=1e-3)
    # Gaussian: Lap e^{-r^2} = (4r^2 - 2N) e^{-r^2} to O(h^2) at fixed r > 0
    u = gaussian_field(g)
    lap = laplacian_radial(u).values
    exact = (4 * g.nodes**2 - 6) * np.exp(-(g.nodes**2))
    window = (g.nodes > 0.5) & (g.nodes < 8.0)
    assert np.max(np.abs(lap[window] - exact[window])) < 5e-4


def test_laplacian_self_adjoint_in_weighted_inner():
    g = RadialGrid(J=512, h=1 / 64, N=3)
    rng = np.random.default_rng(3)
    u = g.field(rng.standard_normal(g.J))
    v = g.field(rng.standard_normal(g.J))
    lhs = _inner(laplacian_radial(u), v)
    rhs = _inner(u, laplacian_radial(v))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_grad_form_matches_quadratic_form():
    # <-Lap u, u> computed by fluxes equals the matrix quadratic form
    g = RadialGrid(J=512, h=1 / 64, N=2)
    rng = np.random.default_rng(5)
    u = g.field(rng.standard_normal(g.J))
    direct = -_inner(laplacian_radial(u), u).real
    assert grad_norm_sq_form(u) == pytest.approx(direct, rel=1e-12)


def _random_field(g, rng):
    return g.field(rng.standard_normal(g.J) + 1j * rng.standard_normal(g.J))


@settings(max_examples=100, deadline=None)
@given(N=st.integers(1, 5), J=st.integers(3, 2000), h=st.floats(1 / 512, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_laplacian_self_adjoint_property(N, J, h, seed):
    g = RadialGrid(J=J, h=h, N=N)
    rng = np.random.default_rng(seed)
    u, v = _random_field(g, rng), _random_field(g, rng)
    lap_u, lap_v = laplacian_radial(u), laplacian_radial(v)
    lhs = _inner(lap_u, v)
    rhs = _inner(u, lap_v)
    # relative to the sum of the absolute terms: a random inner product can
    # cancel to far below its round-off scale
    scale = np.sum(g.weights * np.abs(lap_u.values * v.values))
    assert abs(lhs - rhs) <= 1e-12 * scale


@settings(max_examples=100, deadline=None)
@given(N=st.integers(1, 5), J=st.integers(3, 2000), h=st.floats(1 / 512, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_grad_form_is_minus_real_inner_property(N, J, h, seed):
    g = RadialGrid(J=J, h=h, N=N)
    u = _random_field(g, np.random.default_rng(seed))
    direct = -_inner(laplacian_radial(u), u).real
    assert grad_norm_sq_form(u) == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("J, h", [(3, 1.0), (8, 0.5), (300, 1 / 64), (4096, 1 / 256)])
def test_grid_keeps_the_flux_form_laplacian(N, J, h):
    # the face areas and the diagonals are built once, with the flux-form
    # formula, and shared by every reader of the grid, so none of them may
    # write into them
    g = RadialGrid(J=J, h=h, N=N)
    a = g.faces ** (N - 1)
    scale = g.nodes ** (N - 1) * h**2
    diag = -(a[1:] + a[:-1]) / scale
    if N == 1:
        diag[0] += a[0] / scale[0]
    expected = (a, a[1:-1] / scale[1:], diag, a[1:-1] / scale[:-1])
    for kept, literal in zip((g.face_areas, *g.laplacian), expected):
        assert not kept.flags.writeable
        assert kept.shape == literal.shape and np.all(kept == literal)
        with pytest.raises(ValueError, match="read-only"):
            kept[0] = 0.0


def test_dirichlet_eigenvalue():
    # smallest eigenvalue of -Lap on a ball of radius 8 (N=3) is (pi/8)^2
    import scipy.sparse as sps
    from scipy.sparse.linalg import eigsh

    g = RadialGrid(J=1024, h=8 / 1024, N=3)
    lower, diag, upper = g.laplacian
    w = g.weights
    # symmetrize with the weight: W^{1/2} (-L) W^{-1/2}
    sw = np.sqrt(w)
    a = sps.diags(
        [-lower * sw[1:] / sw[:-1], -diag, -upper * sw[:-1] / sw[1:]], [-1, 0, 1]
    )
    lam = eigsh(a.tocsc(), k=1, which="SM", return_eigenvectors=False)[0]
    assert lam == pytest.approx((math.pi / 8) ** 2, rel=1e-3)


def test_n1_matches_full_line_integrals():
    # radial N = 1 quadrature doubles the half-line, matching even functions
    g = RadialGrid(J=4096, h=1 / 256, N=1)
    u = gaussian_field(g)
    assert Measures.of(u, 2.0, 0.0).mass == pytest.approx(math.sqrt(math.pi / 2), rel=1e-12)


def test_strauss_bound():
    g = RadialGrid(J=2048, h=1 / 128, N=3)
    u = gaussian_field(g)
    rep = strauss_check(u, 2.0)
    assert rep["holds"] and rep["lhs"] <= rep["rhs"]
    with pytest.raises(ValueError):
        strauss_check(u, 100.0)


@settings(max_examples=50, deadline=None)
@given(
    N=st.integers(1, 5),
    J=st.integers(3, 300),
    h=st.floats(1 / 256, 1.0),
    c=st.one_of(
        st.floats(1e-3, 10.0),  # the fixed point uses c = 1
        st.floats(1e-6, 0.1).map(lambda dt: 1j * dt / 2),  # Crank-Nicolson
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_shifted_laplacian_solver_inverts(N, J, h, c, seed):
    g = RadialGrid(J=J, h=h, N=N)
    rng = np.random.default_rng(seed)
    rhs = rng.standard_normal(J)
    if isinstance(c, complex):
        rhs = rhs + 1j * rng.standard_normal(J)
    x = shifted_laplacian_solver(g, c)(rhs)
    c_lap_x = c * laplacian_radial(g.field(x)).values
    residual = np.linalg.norm(x - c_lap_x - rhs)
    assert residual <= 1e-10 * (np.linalg.norm(rhs) + np.linalg.norm(c_lap_x))


@settings(max_examples=100, deadline=None)
@given(
    N=st.integers(1, 5),
    J=st.integers(3, 3000),
    h=st.floats(1 / 512, 1.0),
    real_c=st.one_of(st.none(), st.floats(1e-3, 1e3)),
    dt_over_h2=st.floats(1e-3, 100 * _DT_SAFETY),
    seed=st.integers(0, 2**32 - 1),
)
def test_shifted_laplacian_solver_matches_gttrs(N, J, h, real_c, dt_over_h2, seed):
    # I - c Lap is strictly diagonally dominant, so gttrf never interchanges
    # rows, and the two unit-bidiagonal sweeps agree with LAPACK's own solve;
    # without a real c, c = i dt / 2 is the Crank-Nicolson one
    g = RadialGrid(J=J, h=h, N=N)
    c = real_c if real_c is not None else 1j * dt_over_h2 * h**2 / 2
    lower, diag, upper = g.laplacian
    gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), dtype=np.result_type(c, diag))
    dl, d, du, du2, ipiv, info = gttrf(-c * lower, 1 - c * diag, -c * upper)
    assert info == 0 and np.array_equal(ipiv, np.arange(1, J + 1))
    rng = np.random.default_rng(seed)
    rhs = rng.standard_normal(J)
    if isinstance(c, complex):
        rhs = rhs + 1j * rng.standard_normal(J)
    kept = rhs.copy()
    oracle = gttrs(dl, d, du, du2, ipiv, rhs)[0]
    x = shifted_laplacian_solver(g, c)(rhs)
    assert np.array_equal(rhs, kept)
    assert np.linalg.norm(x - oracle) <= 1e-13 * np.linalg.norm(oracle)


@settings(max_examples=60, deadline=None)
@given(
    N=st.integers(1, 5),
    J=st.integers(4, 1000),
    n_frac=st.floats(0.0, 1.0),
    h=st.floats(1 / 512, 1.0),
    dt_over_h2=st.floats(1e-3, _DT_SAFETY),
    seed=st.integers(0, 2**32 - 1),
)
def test_shifted_laplacian_solver_leading_block(N, J, n_frac, h, dt_over_h2, seed):
    # an rhs of n < J entries is solved with the leading n x n block of A,
    # which LAPACK factors and solves on its own to the same result
    g = RadialGrid(J=J, h=h, N=N)
    n = 3 + int(n_frac * (J - 4))  # scipy's gttrf wrapper refuses n = 2
    c = 1j * dt_over_h2 * h**2 / 2
    lower, diag, upper = g.laplacian
    gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), dtype=complex)
    factors = gttrf(-c * lower[: n - 1], 1 - c * diag[:n], -c * upper[: n - 1])
    rng = np.random.default_rng(seed)
    rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    oracle = gttrs(*factors[:5], rhs)[0]
    solve = shifted_laplacian_solver(g, c)
    x = solve(rhs)
    assert x.shape == (n,)
    assert np.linalg.norm(x - oracle) <= 1e-13 * np.linalg.norm(oracle)
    # the solver keeps its factors' slices for two lengths; a third length
    # evicts one, and every length still solves to the same bits
    full = rng.standard_normal(J) + 1j * rng.standard_normal(J)
    y = solve(full)
    solve(rhs[:-1])
    assert np.array_equal(solve(rhs), x)
    assert np.array_equal(solve(full), y)


@settings(max_examples=100, deadline=None)
@given(
    head=st.lists(st.floats(0.0, 1e3), max_size=200),
    tail=st.lists(
        st.one_of(
            st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-200, 1e-163]),
            st.floats(0.0, 1e-150),  # underflows under any p > 2
        ),
        min_size=1,
        max_size=200,
    ),
    p=st.floats(2.0, 7.0, exclude_min=True),
)
def test_support_power_is_bitwise_the_power(head, tail, p):
    # past the last x >= 2^(-1080/p) the power rounds to +0, so writing +0
    # there gives the bits of x ** p
    x = np.array(head + tail)
    assert grid_mod.support_power(x, p).tobytes() == (x**p).tobytes()


def test_shifted_laplacian_solver_refuses_row_interchange(tmp_path, capsys, monkeypatch):
    # a Crank-Nicolson factorization that pivots is refused, and the evolver
    # reports it as a linear-solve failure (CLI exit 4); the real fixed-point
    # factorization is left alone
    def pivoting_lapack(name, dtype):
        gttrf = get_lapack_funcs(name, dtype=dtype)
        if np.dtype(dtype).kind != "c":
            return gttrf

        def swapped(*args):
            dl, d, du, du2, ipiv, info = gttrf(*args)
            ipiv = ipiv.copy()
            ipiv[0] = 2
            return dl, d, du, du2, ipiv, info

        return swapped

    monkeypatch.setattr(grid_mod, "get_lapack_funcs", pivoting_lapack)
    g = RadialGrid(J=64, h=1 / 16, N=3)
    dt = 1e-3
    with pytest.raises(np.linalg.LinAlgError, match="interchanged rows"):
        shifted_laplacian_solver(g, 1j * dt / 2)
    with pytest.raises(LinearSolveFailure, match="interchanged rows"):
        Evolver(g, ModelParams(N=3, alpha=2.0, b=0.3), dt)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "model": {"N": 3, "alpha": 2.0, "b": 0.3},
        "grid": {"J": 256, "h": 1 / 16},
        "classify": {"field": "gaussian(0.5,1.0)"},
        "evolve": {"dt": 0.002, "t_end": 0.01},
    }))
    assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 4
    assert "interchanged rows" in capsys.readouterr().err


@settings(max_examples=60, deadline=None)
@given(
    N=st.integers(1, 5),
    J=st.integers(3, 300),
    h=st.floats(1 / 256, 1.0),
    alpha=st.floats(0.1, 6.0),
    b_frac=st.floats(0.0, 0.99),
    s_c=st.floats(0.01, 0.99),
    seed=st.integers(0, 2**32 - 1),
)
def test_measures_are_the_three_sums_property(N, J, h, alpha, b_frac, s_c, seed):
    g = RadialGrid(J=J, h=h, N=N)
    b = b_frac * N
    rng = np.random.default_rng(seed)
    u = g.field(rng.standard_normal(J) + 1j * rng.standard_normal(J))
    absv = np.abs(u.values)
    mass = float(np.sum(g.weights * absv**2))
    grad2 = grad_norm_sq_form(u)
    pot = float(np.sum(g.weights * g.nodes ** (-b) * absv ** (alpha + 2)))
    given_powers = Measures.of(u, alpha, b, absv2=absv**2, vpow=absv ** (alpha + 2))
    for me in (Measures.of(u, alpha, b), given_powers):
        assert me == (mass, grad2, pot)
        assert me.energy(alpha) == 0.5 * grad2 - pot / (alpha + 2)
        assert me.gm_product(s_c) == math.sqrt(grad2) ** s_c * math.sqrt(mass) ** (1 - s_c)
    with pytest.raises(ValueError, match="b < N"):
        Measures.of(u, alpha, N + b_frac)
