"""Root loci of R_m(z) = e^{i theta}, path-slope constants, spectrum identity."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.special

from rkcq import harness, stability
from rkcq.stability import (
    _legendre_p,
    _polished_roots,
    beta_coefficient,
    beta_from_residue,
    cancellation_check,
    characterize_theta0,
    characterize_theta_pi,
    delta_spectrum_matches,
    m_theta_roots,
    pade_coeffs,
    solve_R_equals,
    stability_function_roots,
    stage_order_defect,
    theta0_roots,
    theta_grid_summary,
)
from rkcq.tableaux import gauss_tableau, radau_iia_tableau, stability_eval


def test_pade_integer_coefficients():
    # p_j = (2m-j)!/(j!(m-j)!), monic at the top
    assert pade_coeffs(1).exact == (2, 1)
    assert pade_coeffs(2).exact == (12, 6, 1)
    assert pade_coeffs(3).exact == (120, 60, 12, 1)
    assert pade_coeffs(4).exact == (1680, 840, 180, 20, 1)
    with pytest.raises(ValueError):
        pade_coeffs(0)
    with pytest.raises(ValueError):
        pade_coeffs(25)


def test_pade_ratio_approximates_exponential():
    # P(z)/P(-z) - e^z = O(z^{2m+1}); probe points sized so the error
    # stays well above the double-precision floor at each m
    for m, z1 in ((1, 0.2), (2, 0.2), (3, 0.4), (4, 0.4)):
        pol = pade_coeffs(m)
        d1 = abs(pol.ratio(z1) - np.exp(z1))
        d2 = abs(pol.ratio(z1 / 2) - np.exp(z1 / 2))
        assert np.log2(d1 / d2) == pytest.approx(2 * m + 1, abs=0.4)


def test_pade_ratio_matches_tableau_stability_function():
    rng = np.random.default_rng(3)
    for m in (1, 2, 3, 5):
        pol = pade_coeffs(m)
        tab = gauss_tableau(m)
        for _ in range(6):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            assert pol.ratio(z) == pytest.approx(stability_eval(tab, z), rel=1e-11)


def test_pade_eval_and_derivative_consistency():
    pol = pade_coeffs(3)
    z = 0.7 + 0.3j
    assert pol.eval(z) == pytest.approx(np.polyval(pol.coeffs[::-1], z), rel=1e-14)
    hstep = 1e-6
    fd = (pol.eval(z + hstep) - pol.eval(z - hstep)) / (2 * hstep)
    assert pol.eval_deriv(z) == pytest.approx(fd, rel=1e-8)


def test_roots_at_theta_zero_m3():
    # P(z) = P(-z) reduces to 2z(60 + z^2): roots 0 and +-i sqrt(60)
    roots, degenerate = solve_R_equals(3, 1.0)
    assert not degenerate
    y = np.sort(roots.imag)
    assert np.allclose(roots.real, 0.0, atol=1e-12)
    assert y == pytest.approx([-np.sqrt(60.0), 0.0, np.sqrt(60.0)], abs=1e-10)


def _np_roots_polished(q):
    # the per-polynomial reference: np.roots plus one np.polyval Newton step
    roots = np.roots(q[::-1]).astype(complex)
    dq = q[1:] * np.arange(1, len(q))
    num = np.polyval(q[::-1], roots)
    den = np.polyval(dq[::-1], roots)
    ok = np.abs(den) > 0
    roots[ok] = roots[ok] - num[ok] / den[ok]
    return roots


def test_batched_roots_equal_np_roots_bit_for_bit():
    rng = np.random.default_rng(23)
    real = rng.standard_normal((6, 9))
    stacks = [real, real + 1j * rng.standard_normal((6, 9))]
    for q in stacks:
        q[2, 0] = 0.0  # one exact zero root, as np.roots deflates it
        q[4, :2] = 0.0  # and two
        got = _polished_roots(q)
        assert got.shape == (6, 8)
        for row, roots in zip(q, got):
            assert np.array_equal(roots, _np_roots_polished(row))
        assert np.count_nonzero(got[2] == 0) == 1 and np.count_nonzero(got[4] == 0) == 2


def test_theta_zero_root_is_exact():
    for m in range(1, 13):
        roots, _ = solve_R_equals(m, 1.0)
        assert np.count_nonzero(roots == 0) == 1


def test_array_of_w_matches_scalar_calls():
    thetas = np.linspace(0.1, 3.0, 7)
    for m in (1, 4, 11):
        w = np.exp(1j * thetas)
        roots, degenerate = solve_R_equals(m, w)
        assert roots.shape == (7, m) and degenerate is False
        for wk, rk in zip(w, roots):
            assert np.array_equal(rk, solve_R_equals(m, wk)[0])
        bad = np.append(w, (-1.0) ** m)
        with pytest.raises(ValueError, match="degenerate"):
            solve_R_equals(m, bad)


def test_degenerate_angle_drops_one_root():
    # leading coefficient 1 - w(-1)^m vanishes at w=1 for even m, w=-1 for odd m
    roots_even, deg_even = solve_R_equals(2, 1.0)
    assert deg_even and roots_even.size == 1
    roots_odd, deg_odd = solve_R_equals(3, -1.0)
    assert deg_odd and roots_odd.size == 2


def test_degenerate_angles_on_the_report_grid():
    # only theta = 0 (even m) or theta = +-pi (odd m) drops the degree, also
    # at m = 11, 12 where p_0 = (2m)!/m! dwarfs the leading coefficient
    thetas = np.linspace(-np.pi, np.pi, 721)
    for m in range(1, 13):
        flagged = [th for th in thetas if solve_R_equals(m, np.exp(1j * th))[1]]
        assert len(flagged) == (1 if m % 2 == 0 else 2)
        assert np.allclose(np.abs(flagged), 0.0 if m % 2 == 0 else np.pi, atol=1e-12)


def test_theta_grid_summary_excludes_degenerate_window():
    # m = 11, 12 also cover the largest stage counts of the report
    for m in (2, 11, 12):
        s = theta_grid_summary(m)
        assert 700 <= s["theta_count"] < 721
        assert s["max_abs_re_root"] <= 1e-9
        assert s["min_beta"] > 1.0 and s["all_slopes_at_least_one"]


def test_all_roots_purely_imaginary_sample_angles():
    for m in range(1, 13):
        for theta in (0.3, 1.1, np.pi / 2, 2.7, -1.9):
            rs = m_theta_roots(m, theta)
            assert rs.y.size == m
            assert not rs.degenerate


def test_beta_closed_point():
    # |P_3(iy)|^2 = 600^2 at y^2 = 60, so beta = 360000/(360000-216000) = 5/2
    y = np.sqrt(60.0)
    assert beta_coefficient(3, y) == pytest.approx(2.5, abs=1e-12)
    assert beta_from_residue(3, y) == pytest.approx(2.5, abs=1e-12)


def test_beta_two_formulas_agree_on_root_loci():
    rng = np.random.default_rng(11)
    for m in (2, 3, 4, 5):
        for theta in rng.uniform(0.2, np.pi - 0.2, size=4):
            rs = m_theta_roots(m, theta)
            for y in rs.y:
                if abs(y) < 1e-8:
                    continue
                assert beta_from_residue(m, y) == pytest.approx(
                    beta_coefficient(m, y), rel=1e-9
                )
            # an array of y gives the scalar values element by element
            assert np.array_equal(beta_coefficient(m, rs.y),
                                  [beta_coefficient(m, y) for y in rs.y])


def test_beta_exceeds_one_away_from_origin():
    for m in (1, 2, 3, 4):
        rs = m_theta_roots(m, 1.3)
        for y in rs.y:
            if abs(y) > 1e-8:
                assert beta_coefficient(m, y) > 1.0


def test_theta0_characterization_m3():
    ch = characterize_theta0(3)
    assert ch.r == pytest.approx([np.sqrt(60.0)], abs=1e-10)
    assert ch.delta[0] == pytest.approx(2.5, abs=1e-12)
    assert np.isnan(ch.D)  # escape constant is an even-m quantity


def test_even_escape_constant_closed_form():
    # D_m = 2m(m+1); the numeric limit and the root-product form must agree
    for m, expected in ((2, 12.0), (4, 40.0), (6, 84.0)):
        ch = characterize_theta0(m)
        assert ch.D == pytest.approx(expected, rel=5e-6)
        assert ch.D_product == pytest.approx(expected, rel=1e-10)
        assert ch.D_discrepancy < 5e-6 * expected


def test_odd_escape_constant_closed_form():
    # E_m = 2m(m+1) likewise, from the theta = pi family
    for m, expected in ((1, 4.0), (3, 24.0), (5, 60.0)):
        ch = characterize_theta_pi(m)
        assert ch.E == pytest.approx(expected, rel=5e-6)
        assert ch.E_product == pytest.approx(expected, rel=1e-10)
        assert ch.E_discrepancy < 5e-6 * expected


def test_theta_pi_roots_m3():
    # P(z) = -P(-z) reduces to 2(120 + 12 z^2): roots +-i sqrt(10)
    ch = characterize_theta_pi(3)
    assert ch.rho == pytest.approx([np.sqrt(10.0)], abs=1e-10)
    assert ch.gamma[0] > 1.0


def test_polynomial_and_tableau_root_sets_agree():
    rng = np.random.default_rng(5)
    for m in (2, 3, 4, 5):
        tab = gauss_tableau(m)
        for _ in range(3):
            w = np.exp(1j * rng.uniform(0.3, np.pi - 0.3))
            ra, _ = solve_R_equals(m, w)
            rb = stability_function_roots(tab, w)
            d = np.abs(np.sort_complex(ra)[:, None] - np.sort_complex(rb)[None, :])
            assert max(d.min(axis=0).max(), d.min(axis=1).max()) < 1e-10


def test_spectrum_identity_both_families():
    rng = np.random.default_rng(17)
    for fam in (gauss_tableau, radau_iia_tableau):
        for m in (2, 3, 4):
            tab = fam(m)
            for _ in range(4):
                zeta = rng.uniform(0.1, 0.9) * np.exp(1j * rng.uniform(0, 2 * np.pi))
                assert delta_spectrum_matches(tab, zeta) < 1e-8


def test_spectrum_identity_rejects_bad_zeta():
    tab = gauss_tableau(2)
    with pytest.raises(ValueError):
        delta_spectrum_matches(tab, 0.0)
    with pytest.raises(ValueError):
        delta_spectrum_matches(tab, 1.5)


def test_stage_order_defect_leading_coefficient():
    # C = A^{q+1} 1 - c^{q+1}/(q+1)! straight from the definition
    for tab in (gauss_tableau(2), gauss_tableau(3), radau_iia_tableau(3)):
        d = stage_order_defect(tab)
        q = tab.q
        expect = np.linalg.matrix_power(tab.A, q + 1) @ np.ones(tab.m)
        expect -= tab.c ** (q + 1) / math.factorial(q + 1)
        assert d.q == q
        assert np.allclose(d.C, expect, atol=1e-14)
        assert np.linalg.norm(d.C) > 1e-12  # defect is genuinely nonzero


def test_theta0_roots_are_solved_once_per_report(monkeypatch):
    # the characterization and the cancellation check give the same values
    # from roots passed in as from their own solve, and the report solves
    # R_m(z) = 1 once per stage count
    for m in range(2, 13):
        roots = theta0_roots(m)
        a, b = characterize_theta0(m), characterize_theta0(m, roots)
        for f in dataclasses.fields(a):
            assert np.array_equal(getattr(a, f.name), getattr(b, f.name), equal_nan=True)
        assert cancellation_check(m, roots) == cancellation_check(m)
    solved = []
    real = stability.solve_R_equals
    monkeypatch.setattr(stability, "solve_R_equals", lambda m, w: solved.append(w) or real(m, w))
    harness.run_stability_report([4, 5])
    assert sum(np.ndim(w) == 0 and w == 1.0 for w in solved) == 2


def test_legendre_matches_scipy_at_the_gauss_nodes():
    # the in-house P_n runs scipy's recurrence: bit for bit at every Gauss
    # node the cancellation check uses, but the middle node x = 0 of odd m,
    # where it returns the exact value (scipy's small-|x| branch rounds
    # P_2(0) to -0.5000000000000001)
    for m in range(2, 13):
        u = 2.0 * gauss_tableau(m).c - 1.0
        mid = u == 0.0
        assert mid.sum() == m % 2, m
        for n in (m - 1, m + 1):
            got = _legendre_p(n, u)
            assert np.array_equal(got[~mid], scipy.special.eval_legendre(n, u[~mid])), (m, n)
            exact = (-1) ** (n // 2) * math.comb(n, n // 2) / 2.0**n  # n = m +- 1 is even
            assert np.array_equal(got[mid], np.full(mid.sum(), exact)), (m, n)


def test_cancellation_residual_small_odd_and_even():
    assert cancellation_check(2) == 0.0
    for m in (3, 4, 5, 8):
        assert cancellation_check(m) <= 1e-9
