"""Built-in transfer functions and boundary data."""

import numpy as np
import pytest

from rkcq.kernels import (
    DATA,
    eval_datum,
    eval_kmu,
    kmu_transfer,
    monomial_bump,
    power_transfer,
    sin_pow_exp,
    traveling_gaussian,
)


def test_eval_kmu_formula():
    s = np.array([0.5 + 0.3j, 2.0, 1.0 - 4.0j])
    for mu in (-1.0, 0.0, 0.5, 1.0):
        want = s ** mu / (1.0 - np.exp(-s))
        assert eval_kmu(s, mu) == pytest.approx(want, rel=1e-14)


def test_eval_kmu_rejects_left_half_plane():
    with pytest.raises(ValueError):
        eval_kmu(np.array([1.0, -0.1 + 2j]), 0.0)
    with pytest.raises(ValueError):
        eval_kmu(0.0, 1.0)


def test_eval_kmu_rejects_nan():
    # NaN in either part fails, alone or next to valid frequencies
    for bad in (np.nan, complex(1.0, np.nan), np.array([1.0, np.nan]),
                np.array([1.0, complex(1.0, np.nan)])):
        with pytest.raises(ValueError, match="NaN"):
            eval_kmu(bad, 0.5)
    # valid input gives the formula's values bit for bit
    s = np.array([0.5 + 0.3j, 2.0, 1.0 - 4.0j, 1e-3 + 7.0j])
    for mu in (-1.0, 0.0, 0.5, 1.0):
        assert eval_kmu(s, mu).tobytes() == (s ** mu / (1.0 - np.exp(-s))).tobytes()


def test_kmu_transfer_metadata():
    K = kmu_transfer(1.0)
    assert K.dim == 1 and K.conj_symmetric and K.key == "kmu_1.0"
    s = np.array([0.7 + 11.0j, 3.0 - 200.0j])
    assert np.array_equal(K.fn(s), eval_kmu(s, 1.0))


def test_kmu_conjugate_symmetry():
    s = 0.8 + 2.5j
    for mu in (-1.0, 0.0, 1.0):
        assert eval_kmu(np.conj(s), mu) == pytest.approx(np.conj(eval_kmu(s, mu)), rel=1e-14)


def test_power_transfer_is_pure_power():
    K = power_transfer(0.5)
    s = np.array([4.0, 1.0 + 1.0j])
    assert K.fn(s) == pytest.approx(np.sqrt(s), rel=1e-14)


def test_sin_pow_exp_shape_and_zeros():
    assert sin_pow_exp(0.0) == 0.0
    assert sin_pow_exp(np.pi) == pytest.approx(0.0, abs=1e-15)
    t = np.array([0.3, 1.1])
    assert sin_pow_exp(t) == pytest.approx(np.exp(-0.4 * t) * np.sin(t) ** 6, rel=1e-15)


def test_monomial_bump_values():
    x = np.array([[1.0, 0.0], [0.0, np.pi / 2]])
    t = 2.0
    assert monomial_bump(x, t) == pytest.approx([2.0 ** 15, 2.0 * 2.0 ** 15], rel=1e-14)


def test_traveling_gaussian_peak_and_causal_start():
    # pulse peaks where t - x.alpha + shift = 0, and is tiny on the unit
    # circle at t = 0
    x = np.array([[np.cos(0.3), np.sin(0.3)]])
    a = np.array([-1.0, -1.0]) / np.sqrt(2.0)
    tpeak = float(x[0] @ a) + 4.0
    assert traveling_gaussian(x, tpeak)[0] == pytest.approx(1.0, rel=1e-14)
    th = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    circle = np.stack([np.cos(th), np.sin(th)], axis=1)
    assert np.abs(traveling_gaussian(circle, 0.0)).max() < 2e-28


def test_traveling_gaussian_moves_along_alpha():
    # the wavefront is the plane x.alpha = t + shift, so a point with
    # x.alpha = -1 sees the pulse exactly one time unit before the origin
    p1 = np.array([[0.0, 0.0]])
    p2 = np.array([[1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)]])
    t = np.linspace(0.0, 8.0, 30)
    v1 = traveling_gaussian(p1, t)
    v2 = traveling_gaussian(p2, t - 1.0)
    assert v2 == pytest.approx(v1, rel=1e-13, abs=1e-300)


def test_data_registry_contents():
    assert sorted(DATA) == ["monomial_bump", "sin_pow_exp", "traveling_gaussian"]


def test_eval_datum_name_normalization():
    t = np.array([0.5, 1.5])
    a = eval_datum("sin_pow_exp", None, t)
    b = eval_datum("SinPowExp", None, t)
    assert np.array_equal(a, b)
    x = np.array([[0.2, 0.4]])
    assert np.array_equal(
        eval_datum("TravelingGaussian", x, 1.0), traveling_gaussian(x, 1.0)
    )


def test_eval_datum_errors():
    with pytest.raises(KeyError):
        eval_datum("no_such_datum", None, 0.0)
    with pytest.raises(ValueError):
        eval_datum("monomial_bump", None, 1.0)
