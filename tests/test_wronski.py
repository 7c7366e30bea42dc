import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import numpy.polynomial.polynomial as npp
import pytest

from cmkz import wronski as wr
from cmkz.calogero_moser import l0_residual, lq_residual
from cmkz.harness import FIBER_CASES, match_points
from cmkz.partitions import Partition, enumerate_partitions, irrep_dimension, shifted
from cmkz.polyalg import (
    ExpPoly,
    elementary_symmetric,
    from_roots,
    lexsorted,
    padd,
    pder,
    require_distinct,
)
from cmkz.tensor_gaudin import generalized_spectrum, sample_generic_z, spectral_points
from cmkz.wronski import (
    PolyTuple,
    MIN_SEP_REL,
    _checked_roots,
    _derivative_rows,
    _exact_operator_terms,
    _momenta_from_operator,
    _expanded_w,
    _operator_expansion,
    _w_expansion,
    _w_expansion_q,
    _operator_from_rows,
    _pairwise_product,
    QuasiExpTuple,
    bivariate_identity_residual,
    fla_residual,
    free_positions,
    fundamental_operator,
    fundamental_operator_q,
    poly_tuple_from_vector,
    psi,
    psi_q,
    random_poly_tuple,
    wronski_fiber,
    wronski_fiber_q,
    wronski_map,
    wronski_map_q,
    wronskian,
)


def _table_w(lam, vec, jac=False):
    """W (and dW/dvec) from the Wronski rows of lam's operator table."""
    return _expanded_w(*_w_expansion(lam), vec, jac)


def test_free_positions_examples():
    assert free_positions(Partition((2, 0))) == ((1, 1), (1, 2))
    assert free_positions(Partition((1, 1))) == ((1, 2), (2, 1))
    for n in range(1, 7):
        for lam in enumerate_partitions(n, n):
            assert len(free_positions(lam)) == n


def test_poly_tuple_validation_and_polys():
    lam = Partition((2, 0))
    x = PolyTuple(lam, {(1, 1): 2.0, (1, 2): -1.0})
    f1, f2 = x.polys()
    assert np.allclose(f1, [0.0, -1.0, 2.0, 1.0])  # u^3 + 2u^2 - u
    assert np.allclose(f2, [1.0])
    with pytest.raises(ValueError):
        PolyTuple(lam, {(1, 1): 2.0})


def test_wronskian_examples():
    assert np.allclose(wronskian([np.array([1.0]), np.array([0.0, 1.0])]), [1.0])
    w = wronskian([np.array([0, 0, 0, 1.0]), np.array([1.0])])
    assert np.allclose(w, [0.0, 0.0, -3.0])
    q1, q2 = 0.7 + 0.2j, -0.4 + 1.1j
    w = wronskian([ExpPoly(q1, [1.0]), ExpPoly(q2, [1.0])])
    assert isinstance(w, ExpPoly)
    assert abs(w.rate - (q1 + q2)) < 1e-15
    assert np.allclose(w.coeffs, [q2 - q1])


def test_wronski_map_row_pair_closed_form():
    lam = Partition((2, 0))
    rng = np.random.default_rng(0)
    for _ in range(5):
        a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        x = PolyTuple(lam, {(1, 1): a, (1, 2): b})
        w = wronski_map(lam, x)
        assert abs(w.w[0] - (-2.0 * a / 3.0)) < 1e-13
        assert abs(w.w[1] - b / 3.0) < 1e-13
    x0 = PolyTuple(lam, {(1, 1): 0.0, (1, 2): 0.0})
    assert np.abs(wronski_map(lam, x0).w).max() == 0.0


def test_wronski_map_column_pair_closed_form():
    lam = Partition((1, 1))
    x = PolyTuple(lam, {(1, 2): 0.3 + 0.1j, (2, 1): -0.8 + 0.5j})
    w = wronski_map(lam, x)
    assert abs(w.w[0] - (-2.0 * x.coeffs[(2, 1)])) < 1e-13
    assert abs(w.w[1] - (-x.coeffs[(1, 2)])) < 1e-13


def test_wronski_map_target_inversion():
    # solving W = e(z) for lam = (2,0) is linear: f11 = -3 e1/2, f12 = 3 e2
    lam = Partition((2, 0))
    z = np.array([0.0, 1.0])
    x = PolyTuple(lam, {(1, 1): -1.5, (1, 2): 0.0})
    w = wronski_map(lam, x)
    assert np.abs(w.w - elementary_symmetric(z)).max() < 1e-13


def test_fundamental_operator_monomial_case():
    lam = Partition((2, 0))
    x = PolyTuple(lam, {(1, 1): 0.0, (1, 2): 0.0})
    op = fundamental_operator(lam, x)
    expected = np.zeros((3, 3), dtype=complex)
    expected[0, 0] = 1.0
    expected[1, 1] = -2.0
    assert np.abs(op.P - expected).max() < 1e-14


def test_fundamental_operator_general_row_pair():
    lam = Partition((2, 0))
    s1, s2 = 0.9 - 0.3j, -0.2 + 0.7j
    x = PolyTuple(lam, {(1, 1): -1.5 * s1, (1, 2): 3.0 * s2})
    P = fundamental_operator(lam, x).P
    assert abs(P[0, 0] - 1.0) < 1e-14
    assert abs(P[0, 1] + s1) < 1e-13
    assert abs(P[0, 2] - s2) < 1e-13
    assert abs(P[1, 1] + 2.0) < 1e-13
    assert abs(P[1, 2] - s1) < 1e-13
    assert abs(P[2, 2]) < 1e-13


def test_operator_annihilates_tuple():
    rng = np.random.default_rng(1)
    for n in (1, 2, 3, 4):
        for lam in enumerate_partitions(n, n):
            x = random_poly_tuple(lam, rng)
            op = fundamental_operator(lam, x)
            for f in x.polys():
                assert op.annihilation_residual(f) < 1e-12
    # structural shape: P vanishes below the diagonal for polynomial tuples
    lam = Partition((2, 1))
    x = random_poly_tuple(lam, rng)
    P = fundamental_operator(lam, x).P
    assert abs(P[0, 0] - 1.0) < 1e-12
    for i in range(1, 4):
        for j in range(i):
            assert abs(P[i, j]) < 1e-12


def _annihilation_by_convolution(op, f):
    """The annihilation residual as a loop of convolutions over the
    derivative rows, as reference."""
    n = op.n
    _, [derivs] = _derivative_rows([f], n + 1)
    terms = [np.convolve(op.coefficient_poly(i), derivs[n - i]) for i in range(n + 1)]
    scale = max(max(np.abs(t).max() for t in terms), 1.0)
    acc = np.zeros(1, dtype=complex)
    for t in terms:
        acc = padd(acc, t)
    return float(np.abs(acc).max() / scale)


@pytest.mark.parametrize("n", range(1, 7))
def test_gathered_annihilation_matches_the_convolution_loop(n):
    # on the annihilated tuple the two differ at roundoff only; a perturbed
    # polynomial is far from annihilated, so a kernel that returns 0 fails
    rng = np.random.default_rng(110 + n)
    for lam in enumerate_partitions(n, n):
        x = random_poly_tuple(lam, rng)
        op = fundamental_operator(lam, x)
        for f in x.polys():
            ref = _annihilation_by_convolution(op, f)
            assert abs(op.annihilation_residual(f) - ref) <= 1e-15
        g = x.polys()[0] + rng.standard_normal(len(x.polys()[0]))
        residual = op.annihilation_residual(g)
        assert residual > 1e-3
        assert abs(residual - _annihilation_by_convolution(op, g)) <= 1e-15


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_quasi_exponential_annihilation_matches_the_convolution_loop(n):
    rng = np.random.default_rng(120 + n)
    q, c = _random_q_shifts(n, rng)
    x = QuasiExpTuple(q, c)
    op = fundamental_operator_q(x)
    for f in x.functions() + [ExpPoly(q[0], [c[0] + 0.5, 1.0])]:
        ref = _annihilation_by_convolution(op, f)
        assert abs(op.annihilation_residual(f) - ref) <= 1e-15
    assert ref > 1e-3  # the moved shift is not annihilated


def test_derivative_rows_equal_repeated_pder_bit_for_bit():
    rng = np.random.default_rng(13)
    polys = [rng.standard_normal(k) + 1j * rng.standard_normal(k) for k in (1, 4, 2, 7)]
    for n_cols in (1, 3, 8):
        rates, rows = _derivative_rows(polys, n_cols)
        assert not rates.any()
        for f, row in zip(polys, rows):
            assert len(row) == n_cols
            for k, entry in enumerate(row):
                assert entry.tobytes() == pder(f, k).tobytes()


def test_fla_identity_frozen_and_random():
    lam = Partition((2, 0))
    x = PolyTuple(lam, {(1, 1): 1.7, (1, 2): -0.4})
    assert fla_residual(lam, x) < 1e-12
    lam = Partition((1, 1))
    x = PolyTuple(lam, {(1, 2): 0.6j, (2, 1): 2.0})
    assert fla_residual(lam, x) < 1e-12
    rng = np.random.default_rng(2)
    for n in (3, 4, 5):
        for lam in enumerate_partitions(n, n):
            vals = [fla_residual(lam, random_poly_tuple(lam, rng)) for _ in range(5)]
            assert max(vals) < 1e-10  # independent of the free coefficients


def _fla_from_operator(lam, x):
    """The diagonal identity summed from fundamental_operator's full P, as
    reference."""
    n = lam.n
    P = fundamental_operator(lam, x).P
    lhs = np.zeros(1, dtype=complex)
    for i in range(n + 1):
        lhs = padd(lhs, P[i, i] * from_roots([-float(j) for j in range(i + 1, n + 1)]))
    parts = lam.padded(n)
    rhs = from_roots([parts[j - 1] - j for j in range(1, n + 1)])
    return float(np.abs(padd(lhs, -rhs)).max())


def test_fla_residual_equals_the_operator_reference():
    rng = np.random.default_rng(4)
    for n in range(1, 8):
        for lam in enumerate_partitions(n, n):
            for _ in range(3):
                x = random_poly_tuple(lam, rng)
                assert fla_residual(lam, x) == _fla_from_operator(lam, x) == 0.0


def test_fla_residual_sees_a_wrong_diagonal(monkeypatch):
    lam = Partition((3, 1, 1))
    x = random_poly_tuple(lam, np.random.default_rng(5))
    real = wr.fundamental_operator

    def moved(lam, x):
        op = real(lam, x)
        op.P[2, 2] += 1e-3
        return op

    monkeypatch.setattr(wr, "fundamental_operator", moved)
    # P_22 enters times (s+3)(s+4)(s+5), whose largest coefficient is 60
    assert fla_residual(lam, x) == pytest.approx(0.06, rel=1e-12)


def test_cached_free_positions_equal_a_fresh_computation():
    for n in range(1, 7):
        for lam in enumerate_partitions(n, n):
            assert free_positions(lam) == free_positions.__wrapped__(lam)
    # equal partitions share one entry: trailing zeros are inert
    assert free_positions(Partition((2, 0))) is free_positions(Partition((2,)))


def test_psi_row_pair_closed_form():
    lam = Partition((2, 0))
    x = PolyTuple(lam, {(1, 1): -1.5, (1, 2): 0.0})  # roots 0, 1
    sp = psi(lam, x)
    assert np.allclose(sp.z, [0.0, 1.0])
    assert np.abs(sp.p - np.array([-1.0, 1.0])).max() < 1e-12


def test_psi_outputs_lie_on_zero_level_and_match_spectra():
    rng = np.random.default_rng(3)
    for parts in ((2, 1), (2, 2), (3, 1)):
        lam = Partition(parts)
        x = random_poly_tuple(lam, rng)
        sp = psi(lam, x)
        assert l0_residual(sp.z, sp.p) < 1e-10
        ref = spectral_points(lam, sp.z, seed=7)
        assert min(np.abs(sp.p - r.p).max() for r in ref) < 1e-6


def _polished_roots_by_polyval(monic):
    """_checked_roots with each polish step as two polyval calls."""
    z = require_distinct(monic.roots(), MIN_SEP_REL, "Wronskian roots")
    c = monic.coeffs()
    for _ in range(2):
        z = z - npp.polyval(z, c) / npp.polyval(z, pder(c))
    return lexsorted(z)


def _momenta_one_root_at_a_time(z, n2_poly, trace_shift):
    n = len(z)
    p = np.zeros(n, dtype=complex)
    for a in range(n):
        others = np.delete(z, a)
        p[a] = trace_shift - npp.polyval(z[a], n2_poly) / np.prod(z[a] - others)
        p[a] += np.sum(1.0 / (z[a] - others))
    return p


def _fla_by_appends(lam, x):
    n = lam.n
    diag = np.diagonal(fundamental_operator(lam, x).P)
    lhs = diag[:1]
    for i in range(1, n + 1):
        lhs = np.append(0.0, lhs) + np.append(i * lhs, 0.0)
        lhs[0] += diag[i]
    rhs = from_roots([lam.padded(n)[j - 1] - j for j in range(1, n + 1)])
    return float(np.abs(lhs - rhs).max())


@pytest.mark.parametrize("n", range(2, 8))
def test_roots_momenta_and_fla_equal_their_loops_bit_for_bit(n):
    rng = np.random.default_rng(130 + n)
    for lam in enumerate_partitions(n, n):
        x = random_poly_tuple(lam, rng)
        monic = wronski_map(lam, x)
        z = _checked_roots(monic)
        assert z.tobytes() == _polished_roots_by_polyval(monic).tobytes()
        n2 = fundamental_operator(lam, x).coefficient_poly(2)
        for shift in (0.0, complex(rng.standard_normal(), rng.standard_normal())):
            p = _momenta_from_operator(z, n2, shift)
            assert p.tobytes() == _momenta_one_root_at_a_time(z, n2, shift).tobytes()
        assert float(fla_residual(lam, x)).hex() == float(_fla_by_appends(lam, x)).hex()


def test_psi_rejects_multiple_roots_and_n1():
    lam = Partition((2, 0))
    # W = (u-1)^2: e1 = 2, e2 = 1 -> f11 = -3, f12 = 3
    x = PolyTuple(lam, {(1, 1): -3.0, (1, 2): 3.0})
    with pytest.raises(ValueError):
        psi(lam, x)
    lam1 = Partition((1,))
    x1 = PolyTuple(lam1, {(1, 1): 0.5})
    with pytest.raises(ValueError):
        psi(lam1, x1)


def test_bivariate_identity_residual_small():
    lam = Partition((2, 0))
    x = PolyTuple(lam, {(1, 1): -1.5, (1, 2): 0.0})
    assert bivariate_identity_residual(lam, x, seed=1) < 1e-12
    rng = np.random.default_rng(4)
    for parts in ((2, 1), (2, 2), (3, 1), (2, 1, 1)):
        lam = Partition(parts)
        x = random_poly_tuple(lam, rng)
        assert bivariate_identity_residual(lam, x, seed=2) < 1e-8


def test_psi_polishes_close_wronskian_roots():
    # two roots 0.023 apart: with unpolished companion roots this tuple's
    # bivariate residual reads 1.0e-8, at the check's bound
    lam = Partition((5, 1, 1))
    x = poly_tuple_from_vector(
        lam,
        [
            0.24219503054963282 + 0.3900313835897712j,
            -1.299167096174641 + 0.3014935117619894j,
            0.15373436660749554 + 0.9729628588383454j,
            1.795223083786689 - 1.4367176476250807j,
            -0.6831084475396731 + 0.8541376517432564j,
            1.3374706321366119 - 0.1692241212129877j,
            -0.48402683849112266 - 0.5253428631106377j,
        ],
    )
    assert bivariate_identity_residual(lam, x, seed=1438384826) < 1e-9


def test_wronski_fiber_counts():
    rng = np.random.default_rng(5)
    for parts, expected in (((2, 0), 1), ((1, 1), 1), ((2, 1), 2), ((3, 1), 3)):
        lam = Partition(parts)
        z = sample_generic_z(lam.n, rng)
        sigma = elementary_symmetric(z)
        sols = wronski_fiber(lam, sigma, seed=8)
        assert len(sols) == expected
        for sol in sols:
            assert np.abs(wronski_map(lam, sol).w - sigma).max() < 1e-9


def test_wronski_fiber_roots_are_polished():
    rng = np.random.default_rng(17)
    for parts in FIBER_CASES:
        lam = Partition(parts)
        for _ in range(3):
            sigma = elementary_symmetric(sample_generic_z(lam.n, rng))
            sols = wronski_fiber(lam, sigma, seed=int(rng.integers(2**31)))
            assert sols
            for sol in sols:
                assert np.abs(wronski_map(lam, sol).w - sigma).max() <= 1e-12


def _vector_bits(fiber):
    return [x.vector().tobytes() for x in fiber]


@pytest.mark.parametrize("parts", [(2, 1), (3, 1), (2, 2), (2, 1, 1), (3, 2)])
def test_stacked_wronski_fiber_equals_the_one_target_calls_bit_for_bit(parts):
    # five targets in one lockstep search: each row keeps the tuples its
    # own search finds alone, and a grid of targets nests like its axes
    lam = Partition(parts)
    rng = np.random.default_rng(90 + lam.n)
    sigmas = elementary_symmetric(np.array([sample_generic_z(lam.n, rng) for _ in range(5)]))
    seeds = rng.integers(2**31, size=5)
    stacked = wronski_fiber(lam, sigmas, seed=seeds)
    assert len(stacked) == 5
    for sigma, seed, sols in zip(sigmas, seeds, stacked):
        alone = wronski_fiber(lam, sigma, seed=int(seed))
        assert len(sols) == irrep_dimension(lam)
        assert _vector_bits(sols) == _vector_bits(alone)
    grid = wronski_fiber(lam, sigmas[:4].reshape(2, 2, -1), seed=seeds[:4].reshape(2, 2))
    assert [[_vector_bits(f) for f in row] for row in grid] == [
        [_vector_bits(stacked[2 * i + j]) for j in range(2)] for i in range(2)
    ]


def test_a_starved_target_undercounts_while_the_others_stay_complete(monkeypatch):
    # at a budget of 3 starts the third target finds 1 of its 2 tuples alone,
    # and the other three find both; the lockstep search keeps each count
    monkeypatch.setattr(wr, "WRONSKI_BUDGET", 3)
    lam = Partition((2, 1))
    rng = np.random.default_rng(3)
    sigmas = elementary_symmetric(np.array([sample_generic_z(3, rng) for _ in range(4)]))
    stacked = wronski_fiber(lam, sigmas, seed=np.arange(4))
    assert [len(sols) for sols in stacked] == [2, 2, 1, 2]
    for t, (sigma, sols) in enumerate(zip(sigmas, stacked)):
        assert _vector_bits(sols) == _vector_bits(wronski_fiber(lam, sigma, seed=t))
        for sol in sols:
            assert np.abs(wronski_map(lam, sol).w - sigma).max() <= 1e-12


@pytest.mark.parametrize("n", range(1, 9))
def test_wronski_expansion_matches_wronski_map(n):
    rng = np.random.default_rng(60 + n)
    for lam in enumerate_partitions(n, n):
        coef, support = _operator_expansion(lam)
        # at most one free slot per row in each term, so at most 2^n terms
        assert coef.shape == (len(support), n + 1, n + 1) and len(support) <= 2**n
        for _ in range(3):
            x = random_poly_tuple(lam, rng)
            w = wronski_map(lam, x).w
            assert np.abs(_table_w(lam, x.vector()) - w).max() <= 1e-12 * max(
                1.0, np.abs(w).max()
            )


@pytest.mark.parametrize("parts", [(2, 1), (3, 1), (2, 2), (2, 1, 1), (3, 2)])
def test_wronski_expansion_jacobian_matches_finite_differences(parts):
    lam = Partition(parts)
    rng = np.random.default_rng(sum(parts))
    x = random_poly_tuple(lam, rng).vector()
    w, J = _table_w(lam, x, jac=True)
    assert np.array_equal(w, _table_w(lam, x))
    h = 1e-6
    for k in range(len(x)):
        e = np.zeros(len(x), dtype=complex)
        e[k] = h
        fd = (_table_w(lam, x + e) - _table_w(lam, x - e)) / (2.0 * h)
        assert np.abs(J[:, k] - fd).max() <= 1e-6 * max(1.0, np.abs(J).max())


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_stacked_wronski_rows_match_single_points_bit_for_bit(n):
    rng = np.random.default_rng(80 + n)
    for lam in enumerate_partitions(n, n):
        m = len(random_poly_tuple(lam, rng).vector())
        for k in (1, 2, 39):
            V = rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))
            W, J = _table_w(lam, V, jac=True)
            assert W.shape == (k, n) and J.shape == (k, n, m)
            for row in range(k):
                w, j = _table_w(lam, V[row], jac=True)
                assert W[row].tobytes() == w.tobytes()
                assert J[row].tobytes() == j.tobytes()


def _random_q_shifts(n, rng):
    q = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return q, c


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_quasi_exponential_table_matches_wronski_map_q(n):
    # the principal-minor table against the poly_det Wronskian
    rng = np.random.default_rng(90 + n)
    for _ in range(5):
        q, c = _random_q_shifts(n, rng)
        w = wronski_map_q(QuasiExpTuple(q, c)).w
        got = _expanded_w(*_w_expansion_q(q), c)
        assert np.abs(got - w).max() <= 1e-12 * max(1.0, np.abs(w).max())


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stacked_quasi_exponential_rows_match_single_points_bit_for_bit(n):
    rng = np.random.default_rng(95 + n)
    q, _ = _random_q_shifts(n, rng)
    coef, support = _w_expansion_q(q)
    for k in (1, 2, 39):
        C = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
        W, J = _expanded_w(coef, support, C, jac=True)
        assert W.shape == (k, n) and J.shape == (k, n, n)
        for row in range(k):
            w, j = _expanded_w(coef, support, C[row], jac=True)
            assert W[row].tobytes() == w.tobytes()
            assert J[row].tobytes() == j.tobytes()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_wronski_fiber_q_counts_and_residuals(n):
    rng = np.random.default_rng(100 + n)
    z = sample_generic_z(n, rng)
    q, _ = _random_q_shifts(n, rng)
    sigma = elementary_symmetric(z)
    sols = wronski_fiber_q(q, sigma, seed=1)
    assert len(sols) == math.factorial(n)
    for x in sols:
        assert np.abs(wronski_map_q(x).w - sigma).max() <= 1e-12


@pytest.mark.parametrize("n", range(1, 8))
def test_operator_table_matches_poly_det_reference(n):
    rng = np.random.default_rng(70 + n)
    for lam in enumerate_partitions(n, n):
        pref = _pairwise_product(shifted(lam))
        for _ in range(3):
            x = random_poly_tuple(lam, rng)
            ref = _operator_from_rows(_derivative_rows(x.polys(), n + 1)[1], n, pref).P
            P = fundamental_operator(lam, x).P
            assert np.abs(P - ref).max() <= 1e-14 * np.abs(ref).max()


def _fraction_poly_from_roots(roots):
    out = [Fraction(1)]
    for r in roots:
        out = [Fraction(0)] + out  # times s, then minus r times the old
        for k in range(len(out) - 1):
            out[k] -= r * out[k + 1]
    return out


def _exact_terms(lam):
    """The operator table's terms (T, C_T), each C_T as a full matrix of
    Fractions."""
    pref = _pairwise_product(shifted(lam))
    size = range(lam.n + 1)
    return [
        (T, [[Fraction(N.get((i, j), 0), pref) for j in size] for i in size])
        for T, N in _exact_operator_terms(lam)
    ]


@pytest.mark.parametrize("n", range(1, 8))
def test_fla_identity_is_exact_on_the_operator_table(n):
    # every term that depends on x has a zero diagonal, and the constant
    # term meets the identity in Fractions: the float residual depends only
    # on the partition, so one tuple per partition checks it
    for lam in enumerate_partitions(n, n):
        terms = _exact_terms(lam)
        constant = [C for T, C in terms if not T]
        assert len(constant) == 1
        for T, C in terms:
            if T:
                assert all(C[i][i] == 0 for i in range(n + 1))
        lhs = [Fraction(0)] * (n + 1)
        for i in range(n + 1):
            tail = _fraction_poly_from_roots([-j for j in range(i + 1, n + 1)])
            for k, c in enumerate(tail):
                lhs[k] += constant[0][i][i] * c
        parts = lam.padded(n)
        rhs = _fraction_poly_from_roots([parts[j - 1] - j for j in range(1, n + 1)])
        assert lhs == rhs


def _leibniz(mat):
    n = len(mat)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        term = (-1) ** inversions
        for r in range(n):
            term *= mat[r][perm[r]]
        total += term
    return total


def test_operator_table_matches_falling_factorial_minors():
    # the reference takes each term the way a determinant route would: on
    # monomial rows of degrees e the derivative table is (e_i)_c u^(e_i - c),
    # and dropping column c leaves an integer minor times one power of u
    for n in range(1, 6):
        for lam in enumerate_partitions(n, n):
            entries = shifted(lam)
            slots = free_positions(lam)
            pref = _pairwise_product(entries)
            choices = [
                [(None, d)]
                + [(k, d - j) for k, (i, j) in enumerate(slots) if i == i0 + 1]
                for i0, d in enumerate(entries)
            ]
            ref = []
            for pick in itertools.product(*choices):
                degs = [deg for _, deg in pick]
                if len(set(degs)) < n:
                    continue
                table = [[math.perm(deg, c) for c in range(n + 1)] for deg in degs]
                C = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
                for c in range(n + 1):
                    minor = _leibniz([row[:c] + row[c + 1 :] for row in table])
                    if minor:
                        power = sum(degs) - n * (n + 1) // 2 + c
                        assert 0 <= power <= n
                        C[n - c][n - power] = Fraction((-1) ** (n + c) * minor, pref)
                ref.append((frozenset(k for k, _ in pick if k is not None), C))
            assert _exact_terms(lam) == ref
            # and the float table holds each entry correctly rounded
            coef, _ = _operator_expansion(lam)
            rounded = [[[float(c) for c in row] for row in C] for _, C in ref]
            assert coef.tolist() == rounded


def test_operator_table_is_pinned():
    # one sha256 over coef and support of every partition with n <= 8; the
    # entries are int true divisions, so no BLAS kernel enters
    digest = hashlib.sha256()
    for n in range(1, 9):
        for lam in enumerate_partitions(n, n):
            coef, support = _operator_expansion(lam)
            digest.update(repr(coef.shape).encode())
            digest.update(coef.tobytes())
            digest.update(support.tobytes())
    assert digest.hexdigest() == (
        "07f8bc47b94102bbae640aa45833cf72760e4c54d622e2d5d2f80b6587a8fbef"
    )


def test_wronski_fiber_row_pair_closed_form():
    lam = Partition((2, 0))
    sigma = np.array([0.8 - 0.2j, -0.5 + 0.9j])
    sols = wronski_fiber(lam, sigma, seed=9)
    assert len(sols) == 1
    v = sols[0].coeffs
    assert abs(v[(1, 1)] - (-1.5 * sigma[0])) < 1e-9
    assert abs(v[(1, 2)] - 3.0 * sigma[1]) < 1e-9


def test_quasi_exponential_map_one_function():
    x = QuasiExpTuple([0.7 + 0.1j], [2.0 - 0.5j])
    w = wronski_map_q(x)
    assert abs(w.w[0] - (-(2.0 - 0.5j))) < 1e-14
    assert abs(w.roots()[0] - (-(2.0 - 0.5j))) < 1e-12
    op = fundamental_operator_q(x)
    q1, c = 0.7 + 0.1j, 2.0 - 0.5j
    expected = np.array([[1.0, c], [-q1, -(1.0 + q1 * c)]])
    assert np.abs(op.P - expected).max() < 1e-14
    f = ExpPoly(q1, [c, 1.0])
    assert op.annihilation_residual(f) < 1e-14


def test_quasi_exponential_pair_wronskian_formula():
    q = np.array([0.2 - 0.3j, 1.5 + 0.4j])
    c = np.array([0.6 + 0.2j, -1.1 + 0.9j])
    x = QuasiExpTuple(q, c)
    w = wronski_map_q(x)
    # (u + c1)(u + c2) + (c1 - c2)/(q2 - q1)
    shift = (c[0] - c[1]) / (q[1] - q[0])
    rng = np.random.default_rng(6)
    for _ in range(5):
        u = complex(rng.standard_normal(), rng.standard_normal())
        expected = (u + c[0]) * (u + c[1]) + shift
        assert abs(npp.polyval(u, w.coeffs()) - expected) < 1e-12


def test_psi_q_against_joint_spectrum():
    rng = np.random.default_rng(7)
    for n in (2, 3):
        q = sample_generic_z(n, rng, radius=1.5)
        x = QuasiExpTuple(q, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        sp = psi_q(x)
        assert lq_residual(sp.z, sp.p, q) < 1e-8
        assert abs(np.sum(sp.p) - np.sum(q)) < 1e-10
        ref = generalized_spectrum(sp.z, q, seed=3)
        assert min(np.abs(sp.p - r.p).max() for r in ref) < 1e-6


def test_psi_q_operator_annihilates():
    rng = np.random.default_rng(8)
    n = 3
    q = sample_generic_z(n, rng, radius=1.5)
    x = QuasiExpTuple(q, rng.standard_normal(n) + 1j * rng.standard_normal(n))
    op = fundamental_operator_q(x)
    for f in x.functions():
        assert op.annihilation_residual(f) < 1e-12


def test_psi_q_rejects_n1_and_root_exponent_collision():
    with pytest.raises(ValueError):
        psi_q(QuasiExpTuple([0.5], [1.0]))
    # n = 2 with a Wronskian root placed on q_1: root -c is forced onto q_1
    q = np.array([1.0, 3.0])
    # choose shifts so one root equals q_1 = 1: (u+c1)(u+c2)+(c1-c2)/2 has
    # root 1 iff (1+c1)(1+c2) + (c1-c2)/2 = 0; take c1 = -1 - d, solve for c2
    d = 0.25
    c1 = -1.0 - d
    # (1+c1) = -d, so -d(1+c2) + (c1-c2)/2 = 0 gives c2 = (c1/2 - d)/(d + 1/2)
    c2 = (0.5 * c1 - d) / (0.5 + d)
    x = QuasiExpTuple(q, [c1, c2])
    w = wronski_map_q(x)
    assert min(abs(r - 1.0) for r in w.roots()) < 1e-10
    with pytest.raises(ValueError):
        psi_q(x)


def test_poly_tuple_json_round_trip():
    lam = Partition((2, 1))
    x = poly_tuple_from_vector(lam, [1.0 + 2.0j, -0.5j, 3.0])
    d = x.as_dict()
    assert d["lambda"] == [2, 1]
    assert d["coeffs"]["1,1"] == [1.0, 2.0]


def _hex_coords(values):
    return tuple(f"{float(c.real).hex()} {float(c.imag).hex()}" for c in values)


# wronski_fiber on every partition with n <= 4, pinned bit for bit: the free
# coefficients of each tuple as hex floats; the target is the elementary
# symmetric data of sample_generic_z(n, rng) with rng seeded by the parts
FIBER_PINS = {
    (1,): [
        (
            "-0x1.5cb1b559606a2p-1 0x1.c0b3b4a5af989p-3",
        ),
    ],
    (2,): [
        (
            "-0x1.f9caa95e77d68p-1 0x1.085fe1fd4a72fp-2",
            "0x1.64b9d39d02dd1p-1 -0x1.dd6a781a16b0ap-2",
        ),
    ],
    (1, 1): [
        (
            "0x1.62c17ca6bffc8p-3 0x1.7aab3e7c85562p-3",
            "-0x1.a0d3b59b219b5p-3 0x1.6389358591fcep-5",
        ),
    ],
    (3,): [
        (
            "0x1.1cf004a8cf21ep+0 -0x1.a3d856819f7b8p-1",
            "-0x1.8c1b3e60c8961p-1 -0x1.2d435ea159c2ap-1",
            "-0x1.f8718c0e6b96cp-1 -0x1.9e3654623dbdfp-1",
        ),
    ],
    (2, 1): [
        (
            "-0x1.87ebe418f915fp+1 -0x1.8605aa88df93bp-1",
            "-0x1.6a5eee7aa3444p+0 -0x1.1a931531f6c56p+2",
            "0x1.fd03675701a0fp-4 0x1.4cc43b4e55a10p-1",
        ),
        (
            "0x1.fd03675701a0bp-3 0x1.4cc43b4e55a10p+0",
            "-0x1.6a5eee7aa3444p+0 -0x1.1a931531f6c56p+2",
            "-0x1.87ebe418f915fp+0 -0x1.8605aa88df93ap-2",
        ),
    ],
    (1, 1, 1): [
        (
            "0x1.caa94893bc295p-4 0x1.9935f93c17392p-6",
            "-0x1.05065e3a10ea3p-5 0x1.17549b933cd21p-3",
            "-0x1.0491189317457p-3 0x1.876b2d32948bfp-4",
        ),
    ],
    (4,): [
        (
            "0x1.7070b138a8e1dp+0 0x1.614f7a7c01ffdp+0",
            "0x1.27e2951a8dd46p+0 0x1.3d0636510f742p+1",
            "0x1.b0cc9bd55a2f2p-1 0x1.0cd0b5e0e80ddp+2",
            "0x1.a76c46917af52p+2 -0x1.afc9d8a31126fp+0",
        ),
    ],
    (3, 1): [
        (
            "-0x1.578aeead01325p+1 -0x1.e3cec8b845047p+0",
            "0x1.74a19f7802e5ep+0 0x1.19cdf1fdcd209p+2",
            "-0x1.7994661dead75p+2 0x1.10cd65559ec49p+1",
            "0x1.3cbb14d1bca7dp-1 0x1.b26a224aa62aep+0",
        ),
        (
            "-0x1.fca40fe39a6d2p-1 0x1.e547243694656p-1",
            "0x1.d393df68621dcp-2 -0x1.553911cafd8dbp+2",
            "-0x1.7994661dead75p+2 0x1.10cd65559ec49p+1",
            "-0x1.12664aff56da1p+0 -0x1.24083888e90c4p+0",
        ),
        (
            "-0x1.d0230259e2182p-2 0x1.1cc3d3837a3d6p-1",
            "0x1.0f8257ccd0782p+1 -0x1.0d49e682c356ep+2",
            "-0x1.7994661dead75p+2 0x1.10cd65559ec49p+1",
            "-0x1.9caf925aab8aap+0 -0x1.7f8d205eb7f07p-1",
        ),
    ],
    (2, 2): [
        (
            "0x1.b36bb8185d128p-2 -0x1.4e9c16a2da67fp-1",
            "-0x1.40a01b93a1ac6p-3 0x1.8db1403f4680ap+0",
            "-0x1.d3a92d5b8936ap-2 0x1.9f4b3353113aap-1",
            "-0x1.89b967d65fd02p-2 -0x1.08935d79fac71p-2",
        ),
        (
            "0x1.481a8132a52d7p-1 0x1.b8f59bcb4ca10p-2",
            "-0x1.40a01b93a1ac7p-3 0x1.8db1403f4680bp+0",
            "-0x1.d3a92d5b8936ap-2 0x1.9f4b3353113aap-1",
            "-0x1.0540a1a837d7ep-2 0x1.91881b29d2e32p-2",
        ),
    ],
    (2, 1, 1): [
        (
            "-0x1.476b4a2e1f846p+1 0x1.de5d77a7e452dp-2",
            "0x1.c2bc7ee106102p-1 -0x1.0ab8916ede959p+1",
            "-0x1.e62ffe081c91cp-3 0x1.3a23e5b2b92e1p-2",
            "0x1.0a0b7d4cddf3bp-1 -0x1.2582bc8658b1dp-3",
        ),
        (
            "0x1.02c8e765c46b4p-1 -0x1.61ea1d9271641p+0",
            "0x1.c2bc7ee106102p-1 -0x1.0ab8916ede959p+1",
            "0x1.5bff2ccb1a3a0p-1 0x1.64b9182da1edbp-4",
            "-0x1.7d2dc8fcadf72p-4 0x1.d0193c40b80f7p-3",
        ),
        (
            "0x1.0bdc22c6a455dp+1 0x1.54f0cf7cf3e9dp-1",
            "0x1.c2bc7ee106102p-1 -0x1.0ab8916ede959p+1",
            "0x1.3e0b810349a23p-4 -0x1.cf8eda7e036f6p-2",
            "-0x1.a45b4d544a429p-2 -0x1.76eacc40c07efp-3",
        ),
    ],
    (1, 1, 1, 1): [
        (
            "-0x1.da49c91dd4b3fp-4 0x1.a1b9651a5e9e2p-2",
            "-0x1.31ddd5b31e1b1p-4 -0x1.ebed2b82caef6p-3",
            "0x1.4a2bd2c0df76bp-5 -0x1.ce610e29166cbp-6",
            "0x1.472362c1680abp-2 0x1.9c841b564fc00p-3",
        ),
    ],
}


@pytest.mark.parametrize("parts", list(FIBER_PINS))
def test_wronski_fiber_roots_are_pinned(parts):
    lam = Partition(parts)
    rng = np.random.default_rng(int("".join(map(str, parts))))
    sigma = elementary_symmetric(sample_generic_z(lam.n, rng))
    sols = wronski_fiber(lam, sigma, seed=lam.n)
    assert [_hex_coords(x.vector()) for x in sols] == FIBER_PINS[parts]


def test_wronski_fiber_finds_all_21_tuples_of_the_n8_input_that_undercounted():
    # replay the draws of a reach sweep over every partition of 7 and 8, one
    # target and one start seed per partition, without solving the other
    # fibers; (3,1^5) at n = 8 is the sweep's hardest fiber to fill
    lam = Partition((3, 1, 1, 1, 1, 1))
    rng = np.random.default_rng(19)
    draws = {}
    for n in (7, 8):
        for mu in enumerate_partitions(n, n):
            z = sample_generic_z(n, rng)
            draws[mu] = z, int(rng.integers(2**31))
    z, seed = draws[lam]
    sols = wronski_fiber(lam, elementary_symmetric(z), seed=seed)
    assert irrep_dimension(lam) == 21
    assert len(sols) == 21
