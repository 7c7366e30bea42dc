import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cmkz.calogero_moser import (
    CMPoint,
    bivariate_char,
    cm_hamiltonian,
    cm_matrix,
    first_integrals,
    l0_residual,
    lq_residual,
    rank_one_residual,
    xi,
)
from cmkz.polyalg import elementary_symmetric
from cmkz.tensor_gaudin import sample_generic_z


def test_cm_matrix_entries():
    Q = cm_matrix([0.0, 1.0], [-1.0, 1.0])
    assert np.allclose(Q, np.array([[-1.0, -1.0], [1.0, 1.0]]))
    assert np.allclose(cm_matrix([2.0], [5.0]), np.array([[5.0]]))


def test_cm_matrix_diagonal_is_p():
    rng = np.random.default_rng(0)
    z = sample_generic_z(4, rng)
    p = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert np.allclose(np.diag(cm_matrix(z, p)), p)


def test_cm_matrix_rejects_coincident_z():
    with pytest.raises(ValueError):
        cm_matrix([0.0, 1e-12], [0.0, 0.0])


def test_first_integrals_frozen_cases():
    fi = first_integrals([0.0, 1.0], [-1.0, 1.0])
    assert abs(fi[0]) < 1e-12 and abs(fi[1]) < 1e-12
    fi = first_integrals([0.0, 1.0], [1.0, 2.0])
    assert abs(fi[0] - 3.0) < 1e-12
    assert abs(fi[1] - 3.0) < 1e-12
    assert abs(first_integrals([0.5], [4.0])[0] - 4.0) < 1e-14


def test_first_integrals_is_one_array_over_the_stack():
    # row a holds Q_(a+1); the trailing axes are the stack's
    rng = np.random.default_rng(5)
    z = np.array([sample_generic_z(3, rng) for _ in range(6)])
    p = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    one = first_integrals(z[0], p[0])
    assert isinstance(one, np.ndarray) and one.shape == (3,)
    fi = first_integrals(z, p)
    assert isinstance(fi, np.ndarray) and fi.shape == (3, 6)
    assert first_integrals(z.reshape(2, 3, 3), p.reshape(2, 3, 3)).shape == (3, 2, 3)
    assert np.array_equal(fi[:, 0], one)


def test_cm_hamiltonian_values():
    assert abs(cm_hamiltonian([0.0, 1.0], [1.0, 2.0]) - 3.0) < 1e-12
    assert abs(cm_hamiltonian([0.0, 1.0], [-1.0, 1.0])) < 1e-12
    assert abs(cm_hamiltonian([0.3], [2.0]) - 4.0) < 1e-14


def test_l0_residual_scaling():
    # |Q_a| = (3, 3); degree scale max(1, |p|_inf) = 2
    assert abs(l0_residual([0.0, 1.0], [1.0, 2.0]) - 1.5) < 1e-12
    assert l0_residual([0.0, 1.0], [-1.0, 1.0]) < 1e-12
    assert l0_residual([0.0, 1.0], [1.0, -1.0]) < 1e-12


def test_lq_residual_reduces_to_l0_at_zero():
    rng = np.random.default_rng(1)
    z = sample_generic_z(3, rng)
    p = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    assert abs(lq_residual(z, p, np.zeros(3)) - l0_residual(z, p)) < 1e-14


def test_lq_residual_closed_form_bethe_point():
    # n = 2 deformed critical equation: (q2-q1)(t-z1)(t-z2) = (t-z1)+(t-z2)
    z1, z2 = 0.0, 1.0
    q1, q2 = 0.3 + 0.2j, 1.7 - 0.5j
    d = q2 - q1
    roots = np.roots([d, -d * (z1 + z2) - 2.0, d * z1 * z2 + (z1 + z2)])
    for t in roots:
        p1 = 1.0 / (z1 - z2) + 1.0 / (t - z1) + q1
        p2 = 1.0 / (z2 - z1) + 1.0 / (t - z2) + q1
        assert lq_residual([z1, z2], [p1, p2], [q1, q2]) < 1e-10


def test_xi_commutator_is_all_ones():
    rng = np.random.default_rng(2)
    for n in (1, 2, 4):
        z = sample_generic_z(n, rng)
        p = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        pt = xi(z, p)
        comm = np.diag(pt.Z) @ pt.Q - pt.Q @ np.diag(pt.Z) + np.eye(n)
        assert np.abs(comm - np.ones((n, n))).max() < 1e-12


def test_xi_permutation_conjugation():
    rng = np.random.default_rng(3)
    z = sample_generic_z(4, rng)
    p = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    perm = rng.permutation(4)
    a, b = xi(z, p), xi(z[perm], p[perm])
    assert np.array_equal(b.Z, a.Z[perm])
    assert np.array_equal(b.Q, a.Q[np.ix_(perm, perm)])


def test_rank_one_residual_cases():
    rng = np.random.default_rng(4)
    z = sample_generic_z(3, rng)
    p = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    assert rank_one_residual(xi(z, p)) < 1e-14
    bad = CMPoint([0.0, 1.0], np.zeros((2, 2)))
    assert abs(rank_one_residual(bad) - 1.0) < 1e-14
    assert rank_one_residual(CMPoint([0.7], [[2.0]])) == 0.0


def test_bivariate_char_frozen_polynomial():
    pt = xi([0.0, 1.0], [-1.0, 1.0])
    rng = np.random.default_rng(5)
    for _ in range(10):
        u = complex(rng.standard_normal(), rng.standard_normal())
        v = complex(rng.standard_normal(), rng.standard_normal())
        expected = u**2 * v**2 - u * v**2 - 2 * u * v + v
        assert abs(bivariate_char(pt, u, v) - expected) < 1e-10


def test_bivariate_char_v_leading_coefficient():
    rng = np.random.default_rng(6)
    z = sample_generic_z(3, rng)
    p = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    pt = xi(z, p)
    u = 0.37 + 0.21j
    v = 1e7
    lead = bivariate_char(pt, u, v) / v**3
    assert abs(lead - np.prod(u - z)) < 1e-5


def test_q_level_point_first_integrals():
    z1, z2 = 0.0, 1.0
    q = np.array([0.4 - 0.1j, 2.1 + 0.3j])
    d = q[1] - q[0]
    t = np.roots([d, -d * (z1 + z2) - 2.0, d * z1 * z2 + (z1 + z2)])[0]
    p = np.array(
        [1.0 / (z1 - z2) + 1.0 / (t - z1) + q[0], 1.0 / (z2 - z1) + 1.0 / (t - z2) + q[0]]
    )
    fi = first_integrals([z1, z2], p)
    assert np.abs(fi - elementary_symmetric(q)).max() < 1e-10


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**31 - 1))
def test_first_integrals_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    z = sample_generic_z(n, rng)
    p = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    perm = rng.permutation(n)
    a = first_integrals(z, p)
    b = first_integrals(z[perm], p[perm])
    assert np.abs(a - b).max() < 1e-9 * max(1.0, np.abs(a).max())


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**31 - 1))
def test_hamiltonian_identities(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    z = sample_generic_z(n, rng)
    p = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    h = cm_hamiltonian(z, p)
    q1, q2 = first_integrals(z, p)[:2]
    tr2 = complex(np.trace(cm_matrix(z, p) @ cm_matrix(z, p)))
    scale = max(1.0, abs(h))
    assert abs(h - tr2) / scale < 1e-10
    assert abs(h - (q1**2 - 2.0 * q2)) / scale < 1e-10


def _stack(n, rows, seed):
    rng = np.random.default_rng(seed)
    z = np.array([sample_generic_z(n, rng) for _ in range(rows)])
    p = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
    return z, p


def _cm_matrix_loop(z, p):
    """The entry-by-entry construction, as reference."""
    n = len(z)
    Q = np.zeros((n, n), dtype=complex)
    for a in range(n):
        for b in range(n):
            Q[a, b] = p[a] if a == b else 1.0 / (z[a] - z[b])
    return Q


def test_cm_matrix_equals_the_entry_loop_bit_for_bit():
    rng = np.random.default_rng(21)
    for _ in range(2000):
        n = int(rng.integers(1, 7))
        z = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 10 ** rng.uniform(-2, 2)
        p = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert np.array_equal(cm_matrix(z, p), _cm_matrix_loop(z, p))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_stacked_calls_equal_per_point_calls_bit_for_bit(n):
    z, p = _stack(n, 25, n)
    Q = cm_matrix(z, p)
    point = xi(z, p)
    rank_one = rank_one_residual(point)
    fi = first_integrals(z, p)
    h = cm_hamiltonian(z, p)
    assert Q.shape == (25, n, n) and rank_one.shape == (25,)
    assert [v.shape for v in fi] == [(25,)] * n
    for row in range(25):
        one = xi(z[row], p[row])
        assert np.array_equal(Q[row], cm_matrix(z[row], p[row]))
        assert np.array_equal(point.Z[row], one.Z)
        assert np.array_equal(point.Q[row], one.Q)
        assert rank_one[row] == rank_one_residual(one)
        single = first_integrals(z[row], p[row])
        assert [v[row] for v in fi] == list(single)
        ref = cm_hamiltonian(z[row], p[row])
        assert abs(h[row] - ref) <= 1e-14 * max(1.0, abs(ref))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
def test_stacked_first_integrals_equal_per_point_calls_bit_for_bit(n):
    # one elementary_symmetric call takes the whole (4, 30) stack
    z, p = _stack(n, 120, 40 + n)
    fi = first_integrals(z.reshape(4, 30, n), p.reshape(4, 30, n))
    assert [v.shape for v in fi] == [(4, 30)] * n
    stacked = np.stack(fi, axis=-1).reshape(120, n)
    for row in range(120):
        single = first_integrals(z[row], p[row])
        assert stacked[row].tobytes() == single.tobytes()


@pytest.mark.parametrize("n", [2, 4, 7])
def test_bivariate_char_grid_equals_pointwise_calls_bit_for_bit(n):
    z, p = _stack(n, 6, n)
    rng = np.random.default_rng(n)
    us = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    vs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    one = xi(z[0], p[0])
    grid = bivariate_char(one, us[:, None], vs)
    assert grid.shape == (5, 4)
    for a, u in enumerate(us):
        for b, v in enumerate(vs):
            assert grid[a, b] == bivariate_char(one, u, v)
            ref = np.linalg.det(
                np.diag(u - one.Z) @ (v * np.eye(n) - one.Q) - np.eye(n)
            )
            assert abs(grid[a, b] - ref) <= 1e-12 * max(1.0, abs(ref))
    # a stack of points at one (u, v): one value per row
    rows = bivariate_char(xi(z, p), us[0], vs[0])
    assert rows.shape == (6,)
    for row in range(6):
        assert rows[row] == bivariate_char(xi(z[row], p[row]), us[0], vs[0])


def test_stack_with_one_near_collision_row_is_rejected():
    z, p = _stack(4, 10, 0)
    z[7, 2] = z[7, 0] + 1e-10
    for fn in (cm_matrix, xi, first_integrals, cm_hamiltonian):
        with pytest.raises(ValueError, match="positions z must be pairwise distinct"):
            fn(z, p)
    cm_matrix(np.delete(z, 7, axis=0), np.delete(p, 7, axis=0))  # the rest pass


def test_stacked_rank_one_residual_keeps_each_row_apart():
    # a zero Q leaves [Z, Q] + 1 the identity, of full rank
    Z = np.array([[0.0, 1.0], [0.0, 1.0]])
    Q = np.stack([np.zeros((2, 2)), cm_matrix([0.0, 1.0], [-1.0, 1.0])])
    r = rank_one_residual(CMPoint(Z, Q))
    assert r[0] == 1.0 and r[1] < 1e-14
    one = CMPoint([[0.7], [0.2]], [[[2.0]], [[1.0]]])
    assert rank_one_residual(one).tolist() == [0.0, 0.0]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_stacked_level_set_residuals_equal_row_calls_bit_for_bit(n):
    rng = np.random.default_rng(30 + n)
    z = sample_generic_z(n, rng)
    q = sample_generic_z(n, rng, radius=1.5)
    # rows at several sizes: the degree scale is 1 on some and |p|_inf on others
    size = 10 ** rng.uniform(-1.0, 1.5, size=(40, 1))
    P = (rng.standard_normal((40, n)) + 1j * rng.standard_normal((40, n))) * size
    l0, lq = l0_residual(z, P), lq_residual(z, P, q)
    assert l0.shape == lq.shape == (40,)
    for row in range(40):
        assert l0[row] == l0_residual(z, P[row])
        assert lq[row] == lq_residual(z, P[row], q)
    # a stack of z, one per row of p
    Z, P = _stack(n, 25, n)
    assert l0_residual(Z, P).tolist() == [l0_residual(a, b) for a, b in zip(Z, P)]
    assert lq_residual(Z, P, q).tolist() == [lq_residual(a, b, q) for a, b in zip(Z, P)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_lq_residual_with_one_q_per_family_equals_the_family_calls_bit_for_bit(n):
    # trials of (z, q, a family of p), scored in one call with z and q per
    # trial broadcast over the family, as lq-membership scores them
    rng = np.random.default_rng(140 + n)
    Z = np.array([sample_generic_z(n, rng) for _ in range(12)])
    Q = np.array([sample_generic_z(n, rng, radius=1.5) for _ in range(12)])
    size = 10 ** rng.uniform(-1.0, 1.5, size=(12, 6, 1))
    P = (rng.standard_normal((12, 6, n)) + 1j * rng.standard_normal((12, 6, n))) * size
    got = lq_residual(Z[:, None], P, Q[:, None])
    assert got.shape == (12, 6)
    for t in range(12):
        assert got[t].tobytes() == lq_residual(Z[t], P[t], Q[t]).tobytes()
    with pytest.raises(ValueError):
        lq_residual(Z[0], P[0], Q[0, :-1])
