import math
from functools import partial

import numpy as np
import pytest

from cmkz.calogero_moser import lq_residual
from cmkz.harness import TOL, match_points
from cmkz.master_function import (
    _charges,
    _checked_q,
    _critical_points,
    _grad_t_raw,
    _hess_t_raw,
    _level_key,
    _population,
    _split,
    grad_t,
    grad_t_q,
    grad_z,
    grad_z_q,
    level_sizes,
    master_value,
    master_value_q,
    q_level_sizes,
    solve_bethe,
    solve_bethe_q,
)
from cmkz.partitions import Partition, enumerate_partitions, irrep_dimension
from cmkz.polyalg import elementary_symmetric
from cmkz.tensor_gaudin import generalized_spectrum, sample_generic_z, spectral_points
from cmkz.wronski import wronski_fiber, wronski_fiber_q


def test_level_sizes():
    assert level_sizes(Partition((3,))) == ()
    assert level_sizes(Partition((1, 1))) == (1,)
    assert level_sizes(Partition((2, 1, 1))) == (2, 1)
    assert level_sizes(Partition((2, 1, 0))) == (1,)  # zero rows carry no level
    assert q_level_sizes(4) == (3, 2, 1)


def test_level_sizes_ignore_zero_rows():
    # one positive level below every nonzero row but the first, whatever
    # number of parts the shape is carried with
    for n in range(1, 7):
        for lam in enumerate_partitions(n, n):
            sizes = level_sizes(lam)
            assert len(sizes) == len(lam.trimmed) - 1
            assert all(s > 0 for s in sizes)
            assert list(sizes) == sorted(sizes, reverse=True)
            for pad in (1, 2):
                padded = Partition(lam.padded(len(lam.trimmed) + pad))
                assert level_sizes(padded) == sizes


def test_level_sizes_count_each_box_once_per_row_above_it():
    # sum_a l_a = sum_b (b - 1) lam_b: the number of auxiliary variables
    for n in range(1, 7):
        for lam in enumerate_partitions(n, n):
            weighted = sum(b * part for b, part in enumerate(lam.trimmed))
            assert sum(level_sizes(lam)) == weighted


def test_grad_t_two_particle():
    z = np.array([0.0, 1.0])
    t = 0.3 + 0.4j
    g = grad_t(Partition((1, 1)), z, [np.array([t])])
    assert abs(g[0] - (-1.0 / (t - z[0]) - 1.0 / (t - z[1]))) < 1e-14
    g_mid = grad_t(Partition((1, 1)), z, [np.array([(z[0] + z[1]) / 2.0])])
    assert abs(g_mid[0]) < 1e-14


def test_grad_t_empty_for_one_row():
    z = np.array([0.0, 1.0, 2.5])
    assert grad_t(Partition((3,)), z, []).shape == (0,)


def test_gradients_in_t_reuse_the_domain_check(monkeypatch):
    # the domain rule computes dPhi/dt; grad_t and grad_t_q return it
    # instead of evaluating the poles a second time
    from cmkz import master_function as mf

    calls = []

    def counted(*args):
        calls.append(args)
        return _grad_t_raw(*args)

    monkeypatch.setattr(mf, "_grad_t_raw", counted)
    z = np.array([0.0, 1.0, 2.0j])
    t = [np.array([0.3 + 0.4j, -0.6 + 0.2j]), np.array([0.1 - 0.7j])]
    lam = Partition((1, 1, 1))
    q = np.array([0.5, -1.0, 0.2j])
    g = grad_t(lam, z, t)
    gq = grad_t_q(q, z, t)
    assert len(calls) == 2
    flat = np.concatenate(t)
    assert g.tobytes() == _grad_t_raw(z, level_sizes(lam), flat)[0].tobytes()
    linear = tuple(q[k + 1] - q[k] for k in range(2))
    assert gq.tobytes() == _grad_t_raw(z, q_level_sizes(3), flat, linear)[0].tobytes()


def test_grad_z_closed_forms():
    z = np.array([0.0, 1.0])
    p = grad_z(Partition((1, 1)), z, [np.array([0.5])])
    assert abs(p[0] - (-1.0 / (z[0] - z[1]))) < 1e-14
    assert abs(p[1] - (-1.0 / (z[1] - z[0]))) < 1e-14
    rng = np.random.default_rng(0)
    for n in (2, 4):
        zz = sample_generic_z(n, rng)
        expected = np.array([np.sum(1.0 / (zz[a] - np.delete(zz, a))) for a in range(n)])
        assert np.abs(grad_z(Partition((n,)), zz, []) - expected).max() < 1e-13
    # with two levels: only level 1 meets z
    z4 = sample_generic_z(4, rng)
    t = [rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in (2, 1)]
    expected = np.array(
        [np.sum(1.0 / (z4[a] - np.delete(z4, a))) + np.sum(1.0 / (t[0] - z4[a]))
         for a in range(4)]
    )
    assert np.abs(grad_z(Partition((2, 1, 1)), z4, t) - expected).max() < 1e-13


def _assert_charge_blocks(K, nz, sizes):
    """K over concat(z, t): 1 between positions, -1 between z and level 1,
    2 within a level, -1 between adjacent levels, 0 else; symmetric with
    zero diagonal."""
    bounds = np.cumsum((0, nz, *sizes))
    blocks = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
    for i, rows in enumerate(blocks):
        for j, cols in enumerate(blocks):
            if i == j:
                charge = 1.0 if i == 0 else 2.0
            else:
                charge = -1.0 if abs(i - j) == 1 else 0.0
            expected = np.full((rows.stop - rows.start, cols.stop - cols.start), charge)
            if i == j:
                np.fill_diagonal(expected, 0.0)
            assert np.array_equal(K[rows, cols], expected), (i, j)
    assert np.array_equal(K, K.T)
    assert not np.diagonal(K).any()


def test_charge_matrix_pairs_the_levels():
    # x = (z_1..z_4, t^(1)_1, t^(1)_2, t^(2)_1)
    K, level = _charges(4, (2, 1))
    expected = np.array(
        [
            [0, 1, 1, 1, -1, -1, 0],
            [1, 0, 1, 1, -1, -1, 0],
            [1, 1, 0, 1, -1, -1, 0],
            [1, 1, 1, 0, -1, -1, 0],
            [-1, -1, -1, -1, 0, 2, -1],
            [-1, -1, -1, -1, 2, 0, -1],
            [0, 0, 0, 0, -1, -1, 0],
        ],
        dtype=float,
    )
    assert np.array_equal(K, expected)
    assert level.tolist() == [1, 1, 2]
    for n in (3, 5):
        K, level = _charges(n, q_level_sizes(n))
        assert K.shape == (n * (n + 1) // 2,) * 2
        assert level.tolist() == [k for k in range(1, n) for _ in range(n - k)]
        _assert_charge_blocks(K, n, q_level_sizes(n))


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    lam = Partition((2, 1, 1))
    z = sample_generic_z(4, rng)
    sizes = level_sizes(lam)
    t = [2.0 + rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in sizes]
    h = 1e-6
    flat = np.concatenate(t)

    def unflatten(v):
        out, pos = [], 0
        for s in sizes:
            out.append(v[pos : pos + s])
            pos += s
        return out

    analytic = grad_t(lam, z, t)
    for k in range(len(flat)):
        e = np.zeros(len(flat), dtype=complex)
        e[k] = h
        fd = (
            master_value(lam, z, unflatten(flat + e))
            - master_value(lam, z, unflatten(flat - e))
        ) / (2.0 * h)
        assert abs(analytic[k] - fd) < 1e-5 * max(1.0, abs(analytic[k]))


# (level sizes, number of positions, linear terms)
POLE_CASES = [
    ((2, 1), 3, None),
    ((3, 1), 4, None),
    ((2, 1, 1), 4, None),
    ((3, 2, 1), 4, (0.7, -0.4 + 0.2j, 1.1 - 0.3j)),
]


def _random_point(sizes, nz, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(nz) + 1j * rng.standard_normal(nz)
    t = rng.standard_normal(sum(sizes)) + 1j * rng.standard_normal(sum(sizes))
    return z, t


@pytest.mark.parametrize("sizes,nz,linear", POLE_CASES)
def test_hessian_matches_central_differences_of_gradient(sizes, nz, linear):
    z, t = _random_point(sizes, nz, seed=200 + sum(sizes) + nz)
    H = _hess_t_raw(z, sizes, t)
    h = 1e-6
    fd = np.empty_like(H)
    for c in range(len(t)):
        e = np.zeros(len(t), dtype=complex)
        e[c] = h
        fd[:, c] = (
            _grad_t_raw(z, sizes, t + e, linear)[0]
            - _grad_t_raw(z, sizes, t - e, linear)[0]
        ) / (2.0 * h)
    assert np.abs(H - fd).max() <= 1e-6 * np.abs(H).max()


def _bits(*arrays):
    return [np.asarray(a).tobytes() for a in arrays]


# one auxiliary variable gives one t row of the charge matrix, whose stacked
# layout numpy would otherwise lay out differently
STACK_CASES = POLE_CASES + [((1,), 4, None), ((1,), 2, (0.7 - 0.2j,))]
# one-point stacks are repeated: a loop that rounds differently shows on
# some inputs only
STACK_SIZES = (1,) * 40 + (2, 39)


@pytest.mark.parametrize("sizes,nz,linear", STACK_CASES)
def test_stacked_bethe_residuals_match_single_points_bit_for_bit(sizes, nz, linear):
    # dPhi/dt and its norm, over stacks of 1, 2 and 39 points
    z, _ = _random_point(sizes, nz, seed=300 + sum(sizes) + nz)
    rng = np.random.default_rng(301)
    for k in STACK_SIZES:
        T = rng.standard_normal((k, sum(sizes))) + 1j * rng.standard_normal(
            (k, sum(sizes))
        )
        F, norms = _grad_t_raw(z, sizes, T, linear)
        assert F.shape == T.shape and norms.shape == (k,)
        for row in range(k):
            f, norm = _grad_t_raw(z, sizes, T[row], linear)
            assert _bits(F[row], norms[row]) == _bits(f, norm)


@pytest.mark.parametrize("sizes,nz,linear", STACK_CASES)
def test_stacked_bethe_jacobians_match_single_points_bit_for_bit(sizes, nz, linear):
    # the Hessian, over stacks of 1, 2 and 39 points and a stack of stacks
    z, _ = _random_point(sizes, nz, seed=400 + sum(sizes) + nz)
    rng = np.random.default_rng(401)
    l = sum(sizes)
    for shape in [(k,) for k in STACK_SIZES] + [(3, 5)]:
        T = rng.standard_normal(shape + (l,)) + 1j * rng.standard_normal(shape + (l,))
        J = _hess_t_raw(z, sizes, T)
        assert J.shape == shape + (l, l)
        for row in np.ndindex(shape):
            assert _bits(J[row]) == _bits(_hess_t_raw(z, sizes, T[row]))


def test_polish_residual_is_inf_on_a_collision_row():
    lam = Partition((2, 1, 1))
    sizes = level_sizes(lam)
    z = sample_generic_z(4, 7)
    rng = np.random.default_rng(8)
    T = rng.standard_normal((3, sum(sizes))) + 1j * rng.standard_normal((3, sum(sizes)))
    T[1, 0] = z[2]  # a level-1 variable on top of a position
    _, norms = _grad_t_raw(z, sizes, T)
    assert norms[1] == np.inf
    assert np.isfinite(norms[[0, 2]]).all()
    assert _grad_t_raw(z, sizes, T[1])[1] == np.inf
    assert _grad_t_raw(z, sizes, T[0])[1] == norms[0]


def test_domain_collision_raises():
    z = np.array([0.0, 1.0])
    with pytest.raises(ValueError):
        grad_t(Partition((1, 1)), z, [np.array([1e-12])])  # t on top of z_1
    with pytest.raises(ValueError):
        grad_t(Partition((1, 1)), z, [np.array([0.5, 0.5])])  # wrong level size
    lam = Partition((2, 1, 1))
    z4 = np.array([0.0, 1.0, 2.0j, -1.5 + 0.5j])
    a, b = 0.4 + 0.3j, 0.9 - 0.8j
    with pytest.raises(ValueError, match="collision"):  # same level
        grad_t(lam, z4, [np.array([a, a + 1e-12]), np.array([b])])
    with pytest.raises(ValueError, match="collision"):  # adjacent levels
        grad_t(lam, z4, [np.array([a, b]), np.array([a + 1e-12])])


def test_domain_check_is_relative_to_configuration_scale():
    # at scale 1e9 the cutoff is above 10, so the padded slots of the
    # level-2 row (distance 1 by construction) must not count as gaps
    lam = Partition((2, 1, 1))
    z = np.array([0.0, 1.0, 2.0j, -1.5 + 0.5j])
    t = [np.array([0.4 + 0.3j, 0.9 - 0.8j]), np.array([0.2 + 1.1j])]
    s = 1e9
    g = grad_t(lam, s * z, [s * tk for tk in t])
    assert np.abs(s * g - grad_t(lam, z, t)).max() <= 1e-12 * np.abs(g).max() * s


def test_solve_bethe_two_particle_midpoint():
    rng = np.random.default_rng(1)
    z = sample_generic_z(2, rng)
    crits = solve_bethe(Partition((1, 1)), z, seed=3)
    assert len(crits) == 1
    assert abs(crits[0].config.t[0][0] - (z[0] + z[1]) / 2.0) < 1e-12
    assert crits[0].grad_norm <= 1e-10


def test_solve_bethe_trivial_partition():
    z = np.array([0.0, 1.0, 2.0])
    crits = solve_bethe(Partition((3,)), z)
    assert len(crits) == 1
    assert crits[0].config.t == ()
    assert crits[0].grad_norm == 0.0


def test_solve_bethe_matches_spectra():
    rng = np.random.default_rng(2)
    lam = Partition((2, 1))
    z = sample_generic_z(3, rng)
    crits = solve_bethe(lam, z, seed=11)
    assert len(crits) == 2
    pts = spectral_points(lam, z, seed=12)
    res = match_points([c.p for c in crits], [sp.p for sp in pts], 1e-6)
    assert res.ok


def test_solve_bethe_reads_the_rows_from_the_partition():
    # a zero row adds no level: the same critical points, bit for bit
    rng = np.random.default_rng(3)
    for parts in ((2, 1), (2, 2), (2, 1, 1)):
        lam = Partition(parts)
        z = sample_generic_z(lam.n, rng)
        a = solve_bethe(lam, z, seed=5)
        b = solve_bethe(Partition(parts + (0,)), z, seed=5)
        assert len(a) == len(b) == irrep_dimension(lam)
        for ca, cb in zip(a, b):
            assert len(cb.config.t) == len(parts) - 1
            ta, tb = (np.concatenate(c.config.t) for c in (ca, cb))
            assert np.array_equal(ta, tb)
            assert np.array_equal(ca.p, cb.p)


@pytest.mark.parametrize("n", range(2, 7))
def test_solve_bethe_is_complete_and_matched_for_every_partition(n):
    rng = np.random.default_rng(20 + n)
    for lam in enumerate_partitions(n, n):
        z = sample_generic_z(n, rng)
        crits = solve_bethe(lam, z, seed=n)
        assert len(crits) == irrep_dimension(lam), lam
        assert max(c.grad_norm for c in crits) <= TOL.bethe
        pts = spectral_points(lam, z, seed=n)
        res = match_points([c.p for c in crits], [sp.p for sp in pts], TOL.match)
        assert res.ok, lam


def test_real_positions_give_distinct_configurations():
    # at real z the roots of a level come in conjugate pairs, so one
    # configuration sorted by (re, im) can come out in either order; the
    # level polynomials do not depend on that order
    z = np.sort(np.random.default_rng(9).uniform(-1, 1, 4))
    crits = solve_bethe(Partition((2, 2)), z, seed=0)
    assert len(crits) == 2
    a, b = (_level_key(c.config.t) for c in crits)
    assert np.abs(a - b).max() > 1e-6


def test_a_repeated_fiber_tuple_gives_one_point():
    z = sample_generic_z(4, np.random.default_rng(5))
    lam = Partition((2, 2))
    sizes = level_sizes(lam)
    funcs = [x.polys() for x in wronski_fiber(lam, elementary_symmetric(z), seed=0)]
    once = _critical_points(z, sizes, None, 0.0, 1e-10, lambda: funcs)
    twice = _critical_points(z, sizes, None, 0.0, 1e-10, lambda: funcs + funcs[:1])
    assert len(once) == len(twice) == 2
    for a, b in zip(once, twice):
        assert np.array_equal(np.concatenate(a.config.t), np.concatenate(b.config.t))
    # the key is the same for every order of the roots in a level
    t = once[0].config.t
    swapped = (t[0][::-1],) + t[1:]
    assert np.allclose(_level_key(t), _level_key(swapped), rtol=0, atol=1e-14)


@pytest.mark.parametrize("n", range(2, 6))
def test_fiber_populations_are_critical_before_any_polish(n):
    rng = np.random.default_rng(30 + n)
    for lam in enumerate_partitions(n, n):
        sizes = level_sizes(lam)
        if not sizes:
            continue
        z = sample_generic_z(n, rng)
        fiber = wronski_fiber(lam, elementary_symmetric(z), seed=1)
        assert len(fiber) == irrep_dimension(lam)
        T = np.stack([_population(x.polys(), len(sizes)) for x in fiber])
        assert _grad_t_raw(z, sizes, T)[1].max() <= 1e-8, lam


@pytest.mark.parametrize("n", range(2, 5))
def test_deformed_fiber_populations_are_critical_before_any_polish(n):
    q, z = _deformed_input(n, 60 + n)
    q, linear = _checked_q(q, n)
    sizes = q_level_sizes(n)
    fiber = wronski_fiber_q(q, elementary_symmetric(z), seed=1)
    assert len(fiber) == math.factorial(n)
    T = np.stack([_population(x.functions(), len(sizes)) for x in fiber])
    assert _grad_t_raw(z, sizes, T, linear)[1].max() <= 1e-8


def test_sum_of_momenta_vanishes_at_critical_points():
    rng = np.random.default_rng(3)
    lam = Partition((2, 2))
    z = sample_generic_z(4, rng)
    for c in solve_bethe(lam, z, seed=4):
        assert abs(np.sum(c.p)) < 1e-10


def test_solve_bethe_q_two_particle_quadratic():
    rng = np.random.default_rng(5)
    z = sample_generic_z(2, rng)
    q = np.array([0.4 + 0.2j, 1.9 - 0.6j])
    crits = solve_bethe_q(q, z, seed=6)
    assert len(crits) == 2
    d = q[1] - q[0]
    expected_roots = np.roots(
        [d, -d * (z[0] + z[1]) - 2.0, d * z[0] * z[1] + (z[0] + z[1])]
    )
    for t in (c.config.t[0][0] for c in crits):
        assert min(abs(t - r) for r in expected_roots) < 1e-9
    for c in crits:
        assert abs(np.sum(c.p) - q.sum()) < 1e-10
        assert lq_residual(c.config.z, c.p, q) < 1e-10


def _assert_deformed_complete(q, z, crits):
    """n! critical points at the gradient bound, matched to the deformed
    joint spectrum."""
    assert len(crits) == math.factorial(len(z))
    for c in crits:
        assert c.grad_norm <= TOL.bethe
        assert abs(np.sum(c.p) - q.sum()) < 1e-9
        assert lq_residual(c.config.z, c.p, q) < 1e-9
    pts = generalized_spectrum(z, q)
    assert match_points([c.p for c in crits], [sp.p for sp in pts], TOL.match).ok


def test_solve_bethe_q_three_particles():
    rng = np.random.default_rng(8)
    z = sample_generic_z(3, rng)
    q = np.array([1.1 + 0.4j, -0.8 - 0.2j, 0.1 + 1.3j])
    _assert_deformed_complete(q, z, solve_bethe_q(q, z, seed=9))


def _deformed_input(n, z_seed):
    rng = np.random.default_rng(z_seed)
    z = sample_generic_z(n, rng)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n), z


# z seeds 40..47 at n = 3 are inputs on which a direct multistart on the
# deformed Bethe equations found 0 to 3 of the 6 points
@pytest.mark.parametrize("n,z_seed", [(3, 40 + s) for s in range(8)] + [(4, 50)])
def test_solve_bethe_q_is_complete(n, z_seed):
    q, z = _deformed_input(n, z_seed)
    _assert_deformed_complete(q, z, solve_bethe_q(q, z, seed=3))


def test_q_gradients_match_finite_differences():
    from cmkz.master_function import master_value_q

    rng = np.random.default_rng(10)
    n = 3
    z = sample_generic_z(n, rng)
    q = sample_generic_z(n, rng, radius=2.0)
    sizes = q_level_sizes(n)
    t = [3.0 + rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in sizes]
    h = 1e-6
    analytic_t = grad_t_q(q, z, t)
    analytic_z = grad_z_q(q, z, t)
    flat = np.concatenate([z] + t)

    def split(v):
        zz = v[:n]
        out, pos = [], n
        for s in sizes:
            out.append(v[pos : pos + s])
            pos += s
        return zz, out

    analytic = np.concatenate([analytic_z, analytic_t])
    for k in range(len(flat)):
        e = np.zeros(len(flat), dtype=complex)
        e[k] = h
        zp, tp = split(flat + e)
        zm, tm = split(flat - e)
        fd = (master_value_q(q, zp, tp) - master_value_q(q, zm, tm)) / (2.0 * h)
        assert abs(analytic[k] - fd) < 1e-5 * max(1.0, abs(analytic[k]))


def _perturbed_stack(n, sizes, seed):
    """(z, t) at a random point and its 2 * dim central-difference
    neighbours, as one stack of rows."""
    rng = np.random.default_rng(seed)
    z = sample_generic_z(n, rng)
    t = [3.0 * (rng.standard_normal(s) + 1j * rng.standard_normal(s)) for s in sizes]
    flat = np.concatenate([z] + t)
    steps = 1e-6 * np.eye(len(flat))
    X = np.concatenate([flat[None], flat + steps, flat - steps])
    return X[:, :n], _split(X[:, n:], sizes)


def _per_row(value_fn, Z, T):
    """value_fn at each row, or None where it rejects the row."""
    out = []
    for row in range(len(Z)):
        try:
            out.append(value_fn(Z[row], [tk[row] for tk in T]))
        except ValueError:
            out.append(None)
    return out


def _assert_rows_agree(value_fn, Z, T):
    rows = _per_row(value_fn, Z, T)
    assert None not in rows
    stacked = value_fn(Z, T)
    assert stacked.shape == (len(Z),)
    for v, ref in zip(stacked, rows):
        assert abs(v - ref) <= 1e-14 * abs(ref)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stacked_master_values_match_single_points(n):
    for lam in enumerate_partitions(n, n):
        sizes = level_sizes(lam)
        Z, T = _perturbed_stack(n, sizes, n)
        _assert_rows_agree(lambda z, t: master_value(lam, z, t), Z, T)
    q = sample_generic_z(n, np.random.default_rng(n + 10), radius=1.5)
    Z, T = _perturbed_stack(n, q_level_sizes(n), n + 20)
    _assert_rows_agree(lambda z, t: master_value_q(q, z, t), Z, T)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stacked_gradients_match_single_points_bit_for_bit(n):
    q = sample_generic_z(n, np.random.default_rng(n + 30), radius=1.5)
    cases = [
        (level_sizes(lam), partial(grad_z, lam), partial(grad_t, lam))
        for lam in enumerate_partitions(n, n)
    ]
    cases.append((q_level_sizes(n), partial(grad_z_q, q), partial(grad_t_q, q)))
    for sizes, gz, gt in cases:
        Z, T = _perturbed_stack(n, sizes, n + 40)
        stacked_z, stacked_t = gz(Z, T), gt(Z, T)
        for row in range(len(Z)):
            t = [tk[row] for tk in T]
            assert np.array_equal(stacked_z[row], gz(Z[row], t))
            assert np.array_equal(stacked_t[row], gt(Z[row], t))


def test_stacked_domain_verdicts_match_single_points():
    lam = Partition((2, 1, 1))
    sizes = level_sizes(lam)
    Z, T = _perturbed_stack(4, sizes, 5)
    T[0][3, 1] = Z[3, 2] + 1e-10  # one row: a level-1 root on a position
    rows = _per_row(lambda z, t: master_value(lam, z, t), Z, T)
    assert [r is None for r in rows] == [row == 3 for row in range(len(Z))]
    norms = _grad_t_raw(Z, sizes, np.concatenate(T, axis=-1))[1]
    assert list(norms == np.inf) == [row == 3 for row in range(len(Z))]
    with pytest.raises(ValueError, match="argument collision"):
        master_value(lam, Z, T)
    q = sample_generic_z(4, np.random.default_rng(3), radius=1.5)
    Zq, Tq = _perturbed_stack(4, q_level_sizes(4), 6)
    Zq[5, 1] = Zq[5, 0] + 1e-10  # one row: two positions together
    rows = _per_row(lambda z, t: master_value_q(q, z, t), Zq, Tq)
    assert [r is None for r in rows] == [row == 5 for row in range(len(Zq))]
    with pytest.raises(ValueError, match="argument collision"):
        master_value_q(q, Zq, Tq)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stacked_q_equals_per_row_calls_bit_for_bit(n):
    # one q per row of (z, t), and one q per column of a (points, rows)
    # stack of central-difference points, as structural-invariants passes it
    rng = np.random.default_rng(n + 50)
    sizes = q_level_sizes(n)
    Q = np.array([sample_generic_z(n, rng, radius=1.5) for _ in range(6)])
    Z = np.array([sample_generic_z(n, rng) for _ in range(6)])
    T = [3.0 * (rng.standard_normal((6, s)) + 1j * rng.standard_normal((6, s)))
         for s in sizes]
    q, linear = _checked_q(Q, n)
    for row in range(6):
        one, one_linear = _checked_q(Q[row], n)
        assert np.array_equal(q[row], one) and np.array_equal(linear[row], one_linear)
    stacked = [f(Q, Z, T) for f in (grad_z_q, grad_t_q, master_value_q)]
    for row in range(6):
        t = [tk[row] for tk in T]
        single = [f(Q[row], Z[row], t) for f in (grad_z_q, grad_t_q, master_value_q)]
        for a, b in zip(stacked, single):
            assert np.asarray(a[row]).tobytes() == np.asarray(b).tobytes()
    steps = 1e-6 * np.eye(n)[:, None, :]
    Zfd = np.concatenate([Z + steps, Z - steps])  # (2n, 6, n)
    Tfd = [np.broadcast_to(tk, (2 * n,) + tk.shape) for tk in T]
    values = master_value_q(Q, Zfd, Tfd)
    assert values.shape == (2 * n, 6)
    for k in range(2 * n):
        for row in range(6):
            one = master_value_q(Q[row], Zfd[k, row], [tk[row] for tk in T])
            assert values[k, row].tobytes() == np.asarray(one).tobytes()
    with pytest.raises(ValueError, match="broadcast"):
        grad_z_q(Q, Z[0], [tk[0] for tk in T])


def _hex_coords(levels):
    """The t of all levels, in order, as hex floats."""
    flat = np.concatenate(levels)
    return tuple(f"{float(c.real).hex()} {float(c.imag).hex()}" for c in flat)


# solve_bethe_q, which no verify check runs, pinned bit for bit: the flat t
# of each critical point, as hex floats, keyed by (n, z seed)
BETHE_Q_PINS = {
    (2, 42): [
        (
            "0x1.027944351af65p-3 -0x1.3b73b23f13892p-1",
        ),
        (
            "0x1.2801fdfb86fa1p+1 0x1.7c9f92c6ad7eap-1",
        ),
    ],
    (3, 40): [
        (
            "-0x1.2b39470ada119p+0 -0x1.12a3e50d6f074p+1",
            "0x1.c0cf6adb8e5bep+0 -0x1.4a5d7048e2ca7p-1",
            "-0x1.a6f3eea22cc89p+0 -0x1.0df91cbe5cdbbp+1",
        ),
        (
            "-0x1.ccd716ede34fcp-1 -0x1.15b72537907bfp+1",
            "0x1.d1a97074d5801p-1 0x1.a0497b45c9eafp-6",
            "-0x1.5ffcd36bf100ep+0 -0x1.0de14249fc3abp+1",
        ),
        (
            "-0x1.567568ccff019p-4 -0x1.01121869dbd04p+1",
            "-0x1.4b35f017cf233p-9 -0x1.646547e75cbb6p-1",
            "-0x1.0b90663565bd1p-1 -0x1.d608ba62d24b1p+0",
        ),
        (
            "0x1.283bcfdfd1075p-4 -0x1.954fd2d690edbp-1",
            "0x1.8f6977e070bd4p-1 -0x1.b82d4844bbbf8p-8",
            "0x1.ea1aac96c4c54p-2 -0x1.cc7ad84727b78p-4",
        ),
        (
            "0x1.389d73b3e4cf6p-1 -0x1.27366d32d3c84p-1",
            "0x1.1fa61a4c4a73bp+0 -0x1.edb6a42d228e0p-3",
            "-0x1.8c1a9634adcd0p-5 -0x1.ec4a4bed2d660p-2",
        ),
        (
            "0x1.46e5db44b839cp-1 -0x1.4d107c39829b5p-3",
            "0x1.27b67024bab25p+0 -0x1.76cd803a25fd0p-1",
            "0x1.97346b8ac4055p-7 -0x1.109a83e4da153p-2",
        ),
    ],
}


@pytest.mark.parametrize("n,z_seed", list(BETHE_Q_PINS))
def test_solve_bethe_q_roots_are_pinned(n, z_seed):
    q, z = _deformed_input(n, z_seed)
    crits = solve_bethe_q(q, z, seed=n)
    assert [_hex_coords(c.config.t) for c in crits] == BETHE_Q_PINS[(n, z_seed)]
