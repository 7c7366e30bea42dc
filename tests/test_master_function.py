import math

import numpy as np
import pytest

from cmkz.calogero_moser import lq_residual
from cmkz.harness import match_points
from cmkz.master_function import (
    _cleared_jacobian,
    _cleared_residual,
    _cleared_system,
    _grad_t_raw,
    _hess_t_raw,
    _split,
    grad_t,
    grad_t_q,
    grad_z,
    grad_z_q,
    level_sizes,
    master_value,
    q_level_sizes,
    solve_bethe,
    solve_bethe_q,
)
from cmkz.partitions import Partition
from cmkz.tensor_gaudin import sample_generic_z, spectral_points


def test_level_sizes():
    assert level_sizes(Partition((3,))) == ()
    assert level_sizes(Partition((1, 1))) == (1,)
    assert level_sizes(Partition((2, 1, 1))) == (2, 1)
    assert q_level_sizes(4) == (3, 2, 1)


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
CLEARED_CASES = [
    ((2, 1), 3, None),
    ((3, 1), 4, None),
    ((2, 1, 1), 4, None),
    ((3, 2, 1), 4, (0.7, -0.4 + 0.2j, 1.1 - 0.3j)),
]


def _cleared_point(sizes, nz, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(nz) + 1j * rng.standard_normal(nz)
    t = rng.standard_normal(sum(sizes)) + 1j * rng.standard_normal(sum(sizes))
    return z, t


def _cleared_reference(z, sizes, t, linear):
    """One equation at a time, straight from the gradient's pole list."""
    tl = _split(t, sizes)
    F, S, prods = [], [], []
    for k, tk in enumerate(tl):
        for i, ti in enumerate(tk):
            poles = [(w, -1.0) for w in z] if k == 0 else []
            poles += [(w, 2.0) for j, w in enumerate(tk) if j != i]
            for kk in (k + 1, k - 1):
                if 0 <= kk < len(tl):
                    poles += [(w, -1.0) for w in tl[kk]]
            d = np.array([ti - w for w, _ in poles])
            c = np.array([cw for _, cw in poles])
            delta = 0.0 if linear is None else linear[k]
            part = np.array([np.prod(np.delete(d, w)) for w in range(len(d))])
            F.append(np.sum(c * part) + delta * np.prod(d))
            S.append(np.sum(np.abs(c * part)) + abs(delta * np.prod(d)))
            prods.append(np.prod(d))
    return np.array(F), np.array(S), np.array(prods)


@pytest.mark.parametrize("sizes,nz,linear", CLEARED_CASES)
def test_cleared_system_matches_per_equation_reference(sizes, nz, linear):
    z, t = _cleared_point(sizes, nz, seed=sum(sizes) + nz)
    F, S = _cleared_system(z, sizes, t, linear)
    F_ref, S_ref, prods = _cleared_reference(z, sizes, t, linear)
    assert np.abs(F - F_ref).max() <= 1e-12 * np.abs(F_ref).max()
    assert np.abs(S - S_ref).max() <= 1e-12 * S_ref.max()
    # dividing out the pole distances gives back dPhi/dt
    g = _grad_t_raw(z, sizes, t, linear)[0]
    assert np.abs(F / prods - g).max() <= 1e-10 * max(1.0, np.abs(g).max())


@pytest.mark.parametrize("sizes,nz,linear", CLEARED_CASES)
def test_cleared_system_jacobian_matches_central_differences(sizes, nz, linear):
    z, t = _cleared_point(sizes, nz, seed=100 + sum(sizes) + nz)
    J = _cleared_jacobian(z, sizes, t, linear)
    h = 1e-6
    fd = np.empty_like(J)
    for c in range(len(t)):
        e = np.zeros(len(t), dtype=complex)
        e[c] = h
        fd[:, c] = (
            _cleared_system(z, sizes, t + e, linear)[0]
            - _cleared_system(z, sizes, t - e, linear)[0]
        ) / (2.0 * h)
    assert np.abs(J - fd).max() <= 1e-6 * np.abs(J).max()


@pytest.mark.parametrize("sizes,nz,linear", CLEARED_CASES)
def test_hessian_matches_central_differences_of_gradient(sizes, nz, linear):
    z, t = _cleared_point(sizes, nz, seed=200 + sum(sizes) + nz)
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


# one auxiliary variable gives a one-row pole table, whose stacked layout
# numpy would otherwise lay out differently; with a linear term, a stack of
# one such point multiplies in another numpy loop unless the linear term is
# spelled out to the stack's shape
STACK_CASES = CLEARED_CASES + [((1,), 4, None), ((1,), 2, (0.7 - 0.2j,))]
# one-point stacks are repeated: a loop that rounds differently shows on
# some inputs only
STACK_SIZES = (1,) * 40 + (2, 39)


@pytest.mark.parametrize("sizes,nz,linear", STACK_CASES)
def test_stacked_bethe_residuals_match_single_points_bit_for_bit(sizes, nz, linear):
    # the cleared stage and the polish stage, over stacks of 1, 2 and 39 points
    z, _ = _cleared_point(sizes, nz, seed=300 + sum(sizes) + nz)
    rng = np.random.default_rng(301)
    for residual in (_cleared_residual, _grad_t_raw):
        for k in STACK_SIZES:
            T = rng.standard_normal((k, sum(sizes))) + 1j * rng.standard_normal(
                (k, sum(sizes))
            )
            F, norms = residual(z, sizes, T, linear)
            assert F.shape == T.shape and norms.shape == (k,)
            for row in range(k):
                f, norm = residual(z, sizes, T[row], linear)
                assert _bits(F[row], norms[row]) == _bits(f, norm)


@pytest.mark.parametrize("sizes,nz,linear", STACK_CASES)
def test_stacked_bethe_jacobians_match_single_points_bit_for_bit(sizes, nz, linear):
    # the cleared-system Jacobian and the Hessian, over stacks of 1, 2 and
    # 39 points and a stack of stacks
    z, _ = _cleared_point(sizes, nz, seed=400 + sum(sizes) + nz)
    rng = np.random.default_rng(401)
    jacobians = (
        lambda T: _cleared_jacobian(z, sizes, T, linear),
        lambda T: _hess_t_raw(z, sizes, T),
    )
    l = sum(sizes)
    for jacobian in jacobians:
        for shape in [(k,) for k in STACK_SIZES] + [(3, 5)]:
            T = rng.standard_normal(shape + (l,)) + 1j * rng.standard_normal(
                shape + (l,)
            )
            J = jacobian(T)
            assert J.shape == shape + (l, l)
            for row in np.ndindex(shape):
                assert _bits(J[row]) == _bits(jacobian(T[row]))


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


def test_solve_bethe_q_three_particles():
    rng = np.random.default_rng(8)
    z = sample_generic_z(3, rng)
    q = np.array([1.1 + 0.4j, -0.8 - 0.2j, 0.1 + 1.3j])
    crits = solve_bethe_q(q, z, seed=9)
    assert 1 <= len(crits) <= math.factorial(3)
    for c in crits:
        assert c.grad_norm <= 1e-10
        assert abs(np.sum(c.p) - q.sum()) < 1e-9
        assert lq_residual(c.config.z, c.p, q) < 1e-9


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


def test_critical_point_json():
    rng = np.random.default_rng(11)
    z = sample_generic_z(2, rng)
    c = solve_bethe(Partition((1, 1)), z, seed=1)[0]
    d = c.as_dict()
    assert set(d) == {"z", "t", "p", "grad_norm"}
    assert len(d["t"]) == 1 and len(d["t"][0]) == 1


def _hex_coords(values):
    return tuple(f"{float(c.real).hex()} {float(c.imag).hex()}" for c in values)


# solve_bethe_q, which no verify check runs, pinned bit for bit: the flat t
# of each critical point, as hex floats, keyed by (n, z seed)
BETHE_Q_PINS = {
    (2, 42): [
        (
            "0x1.027944351af64p-3 -0x1.3b73b23f13892p-1",
        ),
        (
            "0x1.2801fdfb86fa1p+1 0x1.7c9f92c6ad7e9p-1",
        ),
    ],
    (3, 40): [
        (
            "0x1.283bcfdfd1075p-4 -0x1.954fd2d690edbp-1",
            "0x1.8f6977e070bd4p-1 -0x1.b82d4844bbbebp-8",
            "0x1.ea1aac96c4c54p-2 -0x1.cc7ad84727b79p-4",
        ),
        (
            "0x1.389d73b3e4cfap-1 -0x1.27366d32d3c84p-1",
            "0x1.1fa61a4c4a737p+0 -0x1.edb6a42d228eep-3",
            "-0x1.8c1a9634adcb8p-5 -0x1.ec4a4bed2d65ep-2",
        ),
        (
            "0x1.46e5db44b839ep-1 -0x1.4d107c39829afp-3",
            "0x1.27b67024bab25p+0 -0x1.76cd803a25fd3p-1",
            "0x1.97346b8ac4118p-7 -0x1.109a83e4da152p-2",
        ),
    ],
}


@pytest.mark.parametrize("n,z_seed", list(BETHE_Q_PINS))
def test_solve_bethe_q_roots_are_pinned(n, z_seed):
    rng = np.random.default_rng(z_seed)
    z = sample_generic_z(n, rng)
    q = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    crits = solve_bethe_q(q, z, seed=n)
    assert [_hex_coords(c.config.flat_t) for c in crits] == BETHE_Q_PINS[(n, z_seed)]
