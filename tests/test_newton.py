import numpy as np
import pytest
from hypothesis import given, strategies as st

from cmkz import master_function as mf
from cmkz.newton import multistart, stacked_newton
from cmkz.partitions import Partition
from cmkz.tensor_gaudin import sample_generic_z


def _cube_residual(x, _rows):
    F = x**3 - 1.0
    return F, np.abs(F).max(axis=-1)


def _cube_jacobian(x, _rows):
    return (3.0 * x**2)[..., None] * np.eye(x.shape[-1])


def test_stacked_newton_converges_on_cube_root_of_unity():
    [x] = stacked_newton(
        _cube_residual, _cube_jacobian, np.array([[1.2 + 0.1j]]), 1e-12, 60, polish=2
    )
    assert x is not None
    assert abs(x[0] - 1.0) < 1e-14


def test_stacked_newton_rejects_start_outside_domain():
    calls = []

    def jacobian(x, _rows):
        calls.append(x)
        return np.ones(x.shape + (1,))

    def outside(x, _rows):
        return np.zeros_like(x), np.full(x.shape[:-1], np.inf)

    assert stacked_newton(outside, jacobian, np.ones((1, 1)), 1e-12, 60) == [None]
    assert not calls


def _stack(solve_one):
    """A stacked solve from a one-start solve of a single target."""
    return lambda X, owner: [solve_one(x) for x in X]


def test_multistart_drops_duplicates_and_sorts():
    pts = [2.0 + 0j, 1.0 + 0j, 1.0 + 1e-9j, 0.5 + 1j, 1.0 - 1e-8j]

    def draw(k):
        return np.array([pts[k]])

    [found] = multistart([draw], _stack(lambda x: x), len(pts), expected=5)
    assert [complex(x[0]) for x in found] == [0.5 + 1j, 1.0 + 0j, 2.0 + 0j]


def test_multistart_skips_failed_solves():
    found = multistart(
        [lambda k: np.array([float(k)])], _stack(lambda x: None), 4, 1
    )
    assert found == [[]]


def test_multistart_stops_at_the_start_that_completes_expected():
    # starts 0..5 give roots 0, 0, 1, 1, 2, 2: the third distinct root
    # comes from start 4, in the chunk [3, 4, 5, 6], and no later chunk is
    # drawn; starts 5 and 6 are solved and discarded
    drawn = []

    def draw(k):
        drawn.append(k)
        return np.array([float(k // 2)])

    [found] = multistart([draw], _stack(lambda x: x), 100, expected=3)
    assert drawn == [0, 1, 2, 3, 4, 5, 6]
    assert [x[0] for x in found] == [0.0, 1.0, 2.0]


def test_multistart_starved_run_returns_short_list():
    drawn = []

    def draw(k):
        drawn.append(k)
        return np.array([1.0])

    [found] = multistart([draw], _stack(lambda x: x), 3, expected=3)
    assert drawn == [0, 1, 2]
    assert len(found) == 1


# Reference: the multistart loop that solves one start at a time.
# multistart must keep the same roots.
def _one_at_a_time_multistart(draw, solve, budget, expected):
    found = []
    for k in range(budget):
        if len(found) >= expected:
            break
        x = solve(draw(k))
        if x is None:
            continue
        scale = max(1.0, np.abs(x).max())
        if all(np.abs(x - prev).max() > 1e-6 * scale for prev in found):
            found.append(x)
    found.sort(key=lambda x: tuple(v for c in x for v in (c.real, c.imag)))
    return found


@given(
    roots=st.lists(
        st.one_of(st.none(), st.integers(0, 6)), min_size=1, max_size=150
    ),
    budget=st.integers(0, 160),
    expected=st.integers(0, 8),
)
def test_chunked_multistart_keeps_the_roots_of_the_one_at_a_time_loop(
    roots, budget, expected
):
    # start k solves to None or to one of a few roots, each with jitter
    # below the duplicate radius
    def draw(k):
        return np.array([float(k)])

    def solve_one(x):
        k = int(x[0].real)
        r = roots[k % len(roots)]
        if r is None:
            return None
        return np.array([r + 1e-9 * (k % 5) + 0.5j * r])

    ref = _one_at_a_time_multistart(draw, solve_one, budget, expected)
    [got] = multistart([draw], _stack(solve_one), budget, expected)
    assert len(got) == len(ref)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, ref))


@given(
    patterns=st.lists(
        st.lists(st.one_of(st.none(), st.integers(0, 6)), min_size=1, max_size=150),
        min_size=1,
        max_size=4,
    ),
    budget=st.integers(0, 160),
    expected=st.integers(0, 8),
)
def test_lockstep_streams_keep_the_roots_each_finds_alone(patterns, budget, expected):
    # stream t's start k solves to None or to one of a few roots of its own
    # pattern; the stacked solve reads the pattern of each row's owner, so
    # a row read against the wrong stream would change the roots
    def solve_one(t, x):
        k = int(x[0].real)
        r = patterns[t][k % len(patterns[t])]
        if r is None:
            return None
        return np.array([r + 1e-9 * (k % 5) + 0.5j * r + 10.0 * t])

    def run(ts):
        drawn = {t: [] for t in ts}

        def stream(t):
            def draw(k):
                drawn[t].append(k)
                return np.array([float(k)])

            return draw

        def solve(X, owner):
            return [solve_one(ts[o], x) for o, x in zip(owner, X)]

        return multistart([stream(t) for t in ts], solve, budget, expected), drawn

    together, drawn = run(list(range(len(patterns))))
    assert len(together) == len(patterns)
    for t, roots in enumerate(together):
        [alone], drawn_alone = run([t])
        ref = _one_at_a_time_multistart(
            lambda k: np.array([float(k)]), lambda x: solve_one(t, x), budget, expected
        )
        assert [a.tobytes() for a in roots] == [b.tobytes() for b in ref]
        assert [a.tobytes() for a in alone] == [b.tobytes() for b in ref]
        # a stream draws the starts it draws alone, and no chunk past them
        assert drawn[t] == drawn_alone[t]


def test_stacked_rows_read_their_own_target_through_the_row_indices():
    # x^3 = c_r for a different c per row of X0: the residual reads c by
    # the row indices into X0, and each row converges to its own cube root,
    # bit for bit as when it is solved alone
    targets = np.array([1.0, 8.0 + 0j, -27.0, 2j])

    def residual(x, rows):
        F = x**3 - targets[rows, None]
        return F, np.abs(F).max(axis=-1)

    X0 = np.array([[1.1 + 0.1j], [2.2 + 0j], [-2.9 + 0.2j], [0.9 + 0.6j]])
    got = stacked_newton(residual, _cube_jacobian, X0, 1e-12, 60, polish=2)
    for r, x in enumerate(got):
        assert abs(x[0] ** 3 - targets[r]) < 1e-12 * max(1.0, abs(targets[r]))

        def alone(x, rows, r=r):
            return residual(x, np.full_like(rows, r))

        [ref] = stacked_newton(alone, _cube_jacobian, X0[r : r + 1], 1e-12, 60, polish=2)
        assert x.tobytes() == ref.tobytes()


# Reference: plain Newton on one start, one residual call per step, for
# residuals that return None off the domain or at a norm that is not
# finite.  stacked_newton must match it bit for bit.
def _sequential_newton(residual, jacobian, x0, tol, max_iter, polish=0):
    jacobian = _one_row(jacobian)
    first = residual(x0)
    if first is None:
        return None
    x = x0
    F, fn = first
    for _ in range(max_iter):
        if fn <= tol:
            for _ in range(polish):
                try:
                    step = np.linalg.solve(jacobian(x), F)
                except np.linalg.LinAlgError:
                    break
                cand = x - step
                trial = residual(cand)
                if trial is None or not trial[1] < fn:
                    break
                x, (F, fn) = cand, trial
            return x
        try:
            step = np.linalg.solve(jacobian(x), F)
        except np.linalg.LinAlgError:
            return None
        x = x - step
        trial = residual(x)
        if trial is None:
            return None
        F, fn = trial
    return x if fn <= tol else None


def _one_row(fn):
    """A stacked residual or Jacobian called on one start, row 0."""
    return lambda x: fn(x, np.zeros(1, dtype=int))


def _single_point(residual):
    """A stacked residual under the old contract: None off the domain or at
    a norm that is not finite."""

    def old(x):
        F, norm = _one_row(residual)(x)
        return (F, norm) if np.isfinite(norm) else None

    return old


def _bethe_starts(parts, z_seed, count=30):
    """Random starts for the Bethe equations of a partition: uniform in a
    disc around the positions, from a seeded stream."""
    lam = Partition(parts)
    z = sample_generic_z(lam.n, z_seed)
    sizes = mf.level_sizes(lam)
    rng = np.random.default_rng(z_seed + 1)
    l = sum(sizes)
    r = 2.0 * np.sqrt(rng.uniform(size=(count, l)))
    starts = np.mean(z) + r * np.exp(2j * np.pi * rng.uniform(size=(count, l)))
    return z, sizes, starts


# four Bethe problems, one stack of 30 starts each: 3 of the 120 starts
# converge and are polished, the other 117 step off the domain
BETHE_START_CASES = [((2, 2), 17), ((2, 1, 1), 2), ((3, 1), 6), ((2, 1), 3)]


def _same_bits(a, b):
    if a is None or b is None:
        return a is None and b is None
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_stacked_line_search_matches_the_sequential_loop_bit_for_bit():
    # all 30 starts of a case run as one stack on dPhi/dt, whose norm is
    # inf off the domain; every row must equal the sequential loop run on
    # that start alone
    roots = failed = 0
    for parts, z_seed in BETHE_START_CASES:
        z, sizes, starts = _bethe_starts(parts, z_seed)

        def grad(t, _rows):
            return mf._grad_t_raw(z, sizes, t)

        def hess(t, _rows):
            return mf._hess_t_raw(z, sizes, t)

        stacked = stacked_newton(grad, hess, starts, 1e-10, 60, polish=2)
        assert len(stacked) == len(starts)
        for t0, new in zip(starts, stacked):
            ref = _sequential_newton(_single_point(grad), hess, t0, 1e-10, 60, polish=2)
            assert _same_bits(ref, new)
            roots += new is not None
            failed += new is None
    assert roots + failed == 120
    assert roots > 0 and failed > 0


# a toy system x^3 = 1 with a domain (real part at most 100) and a zero
# Jacobian within 1e-6 of the root w = exp(2 pi i / 3)
_W = np.exp(2j * np.pi / 3)


def _toy_residual(x, _rows):
    F = x**3 - 1.0
    norm = np.abs(F).max(axis=-1)
    return F, np.where((x.real > 100.0).any(axis=-1), np.inf, norm)


def _toy_jacobian(x, _rows):
    J = 3.0 * x**2
    J = np.where(np.abs(x - _W) < 1e-6, 0.0, J)
    return J[..., None]


def test_stacked_rows_match_their_single_start_runs():
    tol = 1e-12
    late_start = np.array([1.5 + 0.5j])

    def sequential(x0, max_iter):
        return _sequential_newton(
            _single_point(_toy_residual), _toy_jacobian, x0, tol, max_iter, polish=2
        )

    # the first iteration cap at which late_start reaches tol: it gets
    # there on its last iteration, so it is returned unpolished
    max_iter = next(m for m in range(1, 60) if sequential(late_start, m) is not None)
    starts = {
        "outside the domain": np.array([200.0 + 0j]),
        "singular": np.array([0.0 + 0j]),
        # the full step lands at 133.4, past the domain
        "leaves the domain": np.array([0.05 + 0j]),
        # J = -3e-320 is subnormal: the step overflows and comes out NaN
        "overflows": np.array([1e-160j]),
        "late": late_start,
        "converges": np.array([1.2 + 0.1j]),
        "singular polish": np.array([_W]),
        "exact root": np.array([1.0 + 0j]),
    }
    X0 = np.stack(list(starts.values()))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(_toy_jacobian(X0, None), _toy_residual(X0, None)[0][..., None])
    got = dict(zip(starts, stacked_newton(
        _toy_residual, _toy_jacobian, X0, tol, max_iter, polish=2
    )))
    for name, x0 in starts.items():
        assert _same_bits(got[name], sequential(x0, max_iter)), name
    none = {"outside the domain", "singular", "leaves the domain", "overflows"}
    assert {name for name, x in got.items() if x is None} == none
    assert got["singular polish"].tobytes() == starts["singular polish"].tobytes()
