import numpy as np

from cmkz import master_function as mf
from cmkz.newton import damped_newton, multistart
from cmkz.partitions import Partition
from cmkz.tensor_gaudin import sample_generic_z


def _cube_residual(x):
    F = x**3 - 1.0
    return F, np.abs(F).max(axis=-1)


def _cube_jacobian(x):
    return np.diag(3.0 * x**2)


def test_damped_newton_converges_on_cube_root_of_unity():
    x = damped_newton(
        _cube_residual, _cube_jacobian, np.array([1.2 + 0.1j]), 1e-12, 60, polish=2
    )
    assert x is not None
    assert abs(x[0] - 1.0) < 1e-14


def test_damped_newton_rejects_start_outside_domain():
    calls = []

    def jacobian(x):
        calls.append(x)
        return np.eye(1)

    def outside(x):
        return np.zeros_like(x), np.full(x.shape[:-1], np.inf)[()]

    assert damped_newton(outside, jacobian, np.ones(1), 1e-12, 60) is None
    assert not calls


def test_damped_newton_stall_returns_only_within_accept():
    # the Jacobian has the wrong sign, so every step climbs and the line
    # search stalls at the start point
    def residual(x):
        F = x - 1.0
        return F, np.abs(F).max(axis=-1)

    def uphill(x):
        return -np.eye(1)

    x0 = np.array([1.0 + 1e-3])
    assert damped_newton(residual, uphill, x0, 1e-12, 60) is None
    assert damped_newton(residual, uphill, x0, 1e-12, 60, accept=1e-4) is None
    x = damped_newton(residual, uphill, x0, 1e-12, 60, accept=1e-2)
    assert x is not None and x[0] == x0[0]


def test_damped_newton_escape_aborts():
    x0 = np.array([10.0 + 1.0j])
    assert damped_newton(_cube_residual, _cube_jacobian, x0, 1e-12, 60) is not None
    assert (
        damped_newton(_cube_residual, _cube_jacobian, x0, 1e-12, 60, escape=5.0)
        is None
    )


def test_multistart_drops_duplicates_and_sorts():
    pts = [2.0 + 0j, 1.0 + 0j, 1.0 + 1e-9j, 0.5 + 1j, 1.0 - 1e-8j]

    def draw(k):
        return np.array([pts[k]])

    found = multistart(draw, lambda x: x, len(pts), expected=5)
    assert [complex(x[0]) for x in found] == [0.5 + 1j, 1.0 + 0j, 2.0 + 0j]


def test_multistart_skips_failed_solves():
    found = multistart(lambda k: np.array([float(k)]), lambda x: None, 4, 1)
    assert found == []


def test_multistart_stops_at_the_start_that_completes_expected():
    # starts 0..5 give roots 0, 0, 1, 1, 2, 2: the third distinct root
    # comes from start 4, and no later start is drawn
    drawn = []

    def draw(k):
        drawn.append(k)
        return np.array([float(k // 2)])

    found = multistart(draw, lambda x: x, 100, expected=3)
    assert drawn == [0, 1, 2, 3, 4]
    assert [x[0] for x in found] == [0.0, 1.0, 2.0]


def test_multistart_starved_run_returns_short_list():
    drawn = []

    def draw(k):
        drawn.append(k)
        return np.array([1.0])

    found = multistart(draw, lambda x: x, 3, expected=3)
    assert drawn == [0, 1, 2]
    assert len(found) == 1


# Reference: damped Newton with a sequential line search, one residual call
# per halving, for residuals that return None outside the domain.
# damped_newton must match it bit for bit.
def _sequential_damped_newton(
    residual, jacobian, x0, tol, max_iter, accept=None, polish=0, escape=np.inf
):
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
                if trial is None or trial[1] >= fn:
                    break
                x, (F, fn) = cand, trial
            return x
        if np.abs(x).max() > escape:
            return None
        try:
            step = np.linalg.solve(jacobian(x), F)
        except np.linalg.LinAlgError:
            return None
        alpha = 1.0
        while alpha > 1e-12:
            cand = x - alpha * step
            trial = residual(cand)
            if trial is not None and (
                trial[1] < fn * (1.0 - 0.25 * alpha) or trial[1] <= tol
            ):
                x, (F, fn) = cand, trial
                break
            alpha *= 0.5
        else:
            break
    return x if fn <= (tol if accept is None else accept) else None


def _single_point(residual):
    """A stacked residual under the old contract: None outside the domain."""

    def old(x):
        F, norm = residual(x)
        return None if norm == np.inf else (F, norm)

    return old


def _bethe_starts(parts, z_seed, count=60):
    """The cleared-stage starts of a Bethe solve: hull and disc draws in
    turn, from one seeded stream, as the undeformed multistart makes them."""
    lam = Partition(parts)
    z = sample_generic_z(lam.n, z_seed)
    sizes = mf.level_sizes(lam)
    rng = np.random.default_rng(z_seed + 1)
    draws = (mf._hull_start, mf._random_start)
    return z, sizes, [draws[k % 2](rng, z, sum(sizes)) for k in range(count)]


# four Bethe problems whose 240 starts include line searches that use up
# every halving and ones accepted only after 30 or more halvings
BETHE_START_CASES = [((2, 2), 17), ((2, 1, 1), 2), ((3, 1), 6), ((2, 1), 3)]


def _same_bits(a, b):
    if a is None or b is None:
        return a is None and b is None
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_stacked_line_search_matches_the_sequential_loop_bit_for_bit():
    exhausted = late = compared = 0
    for parts, z_seed in BETHE_START_CASES:
        z, sizes, starts = _bethe_starts(parts, z_seed)

        def cleared(t):
            return mf._cleared_residual(z, sizes, t, None)

        def cleared_jac(t):
            return mf._cleared_system(z, sizes, t, None, jac=True)[2]

        def grad(t):
            return mf._grad_t_raw(z, sizes, t)

        def hess(t):
            return mf._hess_t_raw(z, sizes, t)

        escape = 25.0 * (1.0 + np.abs(z).max())
        for t0 in starts:
            # one list of norms per Newton step: a Jacobian call opens it
            searches = [[]]

            def logged(t):
                out = cleared(t)
                searches[-1].append(out[1])
                return out

            def opening_jac(t):
                searches.append([])
                return cleared_jac(t)

            ref = _sequential_damped_newton(
                _single_point(logged), opening_jac, t0, 1e-9, 45, accept=1e-6
            )
            new = damped_newton(cleared, cleared_jac, t0, 1e-9, 45, accept=1e-6)
            assert _same_bits(ref, new)
            compared += 1
            # classify each sequential line search by its last trial
            fn = searches[0][0]
            for norms in searches[1:]:
                alpha = 0.5 ** (len(norms) - 1)
                if norms[-1] < fn * (1.0 - 0.25 * alpha) or norms[-1] <= 1e-9:
                    fn = norms[-1]
                    late += len(norms) - 1 >= 30
                else:
                    exhausted += len(norms) == 40
            if ref is not None:
                # the polish stage, whose residual is inf off the domain
                ref_t = _sequential_damped_newton(
                    _single_point(grad), hess, ref, 1e-10, 60, polish=2, escape=escape
                )
                new_t = damped_newton(
                    grad, hess, ref, 1e-10, 60, polish=2, escape=escape
                )
                assert _same_bits(ref_t, new_t)
    assert compared >= 200
    assert exhausted > 0 and late > 0


def test_rejected_line_search_makes_two_residual_calls():
    # the first start of the (2, 2) case: its first line search fails at
    # every halving, and the solve stalls there
    z, sizes, starts = _bethe_starts((2, 2), 17)
    calls = []

    def jacobian(t):
        calls.append("jac")
        return mf._cleared_system(z, sizes, t, None, jac=True)[2]

    def residual(t):
        calls.append(t.shape[:-1])
        return mf._cleared_residual(z, sizes, t, None)

    assert damped_newton(residual, jacobian, starts[0], 1e-9, 45, accept=1e-6) is None
    # the start, then the full step and the 39 halvings as one stack
    assert calls == [(), "jac", (), (39,)]

    calls.clear()
    old = _single_point(residual)
    assert _sequential_damped_newton(old, jacobian, starts[0], 1e-9, 45, 1e-6) is None
    assert calls == [(), "jac"] + [()] * 40
