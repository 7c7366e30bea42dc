import numpy as np

from cmkz.newton import damped_newton, multistart


def _cube_residual(x):
    F = x**3 - 1.0
    return F, np.abs(F).max()


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

    assert damped_newton(lambda x: None, jacobian, np.ones(1), 1e-12, 60) is None
    assert not calls


def test_damped_newton_stall_returns_only_within_accept():
    # the Jacobian has the wrong sign, so every step climbs and the line
    # search stalls at the start point
    def residual(x):
        F = x - 1.0
        return F, np.abs(F).max()

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
