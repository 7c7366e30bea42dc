"""The two solver kernels behind the Bethe and Wronski routes: a
backtracking damped Newton iteration and a seeded multistart loop that
collects distinct roots.

Both kernels are policy only.  Callers supply the residual, the Jacobian,
the start generator and every constant (tolerances, iteration caps,
start budget, escape radius, polish steps), so each route keeps its own
numerics.
"""

from __future__ import annotations

import numpy as np


def damped_newton(
    residual, jacobian, x0, tol, max_iter, accept=None, polish=0, escape=np.inf
):
    """Damped Newton from x0; returns the root or None.

    ``residual(x)`` returns ``(F, norm)``, with norm the sup norm the step
    test uses, or None when x lies outside the domain.  A step of length
    alpha is taken when the norm falls by the factor 1 - alpha/4 or
    reaches tol; alpha halves down to 1e-12.  Once the norm is at most
    tol, up to ``polish`` undamped steps run while they keep lowering the
    norm.  An iterate beyond ``escape`` in sup norm aborts the solve.  A
    stalled or exhausted run returns its iterate only when the norm is at
    most ``accept`` (default: tol).
    """
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


def multistart(draw, solve, budget, expected) -> list[np.ndarray]:
    """Distinct roots from one seeded stream of starts.

    Solves ``solve(draw(k))`` for k = 0, 1, ... and stops once ``expected``
    roots are kept or ``budget`` starts are spent; a None result is
    skipped.  A root within 1e-6 of a kept one, relative to max(1, its sup
    norm), is a duplicate.  A list shorter than ``expected`` means the
    search undercounted.  Roots come back in (re, im) lexicographic order.
    """
    found: list[np.ndarray] = []
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
