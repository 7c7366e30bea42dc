"""The two solver kernels behind the Bethe and Wronski routes: a
backtracking damped Newton iteration and a seeded multistart loop that
collects distinct roots.

Both kernels are policy only.  Callers supply the residual, the Jacobian,
the start generator and every constant (tolerances, iteration caps,
start budget, escape radius, polish steps), so each route keeps its own
numerics.  A residual is vectorised over a leading axis: ``residual(X)``
returns ``(F, norm)`` for one point or, row by row, for a stack of
points, with norm = inf for a point outside the domain.  The line search
uses that to try all its step lengths past the full step in one call.
"""

from __future__ import annotations

import numpy as np

# the step lengths a line search tries after the full step: every halving
# above 1e-12, 2^-1 ... 2^-39, in one stacked residual call
_HALVINGS = 0.5 ** np.arange(1, 40)


def _passes(norm, fn, alpha, tol):
    """The step test: the norm falls by the factor 1 - alpha/4 or reaches tol."""
    return (norm < fn * (1.0 - 0.25 * alpha)) | (norm <= tol)


def damped_newton(
    residual, jacobian, x0, tol, max_iter, accept=None, polish=0, escape=np.inf
):
    """Damped Newton from x0; returns the root or None.

    ``residual(X)`` returns ``(F, norm)``, with norm the sup norm the step
    test uses, or inf when X lies outside the domain; given a stack of
    points along a leading axis it returns both row by row.  A step of
    length alpha is taken when the norm falls by the factor 1 - alpha/4
    or reaches tol.  The full step is tried first; if it fails, the
    halvings alpha = 2^-1 ... 2^-39 are evaluated as one stack and the
    longest one that passes is taken, the step a sequential halving
    would take; if none passes, the run stalls.  Once the norm is at
    most tol, up to ``polish`` undamped steps run while they keep
    lowering the norm.  An iterate beyond ``escape`` in sup norm aborts
    the solve.  A stalled or exhausted run returns its iterate only when
    the norm is at most ``accept`` (default: tol).
    """
    F, fn = residual(x0)
    if fn == np.inf:
        return None
    x = x0
    for _ in range(max_iter):
        if fn <= tol:
            for _ in range(polish):
                try:
                    step = np.linalg.solve(jacobian(x), F)
                except np.linalg.LinAlgError:
                    break
                cand = x - step
                trial = residual(cand)
                if trial[1] >= fn:
                    break
                x, (F, fn) = cand, trial
            return x
        if np.abs(x).max() > escape:
            return None
        try:
            step = np.linalg.solve(jacobian(x), F)
        except np.linalg.LinAlgError:
            return None
        cand = x - step
        trial_F, trial_fn = residual(cand)
        if not _passes(trial_fn, fn, 1.0, tol):
            cands = x - _HALVINGS[:, None] * step
            Fs, norms = residual(cands)
            ok = _passes(norms, fn, _HALVINGS, tol)
            if not ok.any():
                break
            i = ok.argmax()  # the longest step that passes
            cand, trial_F, trial_fn = cands[i], Fs[i], norms[i]
        x, F, fn = cand, trial_F, trial_fn
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
