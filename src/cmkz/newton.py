"""The two solver kernels behind the Bethe and Wronski routes: a plain
Newton iteration over a stack of starts and a seeded multistart loop that
collects distinct roots.

Both kernels are policy only.  Callers supply the residual, the Jacobian,
the start generator and every constant (tolerances, iteration caps,
start budget, polish steps), so each route keeps its own numerics.  The
Wronski fibers run both; the Bethe routes polish fiber populations with
Newton alone.  Residual and Jacobian are vectorised over a leading axis:
given a stack X of shape (B, l), ``residual(X)`` returns ``(F, norm)``
row by row, with norm = inf for a point outside the domain, and
``jacobian(X)`` returns the (B, l, l) stack of Jacobians.  Row k of
either must equal the value at X[k] alone, bit for bit, so a start
follows the same iterates whatever stack it is solved in.  Newton runs
every start of a stack in lockstep, one Jacobian and one residual call
per step for all of them, and multistart hands it its starts in growing
chunks.
"""

from __future__ import annotations

import numpy as np

from .polyalg import is_new_point, lex_key


def _newton_steps(residual, jacobian, X, F):
    """One full Newton step per row: the iterates X - J^-1 F, their residual
    and norm, and the mask of the rows that have a step.

    np.linalg.solve raises on a stack when any one matrix is singular; that
    stack is then solved row by row, and a singular row gets no step.
    """
    J = jacobian(X)
    solved = np.ones(len(F), dtype=bool)
    try:
        step = np.linalg.solve(J, F[..., None])[..., 0]
    except np.linalg.LinAlgError:
        step = np.zeros(F.shape, dtype=np.result_type(J, F))
        for r in range(len(F)):
            try:
                step[r] = np.linalg.solve(J[r], F[r])
            except np.linalg.LinAlgError:
                solved[r] = False
    X = X - step
    return (X, *residual(X), solved)


def _take(mask, *arrays):
    return tuple(a[mask] for a in arrays)


def stacked_newton(residual, jacobian, X0, tol, max_iter, polish=0) -> list:
    """Newton from each row of X0, shape (B, l); one root or None per row.

    ``residual(X)`` returns ``(F, norm)`` row by row, with norm the sup
    norm of F, or inf when a row lies outside the domain.  Every live row
    takes the full step X - J^-1 F, all of them in one residual call.  A
    row ends with None when its norm is not finite (inf outside the
    domain, NaN after overflow), at its start or after a step, or when its
    Jacobian is singular.  A row whose norm is at most tol leaves the
    loop; at the end such rows get, as one stack, up to ``polish`` further
    steps each, while the steps keep lowering the norm.  A row still in
    the loop after max_iter steps returns its iterate only when its last
    step took the norm to tol.
    """
    X0 = np.asarray(X0)
    out = [None] * len(X0)

    def keep(rows, X):
        for r, x in zip(rows, X):
            out[r] = x

    F, fn = residual(X0)
    rows = np.isfinite(fn).nonzero()[0]  # indices into X0 of the live rows
    X, F, fn = X0[rows], F[rows], fn[rows]
    tails = []  # (rows, X, F, fn) of the rows that reached tol
    for _ in range(max_iter):
        stop = fn <= tol
        if stop.any():
            tails.append(_take(stop, rows, X, F, fn))
            rows, X, F, fn = _take(~stop, rows, X, F, fn)
        if not len(rows):
            break
        X, F, fn, solved = _newton_steps(residual, jacobian, X, F)
        rows, X, F, fn = _take(solved & np.isfinite(fn), rows, X, F, fn)
    keep(*_take(fn <= tol, rows, X))

    if not tails:
        return out

    rows, X, F, fn = (np.concatenate(part) for part in zip(*tails))
    for _ in range(polish):
        if not len(rows):
            break
        cand, cand_F, cand_fn, solved = _newton_steps(residual, jacobian, X, F)
        go = solved & (cand_fn < fn)
        keep(*_take(~go, rows, X))
        rows, X, F, fn = _take(go, rows, cand, cand_F, cand_fn)
    keep(rows, X)
    return out


def multistart(draw, solve, budget, expected) -> list[np.ndarray]:
    """Distinct roots from one seeded stream of starts.

    Draws the starts ``draw(k)`` for k = 0, 1, ... in chunks of 1, 2, 4,
    ... 64, capped by the budget left, and solves each chunk as one stack:
    ``solve(X)`` returns one root or None per row.  Results are read in
    start order: a None is skipped, a root that is not is_new_point
    against the kept ones is a duplicate, and reading stops once
    ``expected`` roots are kept, so the kept roots are those of a loop
    that solves one start at a time.  The starts after that one in
    its chunk are solved and discarded.  The search ends there or once
    ``budget`` starts are spent; a list shorter than ``expected`` means
    it undercounted.  Roots come back in (re, im) lexicographic order.
    """
    found: list[np.ndarray] = []
    k, size = 0, 1
    while k < budget and len(found) < expected:
        chunk = range(k, min(k + size, budget))
        for x in solve(np.stack([draw(j) for j in chunk])):
            if len(found) >= expected:
                break
            if x is not None and is_new_point(x, found):
                found.append(x)
        k, size = chunk.stop, min(2 * size, 64)
    found.sort(key=lex_key)
    return found
