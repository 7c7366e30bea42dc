"""The two solver kernels behind the Bethe and Wronski routes: a plain
Newton iteration over a stack of starts and a seeded multistart loop that
collects distinct roots, for one target or for several in lockstep.

Both kernels are policy only.  Callers supply the residual, the Jacobian,
the start streams and every constant (tolerances, iteration caps, start
budget, polish steps), so each route keeps its own numerics.  The
Wronski fibers run both; the Bethe routes polish fiber populations with
Newton alone.  Residual and Jacobian are vectorised over a leading axis:
given a stack X of shape (B, l) and the indices ``rows`` into X0 of the
rows it holds, ``residual(X, rows)`` returns ``(F, norm)`` row by row,
with norm = inf for a point outside the domain, and ``jacobian(X, rows)``
returns the (B, l, l) stack of Jacobians; the indices let a row read its
own target, and a caller with one target ignores them.  Row k of either
must equal the value at X[k] alone, bit for bit, so a start follows the
same iterates whatever stack it is solved in.  Newton runs every start of
a stack in lockstep, one Jacobian and one residual call per step for all
of them, and multistart hands it the starts of every live target's
stream as one stack per round, in growing chunks.
"""

from __future__ import annotations

import numpy as np

from .polyalg import is_new_point, lex_key


def _newton_steps(residual, jacobian, X, F, rows):
    """One full Newton step per row: the iterates X - J^-1 F, their residual
    and norm, and the mask of the rows that have a step; rows are the
    indices into X0 of the rows of X.

    np.linalg.solve raises on a stack when any one matrix is singular; that
    stack is then solved row by row, and a singular row gets no step.
    """
    J = jacobian(X, rows)
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
    return (X, *residual(X, rows), solved)


def _take(mask, *arrays):
    return tuple(a[mask] for a in arrays)


def stacked_newton(residual, jacobian, X0, tol, max_iter, polish=0) -> list:
    """Newton from each row of X0, shape (B, l); one root or None per row.

    ``residual(X, rows)`` returns ``(F, norm)`` row by row, with norm the
    sup norm of F, or inf when a row lies outside the domain; rows are the
    indices into X0 of the rows of X, and ``jacobian(X, rows)`` gets them
    too.  Every live row takes the full step X - J^-1 F, all of them in
    one residual call.  A row ends with None when its norm is not finite
    (inf outside the domain, NaN after overflow), at its start or after a
    step, or when its Jacobian is singular.  A row whose norm is at most
    tol leaves the loop; at the end such rows get, as one stack, up to
    ``polish`` further steps each, while the steps keep lowering the norm.
    A row still in the loop after max_iter steps returns its iterate only
    when its last step took the norm to tol.
    """
    X0 = np.asarray(X0)
    out = [None] * len(X0)

    def keep(rows, X):
        for r, x in zip(rows, X):
            out[r] = x

    F, fn = residual(X0, np.arange(len(X0)))
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
        X, F, fn, solved = _newton_steps(residual, jacobian, X, F, rows)
        rows, X, F, fn = _take(solved & np.isfinite(fn), rows, X, F, fn)
    keep(*_take(fn <= tol, rows, X))

    if not tails:
        return out

    rows, X, F, fn = (np.concatenate(part) for part in zip(*tails))
    for _ in range(polish):
        if not len(rows):
            break
        cand, cand_F, cand_fn, solved = _newton_steps(residual, jacobian, X, F, rows)
        go = solved & (cand_fn < fn)
        keep(*_take(~go, rows, X))
        rows, X, F, fn = _take(go, rows, cand, cand_F, cand_fn)
    keep(rows, X)
    return out


def multistart(streams, solve, budget, expected) -> list[list[np.ndarray]]:
    """Distinct roots from seeded streams of starts, one stream per target,
    searched in lockstep; one list of roots per stream.

    Stream t draws its starts ``streams[t](k)`` for k = 0, 1, ...  In round
    r every live stream draws its next chunk of 1, 2, 4, ... 64 starts,
    capped by the budget left, and the chunks of all live streams are
    solved as one stack: ``solve(X, owner)`` returns one root or None per
    row, with ``owner[i]`` the stream of row i.  Each stream reads its own
    results in its own start order: a None is skipped, a root that is not
    is_new_point against the stream's kept ones is a duplicate, and reading
    stops once ``expected`` roots are kept, so the kept roots are those of
    a loop that solves one start of one stream at a time.  The starts after
    that one in its chunk are solved and discarded.  A stream leaves the
    search there or once ``budget`` starts are spent; a list shorter than
    ``expected`` means that stream undercounted.  Roots come back in
    (re, im) lexicographic order.  One stream is the unbatched case.
    """
    found: list[list[np.ndarray]] = [[] for _ in streams]
    live = [t for t, kept in enumerate(found) if len(kept) < expected]
    k, size = 0, 1
    while k < budget and live:
        chunk = range(k, min(k + size, budget))
        X = np.stack([streams[t](j) for t in live for j in chunk])
        roots = solve(X, np.repeat(live, len(chunk)))
        for slot, t in enumerate(live):
            kept = found[t]
            for x in roots[slot * len(chunk) : (slot + 1) * len(chunk)]:
                if len(kept) >= expected:
                    break
                if x is not None and is_new_point(x, kept):
                    kept.append(x)
        live = [t for t in live if len(found[t]) < expected]
        k, size = chunk.stop, min(2 * size, 64)
    for kept in found:
        kept.sort(key=lex_key)
    return found
