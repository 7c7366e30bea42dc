"""Dense polynomial arithmetic over complex coefficients, and the point-set
rules every route shares: separation, deduplication and matching.

Polynomials are 1-D numpy arrays ordered low degree to high, so ``c[k]``
is the coefficient of ``u**k``.  Quasi-exponentials ``exp(rate*u)*g(u)``
are held as :class:`ExpPoly`; differentiation keeps the rate and maps
``g -> rate*g + g'``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import numpy.polynomial.polynomial as npp


def as_poly(c) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(c, dtype=complex))
    if arr.ndim != 1:
        raise ValueError("polynomial coefficients must form a 1-D sequence")
    return arr


def padd(a, b) -> np.ndarray:
    a, b = as_poly(a), as_poly(b)
    if len(a) < len(b):
        a, b = b, a
    out = a.copy()
    out[: len(b)] += b
    return out


def pmul(a, b) -> np.ndarray:
    return np.convolve(as_poly(a), as_poly(b))


def pder(c, order: int = 1) -> np.ndarray:
    c = as_poly(c)
    for _ in range(order):
        if len(c) == 1:
            c = np.zeros(1, dtype=complex)
        else:
            c = c[1:] * np.arange(1, len(c), dtype=float)
    return c


def peval(c, x):
    return npp.polyval(x, as_poly(c))


def from_roots(roots) -> np.ndarray:
    """Monic polynomial with the given roots, low-to-high coefficients, row
    by row for a stack of root tuples along the last axis.

    One in-place Vieta recurrence over the whole stack, multiplying by
    (u - r_k) for each root in turn: plain numpy ufuncs, no convolution and
    no BLAS dot, so a stack and its rows agree bit for bit.
    """
    r = np.asarray(roots, dtype=complex)
    n = r.shape[-1]
    c = np.zeros(r.shape[:-1] + (n + 1,), dtype=complex)
    c[..., n] = 1.0
    for k in range(n):
        # the factors so far fill c[n-k:], low degree first
        c[..., n - k - 1 : n] -= r[..., k, None] * c[..., n - k :]
    return c


def elementary_symmetric(values) -> np.ndarray:
    """e_1, ..., e_n of the given values, read off prod(u - v_i), row by
    row for a stack of value tuples along the last axis."""
    monic = from_roots(values)
    return monic[..., -2::-1] * (-1.0) ** np.arange(1, monic.shape[-1])


@lru_cache(maxsize=None)
def _berkowitz_layout(n: int):
    """Index tables of char_coefficients at size n: the masks of the leading
    blocks, below[k, i] = i < k and its complement, and per step k the
    gather gaps[k][m, i] = n + m - i (m <= k + 1, i <= k) of its Toeplitz
    matrix out of the zero-padded series."""
    below = np.tri(n, k=-1, dtype=bool)
    above = ~below
    gaps = [n + np.subtract.outer(np.arange(k + 2), np.arange(k + 1)) for k in range(n)]
    for t in (below, above, *gaps):
        t.setflags(write=False)  # cached: shared by every caller
    return below, above, gaps


def char_coefficients(A) -> np.ndarray:
    """e_0, ..., e_n of the eigenvalues of each matrix in a stack (..., n, n),
    read off det(u - A) = sum_k (-1)^k e_k u^(n-k); e_0 = 1.

    The Samuelson-Berkowitz recurrence (Berkowitz, "On computing the
    determinant in small parallel time", 1984).  Write the leading block
    A_(k+1) as [[A_k, c], [r, a]]; a Schur complement gives
    det(1 + x A_(k+1)) = det(1 + x A_k) (1 + a x - sum_j w_j x^(j+2)) with
    w_j = r (-A_k)^j c, so e^(k+1)_m = e^(k)_m + a e^(k)_(m-1)
    - sum_(j <= m-2) w_j e^(k)_(m-2-j) for m <= k + 1.  The Krylov vectors
    of every leading block, zero-padded to length n, run as one stack, and
    each step is one product with a lower-triangular Toeplitz matrix.
    Division-free, in complex arithmetic, with einsum contractions that
    form no product arrays and ufuncs only (no BLAS, no LAPACK), so a stack
    and its rows agree bit for bit; Gaussian-integer entries give exact
    coefficients.
    """
    A = np.ascontiguousarray(A, dtype=complex)
    n = A.shape[-1]
    lead = A.shape[:-2]
    if n == 0:
        return np.ones(lead + (1,), dtype=complex)
    below, above, gaps = _berkowitz_layout(n)
    # per block k: n zeros, then the series 1 + a x - sum_j w_j x^(j+2)
    series = np.zeros(lead + (n, 2 * n + 1), dtype=complex)
    series[..., n] = 1.0
    series[..., n + 1] = np.diagonal(A, axis1=-2, axis2=-1)
    minus = -A
    r = np.where(below, minus, 0.0)  # -r of each block k: row k left of the diagonal
    v = np.where(below, np.swapaxes(A, -1, -2), 0.0)  # c: column k above it
    for j in range(n - 1):
        if j:
            v = np.einsum("...il,...kl->...ki", minus, v)  # (-A_k)^j c
            np.copyto(v, 0.0, where=above)
        np.einsum("...kl,...kl->...k", r, v, out=series[..., n + 2 + j])  # -w_j
    e = series[..., 0, n : n + 2]  # e^(1) = (1, a)
    for k in range(1, n):
        toeplitz = np.take(series[..., k, :], gaps[k], axis=-1)
        e = np.einsum("...mi,...i->...m", toeplitz, e)
    return e


def roots(c) -> np.ndarray:
    c = as_poly(c)
    mags = np.abs(c)
    top = mags.max()
    if top == 0.0:
        raise ValueError("zero polynomial has no well-defined roots")
    deg = int(np.nonzero(mags > 0)[0][-1])
    if deg == 0:
        return np.zeros(0, dtype=complex)
    # companion-matrix eigenvalues, as np.roots does internally
    return np.roots(c[deg::-1])


def lexsorted(values: np.ndarray) -> np.ndarray:
    """Sort complex values by (real, imag)."""
    values = np.asarray(values, dtype=complex)
    return values[np.lexsort((values.imag, values.real))]


def lex_key(values) -> tuple:
    """Sort key of a complex tuple: the (real, imag) of each entry in turn,
    the order lexsorted gives single values."""
    return tuple(x for v in values for x in (v.real, v.imag))


def min_gap(values):
    """Smallest |v_i - v_j| over pairs i != j of the last axis, row by row
    for a stack of value tuples; inf for fewer than two values.

    Reads the full distance matrix with its diagonal set to inf, which is
    cheaper than gathering the upper triangle and gives the same minimum.
    """
    v = np.atleast_1d(np.asarray(values))
    n = v.shape[-1]
    d = np.abs(v[..., :, None] - v[..., None, :]).reshape(v.shape[:-1] + (n * n,))
    d[..., :: n + 1] = np.inf
    return d.min(axis=-1, initial=np.inf)[()]


def require_distinct(values, min_sep_rel: float, what: str) -> np.ndarray:
    """The values as a complex array, if pairwise separated, row by row for
    a stack of value tuples along the last axis.

    Raises ValueError when two values of one row lie closer than
    min_sep_rel times max(1, largest modulus in that row).
    """
    v = np.atleast_1d(np.asarray(values, dtype=complex))
    scale = np.maximum(1.0, np.abs(v).max(axis=-1, initial=0.0))
    if np.any(min_gap(v) < min_sep_rel * scale):
        raise ValueError(f"{what} must be pairwise distinct")
    return v


def _new_point_cutoff(x):
    """1e-6 * max(1, |x|_inf) over the last axis: the sup distance past
    which a point counts as apart from x."""
    return 1e-6 * np.fmax(1.0, np.abs(x).max(axis=-1))


def is_new_point(x, kept) -> bool:
    """Whether x lies farther than 1e-6 * max(1, |x|_inf) from every kept
    point in the sup norm: the one rule that deduplicates found roots."""
    cutoff = _new_point_cutoff(x)
    return all(np.abs(x - prev).max() > cutoff for prev in kept)


def distinct_count(points) -> np.ndarray:
    """How many of the m points of each family in a stack (..., m, L) are
    new by is_new_point's rule against the points before them.

    One stacked sup-distance matrix per call, no loop over points; a family
    of pairwise distinct points counts m.
    """
    P = np.asarray(points, dtype=complex)
    dist = np.abs(P[..., :, None, :] - P[..., None, :, :]).max(axis=-1)
    near = ~(dist > _new_point_cutoff(P)[..., :, None])  # near[j, i]: i is near j
    earlier = np.tri(P.shape[-2], k=-1, dtype=bool)  # earlier[j, i]: i < j
    return (~(near & earlier).any(axis=-1)).sum(axis=-1)


def match_within(close) -> np.ndarray:
    """Partner column of each row in a maximum matching of the bipartite
    graph ``close`` (close[i, j] true where row i may pair with column j),
    or -1 for a row left unmatched.

    Augmenting paths (Kuhn 1955) after a greedy pass, each found by a
    breadth-first search over alternating paths, so no path length meets a
    recursion limit: every row gets a partner iff some assignment of the
    rows to distinct columns stays inside the graph.
    """
    close = np.asarray(close, dtype=bool)
    n_rows, n_cols = close.shape
    edges = [np.flatnonzero(row).tolist() for row in close]
    partner = [-1] * n_rows  # column of each row
    owner = [-1] * n_cols  # row of each column
    for i, cols in enumerate(edges):
        for j in cols:
            if owner[j] < 0:
                partner[i], owner[j] = j, i
                break
    for root in range(n_rows):
        if partner[root] >= 0:
            continue
        via = [-1] * n_cols  # row from which the search reached each column
        queue, free = [root], -1
        for i in queue:
            for j in edges[i]:
                if via[j] < 0:
                    via[j] = i
                    if owner[j] < 0:
                        free = j
                        break
                    queue.append(owner[j])
            if free >= 0:
                break
        # flip the alternating path that ends at the free column
        while free >= 0:
            i = via[free]
            partner[i], owner[free], free = free, i, partner[i]
    return np.array(partner, dtype=np.intp)


def excluded_products(values: np.ndarray) -> np.ndarray:
    """Products of all entries but one along the last axis.

    out[..., w] = prod_{s != w} values[..., s], by prefix and suffix
    sweeps, so no division is needed and a zero factor is harmless.
    """
    ones = np.ones(values.shape[:-1] + (1,), dtype=values.dtype)
    pre = np.cumprod(np.concatenate([ones, values[..., :-1]], axis=-1), axis=-1)
    suf = np.cumprod(np.concatenate([ones, values[..., :0:-1]], axis=-1), axis=-1)
    return pre * suf[..., ::-1]


def cap_degree(c, degree: int) -> np.ndarray:
    """Truncate to the stated degree, checking the tail is numerically zero.

    Coefficient cancellations above the structural degree leave roundoff
    residue; anything larger than 1e-10 times the coefficient scale is a
    genuine degree violation.
    """
    c = as_poly(c)
    scale = max(np.abs(c).max(), 1e-300)
    if len(c) > degree + 1:
        tail = np.abs(c[degree + 1 :]).max()
        if tail > 1e-10 * scale:
            raise ValueError(
                f"polynomial degree exceeds {degree} (tail magnitude {tail:.3e})"
            )
        c = c[: degree + 1]
    if len(c) < degree + 1:
        c = np.concatenate([c, np.zeros(degree + 1 - len(c), dtype=complex)])
    return c


def poly_det(mat) -> np.ndarray:
    """Determinant of a square matrix of polynomials.

    Dynamic programming over the sets of rows used by the columns taken so
    far: exact in coefficient arithmetic, division-free, with structurally
    zero entries skipped and partial sums accumulated in place in a fixed
    order.  The columns are taken in ascending order of their count of
    structurally nonzero entries (a stable sort, so a dense matrix keeps
    index order and its bits), and the result is multiplied once by the
    sign of that column permutation.  A dense matrix costs n * 2^(n-1)
    convolutions.  On a nested (staircase) pattern, such as a Wronskian
    matrix of polynomials of distinct degrees, where column c is nonzero
    in the rows of degree at least c, the sparsest column comes first and
    few row sets survive each column: at most n^2 convolutions for every
    partition with n <= 9.
    """
    n = len(mat)
    if n == 0:
        return np.ones(1, dtype=complex)
    rows = [[as_poly(entry) for entry in row] for row in mat]
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    # per column, the rows with a nonzero entry there, in row order
    nonzero = [
        [(r, 1 << r, rows[r][col]) for r in range(n) if rows[r][col].any()]
        for col in range(n)
    ]
    order = sorted(range(n), key=lambda col: len(nonzero[col]))
    layer = {0: np.ones(1, dtype=complex)}
    for col in order:
        nxt: dict[int, np.ndarray] = {}
        for used, acc in layer.items():
            for r, bit, entry in nonzero[col]:
                if used & bit:
                    continue
                term = np.convolve(acc, entry)
                # inversions added: rows already used with index above r; the
                # complex multiply by +1.0 is kept, since it fixes signed zeros
                term *= -1.0 if ((used >> (r + 1)).bit_count() & 1) else 1.0
                key = used | bit
                prev = nxt.get(key)
                if prev is None:
                    nxt[key] = term
                elif len(prev) >= len(term):
                    prev[: len(term)] += term
                else:
                    term[: len(prev)] += prev
                    nxt[key] = term
        layer = nxt
        if not layer:
            return np.zeros(1, dtype=complex)
    det = layer.get((1 << n) - 1, np.zeros(1, dtype=complex))
    # det(M P) = sgn(P) det(M): undo the column order's inversions
    inversions = sum(a > b for i, a in enumerate(order) for b in order[i + 1 :])
    return -det if inversions & 1 else det


@dataclass(eq=False)
class ExpPoly:
    """The function exp(rate*u) * poly(u)."""

    rate: complex
    coeffs: np.ndarray

    def __post_init__(self):
        self.rate = complex(self.rate)
        self.coeffs = as_poly(self.coeffs)
