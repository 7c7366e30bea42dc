"""Wronskians, the attached degree-n differential operators, and the maps
back to spectral data (z, p).

Conventions
-----------
A tuple x in the polynomial family attached to a partition consists of
monic polynomials f_i of degree d_i = lambda_i + n - i whose free
coefficients sit exactly at the degrees d_i - j not occurring among the
d's; there are n of them in total.  The Wronskian of the tuple equals
prod_{i<j} (d_j - d_i) times a monic degree-n polynomial whose
coefficients W_a (signs (-1)^a) give the Wronski map.

The operator coefficients are stored as P[i, j] multiplying
u^(n-j) d^(n-i), so row i of P, reversed, is the coefficient polynomial
of d^(n-i) in increasing powers of u.  The row determinant keeps the
symbolic last row (1, d, ..., d^n) rightmost in every product, which
amounts to a signed cofactor expansion along that row.

The operator of a polynomial tuple is multi-affine in the free
coefficients x: P(x) = sum_T C_T prod_{k in T} x_k, where a term T picks
per row either the leading monomial or one free slot.  Each C_T is exact:
the operator of monomial rows u^(e_i) is a power of u times the Euler
operator product prod_i (u d - e_i), whose expansion in u^c d^c has
integer coefficients (Stirling numbers of the second kind), so every entry
is an integer over the shift prefactor.  fundamental_operator reads this
table, cached per partition, and the Wronski map is its row 0; wronskian
and wronski_map stay on the exact poly_det, as the independent route.

Each identity of the operator is evaluated once per tuple.  The diagonal
identity (fla_residual) reads the diagonal of P, on which every
x-dependent term vanishes exactly, so its value depends only on the
partition.  The bivariate identity takes its whole grid in one stacked
determinant and one grid evaluation of P.

Quasi-exponential tuples e^(q_i u)(u + c_i) follow the same scheme with
the exponential and Vandermonde-of-q prefactors stripped; their operator
has full (n+1) x (n+1) coefficient support and is built from poly_det
minors.  Their Wronski map is multi-affine in the shifts c as well, and
wronski_fiber_q solves it from a table of principal minors built per q,
through the same multistart and plain stacked Newton (full steps) as
wronski_fiber; wronski_map_q stays on poly_det.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import numpy.polynomial.polynomial as npp

from . import polyalg as pa
from .calogero_moser import bivariate_char, xi
from .newton import multistart, stacked_newton
from .partitions import Partition, irrep_dimension, shifted
from .polyalg import ExpPoly
from .serialize import pair
from .tensor_gaudin import SpectralPoint

# starts per fiber search
WRONSKI_BUDGET = 2720
# relative separation below which two Wronskian roots, or a root and an
# exponent q_i, count as one: an exact double root splits by about
# sqrt(eps) under the companion eigensolve, so the cutoff sits well above
MIN_SEP_REL = 1e-6
# evaluation points per axis of the bivariate identity check
BIVARIATE_GRID = 5


@lru_cache(maxsize=None)
def free_positions(lam: Partition) -> tuple[tuple[int, int], ...]:
    """Free coefficient slots (i, j): degree d_i - j, with d_i - j not a d;
    cached per partition, since every PolyTuple reads them."""
    entries = shifted(lam)
    occupied = set(entries)
    out = []
    for i0, d in enumerate(entries):
        for j in range(1, d + 1):
            if d - j not in occupied:
                out.append((i0 + 1, j))
    return tuple(out)


def _pairwise_product(values):
    """prod_{i<j} (values[j] - values[i]), the Wronskian's leading prefactor.

    Exact for the integer shifted degrees; 1 (an int) for fewer than two
    values.
    """
    pref = 1
    for i, j in itertools.combinations(range(len(values)), 2):
        pref *= values[j] - values[i]
    return pref


@dataclass(eq=False)
class PolyTuple:
    """A point of the polynomial family: partition plus free coefficients."""

    lam: Partition
    coeffs: dict[tuple[int, int], complex]

    def __post_init__(self):
        expected = set(free_positions(self.lam))
        got = set(self.coeffs)
        if got != expected:
            raise ValueError(
                f"coefficient slots {sorted(got)} do not match {sorted(expected)}"
            )
        self.coeffs = {k: complex(v) for k, v in self.coeffs.items()}

    def polys(self) -> list[np.ndarray]:
        entries = shifted(self.lam)
        out = []
        for i0, d in enumerate(entries):
            c = np.zeros(d + 1, dtype=complex)
            c[d] = 1.0
            for (i, j), val in self.coeffs.items():
                if i == i0 + 1:
                    c[d - j] = val
            out.append(c)
        return out

    def vector(self) -> np.ndarray:
        return np.array(
            [self.coeffs[pos] for pos in free_positions(self.lam)], dtype=complex
        )

    def as_dict(self) -> dict:
        return {
            "lambda": self.lam.as_list(),
            "coeffs": {f"{i},{j}": pair(v) for (i, j), v in sorted(self.coeffs.items())},
        }


def poly_tuple_from_vector(lam: Partition, vec) -> PolyTuple:
    vec = np.asarray(vec, dtype=complex).ravel()
    pos = free_positions(lam)
    if len(vec) != len(pos):
        raise ValueError(f"need {len(pos)} coefficients")
    return PolyTuple(lam, dict(zip(pos, vec)))


def random_poly_tuple(lam: Partition, rng) -> PolyTuple:
    """Free coefficients with standard normal real parts, then imaginary
    parts."""
    n = len(free_positions(lam))
    vec = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return poly_tuple_from_vector(lam, vec)


@dataclass(eq=False)
class QuasiExpTuple:
    """Functions e^(q_i u) (u + c_i) with pairwise distinct exponents."""

    q: np.ndarray
    shifts: np.ndarray

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=complex).ravel()
        self.shifts = np.asarray(self.shifts, dtype=complex).ravel()
        if len(self.shifts) != len(self.q):
            raise ValueError("need one shift per exponent")
        pa.require_distinct(self.q, 1e-12, "exponents q")

    @property
    def n(self) -> int:
        return len(self.q)

    def functions(self) -> list[ExpPoly]:
        return [
            ExpPoly(qi, np.array([ci, 1.0 + 0j]))
            for qi, ci in zip(self.q, self.shifts)
        ]


@dataclass(eq=False)
class MonicPoly:
    """u^n + sum_a (-1)^a W_a u^(n-a), stored through the W_a."""

    n: int
    w: np.ndarray

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=complex).ravel()
        if len(self.w) != self.n:
            raise ValueError("need n coefficients W_1..W_n")

    def coeffs(self) -> np.ndarray:
        c = np.zeros(self.n + 1, dtype=complex)
        c[self.n] = 1.0
        for a in range(1, self.n + 1):
            c[self.n - a] = (-1) ** a * self.w[a - 1]
        return c

    def roots(self) -> np.ndarray:
        return pa.roots(self.coeffs())


def _derivative_rows(funcs, n_cols: int):
    """Coefficient rows (g, g', ..., g^(n_cols-1)) with exponential rates split off.

    Returns (rates, rows); plain polynomials carry rate 0.
    """
    rates = []
    rows = []
    for f in funcs:
        if isinstance(f, ExpPoly):
            rate = complex(f.rate)
            cur = pa.as_poly(f.coeffs)
        else:
            rate = 0.0 + 0j
            cur = pa.as_poly(f)
        rates.append(rate)
        row = [cur]
        for _ in range(n_cols - 1):
            cur = pa.padd(rate * cur, pa.pder(cur)) if rate != 0 else pa.pder(cur)
            row.append(cur)
        rows.append(row)
    return np.array(rates), rows


def wronskian(funcs):
    """Determinant of the derivative matrix (g_i^(j-1)).

    Plain polynomial input yields a coefficient array; if any entry is an
    ExpPoly the result is an ExpPoly carrying the summed rate.
    """
    funcs = list(funcs)
    if not funcs:
        raise ValueError("need at least one function")
    rates, rows = _derivative_rows(funcs, len(funcs))
    det = pa.poly_det(rows)
    # strip exactly-zero tail
    nz = np.nonzero(det)[0]
    det = det[: nz[-1] + 1] if len(nz) else np.zeros(1, dtype=complex)
    if np.any(rates):
        return ExpPoly(rates.sum(), det)
    return det


def _monic_w(det, n: int, pref) -> MonicPoly:
    """The W_a of a degree-n Wronskian det, once the prefactor is divided out."""
    monic = pa.cap_degree(det, n) / pref
    if abs(monic[n] - 1.0) > 1e-10:
        raise ValueError(
            f"Wronskian leading coefficient over its prefactor is {monic[n]:.6e}, not 1"
        )
    return MonicPoly(n, np.array([(-1) ** a * monic[n - a] for a in range(1, n + 1)]))


def wronski_map(lam: Partition, x: PolyTuple) -> MonicPoly:
    """The W_a of the tuple, after dividing out the shift prefactor."""
    pref = _pairwise_product(shifted(lam))
    return _monic_w(wronskian(x.polys()), lam.n, pref)


@dataclass(eq=False)
class DiffOpCoeffs:
    """Coefficients P[i, j] of u^(n-j) d^(n-i) for a monic degree-n operator."""

    n: int
    P: np.ndarray

    def __post_init__(self):
        self.P = np.asarray(self.P, dtype=complex)
        if self.P.shape != (self.n + 1, self.n + 1):
            raise ValueError("P must be (n+1) x (n+1)")

    def coefficient_poly(self, i: int) -> np.ndarray:
        """Coefficient polynomial of d^(n-i), low-to-high in u."""
        return self.P[i, ::-1].copy()

    def annihilation_residual(self, f) -> float:
        """max |D f| coefficient over the scale of the summed terms."""
        n = self.n
        _, [derivs] = _derivative_rows([f], n + 1)
        terms = [pa.pmul(self.coefficient_poly(i), derivs[n - i]) for i in range(n + 1)]
        scale = max(max(np.abs(t).max() for t in terms), 1.0)
        acc = np.zeros(1, dtype=complex)
        for t in terms:
            acc = pa.padd(acc, t)
        return float(np.abs(acc).max() / scale)


def _operator_from_rows(rows, n: int, pref: complex) -> DiffOpCoeffs:
    """Signed cofactors of the symbolic row (1, d, ..., d^n), scaled by 1/pref.

    n+1 poly_det minors per call: the quasi-exponential operator, and the
    reference that the polynomial operator table is tested against.
    """
    P = np.zeros((n + 1, n + 1), dtype=complex)
    for i in range(n + 1):
        c = n - i
        cols = [k for k in range(n + 1) if k != c]
        minor = pa.poly_det([[row[k] for k in cols] for row in rows])
        sign = (-1.0) ** (n + c)
        ni = pa.cap_degree(sign * minor / pref, n)
        P[i, :] = ni[::-1]
    return DiffOpCoeffs(n, P)


def _exact_operator_terms(lam: Partition) -> list[tuple[frozenset, list]]:
    """The operator of lam's tuples as exact terms (T, N_T), each nonzero,
    with C_T = N_T / pref for the shift prefactor pref.

    T picks per row the leading monomial u^d_i or one free slot u^(d_i - j)
    and is returned as its set of free-slot indices k.  On monomial rows of
    distinct degrees e the term is an Euler-operator product:
    C_T = (V(e)/pref) u^(sum e - n(n+1)/2) prod_i (theta - e_i), theta = u d
    and V(e) = _pairwise_product(e), since both sides send u^s to
    (V(e, s)/pref) u^(s + sum e - n(n+1)/2).  With prod_i (s - e_i) =
    sum_k a_k s^k and theta^k = sum_c S(k, c) u^c d^c, S the Stirling
    numbers of the second kind, d^c carries V(e) b_c u^power over pref,
    b_c = sum_k a_k S(k, c) and power = sum e - n(n+1)/2 + c <= c: the
    integer N_T[n - c][n - power], in the P[i, j] layout.  Each term of a
    polynomial operator is polynomial, so b_c = 0 wherever power < 0.
    """
    n = lam.n
    entries = shifted(lam)
    slots = free_positions(lam)
    choices = [
        [(None, d)] + [(k, d - j) for k, (i, j) in enumerate(slots) if i == i0 + 1]
        for i0, d in enumerate(entries)
    ]
    S = [[1] + [0] * n]  # S[k][c] = S(k, c) for k, c <= n
    for k in range(n):
        S.append([0] + [c * S[k][c] + S[k][c - 1] for c in range(1, n + 1)])
    terms = []
    for pick in itertools.product(*choices):
        degs = [deg for _, deg in pick]
        if len(set(degs)) < n:
            continue  # two equal monomial rows: the term vanishes
        a = [1]  # prod_i (s - e_i), low degree first
        for e in degs:
            a = [lo - e * hi for lo, hi in zip([0] + a, a + [0])]
        v = _pairwise_product(degs)
        shift = sum(degs) - n * (n + 1) // 2
        N = [[0] * (n + 1) for _ in range(n + 1)]
        for c in range(n + 1):
            b = sum(a[k] * S[k][c] for k in range(c, n + 1))
            if b:
                N[n - c][n - shift - c] = v * b
        terms.append((frozenset(k for k, _ in pick if k is not None), N))
    return terms


@lru_cache(maxsize=None)
def _operator_expansion(lam: Partition) -> tuple[np.ndarray, np.ndarray]:
    """The operator as a cached multi-affine table in the free coefficients.

    Returns (coef, support), read-only: P(x) = sum_T coef[T] prod_k x_k
    over the k with support[T, k], and coef[T, i, j] is the exact C_T
    entry, correctly rounded by int true division.  Row 0 is the monic
    Wronskian, so W_a = (-1)^a P[0, a].
    """
    pref = _pairwise_product(shifted(lam))
    terms = _exact_operator_terms(lam)
    # a zero entry stays +0.0: 0 / pref is -0.0 when pref < 0
    coef = np.array(
        [[[v / pref if v else 0.0 for v in row] for row in N] for _, N in terms]
    )
    support = np.array([[k in T for k in range(lam.n)] for T, _ in terms])
    coef.setflags(write=False)  # cached: shared by every caller
    support.setflags(write=False)
    return coef, support


def fundamental_operator(lam: Partition, x: PolyTuple) -> DiffOpCoeffs:
    """The monic degree-n operator annihilating every polynomial of the tuple.

    One contraction of the term products with the cached exact table
    (_operator_expansion); no determinant is taken per tuple.
    """
    coef, support = _operator_expansion(lam)
    terms = np.where(support, x.vector(), 1.0).prod(axis=1)
    return DiffOpCoeffs(lam.n, np.tensordot(terms, coef, axes=1))


def fla_residual(lam: Partition, x: PolyTuple) -> float:
    """Deviation in sum_{i>=0} P_ii prod_{j>i}(s+j) = prod_j (s - lambda_j + j).

    The diagonal of fundamental_operator(lam, x) is summed in nested form,
    (...(P_00 (s+1) + P_11)(s+2) + ...)(s+n) + P_nn, with P_00 = 1, and the
    residual is the largest coefficient mismatch in s.  Every x-dependent
    term of the operator table has an exactly zero diagonal, so the value
    depends only on the partition: one tuple checks the table's constant
    term and the float arithmetic.
    """
    n = lam.n
    diag = np.diagonal(fundamental_operator(lam, x).P)
    lhs = diag[:1]
    for i in range(1, n + 1):
        lhs = np.append(0.0, lhs) + np.append(i * lhs, 0.0)  # times (s + i)
        lhs[0] += diag[i]
    parts = lam.padded(n)
    rhs = pa.from_roots([parts[j - 1] - j for j in range(1, n + 1)])
    return float(np.abs(lhs - rhs).max())


def _momenta_from_operator(
    z: np.ndarray, n2_poly: np.ndarray, trace_shift: complex
) -> np.ndarray:
    """p_a = trace_shift - N_2(z_a)/prod_{b!=a}(z_a-z_b) + sum_{b!=a} 1/(z_a-z_b)."""
    n = len(z)
    p = np.zeros(n, dtype=complex)
    for a in range(n):
        others = np.delete(z, a)
        denom = np.prod(z[a] - others) if len(others) else 1.0
        p[a] = trace_shift - pa.peval(n2_poly, z[a]) / denom
        if len(others):
            p[a] += np.sum(1.0 / (z[a] - others))
    return p


def _checked_roots(monic: MonicPoly) -> np.ndarray:
    z = pa.require_distinct(monic.roots(), MIN_SEP_REL, "Wronskian roots")
    # the momenta divide by root differences, which amplify the eigensolve's
    # root error; two Newton steps on the polynomial take it to roundoff
    c = monic.coeffs()
    dc = pa.pder(c)
    for _ in range(2):
        z = z - pa.peval(c, z) / pa.peval(dc, z)
    return pa.lexsorted(z)


def psi(lam: Partition, x: PolyTuple) -> SpectralPoint:
    """Spectral data of a tuple with simple Wronskian roots.

    z is the lexicographically ordered root set of the monic Wronskian
    (wronski_map), Newton-polished; the momenta come from the d^(n-2)
    coefficient polynomial of the fundamental operator at each root.
    """
    n = lam.n
    if n < 2:
        raise ValueError("spectral extraction needs n >= 2")
    z = _checked_roots(wronski_map(lam, x))
    op = fundamental_operator(lam, x)
    p = _momenta_from_operator(z, op.coefficient_poly(2), 0.0)
    return SpectralPoint(z, p, 0.0)


def bivariate_identity_residual(lam: Partition, x: PolyTuple, seed: int = 0) -> float:
    """Check det((u - Z)(v - Q) - 1) = sum_ij P_ij u^(n-j) v^(n-i) on a
    random grid, with (Z, Q) built from the spectral data of the tuple.

    Both sides take the whole grid in one call: one stacked determinant and
    one polygrid2d.  The residual is the largest mismatch over the larger
    of 1 and the largest |det|."""
    sp = psi(lam, x)
    op = fundamental_operator(lam, x)
    rng = np.random.default_rng(seed)
    us = rng.standard_normal(BIVARIATE_GRID) + 1j * rng.standard_normal(BIVARIATE_GRID)
    vs = rng.standard_normal(BIVARIATE_GRID) + 1j * rng.standard_normal(BIVARIATE_GRID)
    lhs = bivariate_char(xi(sp.z, sp.p), us[:, None], vs)
    # C[a, b] = coefficient of u^a v^b
    rhs = npp.polygrid2d(us, vs, op.P[::-1, ::-1].T)
    return float(np.abs(lhs - rhs).max() / max(1.0, np.abs(lhs).max()))


@lru_cache(maxsize=None)
def _w_expansion(lam: Partition) -> tuple[np.ndarray, np.ndarray]:
    """Row 0 of the operator table as the Wronski map, W_a = (-1)^a P[0, a].

    Returns (coef, support), read-only, for the terms with some nonzero
    W_a: column T of the complex coef holds W_1..W_n of term T.
    """
    coef, support = _operator_expansion(lam)
    w = coef[:, 0, 1:] * (-1.0) ** np.arange(1, lam.n + 1)
    keep = w.any(axis=1)
    w = np.ascontiguousarray(w[keep].T, dtype=complex)
    w.setflags(write=False)
    return w, support[keep]


def _w_expansion_q(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Wronski map of the tuples e^(q_i u)(u + c_i) as a multi-affine
    table in the shifts c, in the (coef, support) layout of _w_expansion.

    With the prefactors divided out, W(u) = det(u + diag(c) + K), where
    K_ij = l_j'(q_i) is the derivative at q_i of the j-th Lagrange basis
    polynomial of the nodes q.  Over principal minors, W(u) = sum_S
    det(K_S) prod_{i not in S} (u + c_i), so the term of the shifts c_i,
    i in R, has W_a = (-1)^a sum det(K_S) over the S disjoint from R with
    |S| = a - |R|.
    """
    n = len(q)
    d = q[:, None] - q[None, :]
    np.fill_diagonal(d, 1.0)
    w = d.prod(axis=1)  # w_i = prod_{k != i} (q_i - q_k)
    K = w[:, None] / (w[None, :] * d)
    np.fill_diagonal(K, (1.0 / d).sum(axis=1) - 1.0)
    subsets = [
        frozenset(S) for k in range(n + 1) for S in itertools.combinations(range(n), k)
    ]
    minor = {S: np.linalg.det(K[np.ix_(sorted(S), sorted(S))]) for S in subsets if S}
    minor[frozenset()] = 1.0
    coef = np.zeros((n, len(subsets)), dtype=complex)
    for T, R in enumerate(subsets):
        for S in subsets:
            a = len(S) + len(R)
            if a and not S & R:
                coef[a - 1, T] += (-1) ** a * minor[S]
    support = np.array([[k in R for k in range(n)] for R in subsets])
    return coef, support


def _expanded_w(coef, support, vec, jac: bool = False):
    """W_1..W_n of the multi-affine table (coef, support) at free
    coefficients vec, row by row for a stack of vec; on request also the
    Jacobian dW/dvec, likewise."""
    factors = np.where(support, np.asarray(vec, dtype=complex)[..., None, :], 1.0)
    # matrix products per row, bit-identical for one vec or a stack
    w = np.matmul(coef, factors.prod(axis=-1)[..., None])[..., 0]
    if not jac:
        return w
    return w, np.matmul(coef, support * pa.excluded_products(factors))


def _fiber(coef, support, sigma_target, tol, seed, expected) -> list[np.ndarray]:
    """The free coefficients of all tuples whose table W equals the target.

    Seeded multistart of stacked_newton, full Newton steps with residual
    and Jacobian from the table, two small matrix products per call.  The
    search stops at the expected count or after WRONSKI_BUDGET starts; an
    undercount is the caller's signal.  The distinct roots then get, as
    one stack, up to two polish steps each, which take their W residual
    from the loose tolerance to roundoff.
    """
    n = support.shape[1]
    sigma = np.asarray(sigma_target, dtype=complex).ravel()
    if len(sigma) != n:
        raise ValueError(f"need {n} target coordinates")
    rng = np.random.default_rng(seed)

    def residual(vec):
        F = _expanded_w(coef, support, vec) - sigma
        return F, np.abs(F).max(axis=-1)

    def jacobian(vec):
        return _expanded_w(coef, support, vec, jac=True)[1]

    scale = max(1.0, np.abs(sigma).max())

    def draw(_):
        return 2.0 * scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))

    def solve(V0, polish=0):
        return stacked_newton(residual, jacobian, V0, tol, 60, polish=polish)

    roots = multistart(draw, solve, WRONSKI_BUDGET, expected)
    if not roots:
        return []
    return solve(np.stack(roots), polish=2)


def wronski_fiber(
    lam: Partition, sigma_target, tol: float = 1e-9, seed: int = 0
) -> list[PolyTuple]:
    """All tuples mapping to the target elementary symmetric data.

    Solves row 0 of the cached exact operator table (_operator_expansion)
    with _fiber, expecting the Wronski-map degree d_lambda; the gates that
    check the result evaluate wronski_map, on poly_det.
    """
    vecs = _fiber(*_w_expansion(lam), sigma_target, tol, seed, irrep_dimension(lam))
    return [poly_tuple_from_vector(lam, v) for v in vecs]


def wronski_fiber_q(
    q, sigma_target, tol: float = 1e-9, seed: int = 0
) -> list[QuasiExpTuple]:
    """All tuples e^(q_i u)(u + c_i) mapping to the target elementary
    symmetric data, from the table of _w_expansion_q; n! for a generic
    target."""
    q = pa.require_distinct(q, 1e-12, "exponents q")
    vecs = _fiber(*_w_expansion_q(q), sigma_target, tol, seed, math.factorial(len(q)))
    return [QuasiExpTuple(q, c) for c in vecs]


def wronski_map_q(x: QuasiExpTuple) -> MonicPoly:
    """W_a of a quasi-exponential tuple, exponential and Vandermonde
    prefactors removed."""
    _, rows = _derivative_rows(x.functions(), x.n)
    return _monic_w(pa.poly_det(rows), x.n, _pairwise_product(x.q))


def fundamental_operator_q(x: QuasiExpTuple) -> DiffOpCoeffs:
    """Annihilating operator of a quasi-exponential tuple; full P support."""
    n = x.n
    _, rows = _derivative_rows(x.functions(), n + 1)
    return _operator_from_rows(rows, n, _pairwise_product(x.q))


def psi_q(x: QuasiExpTuple) -> SpectralPoint:
    """Spectral data of a quasi-exponential tuple.

    Requires n >= 2, simple Wronskian roots, and roots away from the
    exponents q.  The momentum extraction shifts by e_1(q): a point in
    the q-level set has sum_a p_a = q_1 + ... + q_n, and the d^(n-2)
    coefficient polynomial measures momenta relative to that trace.
    """
    n = x.n
    if n < 2:
        raise ValueError("spectral extraction needs n >= 2")
    z = _checked_roots(wronski_map_q(x))
    gap = np.abs(z[:, None] - x.q[None, :]).min()
    if gap < MIN_SEP_REL * max(1.0, np.abs(z).max(), np.abs(x.q).max()):
        raise ValueError("Wronskian root collides with an exponent q_i")
    op = fundamental_operator_q(x)
    p = _momenta_from_operator(z, op.coefficient_poly(2), np.sum(x.q))
    return SpectralPoint(z, p, 0.0)
