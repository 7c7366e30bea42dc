"""Calogero-Moser matrix, first integrals, level-set residuals, and the
normal-form map into rank-one pairs (Z, Q).

The matrix Q carries momenta p on the diagonal and 1/(z_a - z_b) off it.
Writing det(u - Q) = u^n - Q_1 u^{n-1} + ... +- Q_n, the coefficient Q_a
is the a-th elementary symmetric function of the eigenvalues of Q; these
are the commuting first integrals, read off det(u - Q) directly by the
division-free Berkowitz recurrence (polyalg.char_coefficients), with no
eigensolve.  The zero level set of all Q_a is the variety the Gaudin
joint spectra fill out.

cm_matrix, xi, rank_one_residual, first_integrals, cm_hamiltonian,
l0_residual, lq_residual and bivariate_char take leading batch axes: for
a stack of (z, p), with z and p of shape (..., n), they return one result
per row, and a single point is the unbatched case of the same code.  The
two level-set residuals also take a stack of p at one z, such as the
joint spectrum of one Gaudin family, lq_residual takes one q per row as
well as one q for all, and bivariate_char takes arrays of u and v, such
as a whole evaluation grid, in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .polyalg import char_coefficients, elementary_symmetric, require_distinct


def _check_positions(z):
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if z.shape[-1] == 0:
        raise ValueError("need at least one position")
    return require_distinct(z, 1e-8, "positions z")


def _check_momenta(p, z) -> np.ndarray:
    p = np.atleast_1d(np.asarray(p, dtype=complex))
    if p.shape != z.shape:
        raise ValueError("z and p must have equal length")
    return p


def cm_matrix(z, p) -> np.ndarray:
    """Momenta on the diagonal, 1/(z_a - z_b) off the diagonal."""
    z = _check_positions(z)
    p = _check_momenta(p, z)
    diag = np.arange(z.shape[-1])
    d = z[..., :, None] - z[..., None, :]
    d[..., diag, diag] = 1.0
    Q = 1.0 / d
    Q[..., diag, diag] = p
    return Q


def first_integrals(z, p) -> np.ndarray:
    """Elementary symmetric functions of the eigenvalues of cm_matrix(z, p):
    an (n, ...) array whose row a holds Q_(a+1) of every point.

    One char_coefficients call takes the whole stack of matrices; its
    recurrence gives each row the bits it gets alone.
    """
    e = char_coefficients(cm_matrix(z, p))[..., 1:]
    return np.moveaxis(e, -1, 0)


def cm_hamiltonian(z, p):
    """sum_a p_a^2 - sum_{a<b} 2/(z_a - z_b)^2, summed pair by pair."""
    z = _check_positions(z)
    p = _check_momenta(p, z)
    h = np.sum(p**2, axis=-1)
    n = z.shape[-1]
    for a in range(n):
        for b in range(a + 1, n):
            h -= 2.0 / (z[..., a] - z[..., b]) ** 2
    return h[()]


def _scaled_max(values, p, q=()):
    """Row by row, max_a |values[a]| / s^(a+1) over the leading axis a of
    values, with s = max(1, |p|_inf, |q|_inf) and q one tuple or one per
    row; NaN if any value of the row is NaN.  The powers of s are running
    products, which round alike for a single point and a stack."""
    s = np.maximum(1.0, np.abs(p).max(axis=-1))
    s = np.maximum(s, np.abs(q).max(axis=-1, initial=0.0))
    values = np.abs(values)
    powers = np.cumprod(np.broadcast_to(s, values.shape), axis=0)
    return np.max(values / powers, axis=0)[()]


def _integrals_at(z, p):
    """First integrals of a stack of p, at one z or at a stack of them."""
    p = np.atleast_1d(np.asarray(p, dtype=complex))
    z = np.broadcast_to(z, p.shape[:-1] + np.shape(z)[-1:])
    return first_integrals(z, p), p


def l0_residual(z, p):
    """max_a |Q_a(z, p)| with each degree scaled by max(1, |p|_inf)^a."""
    values, p = _integrals_at(z, p)
    return _scaled_max(values, p)


def lq_residual(z, p, q):
    """Degree-scaled max_a |Q_a(z, p) - e_a(q)|; q = 0 recovers l0_residual.
    q of shape (n,) serves every row of a stack; a stack of q, shape
    (..., n), broadcasts against the rows, so each row can read its own."""
    values, p = _integrals_at(z, p)
    q = np.atleast_1d(np.asarray(q, dtype=complex))
    if q.shape[-1] != p.shape[-1]:
        raise ValueError("q must have the same length as p")
    diff = np.moveaxis(values, 0, -1) - elementary_symmetric(q)
    return _scaled_max(np.moveaxis(diff, -1, 0), p, q)


@dataclass(eq=False)
class CMPoint:
    """Normal-form representative: Z diagonal, Q full, rank([Z,Q]+1) = 1.

    A stack of points holds Z of shape (..., n) and Q of shape (..., n, n).
    """

    Z: np.ndarray
    Q: np.ndarray

    def __post_init__(self):
        self.Z = np.atleast_1d(np.asarray(self.Z, dtype=complex))
        self.Q = np.asarray(self.Q, dtype=complex)
        n = self.Z.shape[-1]
        if self.Q.shape != self.Z.shape + (n,):
            raise ValueError("Q must be n x n for n diagonal entries of Z")

    @property
    def n(self) -> int:
        return self.Z.shape[-1]


def xi(z, p) -> CMPoint:
    """Lift (z, p) to the pair (diag(z), cm_matrix(z, p))."""
    z = _check_positions(z)
    return CMPoint(z, cm_matrix(z, p))


def rank_one_residual(point: CMPoint):
    """Second singular value of [Z, Q] + 1 over the largest; 0 means rank one,
    and a zero [Z, Q] + 1 reads 1.

    A stacked point gets one value per row from one batched SVD; each row's
    commutator is the same matrix product as a single point's, so the
    values agree bit for bit.
    """
    n = point.n
    lead = point.Z.shape[:-1]
    if n == 1:
        return np.zeros(lead)[()]
    Zm = np.zeros(point.Q.shape, dtype=complex)
    diag = np.arange(n)
    Zm[..., diag, diag] = point.Z
    comm = Zm @ point.Q - point.Q @ Zm + np.eye(n, dtype=complex)
    sv = np.linalg.svd(comm, compute_uv=False)
    out = np.ones(lead)
    np.divide(sv[..., 1], sv[..., 0], out=out, where=sv[..., 0] != 0.0)
    return out[()]


def bivariate_char(point: CMPoint, u, v):
    """det((u - Z)(v - Q) - 1), one value per entry of the broadcast of u,
    v and the point's batch axes; for a whole grid, pass u as a column and
    v as a row."""
    eye = np.eye(point.n)
    u = np.asarray(u, dtype=complex)[..., None]
    v = np.asarray(v, dtype=complex)[..., None, None]
    m = (u - point.Z)[..., :, None] * (v * eye - point.Q) - eye
    return np.linalg.det(m)[()]

