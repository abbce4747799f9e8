"""The matrix exponential in numpy: Al-Mohy & Higham, "A new scaling and
squaring algorithm for the matrix exponential", SIAM J. Matrix Anal. Appl. 31,
970 (2009), Algorithm 3.1 with exact 1-norms, the algorithm of
scipy.linalg.expm.

The Pade degree m in {3, 5, 7, 9, 13} and the number s of squarings follow
from the 1-norms of A^4, A^6, A^8 and A^10 rather than of A, so a non-normal A
is not over-scaled, and ell_m adds the squarings that keep the backward error
of degree m below the unit roundoff.  A diagonal A is exponentiated entrywise.
A triangular A is squared by Code Fragment 2.1: after each squaring the
diagonal and the first off-diagonal are set to their exact values.  A
non-finite entry, or a power of A that overflows, gives a NaN result, never
an exception.
"""

from __future__ import annotations

import math

import numpy as np

# theta_m of the 2009 paper; the coefficients b_0..b_m of the [m/m] Pade
# approximant; 1/|c_{2m+1}|, the leading coefficient of its backward error
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1, 7: 9.504178996162932e-1,
          9: 2.097847961257068e0, 13: 4.25}
_B = {
    3: (120., 60., 12., 1.),
    5: (30240., 15120., 3360., 420., 30., 1.),
    7: (17297280., 8648640., 1995840., 277200., 25200., 1512., 56., 1.),
    9: (17643225600., 8821612800., 2075673600., 302702400., 30270240., 2162160.,
        110880., 3960., 90., 1.),
    13: (64764752532480000., 32382376266240000., 7771770303897600.,
         1187353796428800., 129060195264000., 10559470521600., 670442572800.,
         33522128640., 1323241920., 40840800., 960960., 16380., 182., 1.),
}
_C_RECIP = {3: 100800., 5: 10059033600., 7: 4487938430976000.,
            9: 5914384781877411840000., 13: 113250775606021113483283660800000000.}


def _norm1(a: np.ndarray) -> float:
    return float(np.abs(a).sum(axis=0).max())


def _root_norm(a: np.ndarray, k: int) -> float:
    """||a||_1^(1/k), with a NaN norm (an overflowed power) read as inf."""
    d = _norm1(a) ** (1.0 / k)
    return math.inf if math.isnan(d) else d


def _ell(a: np.ndarray, m: int) -> int:
    """ell_m of Algorithm 3.1: max(ceil(log2(alpha / u) / 2m), 0) with alpha =
    |c_{2m+1}| ||abs(a)^(2m+1)||_1 / ||a||_1 and u = 2^-53.  The power is
    applied to a row of ones, whose largest entry is carried as a power of two
    so that it cannot overflow."""
    abs_t, v, log2_norm = np.abs(a).T, np.ones(a.shape[0]), 0
    for _ in range(2 * m + 1):
        v = abs_t @ v
        top = v.max()
        if not top:
            return 0
        e = math.frexp(top)[1]
        v, log2_norm = np.ldexp(v, -e), log2_norm + e
    log2_alpha = log2_norm + math.log2(v.max()) - math.log2(_norm1(a)) - math.log2(_C_RECIP[m])
    return max(math.ceil((log2_alpha + 53) / (2 * m)), 0)


def _exp_sinch(lam: np.ndarray) -> np.ndarray:
    """(exp(b) - exp(a)) / (b - a) for each neighbouring pair a, b of lam, the
    off-diagonal of the exponential of a 2x2 triangular block over its corner.
    Higham, Functions of Matrices (2008), eq. (10.42), exp((a+b)/2) sinh(d/2) /
    (d/2), is taken as exp(hi) (1 - exp(-d)) / d from the end hi with the
    larger real part, d = hi - lo: no cancellation for a ~ b, and no overflow
    times underflow when they are far apart."""
    a, b = lam[:-1], lam[1:]
    swap = a.real < b.real
    hi, lo = np.where(swap, b, a), np.where(swap, a, b)
    d = hi - lo
    nonzero = d != 0
    ratio = np.ones_like(d)
    ratio[nonzero] = -np.expm1(-d[nonzero]) / d[nonzero]
    return np.exp(hi) * ratio


def _degree(a: np.ndarray):
    """(m, s, powers): Algorithm 3.1's Pade degree and number of squarings for
    a, and the even powers [I, a^2, a^4, a^6] (with a^8 once degree 7 is
    weighed) that the approximant reuses.  s is None when a power of a is not
    finite (a non-finite entry of a makes every power so)."""
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    powers = [np.eye(a.shape[0], dtype=a.dtype), a2, a4, a6]
    d6 = _root_norm(a6, 6)
    eta1 = max(_root_norm(a4, 4), d6)
    for m in (3, 5):
        if eta1 < _THETA[m] and not _ell(a, m):
            return m, 0, powers
    powers.append(a4 @ a4)
    d8 = _root_norm(powers[4], 8)
    eta3 = max(d6, d8)
    for m in (7, 9):
        if eta3 < _THETA[m] and not _ell(a, m):
            return m, 0, powers
    eta5 = min(eta3, max(d8, _root_norm(a4 @ a6, 10)))
    if not math.isfinite(eta5):
        return 13, None, powers
    s = max(math.ceil(math.log2(eta5 / _THETA[13])), 0) if eta5 else 0
    return 13, s + _ell(a * 2.0**-s, 13), powers


def expm(a: np.ndarray) -> np.ndarray:
    """exp(a) for a square float or complex array a."""
    a = np.asarray(a)
    upper, lower = not np.tril(a, -1).any(), not np.triu(a, 1).any()
    if upper and lower:
        return np.diag(np.exp(np.diag(a)))
    with np.errstate(over="ignore", invalid="ignore"):   # an overflow gives s None
        m, s, powers = _degree(a)
    if s is None:
        return np.full(a.shape, np.nan, dtype=a.dtype)

    b = _B[m]
    if m < 13:
        even = powers[:(m + 1) // 2]
        u = a @ sum(b[2 * k + 1] * p for k, p in enumerate(even))
        v = sum(b[2 * k] * p for k, p in enumerate(even))
    else:
        ident, a2, a4, a6 = powers[:4]
        c = 2.0**-s
        b1, b2, b4, b6 = a * c, a2 * c**2, a4 * c**4, a6 * c**6
        u = b1 @ (b6 @ (b[13] * b6 + b[11] * b4 + b[9] * b2)
                  + b[7] * b6 + b[5] * b4 + b[3] * b2 + b[1] * ident)
        v = (b6 @ (b[12] * b6 + b[10] * b4 + b[8] * b2)
             + b[6] * b6 + b[4] * b4 + b[2] * b2 + b[0] * ident)
    # r_m = (v - u)^-1 (v + u) taken as I + 2 (v - u)^-1 u, as scipy does: the
    # identity is added exactly, so for a small a (one short step of a
    # trace-preserving generator) only the small correction carries rounding.
    # u and v commute, so a lower triangular system is solved transposed,
    # where partial pivoting swaps no rows.
    if lower:
        x = np.linalg.solve((v - u).T, 2 * u.T).T
    else:
        x = np.linalg.solve(v - u, 2 * u)
    x[np.diag_indices_from(x)] += 1

    if s and (upper or lower):
        # Code Fragment 2.1: the diagonal and first off-diagonal of each
        # exp(2^-j a) exactly, in place of their squared approximations
        diag = np.diag(a)
        off = np.diag(a, 1 if upper else -1)
        np.fill_diagonal(x, np.exp(diag * 2.0**-s))
        for j in range(s - 1, -1, -1):
            x = x @ x
            lam = diag * 2.0**-j
            np.fill_diagonal(x, np.exp(lam))
            np.fill_diagonal(x[:-1, 1:] if upper else x[1:, :-1],
                             _exp_sinch(lam) * (off * 2.0**-j))
    else:
        for _ in range(s):
            x = x @ x
    if upper:
        return np.triu(x)
    return np.tril(x) if lower else x
