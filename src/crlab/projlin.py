"""Projective linear algebra: unit representatives, the moment curve and the
dominant eigenline of a matrix.

Everything here is small dense linear algebra (n <= ~12).  A point of
P(R^n) or of its dual is carried as a unit vector with its first
significant coordinate positive (`normalize_rep`, or `normalize_rows` on
every row of an array at once, with the same bytes).  Limit-curve values
are eigenlines of word images, read off by the one eigen routine
`dominant_lines`, one `np.linalg.eig` call over a stack of matrices (a
representation's curve pair stacks four per rotation of a word, a whole
conjugacy class in one call; one matrix is a stack of one), whose pick,
tests and normalization also run on the whole stack at once.  It returns
one array for the whole stack, a row per matrix, NaN where the matrix has
no dominant eigenline, beside a list of the messages of those rows.
"""

import math

import numpy as np

_SIG = 1e-12          # threshold for "first nonzero coordinate"


class SpectrumError(ValueError):
    """Raised for a matrix that is not finite or has no dominant eigenline."""


def normalize_rep(v):
    """Scale to unit norm with the first significant coordinate positive."""
    v = np.asarray(v, dtype=float)
    # np.linalg.norm's own sum, without its wrapper: ravel copies a strided
    # column (an eig column) to a contiguous one first, and only then is
    # the dot product bit-identical to norm's
    c = v.ravel(order="K")
    nrm = math.sqrt(c.dot(c))
    if not math.isfinite(nrm) or nrm < 1e-300:
        raise ValueError("zero or non-finite representative vector")
    v = v / nrm
    for x in v.tolist():
        if abs(x) > _SIG:
            if x < 0:
                v = -v
            break
    return v


def normalize_rows(v):
    """`normalize_rep` on every row of a (..., n) array, with the same bytes.

    Returns (rows, ok): ok is False where `normalize_rep` would raise, and
    the row there is not meaningful.  The norm is np.vecdot's sum, which
    matches `normalize_rep`'s dot product on C-contiguous rows (a strided
    row, such as an eig column, must be copied first) where einsum and a
    sum of squares do not.  The lead is the first coordinate above _SIG in
    modulus, found by argmax over that mask: a row with none is not flipped.
    """
    with np.errstate(all="ignore"):
        nrm = np.sqrt(np.vecdot(v, v))
        v = v / nrm[..., None]
    # in C order the rows of v start every n entries
    first = (abs(v) > _SIG).argmax(axis=-1)  # 0 in a row with none above
    lead = v.reshape(-1)[np.arange(0, v.size, v.shape[-1]) + first.ravel()]
    np.negative(v, out=v, where=(lead < -_SIG).reshape(first.shape)[..., None])
    return v, np.isfinite(nrm) & (nrm >= 1e-300)


def veronese(n, p):
    """Moment-curve embedding RP^1 -> P(R^n), [x:y] -> [x^(n-1) : ... : y^(n-1)].

    Returns the unit representative of the image of the line p.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    x, y = normalize_rep(p).tolist()  # Python floats: ** is cheaper on them
    return normalize_rep(np.array([x ** (n - 1 - i) * y ** i for i in range(n)]))


def veronese_dual(n, p):
    """Covector of the osculating hyperplane of the moment curve at p.

    Its pairing with veronese(n, q) is det([p q])^(n-1), so it vanishes
    exactly at q = p.  Returns a unit covector.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    x, y = normalize_rep(p).tolist()
    return normalize_rep(np.array(
        [math.comb(n - 1, i) * x ** i * (-y) ** (n - 1 - i) for i in range(n)]
    ))


def sym_power_rep(n, a):
    """Matrix of a unimodular 2x2 matrix acting on degree-(n-1) binary forms.

    Uses the monomial basis x^(n-1), x^(n-2) y, ..., y^(n-1); satisfies
    S(AB) = S(A) S(B) and S(A) veronese(p) ~ veronese(A p).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    a = np.asarray(a, float)
    if a.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    if abs(det - 1.0) > 1e-12:
        raise ValueError(f"matrix is not unimodular: det = {float(det)!r}")
    m = n - 1
    s = np.zeros((n, n))
    for i in range(n):
        # coefficients of (a00 x + a01 y)^(m-i) (a10 x + a11 y)^i
        p1 = _pow_coeffs(a[0, 0], a[0, 1], m - i)
        p2 = _pow_coeffs(a[1, 0], a[1, 1], i)
        s[i] = np.convolve(p1, p2)
    d = np.linalg.det(s)
    if d <= 0:
        raise ValueError("symmetric power has non-positive determinant")
    return s / d ** (1.0 / n)


def _pow_coeffs(u, v, m):
    """Coefficients of (u x + v y)^m in the basis x^m, x^(m-1) y, ..., y^m."""
    return np.array([math.comb(m, k) * u ** (m - k) * v ** k for k in range(m + 1)])


_MESSAGES = np.array([None, "matrix is not finite", "dominant eigenvalue is not real",
                      "dominant eigenvalue is not simple"], dtype=object)


def dominant_lines(stack):
    """The eigenline of the largest |eigenvalue| of each matrix of a
    (k, n, n) stack, from one `np.linalg.eig` call over its finite matrices.

    Returns (lines, errors): one read-only (k, n) array of the matrices'
    unit representatives, and a k-list of None, or of the message for a
    SpectrumError its caller raises, where the row of lines is NaN: where
    the matrix has a non-finite entry, where that eigenvalue is not real,
    or where another eigenvalue has the same modulus up to a relative 1e-9
    (then no eigenline dominates).  The pick (the first largest modulus),
    both tests, the `normalize_rows` call and the messages run on the whole
    stack at once.  eig solves a stack matrix by matrix, so a row has the
    same bytes as the matrix solved alone, in a stack of one.
    """
    finite = np.isfinite(stack).all(axis=(1, 2))
    every = finite.all()
    w, v = np.linalg.eig(stack if every else stack[finite])
    mod = np.abs(w)
    rows, k = np.arange(len(w)), mod.argmax(axis=1)
    top = mod[rows, k]
    not_real = abs(w.imag[rows, k]) > 1e-9 * top
    not_simple = (mod >= (1 - 1e-9) * top[:, None]).sum(axis=1) > 1
    # the picked columns, copied to contiguous rows for normalize_rows' sum
    lines, ok = normalize_rows(np.ascontiguousarray(v[rows, :, k].real))
    failed = not_real | not_simple
    if not ok.all() and not (ok | failed).all():  # normalize_rep's own error
        raise ValueError("zero or non-finite representative vector")
    if every and not failed.any():  # the common case: a line for each matrix
        lines.flags.writeable = False
        return lines, [None] * len(stack)
    code = np.ones(len(stack), dtype=np.intp)  # into _MESSAGES
    code[finite] = np.where(not_real, 2, 3 * not_simple)
    full = np.full(stack.shape[:2], np.nan)
    full[code == 0] = lines[~failed]
    full.flags.writeable = False
    return full, _MESSAGES[code].tolist()

