"""Genus-2 surface group data: presentation, words, boundary samples.

The boundary circle is modeled as RP^1 with the coordinate phi = 2*theta,
theta the angle of a line in R^2.  A worded boundary point is the
attracting fixed point w+ of a hyperbolic element w of the base 2x2
representation: sampled (`sample_boundary`), solved (`fixed_points_2x2`),
or moved by the group (`translate_point`, which carries v w v^-1 without
solving for it).  A synthetic point has an angle only
(`BoundaryPoint.from_angle`).  Every point's line is read-only, so no
caller's write reaches a point that a cache handed out.  An SL(n,R)
representation is always carried alongside the base data.  The image of a
word is the plain product of its letters' matrices (`evaluate`), never
rescaled: everything read off it is projective or an eigenvalue of a
unimodular product.

`sample_boundary` solves its words in one stacked pass: it walks the word
tree by length, forms each product from its parent prefix's with one
stacked matmul per length, and solves every fixed point at once
(`_fixed_point_stack`), with the bytes of the one-matrix path `evaluate`
and `fixed_points_2x2`, kept for single words and as the tests' reference.
A group keeps two things per word, as long as it lives: the product of a
word it was asked to move by or to solve (`GeneratorSet.product`, read by
`translate_point`, `fixed_points` and a representation's moved curve
values) and its solved fixed points (`GeneratorSet.fixed_points`).
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .projlin import normalize_rep, normalize_rows

TWO_PI = 2.0 * np.pi
DEDUP_TOL = 1e-9          # radians between distinct boundary points
HYPERBOLIC_TOL = 1e-6     # hyperbolic: tr^2 - 4 det exceeds this squared

GENUS2_RELATOR = (1, 2, -1, -2, 3, 4, -3, -4)


class GroupDataError(ValueError):
    """Bad generator data: relator failure, non-hyperbolic element, etc."""


@dataclass(frozen=True)
class Word:
    """Freely reduced word in signed 1-based generator indices."""

    letters: tuple

    @staticmethod
    def of(*letters):
        return Word(free_reduce(letters))

    def __len__(self):
        return len(self.letters)

    def inverse(self):
        return Word(tuple(-x for x in reversed(self.letters)))

    def __mul__(self, other):
        return Word(free_reduce(self.letters + other.letters))

    def __str__(self):
        if not self.letters:
            return "1"
        names = "abcdefgh"
        return ".".join(
            names[abs(x) - 1] + ("'" if x < 0 else "") for x in self.letters
        )


def free_reduce(letters):
    out = []
    for x in letters:
        if x == 0:
            raise ValueError("letter indices are signed and nonzero")
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def conjugate_split(word):
    """(v, c) with word = v * c * v^-1 and c cyclically reduced."""
    ls = word.letters
    k = 0
    while len(ls) - 2 * k >= 2 and ls[k] == -ls[-1 - k]:
        k += 1
    return Word(ls[:k]), Word(ls[k:len(ls) - k])


@dataclass(frozen=True, eq=False)
class GeneratorSet:
    """Generator matrices of the genus-2 surface group, or their images.

    The base group has 2x2 unimodular matrices; the images of a
    representation use the same type with n x n matrices.  The matrices
    given, arrays or nested sequences, are copied to float arrays and frozen
    with the inverses computed from them, so no caller's later write reaches
    the group and word products only multiply.  An empty set, matrices that
    are not square or not all of one shape, and non-finite entries are
    rejected first: LAPACK inverts a NaN matrix without error.

    The group keeps, per word and as long as it lives, the product
    `product` formed and the fixed points `fixed_points` solved, both
    read-only.  A caller that forms many products once each, such as a
    class solve's rotations, calls `evaluate` instead, so they are not kept.
    """

    matrices: tuple          # tuple of square float arrays, read-only
    inverses: tuple = field(init=False, repr=False)
    _products: dict = field(default_factory=dict, init=False, repr=False)
    _fixed: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        mats = tuple(np.array(m, dtype=float) for m in self.matrices)
        if not mats:
            raise GroupDataError("a generator set needs at least one matrix")
        shapes = [m.shape for m in mats]
        for i, s in enumerate(shapes):
            if len(s) != 2 or s[0] != s[1] or s != shapes[0]:
                raise GroupDataError(f"generator {i} has shape {s}: generators "
                                     "must be square matrices of one shape")
        for i, m in enumerate(mats):
            if not np.isfinite(m).all():
                raise GroupDataError(f"generator {i} has non-finite entries")
        try:
            inverses = tuple(np.linalg.inv(m) for m in mats)
        except np.linalg.LinAlgError as exc:
            raise GroupDataError(f"singular generator matrix: {exc}") from exc
        for m in mats + inverses:
            m.flags.writeable = False
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "inverses", inverses)

    @property
    def rank(self):
        return len(self.matrices)

    def letter_matrix(self, x):
        return self.matrices[x - 1] if x > 0 else self.inverses[-x - 1]

    def product(self, word):
        """`evaluate(self, word)`, formed once per word and kept, read-only,
        as long as the group lives."""
        got = self._products.get(word.letters)
        if got is None:
            got = evaluate(self, word)
            got.flags.writeable = False
            self._products[word.letters] = got
        return got

    def fixed_points(self, word):
        """(w+, w-) of a word w of the 2x2 base group, labelled w and w^-1,
        solved from `product(word)` once per word and kept as long as the
        group lives."""
        got = self._fixed.get(word.letters)
        if got is None:
            got = fixed_points_2x2(self.product(word), word=word)
            self._fixed[word.letters] = got
        return got


def make_generator_set(matrices):
    """The genus-2 base group on four 2x2 matrices, checked: each is 2x2 with
    unit determinant and the surface relator is +-I up to 1e-8."""
    gens = GeneratorSet(matrices)
    if any(m.shape != (2, 2) for m in gens.matrices):  # all of one shape
        raise GroupDataError(
            f"genus-2 base group needs 2 x 2 matrices, not {gens.matrices[0].shape}")
    for i, m in enumerate(gens.matrices):
        det = np.linalg.det(m)
        if abs(det - 1.0) > 1e-12:
            raise GroupDataError(f"generator {i} has det {float(det)!r}, expected 1")
    if gens.rank != 4:
        raise GroupDataError("genus-2 presentation needs 4 generators")
    r = evaluate(gens, Word(GENUS2_RELATOR))
    res = min(np.linalg.norm(r - np.eye(2)), np.linalg.norm(r + np.eye(2)))
    if res > 1e-8:
        raise GroupDataError(f"surface relator residual {res:.3e}")
    return gens


# -- explicit constructions -------------------------------------------------

def _su11_translate(p):
    s = 1.0 / np.sqrt(1.0 - abs(p) ** 2)
    return np.array([[s, -s * p], [-s * np.conj(p), s]], dtype=complex)


def _su11_rot(theta):
    return np.diag([np.exp(0.5j * theta), np.exp(-0.5j * theta)])


def _mob(m, z):
    return (m[0, 0] * z + m[0, 1]) / (m[1, 0] * z + m[1, 1])


def _pair_map(p, q, p2, q2):
    """Disk isometry with p -> p2 and q -> q2 (equidistant pairs)."""
    a = _su11_translate(p)
    b = _su11_translate(p2)
    q1 = _mob(a, q)
    q2i = _mob(b, q2)
    rot = _su11_rot(np.angle(q2i) - np.angle(q1))
    return np.linalg.inv(b) @ rot @ a


_CAYLEY = np.array([[1.0, -1.0j], [1.0, 1.0j]])


def _to_sl2r(m):
    n = np.linalg.inv(_CAYLEY) @ m @ _CAYLEY
    if np.max(np.abs(n.imag)) > 1e-10:
        raise GroupDataError("disk isometry did not convert to a real matrix")
    r = n.real
    return r / np.sqrt(np.linalg.det(r))


@lru_cache(maxsize=1)
def octagon_fuchsian():
    """Genus-2 surface group from the regular hyperbolic octagon.

    All vertex angles are pi/4 (circumradius cosh R = 3 + 2 sqrt 2), opposite
    sides are paired by hyperbolic translations, and the four returned
    generators satisfy [A1,B1][A2,B2] = +/- I to machine precision.
    """
    cosh_r = 3.0 + 2.0 * np.sqrt(2.0)
    r_eu = np.sqrt((cosh_r - 1.0) / (cosh_r + 1.0))
    verts = [r_eu * np.exp(1j * (2 * k + 1) * np.pi / 8) for k in range(8)]

    def side(k):
        return verts[k % 8], verts[(k + 1) % 8]

    # Sides 0..7 carry the boundary labels a b a' b' c d c' d'.  Generator x
    # maps the side labeled x' onto the side labeled x, reversing endpoint
    # order so the octagon lands on its neighbor across the target side.
    def pairing(i_src, i_dst):
        p, q = side(i_src)
        p2, q2 = side(i_dst)
        return _to_sl2r(_pair_map(p, q, q2, p2))

    g_a = pairing(2, 0)
    g_b = pairing(3, 1)
    g_c = pairing(6, 4)
    g_d = pairing(7, 5)
    # (a, b^-1, c, d^-1) satisfy the commutator relator.
    mats = (g_a, np.linalg.inv(g_b), g_c, np.linalg.inv(g_d))
    return make_generator_set(mats)


# -- word enumeration and evaluation ----------------------------------------

def _letters(rank):
    """The signed letters in natural integer order."""
    return tuple(range(-rank, 0)) + tuple(range(1, rank + 1))


def _word_tree(rank, max_len):
    """Walk the freely reduced words level by level, lengths 1..max_len.

    Yields (words, parent, letter, cyclic) per level.  `words` holds the
    level's letter tuples in lexicographic order; word i is word parent[i]
    of the level before followed by `_letters(rank)[letter[i]]`, so the
    children of each word stay together and in order.  `cyclic` indexes the
    cyclically reduced words of the level.
    """
    letters = np.array(_letters(rank))
    words, last = [()], np.zeros(1, int)
    for _ in range(max_len):
        parent, letter = np.nonzero(letters != -last[:, None])
        last = letters[letter]
        words = [words[i] + (x,)
                 for i, x in zip(parent.tolist(), last.tolist())]
        cyclic = [i for i, w in enumerate(words) if w[0] != -w[-1]]
        yield words, parent, letter, cyclic


def enumerate_words(gens, max_len):
    """All freely and cyclically reduced nontrivial words of length <= max_len.

    Deterministic order: by length, then lexicographic on the signed-index
    tuples (natural integer order).
    """
    return [Word(words[i]) for words, _, _, cyclic in
            _word_tree(gens.rank, max_len) for i in cyclic]


def _tree_products(gens, max_len):
    """`_word_tree`'s levels with the product of every word.

    Yields (words, cyclic, products) per length.  A word's product is its
    parent prefix's product times its last letter's matrix, one stacked
    matmul per length: `evaluate`'s left-to-right chain, so the same bytes.
    """
    letters = np.stack([gens.letter_matrix(x) for x in _letters(gens.rank)])
    prods = None
    for words, parent, letter, cyclic in _word_tree(gens.rank, max_len):
        step = letters[letter]
        prods = step if prods is None else np.matmul(prods[parent], step)
        yield words, cyclic, prods


def evaluate(gens, word):
    """Plain ordered product of generator images along a word.

    A new array each call.  The product is a left-to-right `ndarray.dot`
    chain from the first letter's matrix, not from the identity, which only
    the empty word returns; `dot` makes the BLAS call the `@` chain makes,
    with the same bytes, without the gufunc's dispatch.  Only a one-letter
    word is a copy of its letter's matrix; a longer word's first product is
    already a new array.

    `gens` is a GeneratorSet: the base group's 2x2 matrices, or the SL(n,R)
    images of a representation.

    The product is not rescaled.  Limit-curve values, fixed points and
    eigenvalue ratios are projective, so its scale never enters them, and
    the base generators are validated unimodular, so a base product has
    determinant 1 up to rounding and its eigenvalues are the group's.
    Dividing by a computed determinant would add that determinant's
    cancellation error, and fails outright on an ill-conditioned product
    whose determinant rounds to 0.
    """
    ls, mats, invs = word.letters, gens.matrices, gens.inverses
    if not ls:
        return np.eye(mats[0].shape[0])
    x = ls[0]
    acc = mats[x - 1] if x > 0 else invs[-x - 1]
    if len(ls) == 1:
        return acc.copy()
    for x in ls[1:]:
        acc = acc.dot(mats[x - 1] if x > 0 else invs[-x - 1])
    return acc


# -- boundary points ---------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BoundaryPoint:
    """A point of the boundary circle RP^1.

    A worded point is the attracting fixed point w+ of its word w; the
    repelling one of w is (w^-1)+, labelled w^-1.  A synthetic point (angle
    only) has word = None.  Every point built here has a read-only line.
    """

    word: Word | None
    circle_coord: float         # phi in [0, 2 pi)
    line: np.ndarray            # unit representative of the fixed line

    @staticmethod
    def from_angle(phi):
        if not math.isfinite(phi):  # inf % 2 pi would be NaN
            raise ValueError(f"boundary angle must be finite, got {float(phi)!r}")
        phi = float(phi) % TWO_PI
        if phi == TWO_PI:  # a tiny negative angle rounds up to 2 pi
            phi = 0.0
        return BoundaryPoint(word=None, circle_coord=phi, line=line_of_angle(phi))


def line_of_angle(phi):
    """The unit line at circle coordinate phi, read-only."""
    v = np.array([np.cos(phi / 2.0), np.sin(phi / 2.0)])
    v.flags.writeable = False
    return v


def angle_of_line(v):
    v = normalize_rep(v)
    theta = np.arctan2(v[1], v[0]) % np.pi
    return float((2.0 * theta) % TWO_PI)


def circular_gap(a, b):
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


def act_on_angle(m, phi):
    return angle_of_line(np.asarray(m, float).dot(line_of_angle(phi)))


def fixed_points_2x2(m, word=None):
    """(w+, w-) of a hyperbolic 2x2 matrix m of word w, labelled w and w^-1
    (both None when word is None); a non-finite matrix or discriminant
    raises GroupDataError naming word."""
    m = np.asarray(m, float)
    if m.shape != (2, 2):
        raise GroupDataError(f"fixed points need a 2 x 2 matrix, not {m.shape}")
    if not np.isfinite(m).all():
        raise GroupDataError(f"element has non-finite entries: word {word}")
    tr = m[0, 0] + m[1, 1]
    if tr < 0:  # PSL normalization
        m, tr = -m, -tr
    disc = tr * tr - 4.0 * np.linalg.det(m)
    if not math.isfinite(disc):
        raise GroupDataError(f"element's discriminant is not finite: word {word}")
    if disc <= HYPERBOLIC_TOL ** 2:
        raise GroupDataError(
            f"element is not hyperbolic (trace {float(tr)!r}): word {word}"
        )
    lam_plus = 0.5 * (tr + np.sqrt(disc))
    lam_minus = 0.5 * (tr - np.sqrt(disc))

    def eigvec(lam):
        # kernel of (m - lam I), choosing the better-conditioned row
        r1 = np.array([m[0, 1], lam - m[0, 0]])
        r2 = np.array([lam - m[1, 1], m[1, 0]])
        # norm's own sum; the sqrt stays, as squares can tie differently
        v = r1 if math.sqrt(r1.dot(r1)) >= math.sqrt(r2.dot(r2)) else r2
        v = normalize_rep(v)
        v.flags.writeable = False
        return v

    inv = None if word is None else word.inverse()
    return tuple(BoundaryPoint(word=w, circle_coord=angle_of_line(v), line=v)
                 for w, v in ((word, eigvec(lam_plus)), (inv, eigvec(lam_minus))))


def translate_point(gens, v_word, point):
    """Image v . p of a boundary point under the group element v.

    The angle is moved by the base matrix of v itself, `gens.product(v)`,
    which the group keeps.  A point w+ goes to (v w v^-1)+, which is the
    word carried: one free reduction of the letters of v, w and v^-1, the
    word v * w * v^-1, as free reduction is confluent.  No fixed point of
    the conjugated word is solved for.  A synthetic point stays one.
    """
    phi = act_on_angle(gens.product(v_word), point.circle_coord)
    conj = None if point.word is None else Word.of(
        *v_word.letters, *point.word.letters, *v_word.inverse().letters)
    return BoundaryPoint(word=conj, circle_coord=phi, line=line_of_angle(phi))


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Deduplicated boundary points sorted by circle coordinate."""

    points: tuple
    group: GeneratorSet
    _angles: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        angles = np.array([p.circle_coord for p in self.points])
        angles.flags.writeable = False
        object.__setattr__(self, "_angles", angles)

    def __len__(self):
        return len(self.points)

    def angles(self):
        """The circle coordinates of the points, as one read-only array."""
        return self._angles


def _fixed_point_stack(m):
    """`fixed_points_2x2`'s steps on an (N, 2, 2) stack, with the same bytes.

    Returns (lines, angles, ok): lines is (N, 2, 2), the attracting then
    the repelling unit line of each matrix, and angles is (N, 2) in the same
    order.  ok is False where `fixed_points_2x2` would raise (a
    non-hyperbolic or non-finite matrix); the values there are not
    meaningful, and computing them may set floating-point flags, which the
    caller's np.errstate decides on.
    """
    tr = m[:, 0, 0] + m[:, 1, 1]
    flip = tr < 0  # PSL normalization
    m = np.where(flip[:, None, None], -m, m)
    tr = np.where(flip, -tr, tr)[:, None]
    disc = tr * tr - 4.0 * np.linalg.det(m)[:, None]
    root = np.sqrt(disc)
    lam = np.concatenate([0.5 * (tr + root), 0.5 * (tr - root)], axis=1)
    # kernel of (m - lam I), choosing the better-conditioned row
    a, b, c, d = (m[:, i, j, None] for i in (0, 1) for j in (0, 1))
    r1 = np.stack(np.broadcast_arrays(b, lam - a), axis=-1)
    r2 = np.stack(np.broadcast_arrays(lam - d, c), axis=-1)
    pick = np.sqrt(np.vecdot(r1, r1)) >= np.sqrt(np.vecdot(r2, r2))
    lines, ok = normalize_rows(np.where(pick[..., None], r1, r2))
    v, _ = normalize_rows(lines)  # angle_of_line's own normalization
    theta = np.arctan2(v[..., 1], v[..., 0]) % np.pi
    ok = (disc[:, 0] > HYPERBOLIC_TOL ** 2) & ok.all(axis=1)
    return lines, (2.0 * theta) % TWO_PI, ok


def sample_boundary(gens, max_len):
    """Fixed points of all enumerated words, deduplicated and sorted.

    The words are solved in one stacked pass (`_tree_products`, then
    `_fixed_point_stack`), with the bytes of `evaluate` and
    `fixed_points_2x2`.  A word that one-matrix path would reject is handed
    to it, so the first such word in enumeration order raises its error.

    The dedup runs on the solved arrays and only the kept points are built.
    On a coincidence within DEDUP_TOL radians the point of the shorter word
    wins (better conditioned eigen-data).  The sample depends on the group
    alone: it neither reads nor fills the cache of `gens.fixed_points`.
    """
    if any(m.shape != (2, 2) for m in gens.matrices):
        raise GroupDataError("boundary sample needs a group of 2 x 2 matrices")
    words, mats = [], []
    # a row that overflows or goes NaN here is one the one-matrix path
    # rejects; it is solved again there, with that path's warnings
    with np.errstate(all="ignore"):
        for level, cyclic, prods in _tree_products(gens, max_len):
            words += [level[i] for i in cyclic]
            mats.append(prods[cyclic])
        if not words:
            return SampleSet(points=(), group=gens)
        lines, angles, ok = _fixed_point_stack(np.concatenate(mats))
    if not ok.all():
        w = Word(words[int(np.argmin(ok))])
        fixed_points_2x2(evaluate(gens, w), word=w)
    # row 2i is w+ and row 2i + 1 is w- = (w^-1)+ for word w = words[i]; by
    # angle, then by (length, letters): the rows are in enumeration order
    lines.flags.writeable = False  # and with it every point's row
    angles, lines = angles.ravel(), lines.reshape(-1, 2)
    phi, size = angles.tolist(), [len(w) for w in words for _ in (0, 1)]
    kept = []
    for i in np.argsort(angles, kind="stable").tolist():
        if not kept or phi[i] - phi[kept[-1]] > DEDUP_TOL:
            kept.append(i)
        elif size[i] < size[kept[-1]]:
            kept[-1] = i
    # wrap-around duplicate: the first point stays unless the last is
    # shorter; either way the one dropped is at an end, so the rest stay sorted
    if len(kept) > 1 and circular_gap(phi[kept[0]], phi[kept[-1]]) <= DEDUP_TOL:
        kept.pop(0 if size[kept[-1]] < size[kept[0]] else -1)
    worded = (Word(words[i // 2]) for i in kept)
    return SampleSet(points=tuple(
        BoundaryPoint(w.inverse() if i % 2 else w, phi[i], lines[i])
        for i, w in zip(kept, worded)), group=gens)
