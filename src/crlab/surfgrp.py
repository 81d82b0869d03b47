"""Surface and free group data: presentations, words, boundary samples.

The boundary circle is modeled as RP^1 with the coordinate phi = 2*theta,
theta the angle of a line in R^2.  All boundary points come from fixed
points of hyperbolic elements of the base 2x2 representation; an SL(n,R)
representation is always carried alongside that base data.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .projlin import normalize_rep

TWO_PI = 2.0 * np.pi
DEDUP_TOL = 1e-9          # radians between distinct boundary points
HYPERBOLIC_TOL = 1e-6     # |trace| must exceed 2 + this
_RENORM_EVERY = 8         # determinant cleanup period in word products

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

    def conjugated_by(self, v):
        """v * self * v^-1."""
        return v * self * v.inverse()

    def power(self, k):
        if k < 0:
            return self.inverse().power(-k)
        w = Word(())
        for _ in range(k):
            w = w * self
        return w

    def is_cyclically_reduced(self):
        ls = self.letters
        return len(ls) == 0 or ls[0] != -ls[-1]

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


def cyclic_reduce(word):
    ls = list(word.letters)
    while len(ls) >= 2 and ls[0] == -ls[-1]:
        ls = ls[1:-1]
    return Word(tuple(ls))


@dataclass(frozen=True, eq=False)
class GeneratorSet:
    """Generator matrices plus the presentation kind.

    The base group has 2x2 unimodular matrices; the images of a
    representation use the same type with n x n matrices.  The inverses are
    computed once here, so that word products only multiply.
    """

    matrices: tuple          # tuple of square float arrays
    kind: str                # "cocompact-genus-2" | "schottky-free"
    inverses: tuple = field(init=False, repr=False)

    def __post_init__(self):
        try:
            inverses = tuple(np.linalg.inv(m) for m in self.matrices)
        except np.linalg.LinAlgError as exc:
            raise GroupDataError(f"singular generator matrix: {exc}") from exc
        object.__setattr__(self, "inverses", inverses)

    @property
    def rank(self):
        return len(self.matrices)

    def letter_matrix(self, x):
        return self.matrices[x - 1] if x > 0 else self.inverses[-x - 1]

    def relator(self):
        return Word(GENUS2_RELATOR) if self.kind == "cocompact-genus-2" else None


def _validate(gens):
    for i, m in enumerate(gens.matrices):
        det = np.linalg.det(m)
        if abs(det - 1.0) > 1e-12:
            raise GroupDataError(f"generator {i} has det {det!r}, expected 1")
    if gens.kind == "cocompact-genus-2":
        if gens.rank != 4:
            raise GroupDataError("genus-2 presentation needs 4 generators")
        r = evaluate(gens, gens.relator())
        res = min(np.linalg.norm(r - np.eye(2)), np.linalg.norm(r + np.eye(2)))
        if res > 1e-8:
            raise GroupDataError(f"surface relator residual {res:.3e}")
    elif gens.kind == "schottky-free":
        for i, m in enumerate(gens.matrices):
            if abs(np.trace(m)) <= 2.0 + HYPERBOLIC_TOL:
                raise GroupDataError(f"generator {i} is not hyperbolic")
    else:
        raise GroupDataError(f"unknown presentation kind {gens.kind!r}")
    return gens


def make_generator_set(matrices, kind):
    mats = tuple(np.asarray(m, float).reshape(2, 2) for m in matrices)
    return _validate(GeneratorSet(matrices=mats, kind=kind))


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
    return make_generator_set(mats, "cocompact-genus-2")


def schottky(t1, t2, separation=0.5):
    """Rank-2 free group: two hyperbolic matrices with crossed axes.

    The first axis has endpoints at circle coordinates {0, pi}, the second
    at {pi/2, 3 pi/2}; `separation` is the smallest admissible angular gap
    between endpoint coordinates.
    """
    for t in (t1, t2):
        if t <= 2.0 + HYPERBOLIC_TOL:
            raise GroupDataError(f"trace {t!r} is not hyperbolic")
    min_gap = np.pi / 2  # endpoint configuration is fixed by construction
    if separation >= min_gap:
        raise GroupDataError(
            f"axis endpoints separated by {min_gap:.3f} < separation {separation!r}"
        )

    def hyp(t):
        lam = 0.5 * (t + np.sqrt(t * t - 4.0))
        return np.diag([lam, 1.0 / lam])

    rot = np.array([[np.cos(np.pi / 4), -np.sin(np.pi / 4)],
                    [np.sin(np.pi / 4), np.cos(np.pi / 4)]])
    a = hyp(t1)
    b = rot @ hyp(t2) @ rot.T
    return make_generator_set((a, b), "schottky-free")


# -- word enumeration and evaluation ----------------------------------------

def enumerate_words(gens, max_len):
    """All freely and cyclically reduced nontrivial words of length <= max_len.

    Deterministic order: by length, then lexicographic on the signed-index
    tuples (natural integer order).
    """
    letters = sorted(
        list(range(-gens.rank, 0)) + list(range(1, gens.rank + 1))
    )
    out = []
    frontier = [()]
    for _ in range(max_len):
        nxt = []
        for prefix in frontier:
            for x in letters:
                if prefix and prefix[-1] == -x:
                    continue
                nxt.append(prefix + (x,))
        nxt.sort()
        frontier = nxt
        out.extend(Word(w) for w in nxt if w[0] != -w[-1])
    return out


def evaluate(gens, word, rep=None):
    """Ordered product of generator images along a word.

    `rep` defaults to the base 2x2 matrices; pass the SL(n,R) generator
    images for a composed representation, best as a GeneratorSet so that
    their inverses are not recomputed on every call.  The running product is
    rescaled to unit determinant every few factors to stop drift on long
    words.
    """
    if rep is None:
        rep = gens
    elif not isinstance(rep, GeneratorSet):
        rep = GeneratorSet(tuple(np.asarray(m, float) for m in rep), gens.kind)
    if rep.rank != gens.rank:
        raise GroupDataError("representation must supply one matrix per generator")
    acc = np.eye(rep.matrices[0].shape[0])
    for k, x in enumerate(word.letters, start=1):
        acc = acc @ rep.letter_matrix(x)
        if k % _RENORM_EVERY == 0:
            acc = _unit_det(acc)
    return _unit_det(acc)


def _unit_det(m):
    d = np.linalg.det(m)
    if d == 0 or not np.isfinite(d):
        raise GroupDataError("singular word matrix")
    n = m.shape[0]
    if d > 0:
        return m / d ** (1.0 / n)
    if n % 2 == 1:
        return m / (-((-d) ** (1.0 / n)))
    return m / (-d) ** (1.0 / n)  # sign is projectively irrelevant


# -- boundary points ---------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BoundaryPoint:
    """A point of the boundary circle RP^1.

    Sampled points carry the group word fixing them and the eigen-data sign;
    synthetic points (angle only) have word = None.
    """

    word: Word | None
    sign: str                   # "attracting" | "repelling" | "synthetic"
    circle_coord: float         # phi in [0, 2 pi)
    line: np.ndarray            # unit representative of the fixed line
    eigenvalue: float = np.nan  # base-matrix eigenvalue at this fixed point

    @staticmethod
    def from_angle(phi):
        phi = float(phi) % TWO_PI
        return BoundaryPoint(
            word=None, sign="synthetic", circle_coord=phi, line=line_of_angle(phi)
        )

    def key(self):
        if self.word is None:
            return ("angle", round(self.circle_coord, 12))
        return (self.word.letters, self.sign)


def line_of_angle(phi):
    return np.array([np.cos(phi / 2.0), np.sin(phi / 2.0)])


def angle_of_line(v):
    v = normalize_rep(v)
    theta = np.arctan2(v[1], v[0]) % np.pi
    return (2.0 * theta) % TWO_PI


def circular_gap(a, b):
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


def act_on_angle(m, phi):
    return angle_of_line(np.asarray(m, float) @ line_of_angle(phi))


def fixed_points_2x2(m, word=None):
    """Attracting and repelling boundary points of a hyperbolic 2x2 matrix."""
    m = np.asarray(m, float)
    tr = m[0, 0] + m[1, 1]
    if tr < 0:  # PSL normalization
        m, tr = -m, -tr
    disc = tr * tr - 4.0 * np.linalg.det(m)
    if disc <= HYPERBOLIC_TOL ** 2:
        raise GroupDataError(
            f"element is not hyperbolic (trace {tr!r}): word {word}"
        )
    lam_plus = 0.5 * (tr + np.sqrt(disc))
    lam_minus = 0.5 * (tr - np.sqrt(disc))

    def eigvec(lam):
        # kernel of (m - lam I), choosing the better-conditioned row
        r1 = np.array([m[0, 1], lam - m[0, 0]])
        r2 = np.array([lam - m[1, 1], m[1, 0]])
        v = r1 if np.linalg.norm(r1) >= np.linalg.norm(r2) else r2
        return normalize_rep(v)

    out = []
    for lam, sign in ((lam_plus, "attracting"), (lam_minus, "repelling")):
        v = eigvec(lam)
        out.append(BoundaryPoint(
            word=word, sign=sign, circle_coord=angle_of_line(v),
            line=v, eigenvalue=float(lam),
        ))
    return out[0], out[1]


def translate_point(gens, v_word, point):
    """Image of a sampled boundary point under the group element v.

    Uses the exact identity fix(v w v^-1) = v . fix(w), so the result is
    again a sampled point with full eigen-data.
    """
    if point.word is None:
        m = evaluate(gens, v_word)
        return BoundaryPoint.from_angle(act_on_angle(m, point.circle_coord))
    conj = point.word.conjugated_by(v_word)
    att, rep = fixed_points_2x2(evaluate(gens, conj), word=conj)
    return att if point.sign == "attracting" else rep


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Deduplicated boundary points sorted by circle coordinate."""

    points: tuple
    group: GeneratorSet

    def __len__(self):
        return len(self.points)

    def angles(self):
        return np.array([p.circle_coord for p in self.points])


def sample_boundary(gens, max_len, dedup_tol=DEDUP_TOL):
    """Fixed points of all enumerated words, deduplicated and sorted.

    On a coincidence within `dedup_tol` radians the point of the shorter
    word wins (better conditioned eigen-data).
    """
    pts = []
    for w in enumerate_words(gens, max_len):
        att, rep = fixed_points_2x2(evaluate(gens, w), word=w)
        pts.append(att)
        pts.append(rep)
    pts.sort(key=lambda p: (p.circle_coord, len(p.word), p.word.letters))
    kept = []
    for p in pts:
        if kept and p.circle_coord - kept[-1].circle_coord <= dedup_tol:
            if len(p.word) < len(kept[-1].word):
                kept[-1] = p
            continue
        kept.append(p)
    # wrap-around duplicate
    if len(kept) > 1 and circular_gap(kept[0].circle_coord, kept[-1].circle_coord) <= dedup_tol:
        if len(kept[-1].word) < len(kept[0].word):
            kept[0] = kept[-1]
        kept.pop()
    return SampleSet(points=tuple(kept), group=gens)
