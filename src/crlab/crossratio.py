"""Cross-ratio evaluators on the boundary circle and their functional checks.

A cross ratio is a four-point function b(x, y, z, t) defined for x != t,
y != z.  Every cross ratio built here is a pairing quotient of a limit
curve and its dual, held as a `CurvePair`: the Veronese pair, which at
n = 2 is the classical cross ratio of RP^1, a representation's pair, and
the dual of a pair.  `classical_cr` is the classical cross ratio on
numbers and homogeneous 2-vectors.

A curve pair is two separate maps on the boundary, as in the paper: the
limit curve xi into P(R^n) and the dual curve xi* into P(R^n*).  A value
that cannot be computed raises on its own side only, so a value of one
never fails with the other.  A representation's pair takes xi and xi* at
both fixed points of every cyclically reduced word of a conjugacy class
(the rotations of a word and of its inverse) from one stacked eigen solve,
cached per word.

A check takes any cross ratio with a `label` that is evaluated on four
boundary points, and also on tuples of indices into a SampleSet with the
quadruples of positions in a tuple it is needed on (`on_indices`).  A
curve pair is its own cross ratio: on four points it is `curve_cr`, and
on a sample set it reads its `table(sample)`, two N x n arrays of xi and
xi* at every sample point, built once per sample set.  There it takes
each distinct pairing <xi(a), xi*(b)> the quadruples of a tuple need
once, in one vectorized dot product over all tuples, and forms each
quadruple's quotient from them; a quadruple the gather cannot evaluate
goes to `curve_cr`, which raises its error.  The sample-set checks share
one routine (`_drive`): it draws all seeded index tuples first, uniform
over the tuples of points DEFAULT_MIN_GAP apart, by rejection
(`draw_indices`), and evaluates b on every quadruple they need in one
batched call.  Every check reduces through `_report` to one schema: per
identity the worst violation and its witness (`per_identity`, `argmax`),
their maximum, and `passed` against CHECK_TOL.  A failed identity shows
there, not as a raised error.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from .projlin import (
    SpectrumError, dominant_lines, normalize_rep, veronese, veronese_dual,
)
from .surfgrp import (
    BoundaryPoint, DEDUP_TOL, GeneratorSet, GroupDataError, TWO_PI, Word,
    circular_gap, conjugate_split, evaluate, translate_point,
)

PAIRING_TOL = 1e-12      # normalized pairing below this counts as degenerate
DEFAULT_MIN_GAP = 1e-3   # angular floor for randomly drawn tuples
DRAW_TRIES = 400         # rejected draws before a tuple draw gives up
FLOW_TOL = 1e-12         # the flow's final bracket is narrower, in angle
PERIOD_TOL = 1e-8        # largest gap between a period at two base points
CHECK_TOL = 1e-9         # a check passes when its worst violation is below this


class DomainError(ValueError):
    """A quadruple outside the x != t, y != z domain, or a degenerate pairing."""


# -- classical cross ratio ----------------------------------------------------

def _homog(p):
    if isinstance(p, (tuple, list, np.ndarray)):
        return np.asarray(p, float)
    p = float(p)
    if np.isinf(p):
        return np.array([1.0, 0.0])
    return np.array([p, 1.0])


def _det2(a, b):
    return a[0] * b[1] - a[1] * b[0]


def classical_cr(x, y, z, t):
    """Classical cross ratio (x-y)(z-t) / ((x-t)(z-y)) on R u {inf}.

    Arguments may be numbers, inf, or homogeneous 2-vectors; evaluation is
    projective via 2x2 determinants, so infinity needs no special cases.
    """
    hx, hy, hz, ht = (_homog(p) for p in (x, y, z, t))
    num = _det2(hx, hy) * _det2(hz, ht)
    d1 = _det2(hx, ht)
    d2 = _det2(hz, hy)
    # each determinant against the scale of its own two points
    if (abs(d1) <= PAIRING_TOL * np.linalg.norm(hx) * np.linalg.norm(ht)
            or abs(d2) <= PAIRING_TOL * np.linalg.norm(hz) * np.linalg.norm(hy)):
        raise DomainError("classical cross ratio needs x != t and y != z")
    return num / (d1 * d2)


# -- curves and their pairing cross ratio ------------------------------------

@dataclass(eq=False)
class CurvePair:
    """A curve in P(R^n) and a dual curve in P(R^n*) over the boundary
    circle, and their pairing cross ratio: the pair called on (x, y, z, t)
    gives `curve_cr` of it there."""

    n: int
    xi_fn: callable          # BoundaryPoint -> unit vector
    xistar_fn: callable      # BoundaryPoint -> unit covector
    label: str
    _tables: dict = field(default_factory=dict, init=False, repr=False)

    def __call__(self, x, y, z, t):
        return curve_cr(self, (x, y, z, t))

    def xi(self, p):
        return self.xi_fn(p)

    def xistar(self, p):
        return self.xistar_fn(p)

    def table(self, sample):
        """(xi, xi*) at every point of a SampleSet: two read-only (N, n)
        arrays.

        Built on first use and shared by every later check on the sample.
        A value that raises DomainError, GroupDataError or SpectrumError is
        a NaN row; `curve_cr` raises it again for a tuple that needs it.
        """
        got = self._tables.get(sample)
        if got is None:
            got = tuple(np.full((len(sample), self.n), np.nan) for _ in range(2))
            for i, p in enumerate(sample.points):
                for fn, arr in zip((self.xi, self.xistar), got):
                    try:
                        arr[i] = fn(p)
                    except (DomainError, GroupDataError, SpectrumError):
                        pass
            for arr in got:
                arr.flags.writeable = False
            self._tables[sample] = got
        return got

    def on_indices(self, sample, idx, quads):
        """`curve_cr` on each quadruple of `quads`, a tuple of (x, y, z, t)
        position tuples, of each row of a (count, k) array of sample
        indices, bit for bit: a (len(quads), count) array.

        A gather from `table(sample)`: each distinct pairing the quadruples
        of a tuple need is one dot product, and each quadruple's quotient
        is formed from its four pairings as `curve_cr` forms it.  Raises
        what `curve_cr` tuple by tuple would raise first: the first
        quadruple with a degenerate pairing, or a NaN one from a value that
        raised, is handed to `curve_cr` itself.
        """
        xi, xistar = self.table(sample)
        on_xi, on_xistar, of_quads = _pairings(quads)
        p = np.vecdot(xi.take(idx.T[on_xi], axis=0),
                      xistar.take(idx.T[on_xistar], axis=0))  # (pairs, count)
        xy, zt, zy, xt = p[of_quads]
        fine = (np.abs(p) > PAIRING_TOL)[of_quads[2:]].all(axis=0)  # (z, y), (x, t)
        if not fine.all():
            for r, j in zip(*np.nonzero(~fine.T)):  # tuple by tuple
                curve_cr(self, [sample.points[i] for i in idx[r, list(quads[j])]])
        return (xy * zt) / (zy * xt)


@lru_cache(maxsize=16)
def _pairings(quads):
    """The distinct pairings <xi(a), xi*(b)> that quads, quadruples of
    positions (x, y, z, t) in a tuple, need: the positions a and b of each,
    and a (4, len(quads)) array of where the pairings (x, y), (z, t),
    (z, y) and (x, t) of each quadruple are among them."""
    cols = {}
    for x, y, z, t in quads:
        for pos in ((x, y), (z, t), (z, y), (x, t)):
            cols.setdefault(pos, len(cols))
    on_xi, on_xistar = np.array(list(cols), dtype=np.intp).T
    of_quads = np.array([[cols[x, y], cols[z, t], cols[z, y], cols[x, t]]
                         for x, y, z, t in quads], dtype=np.intp).T
    for a in (on_xi, on_xistar, of_quads):
        a.flags.writeable = False  # shared by every caller of the cache
    return on_xi, on_xistar, of_quads


def veronese_pair(n):
    """Closed-form moment curve with its osculating dual; evaluable anywhere.

    The last few values of each are kept, so a flow computes its fixed
    points x+, x0 and x- once rather than at every evaluation of b.  A
    value depends on the point's line alone, so the keys are the bytes of
    the line as a float array: two points with the same line, such as a
    word's fixed points solved by `fixed_points_2x2` and those kept by
    `GeneratorSet.fixed_points`, share one value, and lines that differ in
    any bit, even the sign of a zero, get their own.  The value is computed
    from those bytes, which are the line `veronese` would read.  The kept
    values are read-only, so no caller can write to them.
    """
    if n < 2:
        raise ValueError("n must be >= 2")

    @lru_cache(maxsize=8)
    def xi(line):
        v = veronese(n, np.frombuffer(line))
        v.flags.writeable = False
        return v

    @lru_cache(maxsize=8)
    def xistar(line):
        v = veronese_dual(n, np.frombuffer(line))
        v.flags.writeable = False
        return v

    return CurvePair(
        n=n, xi_fn=lambda p: xi(p.line.astype(float, copy=False).tobytes()),
        xistar_fn=lambda p: xistar(p.line.astype(float, copy=False).tobytes()),
        label=f"veronese-{n}")


def representation_pair(gens, rep, n):
    """Limit curve and dual curve sampled from eigenlines of word matrices.

    A point is the attracting fixed point w+ of its word w, split as
    v c v^-1 with c cyclically reduced.  At c+ the curve value is the
    dominant eigenline of rho(c) and the dual value the dominant left
    eigenline of rho(c^-1).  The value at the point v . c+ = w+ is then
    moved on each lookup by equivariance: xi(v p) = rho(v) xi(p) and
    xi*(v p) = rho(v)^-T xi*(p), with rho(v) and rho(v^-1) formed once per
    conjugator v and kept by the pair's images (`GeneratorSet.product`).
    Eigen-data of rho(v c v^-1) itself is never taken: that product can be
    far too ill-conditioned.

    The first value asked for at a fixed point of c, or of any other
    cyclically reduced word conjugate to c or c^-1 (the rotations of c and
    of c^-1), solves xi and xi* at both fixed points of all of them, from
    rho(r) and rho(r^-1) of every distinct rotation r of c, in one
    `dominant_lines` call: one np.linalg.eig over 4m matrices for a c of
    length m, fewer for a proper power.  The pair's one cache
    (`_limit_line`) keeps that solve's one array of lines and its list of
    messages, and for each r and r^-1 where its two rows are; the rotation
    products are formed for that solve alone and not kept.  A kept value is
    a read-only row of that array; a moved one is a new array.  A row with
    no dominant eigenline (NaN) raises its own SpectrumError on every lookup,
    so a value of one side never fails with the other.  `rep` has one n x n
    image per generator of `gens`, with finite entries, and n >= 2, checked
    here.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if any(np.shape(m) != (n, n) for m in rep):
        raise GroupDataError(f"representation images must be {n} x {n} matrices")
    rep = GeneratorSet(rep)
    if rep.rank != gens.rank:
        raise GroupDataError("representation must supply one matrix per generator")
    cores = {}  # shared by both sides
    return CurvePair(n=n, xi_fn=partial(_limit_line, cores, rep, False),
                     xistar_fn=partial(_limit_line, cores, rep, True),
                     label=f"rep-{n}")


def _limit_line(cores, rep, dual, p):
    """xi (or xi* when dual) of `representation_pair` at the boundary point p.

    `cores` maps the letters of a cyclically reduced word w to (lines,
    errors, row): the `dominant_lines` of its class solve, and the row of
    rho(w) in it, followed by that of rho(w^-1)^T, xi and xi* at w+.  A
    miss of a core c solves (rho(r), rho(r^-1)^T, rho(r^-1), rho(r)^T) of
    every distinct rotation r of c in one stack, and keeps the rows of the
    first two for r and of the last two for r^-1.  A lookup raises the
    SpectrumError of its own row, or returns that read-only row.  Any other
    word v c v^-1 takes its core c's line moved by rho(v) = rep.product(v)
    (xi) or rho(v^-1)^T = rep.product(v^-1).T (xi*), products the images
    keep, read-only, once per conjugator; the moved line itself is computed
    again on each lookup.  A moved line that over- or underflows, also
    through a kept product that overflowed, raises SpectrumError on every
    lookup, with no warning.
    """
    if p.word is None:
        raise DomainError("eigen-sampled curve needs a worded boundary point")
    v = None
    core = cores.get(p.word.letters)
    if core is None:
        v, c = conjugate_split(p.word)
        core = cores.get(c.letters)
        if core is None:
            ls = c.letters  # () is the one rotation of the empty word
            rotations = [(r, r.inverse()) for r in map(Word, dict.fromkeys(
                ls[i:] + ls[:i] for i in range(len(ls) or 1)))]
            stack = []
            # word products of inverses, not numerical inverses: word images
            # can be far too ill-conditioned to invert in floats.  A rotation
            # nobody asked for may overflow; that shows as its own rows'
            # "matrix is not finite", not as a warning to whoever asked
            with np.errstate(over="ignore", invalid="ignore"):
                for r, ri in rotations:
                    m, mi = evaluate(rep, r), evaluate(rep, ri)
                    stack += (m, mi.T, mi, m.T)
            lines, errors = dominant_lines(np.array(stack))
            for k, (r, ri) in enumerate(rotations):
                cores[r.letters] = (lines, errors, 4 * k)
                cores[ri.letters] = (lines, errors, 4 * k + 2)
            core = cores[ls]
    lines, errors, row = core
    row += dual
    if errors[row] is not None:
        # a new error each time: one stored and raised again would grow its
        # traceback on every raise
        raise SpectrumError(errors[row])
    if v:  # a moved point: v is not empty
        with np.errstate(over="ignore", invalid="ignore"):
            g = rep.product(v.inverse()).T if dual else rep.product(v)
            try:
                return normalize_rep(g @ lines[row])
            except ValueError:  # over- or underflowed: no line to normalize
                raise SpectrumError("moved value is zero or not finite") from None
    return lines[row]


def curve_cr(pair, q):
    """Pairing-quotient cross ratio of a curve pair on q = (x, y, z, t).

    Independent of representative scalings by construction; degenerate
    denominators raise with the offending pairing named.  Each pairing is
    `ndarray.dot` of the two values, the dot product `@` takes on vectors,
    without its dispatch.
    """
    x, y, z, t = q
    vx, vz = pair.xi(x), pair.xi(z)
    cy, ct = pair.xistar(y), pair.xistar(t)
    num = vx.dot(cy) * vz.dot(ct)
    dzy = vz.dot(cy)
    dxt = vx.dot(ct)
    if abs(dzy) <= PAIRING_TOL:
        raise DomainError("degenerate pairing <xi(z), xi*(y)>")
    if abs(dxt) <= PAIRING_TOL:
        raise DomainError("degenerate pairing <xi(x), xi*(t)>")
    return num / (dzy * dxt)


def curve_cr_fn(pair):
    """The cross ratio of a curve pair, which is the pair itself."""
    return pair


def dual_cr(pair):
    """The dual cross ratio b*(x,y,z,t) = b(y,x,t,z) of a curve pair's b:
    the pair with xi and xi* swapped.  It has the same periods.

    In the paper b* is the cross ratio of the contragredient representation,
    whose limit curve is xi* and whose dual curve is xi.  The swap is exact:
    each pairing of b* at (x, y, z, t) is the same dot product as that of b
    at (y, x, t, z), with its two operands in the other order, so it takes
    the same products in the same order, and each quotient is formed from
    the same pairings.  Where a denominator pairing is degenerate, b* names
    the other one of the two.
    """
    return CurvePair(n=pair.n, xi_fn=pair.xistar_fn, xistar_fn=pair.xi_fn,
                     label=f"dual({pair.label})")


# -- seeded tuple streams and the shared check loop ---------------------------

def draw_indices(sample, rng, k, count, min_gap=DEFAULT_MIN_GAP):
    """count rows of k distinct indices into sample.points whose points lie
    pairwise more than min_gap apart on the circle.

    A rejection sampler: each candidate is k indices drawn uniformly with
    replacement, and it is kept when every two of its points lie more than
    min_gap apart.  A repeated index is two points 0 apart, so that one
    test also rejects it, and the rows are uniform over the ordered tuples
    of separated points.  min_gap must be at least 0.

    The two closest points of a tuple are neighbours on the circle, so only
    k gaps are tested: between neighbours in sorted order, and, for k > 1,
    the gap 2 pi - (last - first) across 0.  Float subtraction is monotone,
    so this keeps exactly the candidates that the k(k - 1)/2 pairwise
    `circular_gap`s would keep.

    A whole batch of candidates comes from one `rng.integers` call with the
    scalar bound n, which consumes the stream as one call per candidate
    would, and its gaps are tested at once.  A batch holds no more
    candidates than the rows still missing or the rejections left before
    DRAW_TRIES in a row give up, so a one-at-a-time rejection loop would
    draw all of them too: rng ends where count calls of draw_points leave
    it, also when the draw raises, and a seed draws the same tuples either
    way.
    """
    n = len(sample.points)
    if k < 1 or count < 1:
        raise DomainError(f"tuple size and count must be at least 1: {k}, {count}")
    if n < k:
        raise DomainError(f"sample set too small: {n} < {k}")
    if not min_gap >= 0:  # also NaN: a negative gap would keep repeated indices
        raise DomainError(f"min_gap must be at least 0, got {float(min_gap)!r}")
    angles = sample.angles()
    out = np.empty((count, k), dtype=np.intp)
    filled, run = 0, 0  # run: rejections since the last kept candidate
    while filled < count:
        cand = rng.integers(0, n, size=(min(count - filled, DRAW_TRIES - run), k))
        a = np.sort(angles.take(cand), axis=1)
        ok = (a[:, 1:] - a[:, :-1] > min_gap).all(axis=1)
        if k > 1:
            ok &= TWO_PI - (a[:, -1] - a[:, 0]) > min_gap
        kept = np.flatnonzero(ok)
        out[filled:filled + len(kept)] = cand[kept]
        filled += len(kept)
        run = len(cand) - 1 - kept[-1] if len(kept) else run + len(cand)
        if run == DRAW_TRIES:
            raise DomainError(f"could not draw {k} of {n} points more than min_gap "
                              f"{min_gap!r} apart in {DRAW_TRIES} tries in a row")
    return out


def draw_points(sample, rng, k, min_gap=DEFAULT_MIN_GAP):
    """k distinct sample points with pairwise circular gap above min_gap."""
    row = draw_indices(sample, rng, k, 1, min_gap)[0]
    return [sample.points[i] for i in row]


def _drive(b, sample, count, k, quads, seed):
    """Draw count seeded k-tuples of sample indices and evaluate b on them.

    `quads` holds, as positions into a tuple, each quadruple b is needed on.
    All of them are evaluated in one batched call, `b.on_indices`, which
    raises the failure a loop over the tuples, and over the quadruples of
    each, would meet first.  Returns the (count, k) indices and one array
    of count values per quadruple of `quads`.
    """
    idx = draw_indices(sample, np.random.default_rng(seed), k, count)
    return idx, b.on_indices(sample, idx, quads)


def _rel(a, b):
    return np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))


def _witness(sample, idx):  # a sample check names tuple k by its angles
    return lambda k: tuple(sample.points[i].circle_coord for i in idx[k])


def _report(check, b, viols, witness, **fields):
    """The report of every check; `fields` are the check's own entries.

    `viols` maps each identity's name to its violation on each tuple, and
    `witness(k)` names tuple k.  All identities are reduced at once: a
    violation at or below 0 counts as 0.0 and a NaN as inf, so an identity
    that could not be evaluated fails.  Per identity the first tuple with
    the largest violation is the witness, and None when that is 0.
    """
    v = np.array(list(viols.values()), dtype=float)  # one per identity and tuple
    v[np.isnan(v)] = np.inf
    v[~(v > 0.0)] = 0.0
    worsts = v.max(axis=1).tolist()
    firsts = np.argmax(v, axis=1).tolist()
    per_identity = dict(zip(viols, worsts))
    argmax = {name: witness(k) if worst else None
              for name, k, worst in zip(viols, firsts, worsts)}
    worst = max(worsts)
    return {"check": check, "label": b.label, "tuples": v.shape[1],
            "per_identity": per_identity, "argmax": argmax,
            "max_violation": worst, "passed": bool(worst < CHECK_TOL),
            "tol": CHECK_TOL, **fields}


# positions in the drawn tuple (x, y, z, t, w) of the quadruples b is
# evaluated on: (x,y,z,t), then the swapped pairs, the two cocycle
# factorizations through w, the zero locus and the two unit loci
_AXIOM_QUADS = (
    (0, 1, 2, 3), (2, 3, 0, 1),
    (0, 1, 2, 4), (0, 4, 2, 3),
    (0, 1, 4, 3), (4, 1, 2, 3),
    (0, 0, 2, 3), (0, 1, 0, 3), (0, 1, 2, 1),
)


def check_axioms(b, sample, count, seed=0):
    """Worst violations of the defining identities over seeded tuples.

    Checks symmetry under swapping the two pairs, the zero locus, both
    multiplicative cocycle rules, the unit locus, and reports the observed
    strictness floor min |b - 1| on tuples DEFAULT_MIN_GAP apart; passes when
    the worst violation is below CHECK_TOL.  Each identity's witness in
    `argmax` is the angles of the drawn tuple (x, y, z, t, w), w being the
    point the cocycles factor through, or None when no violation is above 0.

    For a pairing cross ratio such as a `CurvePair`, symmetry, both
    cocycles and the unit locus hold identically in the pairings, so on
    those evaluators they measure float error only; the zero locus, xi(x)
    in the kernel of xi*(x), carries the content.  Every cross ratio this
    module builds is a curve pair, so the whole battery carries content
    only on evaluators that are not pairing quotients, such as the
    corrupted ones of the test suite.
    """
    idx, (v, swapped, zw1, zw2, wy1, wy2, zero, unit1, unit2) = _drive(
        b, sample, count, 5, _AXIOM_QUADS, seed)
    rel = _rel(v, np.array((swapped, zw1 * zw2, wy1 * wy2)))
    viols = {
        "symmetry": rel[0],
        "cocycle-zw": rel[1],
        "cocycle-wy": rel[2],
        "zero-locus": np.abs(zero),
        "unit-locus": np.maximum(np.abs(unit1 - 1.0), np.abs(unit2 - 1.0)),
    }
    floor = float(np.fmin.reduce(np.abs(v - 1.0), initial=np.inf))
    return _report("axioms", b, viols, _witness(sample, idx),
                   strictness_floor=floor)


def check_invariance(b, sample, count, seed=0, min_gap=DEFAULT_MIN_GAP):
    """Max violation of b(gx, gy, gz, gt) = b(x, y, z, t) over the generators.

    Evaluates tuple by tuple, as the moved points are not sample points.
    The one identity is "invariance"; its witness in `argmax` is (g, angles),
    the generator's signed index and the angles of the tuple.

    On a `representation_pair` the values at moved points come from
    equivariance, xi(g p) = rho(g) xi(p) and xi*(g p) = rho(g)^-T xi*(p),
    which leaves every pairing unchanged; there the check measures float
    error only, as symmetry and the cocycles of `check_axioms` do.  It
    carries content on evaluators that are not pairing quotients, such as
    the corrupted ones of the test suite.
    """
    if count < 1:
        raise DomainError(f"tuple count must be at least 1, got {count}")
    gens = sample.group
    rng = np.random.default_rng(seed)
    viol, gs, drawn = [], [], []
    for _ in range(count):
        pts = draw_points(sample, rng, 4, min_gap)
        g = int(rng.integers(1, gens.rank + 1)) * (1 if rng.random() < 0.5 else -1)
        moved = [translate_point(gens, Word.of(g), p) for p in pts]
        viol.append(_rel(b(*pts), b(*moved)))
        gs.append(g)
        drawn.append(pts)
    return _report("invariance", b, {"invariance": np.array(viol, float)},
                   lambda k: (gs[k], tuple(p.circle_coord for p in drawn[k])))


# -- periods, projective-line relations ---------------------------------------

def period(b, gens, w, y, y2=None):
    """log |b(g-, g y, g+, y)| for the element g of word w; y-independent.

    Evaluates at a second base point when given and insists the two values
    agree to PERIOD_TOL, which is the content of the definition.  The fixed
    points g+ and g- come from `gens.fixed_points`, solved once per word.
    """
    p_att, p_rep = gens.fixed_points(w)
    vals = []
    for base in (y,) if y2 is None else (y, y2):
        for fx in (p_att, p_rep):
            if circular_gap(base.circle_coord, fx.circle_coord) <= DEDUP_TOL:
                raise DomainError("base point collides with a fixed point")
        gy = translate_point(gens, w, base)
        vals.append(float(np.log(abs(b(p_rep, gy, p_att, base)))))
    if len(vals) == 2 and abs(vals[0] - vals[1]) > PERIOD_TOL:
        raise DomainError(
            f"period depends on base point: {vals[0]!r} vs {vals[1]!r}"
        )
    return vals[0]


# (f,v,e,u), (u,v,e,f) as positions in the drawn tuple (f, v, e, u)
_RELATION12_QUADS = ((0, 1, 2, 3), (3, 1, 2, 0))
# (f,v,e,u), (g,w,e,u), (f,w,e,u), (g,v,e,u) in the drawn (f, g, v, w, e, u)
_RELATION13_QUADS = ((0, 2, 4, 5), (1, 3, 4, 5), (0, 3, 4, 5), (1, 2, 4, 5))


def check_relation12(b, sample, count, seed=0):
    """Worst violation of 1 - b(f,v,e,u) = b(u,v,e,f) over seeded tuples."""
    idx, (fveu, uvef) = _drive(b, sample, count, 4, _RELATION12_QUADS, seed)
    viol = {"relation-affine": _rel(1.0 - fveu, uvef)}
    return _report("relation-affine", b, viol, _witness(sample, idx))


def check_relation13(b, sample, count, seed=0):
    """Worst violation of the 2x2 product identity
    (b(f,v,e,u)-1)(b(g,w,e,u)-1) = (b(f,w,e,u)-1)(b(g,v,e,u)-1)."""
    idx, (fv, gw, fw, gv) = _drive(b, sample, count, 6, _RELATION13_QUADS, seed)
    viol = _rel((fv - 1.0) * (gw - 1.0), (fw - 1.0) * (gv - 1.0))
    return _report("relation-product", b, {"relation-product": viol},
                   _witness(sample, idx))


def embed_from_cr(b, w, e, u, sample, count, seed=0):
    """Boundary embedding x -> b(x, w, e, u) realizing b as a classical
    cross ratio in the image coordinates.

    Returns the map and the report of its reproduction error on count seeded
    quadruples of the sample set.  That report fails where b breaks the
    product identity of `check_relation13`, as a curve's does for n > 2.
    """

    def fmap(p):
        if circular_gap(p.circle_coord, u.circle_coord) <= DEDUP_TOL:
            return np.inf
        return b(p, w, e, u)

    # w, e and u need not be sample points, so fmap is evaluated point by point
    idx, (v,) = _drive(b, sample, count, 4, ((0, 1, 2, 3),), seed)
    images = [classical_cr(*(fmap(sample.points[i]) for i in row))
              for row in idx.tolist()]
    viol = {"embedding-reproduction": _rel(np.array(images, float), v)}
    return fmap, _report("embedding-reproduction", b, viol, _witness(sample, idx))


# -- flow generated by a cross ratio ------------------------------------------

def flow_from_cr(b, x_minus, x_zero, x_plus, t):
    """The point x_t with b(x+, x0, x-, x_t) = e^t on the arc from x- to x+
    that contains x0, in either orientation.

    Searches in the chart of the classical cross ratio: with l0 = alpha l+
    + gamma l- on the unit lines, the classical b(x+, x0, x-, .) is exactly
    e^sigma at the line alpha e^sigma l+ + gamma l-, and every real sigma
    lies on the arc through x0.  Toward the end x+ (t > 0) or x- (t < 0)
    the search runs in s = |sigma| and puts e^-s on the other end's term,
    so nothing overflows and the small term keeps its digits.  A first
    probe at s = min(|t|, 1) and secant steps out bracket x_t; Illinois
    false position narrows the bracket to FLOW_TOL in angle, closed from
    both sides.  Every probe evaluates b.  For the Veronese cross ratio of
    Sym^(n-1) of a Fuchsian group log |b| = (n - 1) sigma is affine, so the
    first secant step lands on x_t: 3 or 4 evaluations (mean 3.55) on the
    test suite's 192 period flows at n = 3.  Needs an evaluator that accepts
    synthetic angle points; an eigen-sampled curve's evaluator raises
    DomainError at them.

    The result is only as accurate as the rounding of log |b| near x+
    allows, not FLOW_TOL: up to 3.0e-12 from the exact flow on the
    benchmark's veronese-3 period flows, and 5e-11 to 7e-10 with
    `veronese_pair(5)` on the triple (0, 2, 4) for t = 22..26, where the
    pairing <xi(x+), xi*(x_t)> is small.  A probe that collapses onto x-
    in angle, where b is 0 (exactly 0 for `classical_cr` of the lines, a
    ratio of 2x2 determinants), counts as past x_t.

    Reach, with `veronese_pair(n)`: toward x+ on the triple (0, 2, 4) the
    pairing <xi(x+), xi*(x_t)> shrinks like the distance to x+ to the power
    n - 1 and falls below PAIRING_TOL, so t >= 28 at n = 3 and t >= 27 at
    n = 5 raise "degenerate pairing".  Toward x- = 0, where angles keep
    their digits, t = -60 at n = 3 lands within 2e-13 of the closed form,
    and t = -70 at n = 2 and 3 within 1e-15.  Toward an x- off the axes, b
    stops at the rounding of the pairing <xi(x-), xi*(x_t)>, which is not
    exactly 0 where x_t collapses onto x- in angle.  On the triples
    (4, 2, 0) and (1, 5.5, 3), n = 2 lands within 9e-16 at t = -35 and
    raises "not bracketed" at t = -38 or -40, and n = 3 lands within 1.6e-9
    at t = -35 and raises at t = -40 or -45.  The search gives up as "not
    bracketed" at s = 700, near where e^-s leaves the normal doubles.  A
    non-finite t, and x-, x0, x+ that are not DEDUP_TOL apart, raise
    DomainError before b is evaluated.
    """
    if not np.isfinite(t):
        raise DomainError(f"flow time must be finite, got {float(t)!r}")
    a_minus, a_zero, a_plus = (p.circle_coord for p in (x_minus, x_zero, x_plus))
    if min(circular_gap(a_plus, a_minus), circular_gap(a_zero, a_plus),
           circular_gap(a_zero, a_minus)) <= DEDUP_TOL:
        raise DomainError("flow needs three distinct points x-, x0, x+")
    if t == 0.0:
        return BoundaryPoint.from_angle(a_zero)
    lp, l0, lm = x_plus.line, x_zero.line, x_minus.line
    d = _det2(lp, lm)
    # l0 = alpha l+ + gamma l- by Cramer; the end's term stays whole
    end, other = _det2(l0, lm) / d * lp, _det2(lp, l0) / d * lm
    if t < 0:
        end, other = other, end
    (ex, ey), (ox, oy) = end.tolist(), other.tolist()
    k = 2.0 * abs(ex * oy - ey * ox)   # |d angle / ds| = k e^-s / |line(s)|^2
    sign = 1.0 if t > 0 else -1.0
    reach = 700.0

    def angle(s):
        e = math.exp(-s)
        return 2.0 * (math.atan2(ey + e * oy, ex + e * ox) % math.pi)

    def inset(s, room):
        """The step in s that moves the point by FLOW_TOL / 4 in angle near
        s, but at most room / 4."""
        e = math.exp(-s)
        x, y = ex + e * ox, ey + e * oy
        return min(0.25 * FLOW_TOL * (x * x + y * y) / k / e, 0.25 * room)

    def f(s):
        phi = angle(s)
        v = abs(b(x_plus, x_zero, x_minus, BoundaryPoint.from_angle(phi)))
        # b can be exactly 0 at a probe that collapsed onto x- in angle:
        # log |b| is -inf there, which puts it past x_t when t < 0
        return sign * ((float(np.log(v)) if v else -math.inf) - t), phi

    # f(0) = -|t| at x0, as b(x+, x0, x-, x0) = 1, with no evaluation.  Each
    # secant step out runs through (0, f(0)), as near x_t the rounding of
    # log |b| would swamp a slope taken between close probes, and lands
    # FLOW_TOL / 4 past its root, so the bracket closes from that side.
    a, fa, pa, c = 0.0, -abs(t), a_zero, min(abs(t), 1.0)
    fc, pc = f(c)
    while fc < 0:
        if c >= reach:
            raise DomainError("flow target not bracketed within the sampled arc")
        nxt = min(c - fc * c / (fc + abs(t)) if fc > -abs(t) else 2.0 * c, reach)
        a, fa, pa, c = c, fc, pc, min(nxt + inset(nxt, nxt), reach)
        fc, pc = f(c)
    side = 0  # which end the last probe replaced: -1 for a, +1 for c
    while circular_gap(pa, pc) >= FLOW_TOL:
        s = (a * fc - c * fa) / (fc - fa)
        if math.isnan(s):  # b is 0 or NaN at an end
            s = 0.5 * (a + c)
        # keep probes FLOW_TOL / 4 (in angle) inside the bracket, so that it
        # closes from both sides once the secant sits on x_t; this also
        # holds a secant point that rounding put just past an end
        h = inset(s, c - a)
        s = min(max(s, a + h), c - h)
        fs, ps = f(s)
        if fs < 0:
            a, fa, pa = s, fs, ps
            if side < 0:  # Illinois: c kept twice, halve its weight
                fc *= 0.5
            side = -1
        else:
            c, fc, pc = s, fs, ps
            if side > 0:
                fa *= 0.5
            side = 1
    return BoundaryPoint.from_angle(angle(0.5 * (a + c)))
