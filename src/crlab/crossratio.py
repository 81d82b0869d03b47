"""Cross-ratio evaluators on the boundary circle and their functional checks.

A cross ratio is a four-point function b(x, y, z, t) defined for x != t,
y != z.  The evaluators here are the classical one on RP^1 and pairing
quotients of a limit curve and its dual.  Otal's horoball-length
combination (`otal_cr_hyperbolic`) is computed on angles, as an independent
form of the classical one.

A curve pair is two separate maps on the boundary, as in the paper: the
limit curve xi into P(R^n) and the dual curve xi* into P(R^n*).  Each side
is computed and cached on its own, so a value of one never waits on, or
fails with, the other.

Every evaluator takes four boundary points, and also rows of indices into a
SampleSet (`CrossRatioFn.on_indices`).  On a sample set the pairing cross
ratio of a curve pair is a gather from two N x n arrays, the pair's
`table(sample)` of xi and xi* at every sample point, built once per sample
set; a row the gather cannot evaluate goes to `curve_cr`, which raises its
error.  Other evaluators loop over the rows.  The sample-set checks share one
routine (`_drive`): it draws all seeded index tuples first, evaluates b on
every quadruple they need in one batched call, and reduces the identities
with numpy into one report schema.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .projlin import (
    SpectrumError, dominant_line, normalize_rep, veronese, veronese_dual,
)
from .surfgrp import (
    BoundaryPoint, DEDUP_TOL, GeneratorSet, GroupDataError, TWO_PI, Word,
    circular_gap, conjugate_split, evaluate, line_of_angle, translate_point,
)

PAIRING_TOL = 1e-12      # normalized pairing below this counts as degenerate
DEFAULT_MIN_GAP = 1e-3   # angular floor for randomly drawn tuples
DRAW_TRIES = 400         # rejected draws before a tuple draw gives up
FLOW_TOL = 1e-12         # width of the flow's final bracket, in angle
PERIOD_TOL = 1e-8        # largest gap between a period at two base points
EMBED_PRE_TOL = 1e-6     # product-identity violation `embed_from_cr` accepts


class DomainError(ValueError):
    """A quadruple outside the x != t, y != z domain, or a degenerate pairing."""


@dataclass(eq=False)
class CrossRatioFn:
    """Evaluator on quadruples of boundary points plus provenance label.

    `indexed(sample, idx)` evaluates b on the rows (x, y, z, t) of an (m, 4)
    array of sample indices; without it, `on_indices` loops the evaluator.
    """

    evaluator: callable
    label: str
    indexed: callable = None

    def __call__(self, x, y, z, t):
        return self.evaluator(x, y, z, t)

    def on_indices(self, sample, idx):
        """b on each row of an (m, 4) array of indices into sample.points.

        Raises what evaluating the rows one by one, in order, would raise
        first.
        """
        if self.indexed is not None:
            return self.indexed(sample, idx)
        pts = sample.points
        return np.array([self.evaluator(pts[x], pts[y], pts[z], pts[t])
                         for x, y, z, t in idx.tolist()], float)


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


def classical_cr_fn():
    """Classical cross ratio as a boundary-point evaluator (via line pairs)."""

    def ev(x, y, z, t):
        return classical_cr(x.line, y.line, z.line, t.line)

    return CrossRatioFn(evaluator=ev, label="classical")


# -- curves and their pairing cross ratio ------------------------------------

@dataclass(eq=False)
class CurvePair:
    """A curve in P(R^n) and a dual curve in P(R^n*) over the boundary circle."""

    n: int
    xi_fn: callable          # BoundaryPoint -> unit vector
    xistar_fn: callable      # BoundaryPoint -> unit covector
    label: str
    _tables: dict = field(default_factory=dict, init=False, repr=False)

    def xi(self, p):
        return self.xi_fn(p)

    def xistar(self, p):
        return self.xistar_fn(p)

    def table(self, sample):
        """(xi, xi*) at every point of a SampleSet: two (N, n) arrays.

        Built on first use.  A value that raises DomainError, GroupDataError
        or SpectrumError is a NaN row; `curve_cr` raises it again for a
        tuple that needs it.
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
            self._tables[sample] = got
        return got


def veronese_pair(n):
    """Closed-form moment curve with its osculating dual; evaluable anywhere.

    The last few values of each are kept, so a flow computes its fixed
    points x+, x0 and x- once rather than at every evaluation of b.  The
    keys are the BoundaryPoints themselves, hashed by identity: the cache
    holds them, so no id is reused while an entry lives, and a point is
    frozen and nothing writes to its line, so a kept value cannot go stale.
    """

    @lru_cache(maxsize=8)
    def xi(p):
        return veronese(n, p.line)

    @lru_cache(maxsize=8)
    def xistar(p):
        return veronese_dual(n, p.line)

    return CurvePair(n=n, xi_fn=xi, xistar_fn=xistar, label=f"veronese-{n}")


def representation_pair(gens, rep, n):
    """Limit curve and dual curve sampled from eigenlines of word matrices.

    A point's word is split as v c v^-1 with c cyclically reduced.  At an
    attracting fixed point of c the curve value is the dominant eigenline
    of rho(c) and the dual value the dominant left eigenline of rho(c^-1);
    repelling points swap the roles.  The value at the point v . p is then
    moved by equivariance: xi(v p) = rho(v) xi(p) and
    xi*(v p) = rho(v)^-T xi*(p).  Eigen-data of rho(v c v^-1) itself is
    never taken: that product can be far too ill-conditioned.  xi and xi*
    are computed apart, each cached per (word, sign), so a point costs one
    eigenline per side asked for.  `rep` has one n x n image per generator
    of `gens`, with finite entries, checked here.
    """
    mats = tuple(np.asarray(m, float) for m in rep)
    if any(m.shape != (n, n) for m in mats):
        raise GroupDataError(f"representation images must be {n} x {n} matrices")
    rep = GeneratorSet(mats)
    if rep.rank != gens.rank:
        raise GroupDataError("representation must supply one matrix per generator")

    def side(dual):
        cache = {}

        def line(p):
            if p.word is None:
                raise DomainError("eigen-sampled curve needs a worded boundary point")
            return _limit_line(cache, rep, dual, p.word, p.sign == "attracting")

        return line

    return CurvePair(n=n, xi_fn=side(False), xistar_fn=side(True),
                     label=f"rep-{n}")


def _limit_line(cache, rep, dual, word, attracting):
    """xi (or xi* when dual) of `representation_pair` at a fixed point of
    word, cached under (word, attracting).

    Module-level rather than a closure calling itself, which would be a
    reference cycle that keeps the cache alive after its pair is dropped.
    """
    key = (word.letters, attracting)
    got = cache.get(key)
    if got is None:
        # word products of inverses, not numerical inverses: word images
        # can be far too ill-conditioned to invert in floats
        if word.is_cyclically_reduced():
            m = evaluate(rep, word if attracting != dual else word.inverse())
            got = dominant_line(m.T if dual else m)
        else:
            v, c = conjugate_split(word)
            line = _limit_line(cache, rep, dual, c, attracting)
            g = evaluate(rep, v.inverse()).T if dual else evaluate(rep, v)
            got = normalize_rep(g @ line)
        cache[key] = got
    return got


def curve_cr(pair, q):
    """Pairing-quotient cross ratio of a curve pair on q = (x, y, z, t).

    Independent of representative scalings by construction; degenerate
    denominators raise with the offending pairing named.
    """
    x, y, z, t = q
    vx, vz = pair.xi(x), pair.xi(z)
    cy, ct = pair.xistar(y), pair.xistar(t)
    num = (vx @ cy) * (vz @ ct)
    dzy = vz @ cy
    dxt = vx @ ct
    if abs(dzy) <= PAIRING_TOL:
        raise DomainError("degenerate pairing <xi(z), xi*(y)>")
    if abs(dxt) <= PAIRING_TOL:
        raise DomainError("degenerate pairing <xi(x), xi*(t)>")
    return num / (dzy * dxt)


def _table_cr(pair, sample, idx):
    """`curve_cr` on each row (x, y, z, t) of sample indices, bit for bit.

    A gather from `pair.table(sample)`.  Raises what `curve_cr` on the rows
    one by one would raise first: the first row with a degenerate pairing,
    or a NaN one from a value that raised, is handed to `curve_cr` itself.
    """
    xi, xistar = pair.table(sample)
    x, y, z, t = idx.T
    vx, vz = xi.take(x, axis=0), xi.take(z, axis=0)
    cy, ct = xistar.take(y, axis=0), xistar.take(t, axis=0)
    dzy = np.vecdot(vz, cy)
    dxt = np.vecdot(vx, ct)
    suspect = ~((np.abs(dzy) > PAIRING_TOL) & (np.abs(dxt) > PAIRING_TOL))
    for r in np.flatnonzero(suspect):
        curve_cr(pair, [sample.points[i] for i in idx[r]])
    num = np.vecdot(vx, cy) * np.vecdot(vz, ct)
    return num / (dzy * dxt)


def curve_cr_fn(pair):
    """`curve_cr` of a pair; on sample indices it gathers from `pair.table`."""

    def ev(x, y, z, t):
        return curve_cr(pair, (x, y, z, t))

    return CrossRatioFn(evaluator=ev, label=pair.label,
                        indexed=lambda sample, idx: _table_cr(pair, sample, idx))


_DUAL = [1, 0, 3, 2]  # (x, y, z, t) -> (y, x, t, z)


def dual_cr(b):
    """The dual cross ratio b*(x,y,z,t) = b(y,x,t,z); it has the same periods."""
    return CrossRatioFn(
        evaluator=lambda x, y, z, t: b(y, x, t, z),
        label=f"dual({b.label})",
        indexed=lambda sample, idx: b.on_indices(sample, idx[:, _DUAL]),
    )


# -- seeded tuple streams and the shared check loop ---------------------------

def draw_indices(sample, rng, k, count, min_gap=DEFAULT_MIN_GAP):
    """count rows of k distinct indices into sample.points whose points lie
    pairwise more than min_gap apart on the circle.

    Each candidate is the row `rng.choice(n, size=k, replace=False)` would
    return, drawn from the same stream, and kept or rejected on its own.
    That call runs Floyd's algorithm, k bounded draws in [0, m] for
    m = n-k .. n-1 where step s takes n-k+s if its draw is already taken,
    and then shuffles the row with k-1 bounded draws in [0, m] for
    m = k-1 .. 1.  Here a whole batch of candidates comes from one
    `rng.integers` call with those bounds, which consumes the stream
    exactly as the choice calls would, and the rows are built column by
    column over the batch: each Floyd step fills one column, each shuffle
    step swaps one column with the drawn position of every row.  numpy
    shuffles a tail instead when n > 10,000 and k > n // 50; there the rows
    differ from `rng.choice`'s, though the draw is still uniform.

    The gaps of a batch are tested at once.  A batch holds no more
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
    angles = sample.angles()
    r = np.arange(k)
    i, j = np.nonzero(r[:, None] < r)  # np.triu_indices(k, 1), at a fifth the cost
    highs = np.array([*range(n - k, n), *range(k - 1, 0, -1)])
    out = np.empty((count, k), dtype=np.intp)
    filled, run = 0, 0  # run: rejections since the last kept candidate
    while filled < count:
        size = (min(count - filled, DRAW_TRIES - run), 2 * k - 1)
        u = rng.integers(0, highs, size=size, endpoint=True)
        cand = np.empty((len(u), k), dtype=np.intp)
        for s in range(k):  # Floyd's step s draws in [0, n-k+s]
            taken = (cand[:, :s] == u[:, s, None]).any(axis=1)
            cand[:, s] = np.where(taken, n - k + s, u[:, s])
        rows = np.arange(len(u))
        for m in range(k - 1, 0, -1):  # the shuffle, as numpy runs it
            p = u[:, 2 * k - 1 - m]
            cand[:, m], cand[rows, p] = cand[rows, p], cand[:, m].copy()
        a = angles.take(cand)
        d = np.abs(a[:, i] - a[:, j]) % TWO_PI  # circular_gap, elementwise
        kept = np.flatnonzero((np.minimum(d, TWO_PI - d) > min_gap).all(axis=1))
        out[filled:filled + len(kept)] = cand[kept]
        filled += len(kept)
        run = len(cand) - 1 - kept[-1] if len(kept) else run + len(cand)
        if run == DRAW_TRIES:
            raise DomainError("could not draw a separated tuple; lower min_gap")
    return out


def draw_points(sample, rng, k, min_gap=DEFAULT_MIN_GAP):
    """k distinct sample points with pairwise circular gap above min_gap."""
    row = draw_indices(sample, rng, k, 1, min_gap)[0]
    return [sample.points[i] for i in row]


def _drive(b, sample, count, k, quads, seed, min_gap):
    """Draw count seeded k-tuples of sample indices and evaluate b on them.

    `quads` holds, as positions into a tuple, each quadruple b is needed on.
    All of them are evaluated in one batched call, in the order a loop over
    the tuples meets them, so a failure is the one that loop would raise.
    Returns the (count, k) indices and one array of count values per row
    of `quads`.
    """
    idx = draw_indices(sample, np.random.default_rng(seed), k, count, min_gap)
    vals = b.on_indices(sample, idx.take(quads, axis=1).reshape(-1, 4))
    return idx, vals.reshape(count, len(quads)).T


def _rel(a, b):
    return np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))


def _worst(viol):
    """The largest violation and the index of the first tuple with it.

    As a running maximum from 0.0 updated on a strict > finds them: (0.0,
    None) when no violation is above 0.  A NaN violation counts as inf, so
    an identity that could not be evaluated fails, and the witness is then
    the first tuple that gave NaN or inf.
    """
    v = np.concatenate(([0.0], np.where(np.isnan(viol), np.inf,
                                        np.where(viol > 0.0, viol, 0.0))))
    k = int(np.argmax(v))
    return float(v[k]), (k - 1 if k else None)


def _angles(sample, row):
    return tuple(sample.points[i].circle_coord for i in row)


def _report(check, b, count, tol, max_violation, argmax, **fields):
    """The report of every check; `fields` are the check's own entries."""
    return {"check": check, "label": b.label, "tuples": count, **fields,
            "max_violation": max_violation, "argmax": argmax,
            "passed": bool(max_violation < tol), "tol": tol}


def _identity_report(check, b, sample, idx, viol, tol):
    """Report of one identity; the witness is the angles of its tuple."""
    worst, k = _worst(viol)
    return _report(check, b, len(idx), tol, worst,
                   None if k is None else _angles(sample, idx[k]))


# positions in the drawn tuple (x, y, z, t, w) of the quadruples b is
# evaluated on: (x,y,z,t), then the swapped pairs, the two cocycle
# factorizations through w, the zero locus and the two unit loci
_AXIOM_QUADS = np.array([
    (0, 1, 2, 3), (2, 3, 0, 1),
    (0, 1, 2, 4), (0, 4, 2, 3),
    (0, 1, 4, 3), (4, 1, 2, 3),
    (0, 0, 2, 3), (0, 1, 0, 3), (0, 1, 2, 1),
])


def check_axioms(b, sample, count, tol=1e-9, seed=0, min_gap=DEFAULT_MIN_GAP):
    """Worst violations of the defining identities over seeded tuples.

    Checks symmetry under swapping the two pairs, the zero locus, both
    multiplicative cocycle rules, the unit locus, and reports the observed
    strictness floor min |b - 1| on separated tuples.  Each axiom's witness
    in `argmax` is the (x, y, z, t) angles of the first tuple reaching its
    worst violation, or None when no violation is above 0.

    For a pairing cross ratio such as `curve_cr_fn`'s, symmetry, both
    cocycles and the unit locus hold identically in the pairings, so on
    those evaluators they measure float error only; the zero locus, xi(x)
    in the kernel of xi*(x), carries the content.  The whole battery tests
    evaluators that are not pairing quotients, such as `classical_cr_fn` or
    corrupted ones.
    """
    idx, (v, swapped, zw1, zw2, wy1, wy2, zero, unit1, unit2) = _drive(
        b, sample, count, 5, _AXIOM_QUADS, seed, min_gap)
    viols = {
        "symmetry": _rel(v, swapped),
        "cocycle-zw": _rel(v, zw1 * zw2),
        "cocycle-wy": _rel(v, wy1 * wy2),
        "zero-locus": np.abs(zero),
        "unit-locus": np.maximum(np.abs(unit1 - 1.0), np.abs(unit2 - 1.0)),
    }
    worst, argmax = {}, {}
    for name, viol in viols.items():
        worst[name], k = _worst(viol)
        argmax[name] = None if k is None else _angles(sample, idx[k, :4])
    floor = float(np.fmin.reduce(np.abs(v - 1.0), initial=np.inf))
    return _report("axioms", b, count, tol, max(worst.values()), argmax,
                   per_axiom=worst, strictness_floor=floor)


def check_invariance(b, sample, count, tol=1e-9, seed=0, min_gap=DEFAULT_MIN_GAP):
    """Max violation of b(gx, gy, gz, gt) = b(x, y, z, t) over the generators.

    Evaluates tuple by tuple, as the moved points are not sample points; the
    witness is the generator and the angles of the tuple.

    On a `representation_pair` the values at moved points come from
    equivariance, xi(g p) = rho(g) xi(p) and xi*(g p) = rho(g)^-T xi*(p),
    which leaves every pairing unchanged; there the check measures float
    error only, as symmetry and the cocycles of `check_axioms` do.  It
    carries content on evaluators that are not pairing quotients, such as
    `classical_cr_fn` or corrupted ones.
    """
    if count < 1:
        raise DomainError(f"tuple count must be at least 1, got {count}")
    gens = sample.group
    rng = np.random.default_rng(seed)
    viol, witness = [], []
    for _ in range(count):
        pts = draw_points(sample, rng, 4, min_gap)
        g = int(rng.integers(1, gens.rank + 1)) * (1 if rng.random() < 0.5 else -1)
        moved = [translate_point(gens, Word.of(g), p) for p in pts]
        viol.append(_rel(b(*pts), b(*moved)))
        witness.append((g, tuple(p.circle_coord for p in pts)))
    worst, k = _worst(np.array(viol, float))
    return _report("invariance", b, count, tol, worst,
                   None if k is None else witness[k])


# -- periods, triple ratios, projective-line relations ------------------------

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


def triple_ratio(b, x, y, z, t, t2=None, tol=1e-9):
    """b(x,y,z,t) b(z,x,y,t) b(y,z,x,t); checked independent of t."""

    def tr(ref):
        return b(x, y, z, ref) * b(z, x, y, ref) * b(y, z, x, ref)

    v = tr(t)
    if t2 is not None:
        v2 = tr(t2)
        if _rel(v, v2) > tol:
            raise DomainError(f"triple ratio depends on t: {v!r} vs {v2!r}")
    return v


# (f,v,e,u), (u,v,e,f) as positions in the drawn tuple (f, v, e, u)
_RELATION12_QUADS = np.array([(0, 1, 2, 3), (3, 1, 2, 0)])
# (f,v,e,u), (g,w,e,u), (f,w,e,u), (g,v,e,u) in the drawn (f, g, v, w, e, u)
_RELATION13_QUADS = np.array([(0, 2, 4, 5), (1, 3, 4, 5), (0, 3, 4, 5), (1, 2, 4, 5)])


def check_relation12(b, sample, count, tol=1e-9, seed=0, min_gap=DEFAULT_MIN_GAP):
    """Worst violation of 1 - b(f,v,e,u) = b(u,v,e,f) over seeded tuples."""
    idx, (fveu, uvef) = _drive(b, sample, count, 4, _RELATION12_QUADS, seed,
                               min_gap)
    return _identity_report("relation-affine", b, sample, idx,
                            _rel(1.0 - fveu, uvef), tol)


def check_relation13(b, sample, count, tol=1e-9, seed=0, min_gap=DEFAULT_MIN_GAP):
    """Worst violation of the 2x2 product identity
    (b(f,v,e,u)-1)(b(g,w,e,u)-1) = (b(f,w,e,u)-1)(b(g,v,e,u)-1)."""
    idx, (fv, gw, fw, gv) = _drive(b, sample, count, 6, _RELATION13_QUADS, seed,
                                   min_gap)
    viol = _rel((fv - 1.0) * (gw - 1.0), (fw - 1.0) * (gv - 1.0))
    return _identity_report("relation-product", b, sample, idx, viol, tol)


def embed_from_cr(b, w, e, u, sample, count=50, seed=0, tol=1e-9):
    """Boundary embedding x -> b(x, w, e, u) realizing b as a classical
    cross ratio in the image coordinates.

    Requires the product identity to hold on the sample set, up to
    EMBED_PRE_TOL; the reproduction error is verified on seeded quadruples
    of it.  Returns the embedding map and that report.
    """
    pre = check_relation13(b, sample, max(10, count // 5), seed=seed)
    if pre["max_violation"] > EMBED_PRE_TOL:
        raise DomainError(
            f"embedding precondition fails: product-identity violation "
            f"{pre['max_violation']:.3e}"
        )

    def fmap(p):
        if circular_gap(p.circle_coord, u.circle_coord) <= DEDUP_TOL:
            return np.inf
        return b(p, w, e, u)

    # w, e and u need not be sample points, so fmap is evaluated point by point
    idx, (v,) = _drive(b, sample, count, 4, [(0, 1, 2, 3)], seed + 1,
                       DEFAULT_MIN_GAP)
    images = [classical_cr(*(fmap(sample.points[i]) for i in row))
              for row in idx.tolist()]
    return fmap, _identity_report("embedding-reproduction", b, sample, idx,
                                  _rel(np.array(images, float), v), tol)


# -- constant-curvature length cross ratio ------------------------------------

def otal_cr_hyperbolic(angles, horoballs):
    """Alternating horoball-truncated length combination of an ideal square.

    Returns sign(classical) * exp(L/2) where L = l12 - l23 + l34 - l41 and
    l_ij is the distance between the horoballs at corners i and j; the
    result is independent of the horoball sizes and has the modulus of the
    classical cross ratio of the four boundary points.

    Everything is in the unit disk.  The horoball tangent at angle a with
    Euclidean diameter h lies log((2 - h) / h) from the center, and two
    horoballs at a and b are apart by their two depths plus
    2 log |sin((a - b) / 2)|, negative when they overlap.  The overlap test
    reads exp(l_ij), which is 0 at a coincident pair, so log(0) is never
    taken; a pair whose length is below -1e-12 raises DomainError.
    """
    if len(angles) != 4 or len(horoballs) != 4:
        raise ValueError("need four boundary angles and four horoball sizes")
    if not all(0.0 < h < 1.0 for h in horoballs):
        raise ValueError("horoball parameter must lie in (0, 1)")
    size = [(2.0 - h) / h for h in horoballs]  # exp of each horoball's depth
    lengths = {}
    for i in range(4):
        for j in range(i + 1, 4):
            e = np.sin(0.5 * (angles[i] - angles[j])) ** 2 * size[i] * size[j]
            if e < 1.0 - 1e-12:
                raise DomainError(f"horoballs {i} and {j} overlap")
            lengths[i, j] = float(np.log(e))
    total = lengths[0, 1] - lengths[1, 2] + lengths[2, 3] - lengths[0, 3]
    eps = np.sign(classical_cr(*(line_of_angle(a) for a in angles)))
    return float(eps * np.exp(0.5 * total))


# -- flow generated by a cross ratio ------------------------------------------

def _unwrap_arc(a_minus, a_zero, a_plus):
    """Coordinates of x-, x0, x+ along the arc from x- to x+ that holds x0.

    They increase on a counter-clockwise arc and decrease on a clockwise
    one.
    """
    s = 1.0 if (a_zero - a_minus) % TWO_PI < (a_plus - a_minus) % TWO_PI else -1.0
    lo, mid, hi = s * a_minus, s * a_zero, s * a_plus
    mid = mid if mid > lo else mid + TWO_PI
    hi = hi if hi > mid else hi + TWO_PI
    return s * lo, s * mid, s * hi


def flow_from_cr(b, x_minus, x_zero, x_plus, t):
    """The point x_t with b(x+, x0, x-, x_t) = e^t on the arc from x- to x+
    that contains x0, in either orientation.

    Searches in s, where phi(s) = end - (end - x0) 2^-s runs from x0 toward
    end = x+ (t > 0) or x- (t < 0): near the endpoint log |b| is close to
    linear in s.  Secant steps, each at most doubling s, bracket x_t within
    2^-119 of the arc; Illinois false position then narrows the bracket to
    FLOW_TOL in angle.  About ten evaluations of b in all.  Needs an
    evaluator that accepts synthetic angle points; an eigen-sampled curve's
    evaluator raises DomainError at them.

    A curve cross ratio stops the search well before 2^-119.  Toward x+
    the pairing <xi(x), xi*(t)> shrinks like the distance to x+ to the
    power n - 1 and falls below PAIRING_TOL: with `veronese_pair(3)` or
    `veronese_pair(5)`, t above about 26-27 raises DomainError.  Toward x-
    log |b| flattens at its rounding floor near -39, so t below about -38
    raises "not bracketed".  A non-finite t raises DomainError at once.
    """
    if not np.isfinite(t):
        raise DomainError(f"flow time must be finite, got {t!r}")
    lo, mid, hi = _unwrap_arc(
        x_minus.circle_coord, x_zero.circle_coord, x_plus.circle_coord
    )
    if t == 0.0:
        return BoundaryPoint.from_angle(mid % TWO_PI)
    end = hi if t > 0 else lo
    sign = 1.0 if t > 0 else -1.0
    speed = abs(end - mid) * np.log(2.0)   # |dphi/ds| at s = 0

    def phi(s):
        return end - (end - mid) * 2.0 ** -s

    def f(s):
        pt = BoundaryPoint.from_angle(phi(s) % TWO_PI)
        return sign * (float(np.log(abs(b(x_plus, x_zero, x_minus, pt)))) - t)

    # f(0) = -|t|, as b(x+, x0, x-, x0) = 1.  Each probe lands a quarter
    # unit of s past the secant root, so it overshoots x_t by little: closer
    # to the endpoint b itself may raise DomainError.
    a, fa, c = 0.0, -abs(t), 1.0
    while (fc := f(c)) < 0:
        if c >= 119.0:
            raise DomainError("flow target not bracketed within the sampled arc")
        nxt = c - fc * (c - a) / (fc - fa) + 0.25 if fc > fa else 2.0 * c
        a, fa, c = c, fc, min(nxt, 2.0 * c, 119.0)
    side = 0  # which end the last probe replaced: -1 for a, +1 for c
    while abs(phi(c) - phi(a)) >= FLOW_TOL:
        s = (a * fc - c * fa) / (fc - fa)
        if not a <= s <= c:  # NaN where b is 0 or NaN at an end
            s = 0.5 * (a + c)
        # keep probes FLOW_TOL / 4 (in angle) inside the bracket, so that it
        # closes from both sides once the secant sits on x_t
        h = min(0.25 * FLOW_TOL * 2.0 ** c / speed, 0.25 * (c - a))
        s = min(max(s, a + h), c - h)
        fs = f(s)
        if fs < 0:
            a, fa = s, fs
            if side < 0:  # Illinois: c kept twice, halve its weight
                fc *= 0.5
            side = -1
        else:
            c, fc = s, fs
            if side > 0:
                fa *= 0.5
            side = 1
    return BoundaryPoint.from_angle(0.5 * (phi(a) + phi(c)) % TWO_PI)
