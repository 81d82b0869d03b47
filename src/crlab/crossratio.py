"""Cross-ratio evaluators on the boundary circle and their functional checks.

A cross ratio is a four-point function b(x, y, z, t) defined for x != t,
y != z.  The evaluators here come from three sources: the classical one on
RP^1, pairing quotients of a limit curve and its dual, and reconstructed
coordinate curves.

Every evaluator takes four boundary points, and also rows of indices into a
SampleSet (`CrossRatioFn.on_indices`).  On a sample set the pairing cross
ratio of a curve pair is a gather from two N x n arrays, the pair's
`table(sample)` of xi and xi* at every sample point, built once per sample
set; other evaluators loop over the rows.  The sample-set checks share one
routine (`_drive`): it draws all seeded index tuples first, evaluates b on
every quadruple they need in one batched call, and reduces the identities
with numpy into one report schema.
"""

from dataclasses import dataclass, field

import numpy as np

from .projlin import normalize_rep, veronese, veronese_dual
from .surfgrp import (
    BoundaryPoint, DEDUP_TOL, GeneratorSet, GroupDataError, TWO_PI, Word,
    circular_gap, evaluate, fixed_points_2x2, translate_point,
)

PAIRING_TOL = 1e-12      # normalized pairing below this counts as degenerate
DEFAULT_MIN_GAP = 1e-3   # angular floor for randomly drawn tuples


class DomainError(ValueError):
    """Quadruple outside the x != t, y != z domain, or degenerate pairing."""


@dataclass(frozen=True, eq=False)
class Quadruple:
    x: BoundaryPoint
    y: BoundaryPoint
    z: BoundaryPoint
    t: BoundaryPoint

    def __post_init__(self):
        if circular_gap(self.x.circle_coord, self.t.circle_coord) <= DEDUP_TOL:
            raise DomainError("quadruple needs x != t")
        if circular_gap(self.y.circle_coord, self.z.circle_coord) <= DEDUP_TOL:
            raise DomainError("quadruple needs y != z")

    def points(self):
        return (self.x, self.y, self.z, self.t)

    def angles(self):
        return tuple(p.circle_coord for p in self.points())


@dataclass(eq=False)
class CrossRatioFn:
    """Evaluator on quadruples of boundary points plus provenance label.

    `indexed(sample, idx)` evaluates b on the rows (x, y, z, t) of an (m, 4)
    array of sample indices; without it, `on_indices` loops the evaluator.
    """

    evaluator: callable
    label: str
    angle_evaluable: bool = False
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

    def on_quadruple(self, q):
        return self.evaluator(*q.points())

    def at_angles(self, ax, ay, az, at):
        if not self.angle_evaluable:
            raise DomainError(f"{self.label} cannot evaluate at raw angles")
        pts = [BoundaryPoint.from_angle(a) for a in (ax, ay, az, at)]
        return self.evaluator(*pts)


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
    scale = max(
        np.linalg.norm(hx) * np.linalg.norm(ht),
        np.linalg.norm(hz) * np.linalg.norm(hy),
    )
    if abs(d1) <= PAIRING_TOL * scale or abs(d2) <= PAIRING_TOL * scale:
        raise DomainError("classical cross ratio needs x != t and y != z")
    return num / (d1 * d2)


def classical_cr_fn():
    """Classical cross ratio as a boundary-point evaluator (via line pairs)."""

    def ev(x, y, z, t):
        return classical_cr(x.line, y.line, z.line, t.line)

    return CrossRatioFn(evaluator=ev, label="classical", angle_evaluable=True)


# -- curves and their pairing cross ratio ------------------------------------

@dataclass(eq=False)
class CurvePair:
    """A curve in P(R^n) and a dual curve in P(R^n*) over the boundary circle."""

    n: int
    mode: str                # "veronese-closed-form" | "eigen-sampled" | ...
    xi_fn: callable          # BoundaryPoint -> unit vector
    xistar_fn: callable      # BoundaryPoint -> unit covector
    label: str = ""
    angle_evaluable: bool = False
    _tables: dict = field(default_factory=dict, init=False, repr=False)

    def xi(self, p):
        return self.xi_fn(p)

    def xistar(self, p):
        return self.xistar_fn(p)

    def table(self, sample):
        """xi and xi* at every point of a SampleSet, built on first use."""
        got = self._tables.get(sample)
        if got is None:
            got = self._tables[sample] = CurveTable.stack(self, sample.points)
        return got


@dataclass(frozen=True, eq=False)
class CurveTable:
    """A curve pair stacked over the points of one sample set.

    Row i of `xi` and `xistar` is the pair's value at point i.  A value that
    raised is a NaN row, and its exception is kept in `xi_errors` or
    `xistar_errors` under i, to be raised again by a tuple that needs it.
    """

    xi: np.ndarray           # (N, n)
    xistar: np.ndarray       # (N, n)
    xi_errors: dict
    xistar_errors: dict

    @staticmethod
    def stack(pair, points):
        arrays = (np.full((len(points), pair.n), np.nan),
                  np.full((len(points), pair.n), np.nan))
        errors = ({}, {})
        for i, p in enumerate(points):
            for fn, arr, errs in zip((pair.xi, pair.xistar), arrays, errors):
                try:
                    arr[i] = fn(p)
                except ValueError as exc:
                    errs[i] = exc.with_traceback(None)
        return CurveTable(*arrays, *errors)

    def curve_cr(self, idx):
        """`curve_cr` on each row (x, y, z, t) of sample indices, bit for bit.

        Raises what `curve_cr` on the rows one by one would raise first.
        """
        x, y, z, t = idx.T
        vx, vz = self.xi[x], self.xi[z]
        cy, ct = self.xistar[y], self.xistar[t]
        dzy = np.vecdot(vz, cy)
        dxt = np.vecdot(vx, ct)
        # degenerate, or NaN from a value that raised
        suspect = ~((np.abs(dzy) > PAIRING_TOL) & (np.abs(dxt) > PAIRING_TOL))
        for r in np.flatnonzero(suspect):
            for errs, i in ((self.xi_errors, x[r]), (self.xi_errors, z[r]),
                            (self.xistar_errors, y[r]), (self.xistar_errors, t[r])):
                if i in errs:
                    raise errs[i].with_traceback(None)
            _require_pairings(dzy[r], dxt[r])
        num = np.vecdot(vx, cy) * np.vecdot(vz, ct)
        return num / (dzy * dxt)


def veronese_pair(n):
    """Closed-form moment curve with its osculating dual; evaluable anywhere."""

    def xi(p):
        return veronese(n, p.line).rep

    def xistar(p):
        return veronese_dual(n, p.line).cov

    return CurvePair(n=n, mode="veronese-closed-form", xi_fn=xi,
                     xistar_fn=xistar, label=f"veronese-{n}",
                     angle_evaluable=True)


def _dominant_vector(m):
    w, v = np.linalg.eig(m)
    k = int(np.argmax(np.abs(w)))
    if abs(w[k].imag) > 1e-9 * abs(w[k]):
        raise GroupDataError("dominant eigenvalue is not real")
    return normalize_rep(v[:, k].real)


def representation_pair(gens, rep, n, label=""):
    """Limit curve sampled from eigen-data of word matrices.

    At an attracting fixed point the curve value is the dominant eigenline
    and the dual value the dominant left eigenline of the inverse; repelling
    points swap the roles.  Values are cached per (word, sign).
    """
    rep = GeneratorSet(tuple(np.asarray(m, float) for m in rep), gens.kind)
    cache = {}

    def data(p):
        if p.word is None:
            raise DomainError("eigen-sampled curve needs a worded boundary point")
        key = p.key()
        got = cache.get(key)
        if got is None:
            # the inverse word product, not a numerical inverse: word images
            # can be far too ill-conditioned to invert in floats
            m = evaluate(gens, p.word, rep)
            mi = evaluate(gens, p.word.inverse(), rep)
            if p.sign == "attracting":
                got = (_dominant_vector(m), _dominant_vector(mi.T))
            else:
                got = (_dominant_vector(mi), _dominant_vector(m.T))
            cache[key] = got
        return got

    return CurvePair(
        n=n, mode="eigen-sampled",
        xi_fn=lambda p: data(p)[0],
        xistar_fn=lambda p: data(p)[1],
        label=label or f"rep-{n}",
    )


def curve_cr(pair, q):
    """Pairing-quotient cross ratio of a curve pair on a quadruple.

    Independent of representative scalings by construction; degenerate
    denominators raise with the offending pairing named.
    """
    x, y, z, t = q.points() if isinstance(q, Quadruple) else q
    vx, vz = pair.xi(x), pair.xi(z)
    cy, ct = pair.xistar(y), pair.xistar(t)
    num = (vx @ cy) * (vz @ ct)
    dzy = vz @ cy
    dxt = vx @ ct
    _require_pairings(dzy, dxt)
    return num / (dzy * dxt)


def _require_pairings(dzy, dxt):
    if abs(dzy) <= PAIRING_TOL:
        raise DomainError("degenerate pairing <xi(z), xi*(y)>")
    if abs(dxt) <= PAIRING_TOL:
        raise DomainError("degenerate pairing <xi(x), xi*(t)>")


def curve_cr_fn(pair):
    """`curve_cr` of a pair; on sample indices it gathers from `pair.table`."""

    def ev(x, y, z, t):
        return curve_cr(pair, (x, y, z, t))

    return CrossRatioFn(evaluator=ev, label=pair.label or pair.mode,
                        angle_evaluable=pair.angle_evaluable,
                        indexed=lambda sample, idx: pair.table(sample).curve_cr(idx))


_DUAL = [1, 0, 3, 2]  # (x, y, z, t) -> (y, x, t, z)


def dual_cr(b):
    """The dual cross ratio b*(x,y,z,t) = b(y,x,t,z); it has the same periods."""
    return CrossRatioFn(
        evaluator=lambda x, y, z, t: b(y, x, t, z),
        label=f"dual({b.label})",
        angle_evaluable=b.angle_evaluable,
        indexed=lambda sample, idx: b.on_indices(sample, idx[:, _DUAL]),
    )


# -- seeded tuple streams and the shared check loop ---------------------------

def draw_indices(sample, rng, k, count, min_gap=DEFAULT_MIN_GAP, tries=400):
    """count rows of k distinct indices into sample.points whose points lie
    pairwise more than min_gap apart on the circle.

    Consumes rng exactly as count calls of draw_points do, so a seed draws
    the same tuples either way.
    """
    n = len(sample.points)
    if n < k:
        raise DomainError(f"sample set too small: {n} < {k}")
    angles = sample.angles().tolist()
    out = np.empty((count, k), dtype=np.intp)
    for row in out:
        for _ in range(tries):
            idx = rng.choice(n, size=k, replace=False)
            a = [angles[i] for i in idx.tolist()]
            if all(circular_gap(p, q) > min_gap
                   for i, p in enumerate(a) for q in a[i + 1:]):
                row[:] = idx
                break
        else:
            raise DomainError("could not draw a separated tuple; lower min_gap")
    return out


def draw_points(sample, rng, k, min_gap=DEFAULT_MIN_GAP, tries=400):
    """k distinct sample points with pairwise circular gap above min_gap."""
    row = draw_indices(sample, rng, k, 1, min_gap, tries)[0]
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
    vals = b.on_indices(sample, idx[:, quads].reshape(-1, 4))
    return idx, vals.reshape(count, len(quads)).T


def _rel(a, b):
    return np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))


def _worst(viol):
    """The largest violation and the index of the first tuple with it.

    As a running maximum from 0.0 updated on a strict > finds them: (0.0,
    None) when no violation is above 0, and a NaN never counts.
    """
    v = np.concatenate(([0.0], np.where(viol > 0.0, viol, 0.0)))
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
    evaluators that are not pairing quotients, such as Otal's or corrupted
    ones.
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
    """
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

def period(b, gens, w, y, y2=None, tol=1e-8):
    """log |b(g-, g y, g+, y)| for the element g of word w; y-independent.

    Evaluates at a second base point when given and insists the two values
    agree, which is the content of the definition.
    """
    p_att, p_rep = fixed_points_2x2(evaluate(gens, w), word=w)
    vals = []
    for base in (y,) if y2 is None else (y, y2):
        for fx in (p_att, p_rep):
            if circular_gap(base.circle_coord, fx.circle_coord) <= DEDUP_TOL:
                raise DomainError("base point collides with a fixed point")
        gy = translate_point(gens, w, base)
        vals.append(float(np.log(abs(b(p_rep, gy, p_att, base)))))
    if len(vals) == 2 and abs(vals[0] - vals[1]) > tol:
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


def embed_from_cr(b, w, e, u, sample=None, count=50, seed=0,
                  pre_tol=1e-6, tol=1e-9):
    """Boundary embedding x -> b(x, w, e, u) realizing b as a classical
    cross ratio in the image coordinates.

    Requires the product identity to hold on samples (checked when a sample
    set is supplied); the reproduction error is verified on seeded
    quadruples and the embedding map is returned.
    """
    if sample is not None:
        pre = check_relation13(b, sample, max(10, count // 5), seed=seed)
        if pre["max_violation"] > pre_tol:
            raise DomainError(
                f"embedding precondition fails: product-identity violation "
                f"{pre['max_violation']:.3e}"
            )

    def fmap(p):
        if circular_gap(p.circle_coord, u.circle_coord) <= DEDUP_TOL:
            return np.inf
        return b(p, w, e, u)

    report = None
    if sample is not None:
        # w, e and u need not be sample points, so fmap is evaluated point by point
        idx, (v,) = _drive(b, sample, count, 4, [(0, 1, 2, 3)], seed + 1,
                           DEFAULT_MIN_GAP)
        images = [classical_cr(*(fmap(sample.points[i]) for i in row))
                  for row in idx.tolist()]
        report = _identity_report("embedding-reproduction", b, sample, idx,
                                  _rel(np.array(images, float), v), tol)
    return fmap, report


# -- constant-curvature length cross ratio ------------------------------------

def _disk_horoball_to_halfplane(phi, h):
    """Boundary coordinate and horoball diameter in the upper half-plane.

    The horoball is the disk-model horoball tangent at angle phi with
    Euclidean diameter h; any point z of a horocycle tangent at real x has
    D = |z - x|^2 / Im z.
    """
    x = np.tan(phi / 2.0)
    p = (1.0 - h) * np.exp(1j * phi)      # top point of the disk horoball
    cz = 1j * (1.0 - p) / (1.0 + p)       # Cayley: disk -> upper half-plane
    d = abs(cz - x) ** 2 / cz.imag
    return x, d


def otal_cr_hyperbolic(angles, horoballs):
    """Alternating horoball-truncated length combination of an ideal square.

    Returns sign(classical) * exp(L/2) where L = l12 - l23 + l34 - l41 and
    l_ij is the distance between the horoballs at corners i and j; the
    result is independent of the horoball sizes and has the modulus of the
    classical cross ratio of the four boundary points.
    """
    angles = [a % TWO_PI for a in angles]
    if len(angles) != 4 or len(horoballs) != 4:
        raise ValueError("need four boundary angles and four horoball sizes")
    # rotate the configuration away from the half-plane chart's pole at pi
    best, rot = -1.0, 0.0
    for k in range(16):
        cand = k * TWO_PI / 16.0
        margin = min(circular_gap((a + cand) % TWO_PI, np.pi) for a in angles)
        if margin > best:
            best, rot = margin, cand
    xs, ds = [], []
    for a, h in zip(angles, horoballs):
        if not 0.0 < h < 1.0:
            raise ValueError("horoball parameter must lie in (0, 1)")
        x, d = _disk_horoball_to_halfplane((a + rot) % TWO_PI, h)
        xs.append(x)
        ds.append(d)
    for i in range(4):
        for j in range(i + 1, 4):
            if (xs[i] - xs[j]) ** 2 < ds[i] * ds[j] * (1.0 - 1e-12):
                raise DomainError(f"horoballs {i} and {j} overlap")

    def length(i, j):
        return float(np.log((xs[i] - xs[j]) ** 2 / (ds[i] * ds[j])))

    total = length(0, 1) - length(1, 2) + length(2, 3) - length(3, 0)
    eps = np.sign(classical_cr(*xs))
    return float(eps * np.exp(0.5 * total))


# -- flow generated by a cross ratio ------------------------------------------

def _unwrap_arc(a_minus, a_zero, a_plus):
    lo = a_minus
    mid = a_zero if a_zero > lo else a_zero + TWO_PI
    hi = a_plus if a_plus > mid else a_plus + TWO_PI
    return lo, mid, hi


def flow_from_cr(b, x_minus, x_zero, x_plus, t, flow_tol=1e-12):
    """The point x_t with b(x+, x0, x-, x_t) = e^t on the arc (x-, x+).

    Monotone bisection over the circle coordinate; needs an evaluator that
    accepts synthetic angle points.
    """
    if not b.angle_evaluable:
        raise DomainError(f"{b.label} cannot drive the flow (no angle evaluation)")
    lo, mid, hi = _unwrap_arc(
        x_minus.circle_coord, x_zero.circle_coord, x_plus.circle_coord
    )

    def g(phi):
        pt = BoundaryPoint.from_angle(phi % TWO_PI)
        return float(np.log(abs(b(x_plus, x_zero, x_minus, pt))))

    if t == 0.0:
        return BoundaryPoint.from_angle(mid % TWO_PI)
    # bracket by stepping geometrically toward an arc endpoint, where
    # log |b| runs off to +inf (toward x+) or -inf (toward x-)
    prev = mid
    bracket = None
    for k in range(1, 120):
        cand = hi - (hi - mid) * 0.5 ** k if t > 0 else lo + (mid - lo) * 0.5 ** k
        if (g(cand) >= t) if t > 0 else (g(cand) <= t):
            bracket = (min(prev, cand), max(prev, cand))
            break
        prev = cand
    if bracket is None:
        raise DomainError("flow target not bracketed within the sampled arc")
    p, q = bracket
    if g(p) > g(q):  # keep g increasing from p to q
        p, q = q, p
    for _ in range(200):
        m = 0.5 * (p + q)
        if g(m) < t:
            p = m
        else:
            q = m
        if abs(q - p) < flow_tol:
            break
    return BoundaryPoint.from_angle(0.5 * (p + q) % TWO_PI)
