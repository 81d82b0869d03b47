"""The benchmark's workloads: seeded inputs, oracles and fixed op lists.

Every workload runs on the genus-2 octagon Fuchsian group and reaches
`crlab` only through module attributes (`surfgrp.evaluate`, not a name
imported from it), so the tracer's wrappers see every call.

A workload's `setup(seed)` builds all inputs and the oracle value of every
op, and returns a `Workload`.  An op is a zero-argument callable that runs
the program and returns its error against the oracle; it is *good* when it
returns an error within its budget.  `begin_pass()` runs before each pass
over the op list; the cold-cache workloads use it to build fresh curve pairs
so that every pass does the same work.
"""

import math
from dataclasses import dataclass, field

import numpy as np

import crlab.crossratio as cr
import crlab.projlin as pl
import crlab.surfgrp as sg

# Failures a single op may show; any other exception is a benchmark error.
OP_ERRORS = (sg.GroupDataError, pl.SpectrumError, cr.DomainError)

AXIOM_BUDGET = 1e-9        # check_axioms' own default tol
CURVE_BUDGET = 1e-8        # sine distance to the Veronese curve / dual
PERIOD_BUDGET = 1e-9       # |period - 2(n-1) log|lambda_w||
INVARIANCE_BUDGET = 1e-9   # check_invariance's own default tol
FLOW_BUDGET = 1e-6         # circle distance of the flowed point to w.y

AXIOM_NS = (3, 5)
AXIOM_OPS_PER_N = 300
AXIOM_TUPLES = 100
CURVE_NS = (2, 3, 5, 7, 9)
ACTION_PERIOD_N = 3
ACTION_INVARIANCE_NS = (3, 5)
INVARIANCE_OPS_PER_N = 8
INVARIANCE_TUPLES = 25
PERIOD_OPS_PER_WORD = 3
FLOW_OPS = 800
PERIOD_BASE_GAP = 0.3      # base points stay this far from both fixed points
FLOW_BASE_GAP = 0.5


@dataclass(frozen=True)
class Op:
    kind: str
    budget: float
    run: callable          # () -> error against the oracle


@dataclass
class Workload:
    ops: list
    begin_pass: callable = lambda: None
    shape: dict = field(default_factory=dict)


def sine_distance(v, w):
    """Projective distance |v - (v.w) w| of the unit representatives."""
    v = v / np.linalg.norm(v)
    w = w / np.linalg.norm(w)
    return float(np.linalg.norm(v - (v @ w) * w))


def _group():
    # octagon_fuchsian is lru-cached; clear it so every set-up builds it
    sg.octagon_fuchsian.cache_clear()
    return sg.octagon_fuchsian()


def _sym_images(gens, n):
    return tuple(pl.sym_power_rep(n, m) for m in gens.matrices)


def _base_product(gens, word):
    """2x2 image of a word, multiplied here rather than by `evaluate`."""
    acc = np.eye(2)
    for x in word.letters:
        m = gens.matrices[abs(x) - 1]
        if x < 0:  # unimodular inverse by adjugate
            m = np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])
        acc = acc @ m
    return acc


def _act(m, phi):
    """Circle coordinate of m applied to the line at phi."""
    v = m @ np.array([np.cos(phi / 2.0), np.sin(phi / 2.0)])
    return float((2.0 * np.arctan2(v[1], v[0])) % (2.0 * np.pi))


def _far_points(sample, fixed, gap):
    """Sample points more than `gap` from each of the given points."""
    angles = np.array([p.circle_coord for p in sample.points])
    keep = np.ones(len(angles), bool)
    for f in fixed:
        d = np.abs(angles - f.circle_coord) % (2.0 * np.pi)
        keep &= np.minimum(d, 2.0 * np.pi - d) > gap
    return [sample.points[i] for i in np.flatnonzero(keep)]


def _moment_curves(n, lines):
    """Closed-form Veronese curve and its osculating dual, one row per line.

    Row k of the first array is [x^(n-1), x^(n-2) y, ..., y^(n-1)] and of
    the second [C(n-1,i) x^i (-y)^(n-1-i)]_i for lines[k] = (x, y), the
    formulas of `projlin.veronese` and `projlin.veronese_dual`, evaluated
    here so the oracle does not share code with the program.
    """
    x, y = lines[:, :1], lines[:, 1:]
    i = np.arange(n)
    comb = np.array([math.comb(n - 1, k) for k in i], float)
    return x ** (n - 1 - i) * y ** i, comb * x ** i * (-y) ** (n - 1 - i)


# -- axioms-L3 -----------------------------------------------------------

def setup_axioms(seed):
    gens = _group()
    sample = sg.sample_boundary(gens, 3)
    rng = np.random.default_rng(seed)
    evaluators = {}
    for n in AXIOM_NS:
        pair = cr.representation_pair(gens, _sym_images(gens, n), n)
        for p in sample.points:  # warm the curve cache
            try:
                pair.xi(p)
                pair.xistar(p)
            except OP_ERRORS:
                pass
        evaluators[n] = cr.curve_cr_fn(pair)

    def axioms_op(n, tuple_seed):
        def run():
            rep = cr.check_axioms(evaluators[n], sample, AXIOM_TUPLES,
                                  seed=tuple_seed)
            return rep["max_violation"]
        return Op(f"axioms-n{n}", AXIOM_BUDGET, run)

    ops = [axioms_op(n, int(rng.integers(2**31)))
           for _ in range(AXIOM_OPS_PER_N) for n in AXIOM_NS]
    return Workload(ops, shape={
        "sample": len(sample), "ns": list(AXIOM_NS), "tuples": AXIOM_TUPLES})


# -- curve-L4 ------------------------------------------------------------

def setup_curve(seed):
    gens = _group()
    sample = sg.sample_boundary(gens, 4)
    rng = np.random.default_rng(seed)
    images = {n: _sym_images(gens, n) for n in CURVE_NS}
    pairs = {}

    def begin_pass():
        for n in CURVE_NS:
            pairs[n] = cr.representation_pair(gens, images[n], n)

    lines = np.array([p.line for p in sample.points])
    oracles = {n: _moment_curves(n, lines) for n in CURVE_NS}

    def curve_op(n, k):
        p = sample.points[k]
        xi_ref, xistar_ref = oracles[n][0][k], oracles[n][1][k]

        def run():
            pair = pairs[n]
            return max(sine_distance(pair.xi(p), xi_ref),
                       sine_distance(pair.xistar(p), xistar_ref))
        return Op(f"curve-n{n}", CURVE_BUDGET, run)

    ops = [curve_op(n, k) for n in CURVE_NS for k in range(len(sample))]
    ops = [ops[i] for i in rng.permutation(len(ops))]
    return Workload(ops, begin_pass, shape={
        "sample": len(sample), "ns": list(CURVE_NS)})


# -- action-L3 -----------------------------------------------------------

def setup_action(seed):
    gens = _group()
    sample = sg.sample_boundary(gens, 3)
    words = sg.enumerate_words(gens, 3)
    rng = np.random.default_rng(seed)
    images = {n: _sym_images(gens, n) for n in ACTION_INVARIANCE_NS}
    evaluators = {}
    closed_form = cr.curve_cr_fn(cr.veronese_pair(3))

    def begin_pass():
        for n in ACTION_INVARIANCE_NS:
            evaluators[n] = cr.curve_cr_fn(
                cr.representation_pair(gens, images[n], n))

    # per word: its fixed points, 2x2 image and the admissible base points
    fixed = [sg.fixed_points_2x2(sg.evaluate(gens, w), word=w) for w in words]
    base = [_base_product(gens, w) for w in words]
    far = {gap: [_far_points(sample, f, gap) for f in fixed]
           for gap in (PERIOD_BASE_GAP, FLOW_BASE_GAP)}

    def period_op(k):
        w = words[k]
        lam = np.max(np.abs(np.linalg.eigvals(base[k])))
        expected = 2 * (ACTION_PERIOD_N - 1) * np.log(lam)
        pts = far[PERIOD_BASE_GAP][k]
        i, j = rng.choice(len(pts), size=2, replace=False)
        y, y2 = pts[i], pts[j]

        def run():
            got = cr.period(evaluators[ACTION_PERIOD_N], gens, w, y, y2)
            return abs(got - expected)
        return Op(f"period-n{ACTION_PERIOD_N}", PERIOD_BUDGET, run)

    def invariance_op(n, tuple_seed):
        def run():
            rep = cr.check_invariance(evaluators[n], sample, INVARIANCE_TUPLES,
                                      seed=tuple_seed)
            return rep["max_violation"]
        return Op(f"invariance-n{n}", INVARIANCE_BUDGET, run)

    def flow_op(k):
        w = words[k]
        att, rep = fixed[k]
        pts = far[FLOW_BASE_GAP][k]
        y = pts[int(rng.integers(len(pts)))]
        image = _act(base[k], y.circle_coord)

        def run():
            t = cr.period(closed_form, gens, w, y)
            xt = cr.flow_from_cr(closed_form, rep, y, att, t)
            return sg.circular_gap(xt.circle_coord, image)
        return Op("flow-veronese3", FLOW_BUDGET, run)

    ops = [period_op(k) for k in range(len(words))
           for _ in range(PERIOD_OPS_PER_WORD)]
    ops += [invariance_op(n, int(rng.integers(2**31)))
            for n in ACTION_INVARIANCE_NS for _ in range(INVARIANCE_OPS_PER_N)]
    ops += [flow_op(int(k)) for k in rng.integers(len(words), size=FLOW_OPS)]
    ops = [ops[i] for i in rng.permutation(len(ops))]
    return Workload(ops, begin_pass, shape={
        "sample": len(sample), "words": len(words),
        "invariance_ns": list(ACTION_INVARIANCE_NS), "flows": FLOW_OPS})


SETUPS = {
    "axioms-L3": setup_axioms,
    "curve-L4": setup_curve,
    "action-L3": setup_action,
}
