import numpy as np
import pytest

from crlab.crossratio import (
    CrossRatioFn, CurvePair, DomainError, Quadruple, check_axioms,
    check_invariance, check_relation12, check_relation13, classical_cr,
    classical_cr_fn, curve_cr, curve_cr_fn, draw_indices, draw_points, dual_cr,
    embed_from_cr, flow_from_cr, otal_cr_hyperbolic, period,
    representation_pair, triple_ratio, veronese_pair,
)
from crlab.surfgrp import (
    BoundaryPoint, GroupDataError, Word, circular_gap, evaluate,
    fixed_points_2x2, translate_point,
)


def rep_cross_ratio(octagon, sym_reps, n):
    pair = representation_pair(octagon, sym_reps[n], n, label=f"fuchsian-{n}")
    return curve_cr_fn(pair)


class TestClassical:
    def test_basic_value(self):
        assert classical_cr(0.0, 1.0, 2.0, 3.0) == pytest.approx(-1 / 3)

    def test_infinity(self):
        assert classical_cr(0.0, 1.0, np.inf, 2.0) == pytest.approx(0.5)

    def test_zero_locus(self):
        assert classical_cr(1.3, 1.3, 0.2, 5.0) == 0.0

    def test_domain_violation(self):
        with pytest.raises(DomainError):
            classical_cr(1.0, 2.0, 3.0, 1.0)

    def test_relation12_witness(self):
        # 1 - b(2,1,0,3) = 4 = b(3,1,0,2)
        assert 1.0 - classical_cr(2.0, 1.0, 0.0, 3.0) == pytest.approx(4.0)
        assert classical_cr(3.0, 1.0, 0.0, 2.0) == pytest.approx(4.0)

    def test_boundary_point_version_matches_tan_coordinates(self):
        rng = np.random.default_rng(2)
        b = classical_cr_fn()
        for _ in range(25):
            angles = rng.uniform(0, 2 * np.pi, size=4)
            if min(circular_gap(angles[0], angles[3]),
                   circular_gap(angles[1], angles[2])) < 1e-2:
                continue
            pts = [BoundaryPoint.from_angle(a) for a in angles]
            want = classical_cr(*[np.tan(a / 2) for a in angles])
            assert b(*pts) == pytest.approx(want, rel=1e-9)


class TestCurveCrossRatio:
    def test_n2_veronese_is_classical(self, sample_l2):
        pair = veronese_pair(2)
        b_cl = classical_cr_fn()
        rng = np.random.default_rng(3)
        for _ in range(50):
            pts = draw_points(sample_l2, rng, 4)
            got = curve_cr(pair, tuple(pts))
            assert got == pytest.approx(b_cl(*pts), rel=1e-11)

    def test_zero_and_unit_loci(self, sample_l2):
        pair = veronese_pair(3)
        x, y, z, t = sample_l2.points[2], sample_l2.points[5], \
            sample_l2.points[9], sample_l2.points[13]
        assert curve_cr(pair, (x, x, z, t)) == pytest.approx(0.0, abs=1e-12)
        assert curve_cr(pair, (x, y, x, t)) == pytest.approx(1.0, abs=1e-12)

    def test_veronese_power_of_classical(self, sample_l2):
        # moment-curve cross ratio is the (n-1)th power of the classical one
        b_cl = classical_cr_fn()
        rng = np.random.default_rng(4)
        for n in (2, 3, 4):
            pair = veronese_pair(n)
            pts = draw_points(sample_l2, rng, 4)
            got = curve_cr(pair, tuple(pts))
            assert got == pytest.approx(b_cl(*pts) ** (n - 1), rel=1e-9)

    def test_eigen_mode_matches_veronese_for_fuchsian(
            self, octagon, sample_l2, sym_reps):
        # for symmetric-power representations the sampled eigen curve is the
        # moment curve (up to the projective identification)
        rng = np.random.default_rng(5)
        for n in (2, 3):
            pair_e = representation_pair(octagon, sym_reps[n], n)
            pair_v = veronese_pair(n)
            for _ in range(20):
                pts = draw_points(sample_l2, rng, 4)
                a = curve_cr(pair_e, tuple(pts))
                b = curve_cr(pair_v, tuple(pts))
                assert a == pytest.approx(b, rel=1e-9)

    def test_lift_independence(self, octagon, sample_l2, sym_reps):
        pair = representation_pair(octagon, sym_reps[3], 3)
        rng = np.random.default_rng(6)
        scaled = type(pair)(
            n=pair.n, mode=pair.mode,
            xi_fn=lambda p: rng.uniform(0.2, 5.0) * pair.xi(p),
            xistar_fn=lambda p: rng.uniform(0.2, 5.0) * pair.xistar(p),
            label="scaled",
        )
        for _ in range(20):
            pts = draw_points(sample_l2, rng, 4)
            assert curve_cr(scaled, tuple(pts)) == pytest.approx(
                curve_cr(pair, tuple(pts)), rel=1e-12)


class TestAxioms:
    def test_classical_axioms(self, sample_l2):
        rep = check_axioms(classical_cr_fn(), sample_l2, 300, tol=1e-12, seed=0)
        assert rep["passed"], rep

    def test_fuchsian_axioms_n3(self, octagon, sample_l2, sym_reps):
        b = rep_cross_ratio(octagon, sym_reps, 3)
        rep = check_axioms(b, sample_l2, 200, tol=1e-9, seed=1)
        assert rep["passed"], rep

    def test_corrupted_cross_ratio_flagged(self, sample_l2):
        base = classical_cr_fn()
        bad = CrossRatioFn(
            evaluator=lambda x, y, z, t: base(x, y, z, t) + 0.1,
            label="corrupted",
        )
        rep = check_axioms(bad, sample_l2, 100, tol=1e-9, seed=2)
        assert rep["max_violation"] > 0.05

    def test_invariance(self, octagon, sample_l2, sym_reps):
        # translated tuples use independently computed eigen-data, so the
        # comparison needs a conditioning floor on the pairing sizes
        b = rep_cross_ratio(octagon, sym_reps, 3)
        rep = check_invariance(b, sample_l2, 100, tol=1e-9, seed=3,
                               min_gap=0.08)
        assert rep["passed"], rep


class TestPeriods:
    @pytest.mark.parametrize("n,mult", [(2, 1.0), (3, 2.0), (4, 3.0)])
    def test_fuchsian_periods(self, octagon, sample_l2, sym_reps, n, mult):
        b = rep_cross_ratio(octagon, sym_reps, n)
        w = Word.of(1, 2)
        att, _ = fixed_points_2x2(evaluate(octagon, w), word=w)
        lam = att.eigenvalue
        y = next(p for p in sample_l2.points
                 if p.word is not None and
                 circular_gap(p.circle_coord, att.circle_coord) > 0.3)
        y2 = sample_l2.points[7]
        got = period(b, octagon, w, y, y2)
        assert got == pytest.approx(mult * 2 * np.log(abs(lam)), abs=1e-9)

    def test_period_of_inverse(self, octagon, sample_l2, sym_reps):
        b = rep_cross_ratio(octagon, sym_reps, 3)
        w = Word.of(1, -2)
        y = sample_l2.points[11]
        assert period(b, octagon, w, y) == pytest.approx(
            period(b, octagon, w.inverse(), y), abs=1e-10)

    def test_period_additivity_on_powers(self, octagon, sample_l2, sym_reps):
        b = rep_cross_ratio(octagon, sym_reps, 3)
        w = Word.of(2, 1)
        y = sample_l2.points[4]
        l1 = period(b, octagon, w, y)
        l3 = period(b, octagon, w.power(3), y)
        assert l3 == pytest.approx(3 * l1, abs=1e-8)


class TestTripleRatio:
    def test_classical_value(self):
        pts = [BoundaryPoint.from_angle(2 * np.arctan(v))
               for v in (0.0, 1.0, 2.0, 3.0, 5.0)]
        x, y, z, t3, t5 = pts
        b = classical_cr_fn()
        v = triple_ratio(b, x, y, z, t3, t2=t5, tol=1e-10)
        assert v == pytest.approx(-1.0, rel=1e-10)

    def test_t_independence_fuchsian(self, octagon, sample_l2, sym_reps):
        b = rep_cross_ratio(octagon, sym_reps, 3)
        rng = np.random.default_rng(8)
        for _ in range(25):
            x, y, z, t, t2 = draw_points(sample_l2, rng, 5)
            triple_ratio(b, x, y, z, t, t2=t2, tol=1e-9)

    def test_cyclic_invariance(self, sample_l2):
        b = classical_cr_fn()
        rng = np.random.default_rng(9)
        x, y, z, t, _ = draw_points(sample_l2, rng, 5)
        v1 = triple_ratio(b, x, y, z, t)
        v2 = triple_ratio(b, y, z, x, t)
        assert v1 == pytest.approx(v2, rel=1e-10)


class TestProjectiveLineRelations:
    def test_classical_satisfies_both(self, sample_l2):
        b = classical_cr_fn()
        assert check_relation12(b, sample_l2, 200, seed=0)["max_violation"] < 1e-12
        assert check_relation13(b, sample_l2, 200, seed=0)["max_violation"] < 1e-12

    def test_n2_fuchsian_satisfies_both(self, octagon, sample_l2, sym_reps):
        b = rep_cross_ratio(octagon, sym_reps, 2)
        assert check_relation12(b, sample_l2, 150, seed=1)["max_violation"] < 1e-9
        assert check_relation13(b, sample_l2, 150, seed=1)["max_violation"] < 1e-9

    def test_n3_violates_affine_relation(self, octagon, sample_l2, sym_reps):
        b = rep_cross_ratio(octagon, sym_reps, 3)
        assert check_relation12(b, sample_l2, 150, seed=2)["max_violation"] > 0.1

    def test_n4_violates_product_relation(self, octagon, sample_l2, sym_reps):
        b = rep_cross_ratio(octagon, sym_reps, 4)
        assert check_relation13(b, sample_l2, 150, seed=3)["max_violation"] > 0.1


class TestEmbedding:
    def test_classical_embedding_values(self, sample_l2):
        b = classical_cr_fn()
        # w, e, u at tan-coordinates 1, 0, inf
        w = BoundaryPoint.from_angle(2 * np.arctan(1.0))
        e = BoundaryPoint.from_angle(0.0)
        u = BoundaryPoint.from_angle(np.pi)
        fmap, rep = embed_from_cr(b, w, e, u, sample=sample_l2, count=60,
                                  seed=4, tol=1e-11)
        assert rep["passed"], rep
        # zero at w (first-pair collapse), one at e (unit locus)
        assert fmap(w) == pytest.approx(0.0, abs=1e-12)
        assert fmap(e) == pytest.approx(1.0, abs=1e-12)
        assert np.isinf(fmap(u))
        # here f is the Mobius map x -> 1 - x of the tan-coordinate
        probe = BoundaryPoint.from_angle(2 * np.arctan(0.25))
        assert fmap(probe) == pytest.approx(0.75, rel=1e-10)

    def test_n2_fuchsian_reproduction(self, octagon, sample_l2, sym_reps):
        b = rep_cross_ratio(octagon, sym_reps, 2)
        pts = sample_l2.points
        w, e, u = pts[3], pts[11], pts[19]
        _, rep = embed_from_cr(b, w, e, u, sample=sample_l2, count=60,
                               seed=5, tol=1e-9)
        assert rep["passed"], rep

    def test_precondition_rejects_higher_rank(self, octagon, sample_l2, sym_reps):
        b = rep_cross_ratio(octagon, sym_reps, 3)
        pts = sample_l2.points
        with pytest.raises(DomainError, match="precondition"):
            embed_from_cr(b, pts[3], pts[11], pts[19], sample=sample_l2,
                          count=60, seed=6)


class TestOtal:
    def test_horoball_independence(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            angles = np.sort(rng.uniform(0, 2 * np.pi, size=4))
            if np.min(np.diff(angles)) < 0.3:
                continue
            v1 = otal_cr_hyperbolic(angles, [0.05, 0.08, 0.03, 0.06])
            v2 = otal_cr_hyperbolic(angles, [0.01, 0.02, 0.09, 0.04])
            assert v1 == pytest.approx(v2, rel=1e-10)

    def test_matches_classical_modulus(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            angles = rng.uniform(0, 2 * np.pi, size=4)
            gaps = [circular_gap(angles[i], angles[j])
                    for i in range(4) for j in range(i + 1, 4)]
            if min(gaps) < 0.3:
                continue
            got = otal_cr_hyperbolic(angles, [0.02] * 4)
            want = classical_cr(*[np.tan(a / 2) for a in angles])
            assert abs(got) == pytest.approx(abs(want), rel=1e-8)
            assert np.sign(got) == np.sign(want)

    def test_pair_swap_symmetry(self):
        angles = [0.3, 1.4, 2.9, 4.8]
        h = [0.05] * 4
        v1 = otal_cr_hyperbolic(angles, h)
        v2 = otal_cr_hyperbolic(
            [angles[1], angles[0], angles[3], angles[2]], h)
        assert v1 == pytest.approx(v2, rel=1e-10)

    def test_overlapping_horoballs_rejected(self):
        with pytest.raises(DomainError, match="overlap"):
            otal_cr_hyperbolic([0.3, 0.35, 2.9, 4.8], [0.9, 0.9, 0.1, 0.1])


class TestFlow:
    def setup_method(self):
        self.b = classical_cr_fn()
        self.x_minus = BoundaryPoint.from_angle(0.0)
        self.x_zero = BoundaryPoint.from_angle(2.0)
        self.x_plus = BoundaryPoint.from_angle(4.0)

    def test_time_zero(self):
        got = flow_from_cr(self.b, self.x_minus, self.x_zero, self.x_plus, 0.0)
        assert circular_gap(got.circle_coord, 2.0) < 1e-12

    def test_group_law(self):
        for t, s in [(0.1, 0.5), (0.5, 1.0), (1.0, 1.0), (-0.5, 0.3)]:
            xt = flow_from_cr(self.b, self.x_minus, self.x_zero,
                              self.x_plus, t)
            xts = flow_from_cr(self.b, self.x_minus, xt, self.x_plus, s)
            direct = flow_from_cr(self.b, self.x_minus, self.x_zero,
                                  self.x_plus, t + s)
            assert circular_gap(xts.circle_coord, direct.circle_coord) < 1e-9

    def test_period_recovery(self, octagon, sample_l2, sym_reps):
        # flowing by the period from y lands on the image of y
        b = curve_cr_fn(veronese_pair(3))
        w = Word.of(1, 2)
        att, rep = fixed_points_2x2(evaluate(octagon, w), word=w)
        y = next(p for p in sample_l2.points
                 if circular_gap(p.circle_coord, att.circle_coord) > 0.5
                 and circular_gap(p.circle_coord, rep.circle_coord) > 0.5)
        t = period(b, octagon, w, y)
        xt = flow_from_cr(b, rep, y, att, t)
        gy = translate_point(octagon, w, y)
        assert circular_gap(xt.circle_coord, gy.circle_coord) < 1e-6


class TestDual:
    def test_classical_self_dual(self, sample_l2):
        b = classical_cr_fn()
        bd = dual_cr(b)
        rng = np.random.default_rng(12)
        for _ in range(20):
            pts = draw_points(sample_l2, rng, 4)
            assert b(*pts) == pytest.approx(bd(*pts), rel=1e-12)

    def test_dual_is_contragredient(self, octagon, sample_l2, sym_reps):
        b = rep_cross_ratio(octagon, sym_reps, 3)
        contra = tuple(np.linalg.inv(m).T for m in sym_reps[3])
        b_star = curve_cr_fn(
            representation_pair(octagon, contra, 3, label="contragredient"))
        bd = dual_cr(b)
        rng = np.random.default_rng(13)
        for _ in range(20):
            pts = draw_points(sample_l2, rng, 4)
            assert bd(*pts) == pytest.approx(b_star(*pts), rel=1e-9)

    def test_same_periods(self, octagon, sample_l2, sym_reps):
        b = rep_cross_ratio(octagon, sym_reps, 3)
        bd = dual_cr(b)
        w = Word.of(1, 2, -1)
        y = sample_l2.points[8]
        assert period(bd, octagon, w, y) == pytest.approx(
            period(b, octagon, w, y), abs=1e-9)


class TestQuadrupleDomain:
    def test_rejects_equal_ends(self, sample_l2):
        p = sample_l2.points
        with pytest.raises(DomainError):
            Quadruple(p[0], p[1], p[2], p[0])
        with pytest.raises(DomainError):
            Quadruple(p[0], p[1], p[1], p[2])

    def test_accepts_valid(self, sample_l2):
        p = sample_l2.points
        q = Quadruple(p[0], p[1], p[2], p[3])
        assert len(q.points()) == 4


def looped(b):
    """The same evaluator without its batched path: rows are looped."""
    return CrossRatioFn(evaluator=b.evaluator, label=b.label)


def outcome(check, b, sample, seed, count=100):
    """A check's report, or the type and message of what it raised."""
    try:
        return check(b, sample, count, seed=seed)
    except ValueError as exc:
        return type(exc), str(exc)


def draw_points_loop(sample, rng, k, min_gap=1e-3, tries=400):
    """The original tuple draw, one rejection loop per tuple."""
    pts = sample.points
    for _ in range(tries):
        idx = rng.choice(len(pts), size=k, replace=False)
        chosen = [pts[i] for i in idx]
        if all(circular_gap(a.circle_coord, b.circle_coord) > min_gap
               for i, a in enumerate(chosen) for b in chosen[i + 1:]):
            return chosen
    raise DomainError("could not draw a separated tuple; lower min_gap")


class TestBatchedChecks:
    @pytest.mark.parametrize("sample_name", ["sample_l2", "sample_l3"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_table_matches_looped_evaluator(
            self, request, octagon, sym_reps, sample_name, n):
        sample = request.getfixturevalue(sample_name)
        b = rep_cross_ratio(octagon, sym_reps, n)
        for check in (check_axioms, check_relation12, check_relation13):
            for bb in (b, dual_cr(b)):
                for seed in range(4):
                    want = outcome(check, looped(bb), sample, seed)
                    assert outcome(check, bb, sample, seed) == want

    def test_degenerate_seed_raises_on_both_paths(
            self, octagon, sample_l3, sym_reps):
        # at n = 5, seed 1 draws a tuple whose pairing falls below PAIRING_TOL
        b = rep_cross_ratio(octagon, sym_reps, 5)
        got = outcome(check_axioms, b, sample_l3, 1)
        assert got[0] is DomainError
        assert outcome(check_axioms, looped(b), sample_l3, 1) == got

    @pytest.mark.parametrize("side", ["xi", "xistar"])
    def test_failed_curve_values_raise_when_drawn(self, sample_l2, side):
        # with every fifth point failing, rows often hold several failed
        # points, so the order of the positions decides which one is raised
        base = veronese_pair(3)
        broken = set(sample_l2.points[::5])

        def fails_at(fn):
            def value(p):
                if p in broken:
                    raise GroupDataError(f"no eigen-data at {p.circle_coord}")
                return fn(p)
            return value

        fns = {"xi_fn": base.xi_fn, "xistar_fn": base.xistar_fn}
        fns[f"{side}_fn"] = fails_at(fns[f"{side}_fn"])
        b = curve_cr_fn(CurvePair(n=3, mode="test", label="broken", **fns))
        for check in (check_axioms, check_relation13):
            for seed in range(6):
                got = outcome(check, b, sample_l2, seed)
                assert got[0] is GroupDataError
                assert outcome(check, looped(b), sample_l2, seed) == got
        # a check that never draws a failed point is not affected
        others = type(sample_l2)(
            points=tuple(p for p in sample_l2.points if p not in broken),
            group=sample_l2.group)
        assert check_axioms(b, others, 50, seed=0)["passed"]

    def test_draw_indices_matches_draw_points(self, sample_l2):
        # a large gap makes the draw reject and redraw
        for k, min_gap in ((4, 1e-3), (5, 0.4), (6, 0.3)):
            rngs = [np.random.default_rng(17) for _ in range(3)]
            rows = draw_indices(sample_l2, rngs[0], k, 40, min_gap)
            ref = [draw_points_loop(sample_l2, rngs[1], k, min_gap)
                   for _ in range(40)]
            wrapped = [draw_points(sample_l2, rngs[2], k, min_gap)
                       for _ in range(40)]
            assert [[sample_l2.points[i] for i in row] for row in rows] == ref
            assert wrapped == ref
            states = [r.bit_generator.state for r in rngs]
            assert states[0] == states[1] == states[2]

    def test_argmax_semantics(self, sample_l2):
        b = CrossRatioFn(evaluator=lambda x, y, z, t: 0.5, label="const")
        rep = check_axioms(b, sample_l2, 20, seed=7)
        first = draw_points(sample_l2, np.random.default_rng(7), 5)
        first = tuple(p.circle_coord for p in first[:4])
        # exactly 0: no witness
        assert rep["per_axiom"]["symmetry"] == 0.0
        assert rep["argmax"]["symmetry"] is None
        # ties across all tuples: the first tuple wins
        assert rep["per_axiom"]["zero-locus"] == 0.5
        assert rep["argmax"]["zero-locus"] == first
        assert rep["per_axiom"]["cocycle-zw"] == 0.25
        assert rep["argmax"]["cocycle-zw"] == first
        assert rep["strictness_floor"] == 0.5
        assert rep["max_violation"] == 0.5 and not rep["passed"]

    def test_reports_share_schema(self, sample_l2):
        b = classical_cr_fn()
        pts = sample_l2.points
        reports = [
            check_axioms(b, sample_l2, 20),
            check_invariance(b, sample_l2, 5),
            check_relation12(b, sample_l2, 20),
            check_relation13(b, sample_l2, 20),
            embed_from_cr(b, pts[3], pts[11], pts[19], sample=sample_l2,
                          count=20)[1],
        ]
        keys = {"check", "label", "tuples", "max_violation", "argmax",
                "passed", "tol"}
        for rep in reports:
            assert keys <= set(rep), rep["check"]
            assert rep["passed"] and rep["tol"] == 1e-9
