import warnings
from fractions import Fraction

import numpy as np
import pytest

from crlab import crossratio, surfgrp
from crlab.crossratio import (
    DRAW_TRIES, CrossRatioFn, CurvePair, DomainError, check_axioms,
    check_invariance, check_relation12, check_relation13, classical_cr,
    classical_cr_fn, curve_cr, curve_cr_fn, draw_indices, draw_points, dual_cr,
    embed_from_cr, flow_from_cr, otal_cr_hyperbolic, period,
    representation_pair, triple_ratio, veronese_pair,
)
from crlab.projlin import (
    SpectrumError, dominant_line, sym_power_rep, veronese, veronese_dual,
)
from crlab.surfgrp import (
    TWO_PI, BoundaryPoint, GroupDataError, SampleSet, Word, circular_gap,
    enumerate_words, evaluate, fixed_points_2x2, make_generator_set,
    sample_boundary, translate_point,
)


def rep_cross_ratio(octagon, sym_reps, n):
    pair = representation_pair(octagon, sym_reps[n], n)
    return curve_cr_fn(pair)


class TestClassical:
    def test_basic_value(self):
        assert classical_cr(0.0, 1.0, 2.0, 3.0) == pytest.approx(-1 / 3)

    def test_infinity(self):
        assert classical_cr(0.0, 1.0, np.inf, 2.0) == pytest.approx(0.5)

    def test_zero_locus(self):
        assert classical_cr(1.3, 1.3, 0.2, 5.0) == 0.0

    def test_determinants_scaled_by_their_own_points(self):
        # x far out must not make the small but well-posed z - y degenerate
        x, y, z, t = 1e7, 1.0, 1.000001, 2.0
        fx, fy, fz, ft = (Fraction(v) for v in (x, y, z, t))
        want = (fx - fy) * (fz - ft) / ((fx - ft) * (fz - fy))
        assert float(want) == pytest.approx(-999999.1000821866, rel=1e-12)
        assert classical_cr(x, y, z, t) == pytest.approx(float(want), rel=1e-9)

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

    @pytest.mark.parametrize("n", [7, 9])
    def test_sample_values_evaluate_at_high_n(self, octagon, sample_l3, n):
        # the determinant of an ill-conditioned Sym^(n-1) word product
        # rounds to 0; word products are not divided by it, so no point
        # raises "singular word matrix"
        images = [sym_power_rep(n, m) for m in octagon.matrices]
        pair = representation_pair(octagon, images, n)
        for p in sample_l3.points:
            assert np.all(np.isfinite(pair.xi(p)))
            assert np.all(np.isfinite(pair.xistar(p)))

    def test_image_count_checked_at_construction(self, octagon, sym_reps):
        with pytest.raises(GroupDataError, match="one matrix per generator"):
            representation_pair(octagon, sym_reps[3][:3], 3)

    def test_non_real_dominant_eigenvalue_raises(
            self, octagon, sample_l2, sym_reps):
        # first generator mapped to a rotation by 0.7 in a plane, scaled
        # by 2 there and by 1/4 on its axis: rho(a) has dominant eigenvalues
        # 2 exp(+-0.7 i), so the curve has no value at the attracting fixed
        # point of a, sampled as the repelling one of a^-1
        c, s = 2 * np.cos(0.7), 2 * np.sin(0.7)
        spin = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 0.25]])
        pair = representation_pair(octagon, (spin,) + sym_reps[3][1:], 3)
        p = next(p for p in sample_l2.points
                 if p.word == Word.of(-1) and p.sign == "repelling")
        with pytest.raises(SpectrumError, match="not real"):
            pair.xi(p)
        # a check raises it again for the tuple that needs the table's NaN row
        with pytest.raises(SpectrumError, match="not real"):
            check_axioms(curve_cr_fn(pair), sample_l2, 100)
        i = sample_l2.points.index(p)
        xi, xistar = pair.table(sample_l2)
        assert np.all(np.isnan(xi[i]))
        # the dual side has its own eigenline there: the dominant line of
        # rho(a^-1)^T, eigenvalue 4 on the axis
        assert np.array_equal(xistar[i], [0.0, 0.0, 1.0])
        assert np.array_equal(pair.xistar(p), [0.0, 0.0, 1.0])

    def test_each_side_costs_one_eigenline(self, octagon, sample_l2, sym_reps,
                                           monkeypatch):
        calls = []

        def counted(m):
            calls.append(1)
            return dominant_line(m)

        monkeypatch.setattr(crossratio, "dominant_line", counted)
        pair = representation_pair(octagon, sym_reps[3], 3)
        p = sample_l2.points[7]
        pair.xi(p)
        assert len(calls) == 1
        pair.xistar(p)
        assert len(calls) == 2
        # g p has the word g w g^-1: its value is xi(p) moved by rho(g)
        g = next(g for g in (1, 2, 3, 4) if g not in (-p.word.letters[0],
                                                       p.word.letters[-1]))
        q = translate_point(octagon, Word.of(g), p)
        assert not q.word.is_cyclically_reduced()
        pair.xi(q)
        assert len(calls) == 2

    def test_image_shape_checked_at_construction(self, octagon, sym_reps):
        # unchecked, Sym^2 images with n = 5 build a pair whose checks fail
        # to broadcast
        with pytest.raises(GroupDataError, match="5 x 5"):
            representation_pair(octagon, sym_reps[3], 5)
        with pytest.raises(GroupDataError, match="3 x 3"):
            representation_pair(octagon, [m[:, :2] for m in sym_reps[3]], 3)

    def test_non_finite_image_rejected_at_construction(self, octagon, sym_reps):
        # LAPACK inverts a NaN matrix: unchecked, the first curve value
        # fails with numpy's LinAlgError, which is not a curve error
        images = (np.full((3, 3), np.nan),) + sym_reps[3][1:]
        with pytest.raises(GroupDataError, match="generator 0 has non-finite"):
            representation_pair(octagon, images, 3)

    def test_table_lets_other_errors_through(self, sample_l2):
        # only the errors of a curve value on a well-formed pair become NaN
        # rows; anything else is a fault and surfaces at the build
        def broken(p):
            raise ValueError("not a curve error")

        pair = CurvePair(n=3, xi_fn=broken, xistar_fn=broken, label="broken")
        with pytest.raises(ValueError, match="not a curve error"):
            pair.table(sample_l2)

    def test_lift_independence(self, octagon, sample_l2, sym_reps):
        pair = representation_pair(octagon, sym_reps[3], 3)
        rng = np.random.default_rng(6)
        scaled = type(pair)(
            n=pair.n,
            xi_fn=lambda p: rng.uniform(0.2, 5.0) * pair.xi(p),
            xistar_fn=lambda p: rng.uniform(0.2, 5.0) * pair.xistar(p),
            label="scaled",
        )
        for _ in range(20):
            pts = draw_points(sample_l2, rng, 4)
            assert curve_cr(scaled, tuple(pts)) == pytest.approx(
                curve_cr(pair, tuple(pts)), rel=1e-12)


def sine_distance(v, w):
    """Projective distance |v - (v.w) w| of the unit representatives."""
    v = v / np.linalg.norm(v)
    w = w / np.linalg.norm(w)
    return float(np.linalg.norm(v - (v @ w) * w))


def worst_moved_error(octagon, sample, sym_reps, n):
    """Largest sine distance of xi, xi* at g . p to the Veronese curve and
    its dual, over every generator or inverse g and every sample point p."""
    pair = representation_pair(octagon, sym_reps[n], n)
    worst = 0.0
    for p in sample.points:
        for g in range(-octagon.rank, octagon.rank + 1):
            if g == 0:
                continue
            q = translate_point(octagon, Word.of(g), p)
            worst = max(worst,
                        sine_distance(pair.xi(q), veronese(n, q.line)),
                        sine_distance(pair.xistar(q),
                                      veronese_dual(n, q.line)))
    return worst


class TestTransportedCurveValues:
    # a moved point's word g w g^-1 is in general not cyclically reduced;
    # its curve values are those of w moved by rho(g), and for a symmetric
    # power of the base group they lie on the closed-form Veronese curve and
    # its dual

    @pytest.mark.parametrize("n", [3, 5])
    def test_moved_points_on_veronese_l2(self, octagon, sample_l2, sym_reps, n):
        assert worst_moved_error(octagon, sample_l2, sym_reps, n) < 1e-10

    @pytest.mark.parametrize("n", [3, 5])
    def test_moved_points_evaluate_l3(self, octagon, sample_l3, sym_reps, n):
        # no point raises; the accuracy here is limited by that of the
        # eigen-data at the length-3 sample points themselves
        assert worst_moved_error(octagon, sample_l3, sym_reps, n) < 1e-6

    def test_invariance_n5_l3_evaluates(self, octagon, sample_l3, sym_reps):
        # the eigen-data of the moved words raised "singular word matrix"
        # here; the violation itself is bounded by the eigen-data accuracy
        # at n = 5, not by 1e-9
        b = rep_cross_ratio(octagon, sym_reps, 5)
        rep = check_invariance(b, sample_l3, 100, seed=3, min_gap=0.08)
        assert rep["check"] == "invariance" and rep["tuples"] == 100
        assert np.isfinite(rep["max_violation"])


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
        # translated tuples carry the eigen-data of their sample points moved
        # by rho(g); the comparison still needs a conditioning floor on the
        # pairing sizes
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

    def test_fixed_points_solved_once_per_group(
            self, octagon, sample_l2, sym_reps, monkeypatch):
        b = rep_cross_ratio(octagon, sym_reps, 3)
        words = [Word.of(1, 2), Word.of(1, -2), Word.of(2, 1, 2, 1, 2, 1)]
        y, y2 = sample_l2.points[4], sample_l2.points[11]
        # the values of the path that solved the fixed points on every call
        want = []
        for w in words:
            att, rep = fixed_points_2x2(evaluate(octagon, w), word=w)
            gy = translate_point(octagon, w, y)
            want.append(float(np.log(abs(b(rep, gy, att, y)))))

        solves = []

        def counted(m, word=None):
            solves.append(word)
            return fixed_points_2x2(m, word)

        monkeypatch.setattr(surfgrp, "fixed_points_2x2", counted)
        group = make_generator_set(octagon.matrices)
        got = [period(b, group, w, y) for w in words]
        assert got == want
        assert [period(b, group, w, y, y2) for w in words] == want
        assert solves == words
        fresh = make_generator_set(octagon.matrices)
        assert period(b, fresh, words[0], y) == want[0]
        assert solves == words + words[:1]

    def test_sampled_word_solved_once_by_period(self, octagon, monkeypatch):
        solves = []

        def counted(m, word=None):
            solves.append(word)
            return fixed_points_2x2(m, word)

        monkeypatch.setattr(surfgrp, "fixed_points_2x2", counted)
        group = make_generator_set(octagon.matrices)
        sample = sample_boundary(group, 4)
        assert solves == []
        # the sample leaves the group's fixed-point cache to period
        b = classical_cr_fn()
        words = list(dict.fromkeys(p.word for p in sample.points[::300]))
        y = BoundaryPoint.from_angle(1.2345)
        got = [period(b, group, w, y) for w in words]
        assert [period(b, group, w, y) for w in words] == got
        assert solves == words

    def test_base_point_at_a_fixed_point_rejected(self, octagon, sample_l2):
        b = classical_cr_fn()
        w = Word.of(1, 2)
        y = sample_l2.points[4]
        for p in octagon.fixed_points(w):
            for bases in ((p,), (y, p)):
                with pytest.raises(DomainError, match="collides"):
                    period(b, octagon, w, *bases)

    def test_period_additivity_on_powers(self, octagon, sample_l2, sym_reps):
        b = rep_cross_ratio(octagon, sym_reps, 3)
        w = Word.of(2, 1)
        y = sample_l2.points[4]
        l1 = period(b, octagon, w, y)
        l3 = period(b, octagon, Word.of(2, 1, 2, 1, 2, 1), y)
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

    def test_t_dependence_flagged(self):
        classical = classical_cr_fn()

        def corrupted(x, y, z, t):
            return classical(x, y, z, t) * (1.0 + t.circle_coord)

        b = CrossRatioFn(evaluator=corrupted, label="corrupted")
        x, y, z, t3, t5 = [BoundaryPoint.from_angle(2 * np.arctan(v))
                           for v in (0.0, 1.0, 2.0, 3.0, 5.0)]
        with pytest.raises(DomainError, match="depends on t"):
            triple_ratio(b, x, y, z, t3, t2=t5)

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

    @pytest.mark.parametrize("angles", [[0.3, 1.4, 1.4, 4.8],
                                        [0.3, 1.4, 1.4 + TWO_PI, 4.8]])
    def test_coincident_angles_overlap(self, angles):
        # the horoballs' distance is log(0) there, and is never taken
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="horoballs 1 and 2 overlap"):
                otal_cr_hyperbolic(angles, [0.05] * 4)

    @pytest.mark.parametrize("angles,horoballs", [
        ([0.3, 1.4, 2.9], [0.05] * 4),
        ([0.3, 1.4, 2.9, 4.8], [0.05] * 3),
        ([0.3, 1.4, 2.9, 4.8, 5.5], [0.05] * 5),
        ([0.3, 1.4, 2.9, 4.8], [0.05, 0.0, 0.05, 0.05]),
        ([0.3, 1.4, 2.9, 4.8], [0.05, 0.05, 1.0, 0.05]),
    ])
    def test_bad_input_rejected(self, angles, horoballs):
        with pytest.raises(ValueError, match="four|must lie in") as exc:
            otal_cr_hyperbolic(angles, horoballs)
        assert not isinstance(exc.value, DomainError)

    def test_full_turn_leaves_value(self):
        angles = [0.3, 1.4, 2.9, 4.8]
        h = [0.05, 0.02, 0.08, 0.03]
        want = otal_cr_hyperbolic(angles, h)
        for i in range(4):
            for turn in (TWO_PI, -TWO_PI):
                moved = list(angles)
                moved[i] += turn
                got = otal_cr_hyperbolic(moved, h)
                assert got == pytest.approx(want, rel=1e-13)


def is_counter_clockwise(a, b, c):
    """Whether a, b, c run counter-clockwise around the circle."""
    return (b - a) % TWO_PI < (c - a) % TWO_PI


class TestFlow:
    def setup_method(self):
        self.b = classical_cr_fn()
        self.x_minus = BoundaryPoint.from_angle(0.0)
        self.x_zero = BoundaryPoint.from_angle(2.0)
        self.x_plus = BoundaryPoint.from_angle(4.0)

    def mirror(self):
        # the same triple run clockwise: x- = 4, x0 = 2, x+ = 0
        self.x_minus, self.x_plus = self.x_plus, self.x_minus

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

    def test_time_zero_clockwise(self):
        self.mirror()
        self.test_time_zero()

    def test_group_law_clockwise(self):
        self.mirror()
        self.test_group_law()

    def test_clockwise_flow_stays_on_the_arc(self):
        # on the clockwise arc 4 -> 2 -> 0, x_t moves toward x+ = 0 for
        # t > 0 and toward x- = 4 for t < 0
        self.mirror()
        for t in (0.5, 3.0, -0.5, -3.0):
            got = flow_from_cr(self.b, self.x_minus, self.x_zero,
                               self.x_plus, t).circle_coord
            assert (0.0 < got < 2.0) if t > 0 else (2.0 < got < 4.0)

    def test_eigen_sampled_curve_cannot_drive_the_flow(
            self, octagon, sample_l2, sym_reps):
        # the flow evaluates b at synthetic points, where an eigen-sampled
        # curve has no eigen-data; its dual fails the same way
        b = rep_cross_ratio(octagon, sym_reps, 3)
        pts = sample_l2.points
        x_minus, x_zero, x_plus = (pts[k * len(pts) // 3] for k in range(3))
        for fn in (b, dual_cr(b)):
            for t in (0.5, -0.5):
                with pytest.raises(DomainError, match="worded boundary point"):
                    flow_from_cr(fn, x_minus, x_zero, x_plus, t)

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

    @staticmethod
    def recovery_cases(octagon, sample_l2):
        """(w, repelling, y, attracting): words of length <= 2, three base
        points each far from both fixed points."""
        for w in enumerate_words(octagon, 2):
            att, rep = fixed_points_2x2(evaluate(octagon, w), word=w)
            far = [p for p in sample_l2.points
                   if circular_gap(p.circle_coord, att.circle_coord) > 0.5
                   and circular_gap(p.circle_coord, rep.circle_coord) > 0.5]
            for y in far[::len(far) // 3][:3]:
                yield w, rep, y, att

    def test_period_recovery_both_orientations(self, octagon, sample_l2):
        b = curve_cr_fn(veronese_pair(3))
        orientations = set()
        for w, rep, y, att in self.recovery_cases(octagon, sample_l2):
            orientations.add(is_counter_clockwise(
                rep.circle_coord, y.circle_coord, att.circle_coord))
            xt = flow_from_cr(b, rep, y, att, period(b, octagon, w, y))
            gy = translate_point(octagon, w, y)
            assert circular_gap(xt.circle_coord, gy.circle_coord) < 1e-6, (w, y)
        assert orientations == {True, False}

    def test_flow_evaluation_count(self, octagon, sample_l2):
        # the search takes about ten evaluations of b per flow
        inner = curve_cr_fn(veronese_pair(3))
        calls = []

        def counted(x, y, z, t):
            calls.append(1)
            return inner(x, y, z, t)

        b = CrossRatioFn(evaluator=counted, label="counted")
        for w, rep, y, att in self.recovery_cases(octagon, sample_l2):
            t = period(inner, octagon, w, y)
            calls.clear()
            flow_from_cr(b, rep, y, att, t)
            assert len(calls) <= 24, (w, y, len(calls))

    def test_flow_computes_its_endpoints_once(self, octagon, sample_l2,
                                              monkeypatch):
        # every evaluation b(x+, x0, x-, x_t) needs xi at x+ and x- and xi*
        # at x0; veronese_pair keeps them, so only x_t costs a new xi*
        counts = {"veronese": 0, "veronese_dual": 0}

        def counted(fn):
            def wrapper(n, p):
                counts[fn.__name__] += 1
                return fn(n, p)
            return wrapper

        monkeypatch.setattr(crossratio, "veronese", counted(veronese))
        monkeypatch.setattr(crossratio, "veronese_dual", counted(veronese_dual))
        plain = curve_cr_fn(CurvePair(
            n=3, xi_fn=lambda p: veronese(3, p.line),
            xistar_fn=lambda p: veronese_dual(3, p.line), label="plain"))
        for w, rep, y, att in self.recovery_cases(octagon, sample_l2):
            t = period(plain, octagon, w, y)
            inner = curve_cr_fn(veronese_pair(3))
            evaluations = []

            def counted_b(*q):
                evaluations.append(q)
                return inner(*q)

            b = CrossRatioFn(evaluator=counted_b, label="counted")
            counts.update(veronese=0, veronese_dual=0)
            got = flow_from_cr(b, rep, y, att, t)
            assert counts["veronese"] <= 2, (w, y, counts)
            assert counts["veronese_dual"] <= len(evaluations) + 1, (w, y, counts)
            want = flow_from_cr(plain, rep, y, att, t)
            assert got.circle_coord.hex() == want.circle_coord.hex(), (w, y)

    @pytest.mark.parametrize("triple", [(0.0, 2.0, 4.0), (4.0, 2.0, 0.0),
                                        (1.0, 5.5, 3.0)])
    def test_classical_flow_matches_closed_form(self, triple):
        # with u = tan(phi / 2), x_t solves
        # (u+ - u0)(u- - u_t) / ((u+ - u_t)(u- - u0)) = e^t
        x_minus, x_zero, x_plus = (BoundaryPoint.from_angle(a) for a in triple)
        um, u0, up = (np.tan(a / 2.0) for a in triple)
        ratio = (up - u0) / (um - u0)
        for t in (0.1, 1.0, 5.0, 20.0, -0.1, -1.0, -5.0, -20.0):
            e = np.exp(t)
            # u_t = (e u+ - ratio u-) / (e - ratio), as a homogeneous pair
            exact = 2.0 * np.arctan2(e * up - ratio * um, e - ratio) % TWO_PI
            got = flow_from_cr(self.b, x_minus, x_zero, x_plus, t)
            assert circular_gap(got.circle_coord, exact) < 1e-12, t

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_rejected(self, t):
        # rejected before any evaluation: a NaN target would end the search at x0
        calls = []
        b = curve_cr_fn(veronese_pair(3))
        counted = CrossRatioFn(evaluator=lambda *q: calls.append(q) or b(*q),
                               label=b.label)
        with pytest.raises(DomainError, match="must be finite"):
            flow_from_cr(counted, self.x_minus, self.x_zero, self.x_plus, t)
        assert calls == []

    def test_unreachable_target_not_bracketed(self):
        flat = CrossRatioFn(evaluator=lambda x, y, z, t: 1.0, label="flat")
        for t in (0.5, -0.5):
            with pytest.raises(DomainError, match="not bracketed"):
                flow_from_cr(flat, self.x_minus, self.x_zero, self.x_plus, t)


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
            representation_pair(octagon, contra, 3))
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
    """The cross ratio's domain x != t, y != z, as `curve_cr` enforces it."""

    def test_rejects_equal_ends(self, sample_l2):
        p = sample_l2.points
        pair = veronese_pair(3)
        with pytest.raises(DomainError):
            curve_cr(pair, (p[0], p[1], p[2], p[0]))
        with pytest.raises(DomainError):
            curve_cr(pair, (p[0], p[1], p[1], p[2]))

    def test_accepts_valid(self, sample_l2):
        p = sample_l2.points
        assert np.isfinite(curve_cr(veronese_pair(3), tuple(p[:4])))


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


def floyd_replaces(sample, k, count, min_gap, seed):
    """Whether a draw's first batch of candidates repeats a draw in Floyd's
    steps, so that `draw_indices` takes its n - k + s branch."""
    n = len(sample)
    highs = [*range(n - k, n), *range(k - 1, 0, -1)]
    draws = np.random.default_rng(seed).integers(
        0, highs, size=(min(count, DRAW_TRIES), 2 * k - 1), endpoint=True)
    return any(len(set(d)) < k for d in draws[:, :k].tolist())


def batch_sizes(sample, k, count, min_gap, seed):
    """The number of candidates in each batch `draw_indices` draws."""
    rng = np.random.default_rng(seed)
    sizes = []

    class Recording:
        def integers(self, low, high, size, endpoint):
            sizes.append(int(size[0]))
            return rng.integers(low, high, size=size, endpoint=endpoint)

    try:
        draw_indices(sample, Recording(), k, count, min_gap)
    except DomainError:
        pass
    return sizes


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
        b = curve_cr_fn(CurvePair(n=3, label="broken", **fns))
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

    def test_draw_indices_matches_draw_points(self, sample_l2, sample_l3,
                                              sample_l4):
        # rows, or the error raised, and where the rng stream ends
        def outcome(draw, sample, k, count, min_gap, seed):
            rng = np.random.default_rng(seed)
            try:
                got = draw(sample, rng, k, count, min_gap)
            except DomainError as exc:
                got = str(exc)
            return got, rng.bit_generator.state

        def batched(sample, rng, k, count, min_gap):
            return [[sample.points[i] for i in row]
                    for row in draw_indices(sample, rng, k, count, min_gap)]

        def one_at_a_time(draw):
            return lambda sample, rng, k, count, min_gap: [
                draw(sample, rng, k, min_gap) for _ in range(count)]

        cases = [
            # the draws of the axioms-L3 benchmark workload
            *((sample_l3, 5, 100, 1e-3, seed) for seed in range(20)),
            # a large gap makes the draw reject and redraw
            (sample_l2, 4, 40, 1e-3, 17), (sample_l2, 5, 40, 0.4, 17),
            (sample_l2, 6, 40, 0.3, 17),
            # DRAW_TRIES rejections in a row: k = 8 raises at every seed, k = 7
            # at seed 1 only; its other seeds fill the last rows after runs of
            # hundreds of rejections, one-candidate batches each
            *((sample_l2, 8, 40, 0.5, seed) for seed in range(5)),
            *((sample_l2, 7, 40, 0.55, seed) for seed in range(5)),
            # the draws of check_relation13 at its default gap
            *((sample_l3, 6, 100, 1e-3, seed) for seed in range(4)),
        ]
        # a batch ends inside a run of rejections, so the next one is cut to
        # DRAW_TRIES - run candidates while hundreds of rows are still missing
        cut = (sample_l3, 5, 2 * DRAW_TRIES, 0.3, 1)
        # Floyd's step s takes n - k + s when its draw is already in the row:
        # often on six points, about once in 270 rows on the 2,736 points of
        # L = 4 at k = 5
        six = SampleSet(points=sample_l2.points[::8][:6], group=sample_l2.group)
        replacing = [
            [(six, k, 20, 1e-12, seed) for k in range(1, 7) for seed in range(4)],
            [(sample_l4, k, 400, 1e-3, seed) for k in (4, 5) for seed in range(4)],
        ]
        raised = 0
        for case in [*cases, cut, *replacing[0], *replacing[1]]:
            want = outcome(one_at_a_time(draw_points_loop), *case)
            assert outcome(batched, *case) == want
            assert outcome(one_at_a_time(draw_points), *case) == want
            raised += isinstance(want[0], str)
        assert raised == 6
        # the cases do take that branch: 19 of 24 and 6 of 8 of them
        replaced = [sum(floyd_replaces(*case) for case in group)
                    for group in replacing]
        assert replaced == [19, 6]
        # the first batch holds DRAW_TRIES candidates and leaves at least
        # count - DRAW_TRIES rows missing, so a shorter second one was cut
        first, second = batch_sizes(*cut)[:2]
        assert first == DRAW_TRIES > second

    def test_draw_indices_rejects_empty_tuples(self, sample_l2):
        with pytest.raises(DomainError, match="at least 1"):
            draw_indices(sample_l2, np.random.default_rng(0), 0, 5)

    @pytest.mark.parametrize("count", [0, -3])
    @pytest.mark.parametrize("check", [check_axioms, check_invariance,
                                       check_relation12, check_relation13])
    def test_fewer_than_one_tuple_rejected(self, sample_l2, check, count):
        with pytest.raises(DomainError, match="at least 1"):
            check(classical_cr_fn(), sample_l2, count)

    def test_draw_indices_rejects_small_samples(self, sample_l2):
        six = SampleSet(points=sample_l2.points[:6], group=sample_l2.group)
        with pytest.raises(DomainError, match="too small: 6 < 7"):
            draw_indices(six, np.random.default_rng(0), 7, 5)

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

    def test_nan_violation_fails_every_check(self, sample_l2):
        # a NaN counts as inf, and the witness is the first tuple that gave
        # one; half_nan is NaN exactly where its x lies above pi
        angles = sample_l2.angles()
        classical = classical_cr_fn()
        all_nan = CrossRatioFn(lambda x, y, z, t: float("nan"), "nan")
        half_nan = CrossRatioFn(
            lambda x, y, z, t: (float("nan") if x.circle_coord > np.pi
                                else classical(x, y, z, t)), "half-nan")

        def witness(b, k, seed, x_positions):
            # x_positions: where the x of the identity's quadruples sit in a tuple
            idx = draw_indices(sample_l2, np.random.default_rng(seed), k, 20)
            nan = (angles[idx[:, x_positions]] > np.pi).any(axis=1)
            if b is all_nan:
                nan[:] = True
            assert nan.any()
            return tuple(angles[idx[np.argmax(nan)]].tolist())

        for b in (all_nan, half_nan):
            for seed in (0, 3):
                rep = check_axioms(b, sample_l2, 20, seed=seed)
                assert rep["max_violation"] == np.inf and not rep["passed"]
                assert set(rep["per_axiom"].values()) == {np.inf}
                for name, positions in (("symmetry", [0, 2]), ("zero-locus", [0]),
                                        ("cocycle-wy", [0, 4])):
                    assert rep["argmax"][name] == witness(b, 5, seed, positions)[:4]
                for check, k, positions in ((check_relation12, 4, [0, 3]),
                                            (check_relation13, 6, [0, 1])):
                    rep = check(b, sample_l2, 20, seed=seed)
                    assert rep["max_violation"] == np.inf and not rep["passed"]
                    assert rep["argmax"] == witness(b, k, seed, positions)

                calls = []

                def recorded(x, y, z, t, b=b):
                    calls.append((x, y, z, t))
                    return b(x, y, z, t)

                rep = check_invariance(CrossRatioFn(recorded, "recorded"),
                                       sample_l2, 10, seed=seed)
                assert rep["max_violation"] == np.inf and not rep["passed"]
                # two calls a tuple: on the drawn points, then on the moved ones
                first = next(i for i, q in enumerate(calls) if np.isnan(b(*q))) // 2
                assert rep["argmax"][1] == tuple(p.circle_coord for p in calls[2 * first])
            pts = sample_l2.points
            with pytest.raises(DomainError, match="precondition"):
                embed_from_cr(b, pts[3], pts[11], pts[19], sample=sample_l2, count=20)

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
