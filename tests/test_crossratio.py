import inspect
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from crlab import crossratio, surfgrp
from crlab.crossratio import (
    CHECK_TOL, DRAW_TRIES, PAIRING_TOL, CurvePair, DomainError, check_axioms,
    check_invariance, check_relation12, check_relation13, classical_cr,
    curve_cr, curve_cr_fn, draw_indices, draw_points, dual_cr, embed_from_cr,
    flow_from_cr, period, representation_pair, veronese_pair,
)
from crlab.projlin import (
    SpectrumError, dominant_lines, normalize_rep, sym_power_rep, veronese,
    veronese_dual,
)
from crlab.surfgrp import (
    TWO_PI, BoundaryPoint, GeneratorSet, GroupDataError, SampleSet, Word,
    circular_gap, conjugate_split, enumerate_words, evaluate, fixed_points_2x2,
    make_generator_set, sample_boundary, translate_point,
)


@dataclass(eq=False)
class CrossRatioFn:
    """A cross ratio given as a function of four boundary points: the
    suite's reference, corrupted, counting and constant evaluators.  It
    has what the checks use of a cross ratio, with an `on_indices` that
    evaluates tuple by tuple."""

    evaluator: callable
    label: str

    def __call__(self, x, y, z, t):
        return self.evaluator(x, y, z, t)

    def on_indices(self, sample, idx, quads):
        """b on each quadruple of `quads`, a tuple of (x, y, z, t) position
        tuples, of each row of a (count, k) array of indices into
        sample.points, evaluated one by one, tuple by tuple: a
        (len(quads), count) array."""
        pts = sample.points
        return np.array([[self.evaluator(*(pts[row[i]] for i in q)) for q in quads]
                         for row in idx.tolist()], float).T


def classical_cr_fn():
    """The classical cross ratio of the points' lines, `classical_cr`: a
    reference that is exactly 0 where two of its lines coincide, which no
    pairing quotient is."""

    def ev(x, y, z, t):
        return classical_cr(x.line, y.line, z.line, t.line)

    return CrossRatioFn(evaluator=ev, label="classical")


def rep_cross_ratio(octagon, sym_reps, n):
    return representation_pair(octagon, sym_reps[n], n)


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
        # inf % 2 pi is NaN, which would make a NaN point
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="angle must be finite"):
                BoundaryPoint.from_angle(bad)


def one_matrix_line(rep, word, dual):
    """The bytes of xi (or xi* when dual) at the attracting fixed point of
    word from one word product and one `dominant_lines` call on it alone, or
    that call's message: the reference that `representation_pair`'s stacked
    solve must match byte for byte."""
    v, c = conjugate_split(word)
    m = evaluate(rep, c.inverse() if dual else c)
    (line,), (error,) = dominant_lines((m.T if dual else m)[None])
    if error is not None:
        return error
    if v.letters:
        g = evaluate(rep, v.inverse()).T if dual else evaluate(rep, v)
        line = normalize_rep(g @ line)
    return line.tobytes()


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
        # point of a, sampled as the repelling one of a^-1 and labelled a
        c, s = 2 * np.cos(0.7), 2 * np.sin(0.7)
        spin = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 0.25]])
        pair = representation_pair(octagon, (spin,) + sym_reps[3][1:], 3)
        p = next(p for p in sample_l2.points if p.word == Word.of(1))
        with pytest.raises(SpectrumError, match="not real") as first:
            pair.xi(p)
        # each lookup raises an error of its own: one kept and raised again
        # would grow its traceback every time
        with pytest.raises(SpectrumError, match="not real") as again:
            pair.xi(p)
        assert again.value is not first.value
        # a check raises it again for the tuple that needs the table's NaN row
        with pytest.raises(SpectrumError, match="not real"):
            check_axioms(pair, sample_l2, 100)
        i = sample_l2.points.index(p)
        xi, xistar = pair.table(sample_l2)
        assert np.all(np.isnan(xi[i]))
        # the dual side has its own eigenline there: the dominant line of
        # rho(a^-1)^T, eigenvalue 4 on the axis
        assert np.array_equal(xistar[i], [0.0, 0.0, 1.0])
        assert np.array_equal(pair.xistar(p), [0.0, 0.0, 1.0])

    def test_overflowing_word_fails_on_its_own_side(self, octagon, sym_reps):
        # generator 1 mapped to diag(1e200, 2, 1): rho(a.a) overflows to inf,
        # while rho(a'.a') = diag(0, 1/4, 1) is finite.  Only the two values
        # that stand for rho(a.a) raise, as a SpectrumError; the other two
        # are the dominant lines of rho(a'.a') and of its transpose
        images = (np.diag([1e200, 2.0, 1.0]),) + sym_reps[3][1:]
        pair = representation_pair(octagon, images, 3)
        att, rep = octagon.fixed_points(Word.of(1, 1))
        with pytest.raises(SpectrumError, match="matrix is not finite"):
            pair.xi(att)
        with pytest.raises(SpectrumError, match="matrix is not finite"):
            pair.xistar(rep)
        assert np.array_equal(pair.xistar(att), [0.0, 0.0, 1.0])
        assert np.array_equal(pair.xi(rep), [0.0, 0.0, 1.0])

    @pytest.mark.parametrize("first", range(3))
    def test_overflowing_rotation_fails_only_itself(self, octagon, sym_reps,
                                                    first):
        # a = diag(1e200, 1, 1e-200) and b, which swaps e1 and e3 and
        # negates e2: rho(a.b.a) = b is finite, while rho(a.a.b) and
        # rho(b.a.a) overflow.  Whichever rotation is asked for first, each
        # gets its own outcome at both fixed points, and the overflow of a
        # rotation nobody asked for emits no warning
        a = np.diag([1e200, 1.0, 1e-200])
        b = np.array([[0.0, 0.0, 1.0], [0.0, -1.0, 0.0], [1.0, 0.0, 0.0]])
        pair = representation_pair(octagon, (a, b) + sym_reps[3][2:], 3)
        want = {(1, 2, 1): "dominant eigenvalue is not simple",
                (2, 1, 1): "matrix is not finite",
                (1, 1, 2): "matrix is not finite"}
        words = list(want)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for w in words[first:] + words[:first]:
                for p in octagon.fixed_points(Word(w)):
                    for fn in (pair.xi, pair.xistar):
                        with pytest.raises(SpectrumError) as err:
                            fn(p)
                        assert str(err.value) == want[w], (w, p.word)

    def test_overflowing_move_fails_on_its_own_side(self, octagon, sample_l2,
                                                    sym_reps, monkeypatch):
        # generator 1 mapped to diag(1e200, 2, 1): the L = 2 points c'.a'
        # and a.c moved twice by a have the words a.a.c'.a'.a'.a' and
        # a.a.a.c.a'.a', and rho(a.a) overflows the moved xi to inf, while
        # rho(a.a)^-T moves xi* to a finite line.  Only xi raises, as a
        # SpectrumError, with no warning, on every lookup, though rho(a.a)
        # is formed once and kept
        images = (np.diag([1e200, 2.0, 1.0]),) + sym_reps[3][1:]
        pair = representation_pair(octagon, images, 3)
        rep = pair.xi_fn.args[1]
        formed = []
        real_evaluate = surfgrp.evaluate

        def counted(gens, word):
            if gens is rep:
                formed.append(word.letters)
            return real_evaluate(gens, word)

        monkeypatch.setattr(surfgrp, "evaluate", counted)
        a = Word.of(1)
        points = [p for p in sample_l2.points
                  if p.word.letters in ((-3, -1), (1, 3))]
        assert len(points) == 2  # both fixed points of c'.a'
        for p in points:
            q = translate_point(octagon, a, translate_point(octagon, a, p))
            v, _ = conjugate_split(q.word)
            assert v.letters == (1, 1)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for _ in range(3):
                    with pytest.raises(SpectrumError, match="zero or not finite"):
                        pair.xi(q)
                    moved = evaluate(GeneratorSet(images), v.inverse()).T @ pair.xistar(p)
                    assert np.array_equal(pair.xistar(q), normalize_rep(moved))
        assert sorted(formed) == [(-1, -1), (1, 1)]
        assert not np.isfinite(rep.product(Word.of(1, 1))).all()

    def test_word_class_costs_one_stacked_eig(self, octagon, sample_l2,
                                              sym_reps, monkeypatch):
        calls = []

        def counted(stack):
            calls.append(len(stack))
            return dominant_lines(stack)

        monkeypatch.setattr(crossratio, "dominant_lines", counted)
        pair = representation_pair(octagon, sym_reps[3], 3)
        p = sample_l2.points[7]
        ls = p.word.letters
        assert not conjugate_split(p.word)[0].letters  # cyclically reduced
        rotations = {ls[i:] + ls[:i] for i in range(len(ls))}
        assert len(rotations) > 1
        pair.xi(p)
        assert calls == [4 * len(rotations)]
        # xi and xi* at both fixed points of every rotation of p's word,
        # named by the rotation or by its inverse, come from that one solve
        for r in rotations:
            for w in (Word(r), Word(r).inverse()):
                for q in octagon.fixed_points(w):
                    pair.xi(q)
                    pair.xistar(q)
        assert len(calls) == 1
        # g p has the word g w g^-1: its values are those at p moved by rho(g)
        g = next(g for g in (1, 2, 3, 4) if g not in (-ls[0], ls[-1]))
        q = translate_point(octagon, Word.of(g), p)
        assert conjugate_split(q.word)[0].letters  # not cyclically reduced
        pair.xi(q)
        pair.xistar(q)
        assert len(calls) == 1
        # a proper power has one distinct rotation: a.a costs one stack of 4
        for q in octagon.fixed_points(Word.of(1, 1)):
            pair.xi(q)
            pair.xistar(q)
        assert calls[1:] == [4]

    def test_one_stacked_eig_per_conjugacy_class(self, octagon, sample_l3,
                                                 sym_reps, monkeypatch):
        # the class of a cyclically reduced u is the rotations of u and of
        # u^-1: the L = 3 sample costs one dominant_lines call per class
        # among its words, with four matrices per rotation of u
        calls = []

        def counted(stack):
            calls.append(len(stack))
            return dominant_lines(stack)

        monkeypatch.setattr(crossratio, "dominant_lines", counted)
        pair = representation_pair(octagon, sym_reps[3], 3)
        classes = set()
        for p in sample_l3.points:
            pair.xi(p)
            pair.xistar(p)
            ls = conjugate_split(p.word)[1].letters
            inv = Word(ls).inverse().letters
            classes.add(frozenset(w[i:] + w[:i] for w in (ls, inv)
                                  for i in range(len(ls))))
        assert len(calls) == len(classes) < len(sample_l3.points) / 2
        assert sum(calls) == sum(2 * len(k) for k in classes)

    def test_cache_holds_one_array_per_class_solve(self, octagon, sample_l3,
                                                   sym_reps, monkeypatch):
        # each word of a class keeps (lines, errors, row) of the class's one
        # dominant_lines call, not lines of its own: one array per call, and
        # the rows of rho(r) and rho(r^-1)^T, for every word of the class
        calls = []

        def counted(stack):
            calls.append(dominant_lines(stack))
            return calls[-1]

        monkeypatch.setattr(crossratio, "dominant_lines", counted)
        pair = representation_pair(octagon, sym_reps[3], 3)
        for p in sample_l3.points:
            pair.xi(p)
            pair.xistar(p)
        cores = pair.xi_fn.args[0]
        assert pair.xistar_fn.args[0] is cores
        solves = {id(lines): (lines, errors, []) for lines, errors in calls}
        assert len(solves) == len(calls)
        for lines, errors, row in cores.values():
            solved = solves[id(lines)]
            assert solved[0] is lines and solved[1] is errors
            solved[2].append(row)
        for lines, errors, rows in solves.values():
            assert sorted(rows) == list(range(0, len(lines), 2))
            assert lines.shape == (len(errors), 3) and not lines.flags.writeable
        # a failed row is NaN, and its message raises on its own side only:
        # rho(a) has dominant eigenvalues 2 exp(+-0.7 i), rho(a^-1)^T the
        # line e3 (as in test_non_real_dominant_eigenvalue_raises)
        c, s = 2 * np.cos(0.7), 2 * np.sin(0.7)
        spin = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 0.25]])
        pair = representation_pair(octagon, (spin,) + sym_reps[3][1:], 3)
        p = next(p for p in sample_l3.points if p.word == Word.of(1))
        assert np.array_equal(pair.xistar(p), [0.0, 0.0, 1.0])
        lines, errors, row = pair.xi_fn.args[0][(1,)]
        assert errors[row] == "dominant eigenvalue is not real"
        assert np.isnan(lines[row]).all() and errors[row + 1] is None
        with pytest.raises(SpectrumError, match="^dominant eigenvalue is not real$"):
            pair.xi(p)
        assert pair.xistar(p).tobytes() == lines[row + 1].tobytes()

    def test_stacked_eig_matches_one_matrix_solves(
            self, octagon, sample_l2, sample_l4, sym_reps):
        # every xi and xi* is byte-equal to dominant_lines of the one word
        # product it stands for, solved alone, or raises the message that
        # solve gives: on Sym^(n-1) of the octagon for n = 2..9, and with
        # the rotating first generator of
        # test_non_real_dominant_eigenvalue_raises, at every point of the
        # L <= 4 sample (it holds those of L = 2 and 3) and at the L = 2
        # points moved by each generator
        c, s = 2 * np.cos(0.7), 2 * np.sin(0.7)
        spin = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 0.25]])
        cases = [(n, tuple(sym_power_rep(n, m) for m in octagon.matrices))
                 for n in range(2, 10)]
        cases.append((3, (spin,) + sym_reps[3][1:]))

        def outcome(fn, *args):
            try:
                return fn(*args).tobytes()
            except SpectrumError as e:
                return str(e)

        moved = [translate_point(octagon, Word.of(g), p)
                 for p in sample_l2.points for g in (1, 2, 3, 4, -1, -2, -3, -4)]
        assert any(conjugate_split(q.word)[0].letters for q in moved)
        raised = 0
        for n, images in cases:
            rep = GeneratorSet(images)
            pair = representation_pair(octagon, images, n)
            for p in (*sample_l4.points, *moved):
                for dual, fn in ((False, pair.xi), (True, pair.xistar)):
                    want = one_matrix_line(rep, p.word, dual)
                    assert outcome(fn, p) == want, (n, p.word, dual)
                    raised += isinstance(want, str)
        assert raised > 0

    def test_image_shape_checked_at_construction(self, octagon, sym_reps):
        # unchecked, Sym^2 images with n = 5 build a pair whose checks fail
        # to broadcast
        with pytest.raises(GroupDataError, match="5 x 5"):
            representation_pair(octagon, sym_reps[3], 5)
        with pytest.raises(GroupDataError, match="3 x 3"):
            representation_pair(octagon, [m[:, :2] for m in sym_reps[3]], 3)
        # n < 2 has no limit curve: unchecked, 1 x 1 images build a constant
        # cross ratio, and veronese_pair(1) fails only at its first value
        with pytest.raises(ValueError, match="n must be >= 2"):
            representation_pair(octagon, [np.eye(1)] * 4, 1)
        with pytest.raises(ValueError, match="n must be >= 2"):
            veronese_pair(1)

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

    def test_table_built_once_per_sample(self, sample_l2, sample_l3):
        # a check on a sample set it has seen evaluates no curve value again
        calls = {"xi": 0, "xistar": 0}

        def counted(side, fn):
            def value(p):
                calls[side] += 1
                return fn(3, p.line)
            return value

        pair = CurvePair(n=3, xi_fn=counted("xi", veronese),
                         xistar_fn=counted("xistar", veronese_dual),
                         label="counted")
        check_axioms(pair, sample_l2, 50, seed=0)
        built = dict(calls)
        assert built == {"xi": len(sample_l2), "xistar": len(sample_l2)}
        table = pair.table(sample_l2)
        check_axioms(pair, sample_l2, 50, seed=1)
        check_relation13(pair, sample_l2, 50, seed=2)
        assert calls == built and pair.table(sample_l2) is table
        # another sample set gets its own table, and the first one stays
        check_axioms(pair, sample_l3, 50, seed=0)
        assert calls == {side: built[side] + len(sample_l3) for side in calls}
        assert pair.table(sample_l2) is table

    def test_table_is_read_only(self, sample_l2):
        # every later check on the sample reads the one table: a write to
        # it would change them all
        pair = veronese_pair(3)
        before = check_axioms(pair, sample_l2, 50)
        for arr in pair.table(sample_l2):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[:] = 0.0
        assert check_axioms(pair, sample_l2, 50) == before

    def test_kept_values_are_read_only(self, octagon, sample_l2, sym_reps):
        # a kept curve value is handed out itself: a write to it would
        # change every later lookup at its point
        p = sample_l2.points[7]
        assert not conjugate_split(p.word)[0].letters  # a core word: kept
        for pair in (representation_pair(octagon, sym_reps[3], 3), veronese_pair(3)):
            for fn in (pair.xi, pair.xistar):
                v = fn(p)
                before = v.tobytes()
                with pytest.raises(ValueError, match="read-only"):
                    v[:] = 0.0
                assert fn(p).tobytes() == before, pair.label

    def test_moved_values_are_new_arrays(self, octagon, sample_l2, sym_reps):
        # a moved value is computed on each lookup: writable, and a write
        # to it reaches no later lookup
        pair = representation_pair(octagon, sym_reps[3], 3)
        moved = [translate_point(octagon, Word.of(2), p) for p in sample_l2.points[:8]]
        moved = [q for q in moved if conjugate_split(q.word)[0].letters]
        assert moved
        for q in moved:
            for fn in (pair.xi, pair.xistar):
                v = fn(q)
                before = v.tobytes()
                v[:] = 0.0
                assert fn(q).tobytes() == before

    @pytest.mark.parametrize("n", range(2, 10))
    def test_moved_values_keep_one_product_per_conjugator(
            self, octagon, sample_l2, monkeypatch, n):
        # a moved value is rho(v) (or rho(v^-1)^T) times its core's value,
        # with the bytes of a product formed on the spot, but each distinct
        # conjugator's product is formed once and kept read-only: at every
        # signed letter times L = 2 point, and at period's moved points
        images = tuple(sym_power_rep(n, m) for m in octagon.matrices)
        pair = representation_pair(octagon, images, n)
        rep = pair.xi_fn.args[1]
        formed = []
        real_evaluate = surfgrp.evaluate

        def counted(gens, word):
            # the images' kept products only: the class solves call
            # crossratio's evaluate, which this does not patch
            if gens is rep:
                formed.append(word.letters)
            return real_evaluate(gens, word)

        monkeypatch.setattr(surfgrp, "evaluate", counted)
        letters = [Word.of(x) for x in range(-4, 5) if x]
        moved = [translate_point(octagon, g, p)
                 for g in letters for p in sample_l2.points]
        moved += [translate_point(octagon, w, y)
                  for w in enumerate_words(octagon, 2)[::5]
                  for y in sample_l2.points[::9]]
        conjugators = set()
        moved = [q for q in moved if conjugate_split(q.word)[0].letters]
        for _ in range(2):
            for q in moved:
                v, c = conjugate_split(q.word)
                core, _ = octagon.fixed_points(c)
                xi = normalize_rep(evaluate(rep, v) @ pair.xi(core))
                xistar = normalize_rep(evaluate(rep, v.inverse()).T @ pair.xistar(core))
                assert pair.xi(q).tobytes() == xi.tobytes(), q.word
                assert pair.xistar(q).tobytes() == xistar.tobytes(), q.word
                conjugators |= {v.letters, v.inverse().letters}
        assert len(formed) == len(set(formed)) and set(formed) == conjugators
        for v in formed:
            m = rep.product(Word(v))
            assert m.tobytes() == evaluate(rep, Word(v)).tobytes()
            assert rep.product(Word(v)) is m and not m.flags.writeable

    @pytest.mark.parametrize("n", range(2, 10))
    def test_curve_cr_matches_matmul_reference(self, octagon, sample_l2, n):
        # curve_cr's ndarray.dot pairings are the products @ takes, bit for
        # bit, on kept, moved and closed-form values
        images = tuple(sym_power_rep(n, m) for m in octagon.matrices)
        rng = np.random.default_rng(n)
        moved = [translate_point(octagon, Word.of(g), p)
                 for g in (1, -2, 3) for p in sample_l2.points]
        sample = SampleSet(points=(*sample_l2.points, *moved), group=octagon)
        for pair in (representation_pair(octagon, images, n), veronese_pair(n)):
            for _ in range(100):
                x, y, z, t = draw_points(sample, rng, 4)
                vx, vz, cy, ct = pair.xi(x), pair.xi(z), pair.xistar(y), pair.xistar(t)
                dzy, dxt = vz @ cy, vx @ ct
                if min(abs(dzy), abs(dxt)) <= PAIRING_TOL:
                    with pytest.raises(DomainError, match="degenerate pairing"):
                        curve_cr(pair, (x, y, z, t))
                    continue
                want = ((vx @ cy) * (vz @ ct)) / (dzy * dxt)
                assert curve_cr(pair, (x, y, z, t)).hex() == float(want).hex()

    def test_veronese_values_keyed_on_line_bytes(self, octagon, monkeypatch):
        # a Veronese value depends on the line alone: two points with the
        # same line bytes share one computed value, and a line that differs
        # from another only in the sign of a zero gets its own
        counts = {"veronese": 0, "veronese_dual": 0}

        def counted(fn):
            def wrapper(n, p):
                counts[fn.__name__] += 1
                return fn(n, p)
            return wrapper

        monkeypatch.setattr(crossratio, "veronese", counted(veronese))
        monkeypatch.setattr(crossratio, "veronese_dual", counted(veronese_dual))
        pair = veronese_pair(3)
        w = Word.of(1, 3)
        solved = fixed_points_2x2(evaluate(octagon, w), word=w)
        for p, q in zip(octagon.fixed_points(w), solved):
            assert p is not q and p.line.tobytes() == q.line.tobytes()
            assert pair.xi(p) is pair.xi(q) and pair.xistar(p) is pair.xistar(q)
        assert counts == {"veronese": 2, "veronese_dual": 2}
        plus, minus = (BoundaryPoint(None, 0.0, np.array([1.0, z]))
                       for z in (0.0, -0.0))
        for fn, curve in ((pair.xi, veronese), (pair.xistar, veronese_dual)):
            got = [fn(p).tobytes() for p in (plus, minus)]
            assert got == [curve(3, p.line).tobytes() for p in (plus, minus)]
            assert got[0] != got[1]
        assert counts == {"veronese": 4, "veronese_dual": 4}
        # a line held as integers is the float line it equals
        ints = BoundaryPoint(None, 0.0, np.array([1, 0]))
        assert pair.xi(ints) is pair.xi(plus) and pair.xistar(ints) is pair.xistar(plus)
        assert counts == {"veronese": 4, "veronese_dual": 4}

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
        rep = check_axioms(classical_cr_fn(), sample_l2, 300, seed=0)
        assert rep["passed"] and rep["max_violation"] < 1e-12, rep

    def test_fuchsian_axioms_n3(self, octagon, sample_l2, sym_reps):
        b = rep_cross_ratio(octagon, sym_reps, 3)
        rep = check_axioms(b, sample_l2, 200, seed=1)
        assert rep["passed"], rep

    def test_corrupted_cross_ratio_flagged(self, sample_l2):
        base = classical_cr_fn()
        bad = CrossRatioFn(
            evaluator=lambda x, y, z, t: base(x, y, z, t) + 0.1,
            label="corrupted",
        )
        rep = check_axioms(bad, sample_l2, 100, seed=2)
        assert rep["max_violation"] > 0.05

    def test_invariance(self, octagon, sample_l2, sym_reps):
        # translated tuples carry the eigen-data of their sample points moved
        # by rho(g); the comparison still needs a conditioning floor on the
        # pairing sizes
        b = rep_cross_ratio(octagon, sym_reps, 3)
        rep = check_invariance(b, sample_l2, 100, seed=3, min_gap=0.08)
        assert rep["passed"], rep


class TestPeriods:
    @pytest.mark.parametrize("n,mult", [(2, 1.0), (3, 2.0), (4, 3.0)])
    def test_fuchsian_periods(self, octagon, sample_l2, sym_reps, n, mult):
        b = rep_cross_ratio(octagon, sym_reps, n)
        w = Word.of(1, 2)
        att, _ = fixed_points_2x2(evaluate(octagon, w), word=w)
        lam = np.max(np.abs(np.linalg.eigvals(evaluate(octagon, w))))
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

    def test_kept_fixed_points_cannot_be_written(self, octagon, sample_l2):
        # a write to a kept fixed point's line reached every later period:
        # after a.line[:] = [1, 0] at (a.c)+ the Veronese period of a.c at
        # this base point read 4.142 in place of 9.027
        group = make_generator_set(octagon.matrices)
        w, y = Word.of(1, 3), sample_l2.points[4]
        before = period(veronese_pair(3), group, w, y)
        assert before == pytest.approx(9.0270717197, abs=1e-9)
        for p in group.fixed_points(w):
            with pytest.raises(ValueError, match="read-only"):
                p.line[:] = [1.0, 0.0]
        assert period(veronese_pair(3), group, w, y) == before

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

    def test_base_point_dependence_rejected(self, octagon, sample_l2):
        # scaling by 1 + 1e-3 t moves the period with the base point y = t:
        # 3.057683 at y, 3.058533 at y2, far beyond PERIOD_TOL
        classical = classical_cr_fn()
        skewed = CrossRatioFn(
            evaluator=lambda x, y, z, t: (classical(x, y, z, t)
                                          * (1.0 + 1e-3 * t.circle_coord)),
            label="skewed")
        w = Word.of(1, 2)
        y, y2 = sample_l2.points[4], sample_l2.points[11]
        assert period(skewed, octagon, w, y) == pytest.approx(3.057683, abs=1e-6)
        assert period(skewed, octagon, w, y2) == pytest.approx(3.058533, abs=1e-6)
        with pytest.raises(DomainError, match="depends on base point"):
            period(skewed, octagon, w, y, y2)
        assert period(classical, octagon, w, y, y2) == period(classical, octagon, w, y)

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
    def test_t_dependence_flagged(self, sample_l2):
        # a factor in the last point alone makes the triple ratio
        # b(x,y,z,t) b(z,x,y,t) b(y,z,x,t) depend on t; check_axioms flags it
        # through the two cocycle identities that t-independence rests on
        classical = classical_cr_fn()

        def corrupted(x, y, z, t):
            return classical(x, y, z, t) * (1.0 + t.circle_coord)

        def triple(x, y, z, t):
            return b(x, y, z, t) * b(z, x, y, t) * b(y, z, x, t)

        b = CrossRatioFn(evaluator=corrupted, label="corrupted")
        x, y, z, t3, t5 = [BoundaryPoint.from_angle(2 * np.arctan(v))
                           for v in (0.0, 1.0, 2.0, 3.0, 5.0)]
        assert abs(triple(x, y, z, t3) - triple(x, y, z, t5)) > 0.1
        rep = check_axioms(b, sample_l2, 100, seed=2)
        assert rep["max_violation"] > 0.05
        assert rep["per_identity"]["cocycle-zw"] > 0.5
        assert rep["per_identity"]["cocycle-wy"] > 0.5


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
                                  seed=4)
        assert rep["passed"] and rep["max_violation"] < 1e-11, rep
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
                               seed=5)
        assert rep["passed"], rep

    def test_reproduction_fails_at_higher_rank(self, octagon, sample_l2, sym_reps):
        # above n = 2 the product identity fails, and with it the embedding
        pts = sample_l2.points
        for n in (3, 4, 5):
            b = rep_cross_ratio(octagon, sym_reps, n)
            _, rep = embed_from_cr(b, pts[3], pts[11], pts[19], sample=sample_l2,
                                   count=60, seed=6)
            assert not rep["passed"] and rep["max_violation"] > 0.5, (n, rep)


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
        b = veronese_pair(3)
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
        b = veronese_pair(3)
        orientations = set()
        for w, rep, y, att in self.recovery_cases(octagon, sample_l2):
            orientations.add(is_counter_clockwise(
                rep.circle_coord, y.circle_coord, att.circle_coord))
            xt = flow_from_cr(b, rep, y, att, period(b, octagon, w, y))
            gy = translate_point(octagon, w, y)
            assert circular_gap(xt.circle_coord, gy.circle_coord) < 1e-6, (w, y)
        assert orientations == {True, False}

    def test_flow_evaluation_count(self, octagon, sample_l2):
        # log |b| is affine in the search's chart, so the first secant step
        # lands just past x_t and one or two probes close the bracket:
        # measured 3 or 4 evaluations, 682 in all over the 192 flows (mean
        # 3.55).  Which of the two a flow takes follows the rounding of
        # log |b| at x_t, so the mean is pinned with room for other libms.
        inner = veronese_pair(3)
        calls = []

        def counted(x, y, z, t):
            calls.append(1)
            return inner(x, y, z, t)

        b = CrossRatioFn(evaluator=counted, label="counted")
        counts = []
        for w, rep, y, att in self.recovery_cases(octagon, sample_l2):
            t = period(inner, octagon, w, y)
            calls.clear()
            flow_from_cr(b, rep, y, att, t)
            assert len(calls) <= 4, (w, y, len(calls))
            counts.append(len(calls))
        assert len(counts) == 192
        assert np.mean(counts) <= 3.75, np.mean(counts)

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
        plain = CurvePair(
            n=3, xi_fn=lambda p: veronese(3, p.line),
            xistar_fn=lambda p: veronese_dual(3, p.line), label="plain")
        for w, rep, y, att in self.recovery_cases(octagon, sample_l2):
            t = period(plain, octagon, w, y)
            inner = veronese_pair(3)
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

    @staticmethod
    def classical_flow(triple, t):
        """Angle of the classical flow by t from x0 on (x-, x0, x+): with
        u = tan(phi / 2), x_t solves
        (u+ - u0)(u- - u_t) / ((u+ - u_t)(u- - u0)) = e^t."""
        um, u0, up = (np.tan(a / 2.0) for a in triple)
        ratio = (up - u0) / (um - u0)
        e = np.exp(t)
        # u_t = (e u+ - ratio u-) / (e - ratio), as a homogeneous pair
        return 2.0 * np.arctan2(e * up - ratio * um, e - ratio) % TWO_PI

    @pytest.mark.parametrize("triple", [(0.0, 2.0, 4.0), (4.0, 2.0, 0.0),
                                        (1.0, 5.5, 3.0)])
    def test_classical_flow_matches_closed_form(self, triple):
        x_minus, x_zero, x_plus = (BoundaryPoint.from_angle(a) for a in triple)
        for t in (0.1, 1.0, 5.0, 20.0, -0.1, -1.0, -5.0, -20.0):
            exact = self.classical_flow(triple, t)
            got = flow_from_cr(self.b, x_minus, x_zero, x_plus, t)
            assert circular_gap(got.circle_coord, exact) < 1e-12, t

    @pytest.mark.parametrize("triple", [(4.0, 2.0, 0.0), (1.0, 5.5, 3.0)])
    def test_probe_on_x_minus_counts_as_past_x_t(self, triple):
        # at t = -60 a probe collapses onto x- in angle and b is exactly 0
        # there: that probe lies past x_t, with no divide-by-zero warning
        # (an error under the suite's warnings policy).  b is the suite's
        # classical evaluator, a ratio of 2x2 determinants, and not
        # veronese_pair(2): a pairing quotient is not exactly 0 where the
        # probe collapses onto x-, but stops at the rounding of its pairing,
        # and on these triples its flow raises "not bracketed" from t = -38
        # or -40 on
        x_minus, x_zero, x_plus = (BoundaryPoint.from_angle(a) for a in triple)
        got = flow_from_cr(self.b, x_minus, x_zero, x_plus, -60.0)
        exact = self.classical_flow(triple, -60.0)
        assert circular_gap(got.circle_coord, exact) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_veronese_flow_matches_classical_closed_form(self, n):
        # the Veronese cross ratio of Sym^(n-1) is the classical one to the
        # power n - 1, so its flow by t is the classical flow by t / (n - 1)
        b = veronese_pair(n)
        for triple in [(0.0, 2.0, 4.0), (1.0, 5.5, 3.0),   # counter-, clockwise
                       (4.0, 2.0, 0.0), (3.0, 5.5, 1.0)]:  # and mirrored
            x_minus, x_zero, x_plus = (BoundaryPoint.from_angle(a) for a in triple)
            for t in np.linspace(-12.0, 12.0, 49):
                exact = self.classical_flow(triple, t / (n - 1))
                got = flow_from_cr(b, x_minus, x_zero, x_plus, float(t))
                assert circular_gap(got.circle_coord, exact) < 1e-12, (triple, t)

    @pytest.mark.parametrize("angles", [
        (1.0, 2.0, 1.0),              # x+ = x-
        (1.0, 2.0, 1.0 + 5e-10),      # x+ within DEDUP_TOL of x-
        (TWO_PI - 3e-10, 2.0, 3e-10), # the same across angle 0
        (1.0, 3.0 + 5e-10, 3.0),      # x0 within it of x+
        (1.0, 1.0 - 5e-10, 3.0),      # x0 within it of x-
    ])
    def test_degenerate_triple_rejected(self, angles):
        # rejected before any evaluation: the chart's 2x2 solve would divide
        # by zero on x+ = x-
        calls = []
        b = veronese_pair(3)
        counted = CrossRatioFn(evaluator=lambda *q: calls.append(q) or b(*q),
                               label=b.label)
        x_minus, x_zero, x_plus = (BoundaryPoint.from_angle(a) for a in angles)
        for t in (0.5, -0.5, 0.0):
            with pytest.raises(DomainError, match="three distinct points"):
                flow_from_cr(counted, x_minus, x_zero, x_plus, t)
        assert calls == []

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_rejected(self, t):
        # rejected before any evaluation: a NaN target would end the search at x0
        calls = []
        b = veronese_pair(3)
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
        # the classical cross ratio, veronese_pair(2), is its own dual
        b = veronese_pair(2)
        bd = dual_cr(b)
        rng = np.random.default_rng(12)
        for _ in range(20):
            pts = draw_points(sample_l2, rng, 4)
            assert b(*pts) == pytest.approx(bd(*pts), rel=1e-12)

    def test_dual_is_contragredient(self, octagon, sample_l2, sym_reps):
        b = rep_cross_ratio(octagon, sym_reps, 3)
        contra = tuple(np.linalg.inv(m).T for m in sym_reps[3])
        b_star = representation_pair(octagon, contra, 3)
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

    @pytest.mark.parametrize("kind", ["eig", "veronese"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_dual_gather_is_the_swapped_pair(self, octagon, sample_l2, sym_reps,
                                             monkeypatch, kind, n):
        # on the check quadruples of the L = 2 sample, the dual's gather
        # gives the bytes of its `curve_cr` tuple by tuple, with no call to
        # it where no pairing is degenerate, and the dual of the dual gives
        # the pair's bytes.  Each check of the dual reports what it reports
        # of b(y, x, t, z) evaluated by the pair, or both raise DomainError,
        # each naming the other of the two degenerate pairings
        pair = (representation_pair(octagon, sym_reps[n], n) if kind == "eig"
                else veronese_pair(n))
        dual = dual_cr(pair)
        swapped = CrossRatioFn(lambda x, y, z, t: pair(y, x, t, z), dual.label)
        calls = []
        monkeypatch.setattr(crossratio, "curve_cr",
                            lambda p, q: calls.append(q) or curve_cr(p, q))

        def gathered(b, idx, quads):
            try:
                return b.on_indices(sample_l2, idx, quads).tobytes()
            except DomainError as exc:
                return str(exc)

        fine = equal = 0
        for check, k, quads in (
                (check_axioms, 5, crossratio._AXIOM_QUADS),
                (check_relation13, 6, crossratio._RELATION13_QUADS)):
            for seed in range(4):
                idx = draw_indices(sample_l2, np.random.default_rng(seed), k, 100)
                calls.clear()
                got = gathered(dual, idx, quads)
                if not isinstance(got, str):
                    assert calls == []
                    fine += 1
                assert got == gathered(looped(dual), idx, quads), (check, seed)
                assert (gathered(dual_cr(dual), idx, quads)
                        == gathered(pair, idx, quads))
                got = outcome(check, dual, sample_l2, seed)
                want = outcome(check, swapped, sample_l2, seed)
                if isinstance(got, dict) or isinstance(want, dict):
                    assert got == want, (check, seed)
                    equal += 1
                else:
                    assert got[0] is want[0] is DomainError
        assert fine and equal

    def test_dual_names_the_other_degenerate_pairing(self, octagon, sample_l3,
                                                     sym_reps):
        # at n = 5, seed 0 draws an L = 3 tuple with a degenerate pairing.
        # The dual's gather raises what its `curve_cr` tuple by tuple
        # raises, and b(y, x, t, z) raises on the same pairing, which is
        # its other denominator
        pair = rep_cross_ratio(octagon, sym_reps, 5)
        dual = dual_cr(pair)
        swapped = CrossRatioFn(lambda x, y, z, t: pair(y, x, t, z), dual.label)
        got = outcome(check_axioms, dual, sample_l3, 0)
        assert got == (DomainError, "degenerate pairing <xi(z), xi*(y)>")
        assert outcome(check_axioms, looped(dual), sample_l3, 0) == got
        assert outcome(check_axioms, swapped, sample_l3, 0) == (
            DomainError, "degenerate pairing <xi(x), xi*(t)>")


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


class TestCurvePairCrossRatio:
    """A curve pair is its own cross ratio, through the module's `curve_cr`."""

    def test_curve_cr_fn_is_the_pair(self):
        pair = veronese_pair(3)
        assert curve_cr_fn(pair) is pair

    def test_curve_pair_is_the_one_protocol(self, octagon, sym_reps):
        # every cross ratio the module builds is a curve pair, and no other
        # class of the module evaluates tuples of sample indices
        pair = veronese_pair(3)
        built = (pair, representation_pair(octagon, sym_reps[3], 3),
                 dual_cr(pair))
        assert all(type(b) is CurvePair for b in built)
        assert built[2].label == "dual(veronese-3)"
        gathers = [name for name, cls in inspect.getmembers(crossratio,
                                                             inspect.isclass)
                   if hasattr(cls, "on_indices")]
        assert gathers == ["CurvePair"]

    def test_evaluations_go_through_curve_cr(self, sample_l2, monkeypatch):
        # the benchmark's tracer counts the `crossratio.curve_cr` layer by
        # replacing that module attribute: a pair computing the quotient
        # itself would read 0 calls there
        pair = veronese_pair(3)
        calls = []
        monkeypatch.setattr(crossratio, "curve_cr",
                            lambda p, q: calls.append(q) or curve_cr(p, q))
        q = tuple(sample_l2.points[:4])
        assert pair(*q) == curve_cr(pair, q)
        assert calls == [q]
        calls.clear()
        vals = pair.on_indices(sample_l2, np.array([[4, 5, 6, 7]]),
                               ((0, 1, 2, 3),))
        assert np.isfinite(vals).all()
        assert calls == []  # no degenerate pairing: a gather only
        with pytest.raises(DomainError, match="degenerate pairing"):
            pair.on_indices(sample_l2, np.array([[0, 1, 2, 0]]), ((0, 1, 2, 3),))
        assert len(calls) == 1


def looped(b):
    """The same evaluator without its batched path: rows are looped."""
    return CrossRatioFn(evaluator=b, label=b.label)


def outcome(check, b, sample, seed, count=100):
    """A check's report, or the type and message of what it raised."""
    try:
        return check(b, sample, count, seed=seed)
    except ValueError as exc:
        return type(exc), str(exc)


def draw_points_loop(sample, rng, k, min_gap=1e-3, tries=400):
    """A plain rejection loop per tuple: each try is one row of k indices
    drawn with replacement, kept when its points lie pairwise more than
    min_gap apart."""
    pts = sample.points
    for _ in range(tries):
        chosen = [pts[i] for i in rng.integers(len(pts), size=k).tolist()]
        if all(circular_gap(a.circle_coord, b.circle_coord) > min_gap
               for i, a in enumerate(chosen) for b in chosen[i + 1:]):
            return chosen
    raise DomainError(f"could not draw {k} of {len(pts)} points more than "
                      f"min_gap {min_gap!r} apart in {tries} tries in a row")


def batch_sizes(sample, k, count, min_gap, seed):
    """The number of candidates in each batch `draw_indices` draws."""
    rng = np.random.default_rng(seed)
    sizes = []

    class Recording:
        def integers(self, low, high, size):
            sizes.append(int(size[0]))
            return rng.integers(low, high, size=size)

    try:
        draw_indices(sample, Recording(), k, count, min_gap)
    except DomainError:
        pass
    return sizes


def embedding(b, sample, count, seed):
    """`embed_from_cr`'s report, with w, e, u at three fixed sample points."""
    w, e, u = sample.points[3:20:8]
    return embed_from_cr(b, w, e, u, sample, count, seed)[1]


class TestBatchedChecks:
    @pytest.mark.parametrize("sample_name", ["sample_l2", "sample_l3"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 9])
    def test_table_matches_looped_evaluator(
            self, request, octagon, sym_reps, sample_name, n):
        # every quadruple set of the checks, through the gather and through
        # `curve_cr` row by row, at every n the benchmark uses
        sample = request.getfixturevalue(sample_name)
        b = rep_cross_ratio(octagon, sym_reps, n)
        for check in (check_axioms, check_relation12, check_relation13, embedding):
            for seed in range(4):
                want = outcome(check, looped(b), sample, seed)
                assert outcome(check, b, sample, seed) == want

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
        b = CurvePair(n=3, label="broken", **fns)
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
            # DRAW_TRIES rejections in a row raise at every seed, for k = 7
            # also because a repeated index is a wasted try (about one in
            # three candidates on the 56 points of L = 2)
            *((sample_l2, 8, 40, 0.5, seed) for seed in range(5)),
            *((sample_l2, 7, 40, 0.55, seed) for seed in range(5)),
            # the draws of check_relation13 at its default gap
            *((sample_l3, 6, 100, 1e-3, seed) for seed in range(4)),
            # a large sample: the 2,736 points of L = 4
            *((sample_l4, k, 400, 1e-3, seed) for k in (4, 5) for seed in range(4)),
            # tuples as large as a rank check draws: 2(p + 1) points, 26 at
            # p = 12
            *((sample_l3, k, 100, 1e-3, seed) for k in (10, 20, 26)
              for seed in range(2)),
        ]
        # a batch ends inside a run of rejections, so the next one is cut to
        # DRAW_TRIES - run candidates while hundreds of rows are still missing
        cut = (sample_l3, 5, 2 * DRAW_TRIES, 0.3, 1)
        raised = 0
        for case in [*cases, cut]:
            want = outcome(one_at_a_time(draw_points_loop), *case)
            assert outcome(batched, *case) == want
            assert outcome(one_at_a_time(draw_points), *case) == want
            raised += isinstance(want[0], str)
        assert raised == 10
        # the first batch holds DRAW_TRIES candidates and leaves at least
        # count - DRAW_TRIES rows missing, so a shorter second one was cut
        first, second = batch_sizes(*cut)[:2]
        assert first == DRAW_TRIES > second

    def test_draw_indices_is_uniform(self, sample_l2):
        # on six points at min_gap 0 the rows are uniform over the 30
        # ordered pairs of distinct indices: each count within 5 sigma
        six = SampleSet(points=sample_l2.points[:6], group=sample_l2.group)
        count, pairs = 30_000, 30
        idx = draw_indices(six, np.random.default_rng(5), 2, count, 0.0)
        assert not (idx[:, 0] == idx[:, 1]).any()
        got = np.bincount(6 * idx[:, 0] + idx[:, 1], minlength=36)
        want = count / pairs
        sigma = np.sqrt(count * (1 / pairs) * (1 - 1 / pairs))
        off_diagonal = got[~np.eye(6, dtype=bool).ravel()]
        assert np.abs(off_diagonal - want).max() < 5 * sigma

    @pytest.mark.parametrize("min_gap", [-1e-3, float("nan")])
    def test_draw_indices_rejects_bad_gap(self, sample_l2, min_gap):
        # a negative gap would let a repeated index through
        with pytest.raises(DomainError, match="min_gap must be at least 0"):
            draw_indices(sample_l2, np.random.default_rng(0), 4, 5, min_gap)

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

    def test_crowded_sample_names_the_draw(self, octagon):
        # eight points 1e-4 rad apart hold no 4-tuple DEFAULT_MIN_GAP apart;
        # check_relation12 takes no min_gap, so the message states the facts
        crowded = SampleSet(points=tuple(BoundaryPoint.from_angle(1.0 + 1e-4 * i)
                                         for i in range(8)), group=octagon)
        want = (f"could not draw 4 of 8 points more than min_gap 0.001 apart "
                f"in {DRAW_TRIES} tries in a row")
        with pytest.raises(DomainError) as exc:
            check_relation12(classical_cr_fn(), crowded, 1)
        assert str(exc.value) == want

    def test_near_exhaustive_draw_names_the_sample_size(self, sample_l2):
        # every 7th point of L = 2: 8 points far more than DEFAULT_MIN_GAP
        # apart, so only a repeated index rejects a candidate of all 8.  One
        # drawn with replacement is a permutation with probability 8!/8^8,
        # about 1 in 416, and at seed 3 DRAW_TRIES candidates in a row are
        # not: the message names the sample size, not only min_gap
        sub = SampleSet(points=sample_l2.points[::7], group=sample_l2.group)
        angles = sub.angles()
        assert len(sub) == 8 and min(
            circular_gap(a, b) for i, a in enumerate(angles)
            for b in angles[i + 1:]) > 0.1
        row = draw_indices(sub, np.random.default_rng(0), 8, 1)[0]
        assert sorted(row.tolist()) == list(range(8))
        want = (f"could not draw 8 of 8 points more than min_gap 0.001 apart "
                f"in {DRAW_TRIES} tries in a row")
        with pytest.raises(DomainError) as exc:
            draw_indices(sub, np.random.default_rng(3), 8, 1)
        assert str(exc.value) == want

    def test_neighbour_gaps_keep_what_all_pairs_keep(self, sample_l3):
        # draw_indices tests only the gaps between circle neighbours; on
        # candidates fed to it by a scripted rng it keeps exactly the rows
        # whose k(k - 1)/2 pairwise circular_gaps all exceed min_gap, also
        # with min_gap equal to a gap of the candidates (a tie), points on
        # both sides of 0 = 2 pi, repeated indices and k up to 26
        angles = sample_l3.angles()
        n = len(angles)
        ends = np.r_[0:6, n - 6:n]  # the sample's points nearest 0
        gen = np.random.default_rng(29)

        def gaps(row):
            return [circular_gap(angles[i], angles[j])
                    for a, i in enumerate(row) for j in row[a + 1:]]

        class Scripted:
            def __init__(self, rows):
                self.rows = list(rows)

            def integers(self, low, high, size):
                assert (low, high) == (0, n)  # one scalar bound
                m, k = size
                got, self.rows = self.rows[:m], self.rows[m:]
                # past the script: a repeated index, never kept for k > 1
                return np.array(got + [[0] * k] * (m - len(got)), dtype=np.intp)

        trials = [(1, pool, gap) for pool in (ends, np.arange(n))
                  for gap in (0.0, TWO_PI, 7.0)]
        trials += [(int(k), pool, None) for k in gen.integers(2, 27, size=60)
                   for pool in (ends, np.arange(n))]
        kept_rows = raised = 0
        for k, pool, min_gap in trials:
            rows = gen.choice(pool, size=(50, k)).tolist()
            if min_gap is None:  # 0, or a gap the candidates have: ties
                row = rows[gen.integers(len(rows))]
                pick = gen.integers(3)
                min_gap = (0.0 if pick == 0 or len(set(row)) < k else
                           min(gaps(row)) if pick == 1 else
                           float(gen.choice(gaps(row))))
            want = [row for row in rows if all(g > min_gap for g in gaps(row))]
            if want:
                got = draw_indices(sample_l3, Scripted(rows), k, len(want), min_gap)
                assert got.tolist() == want
            else:
                with pytest.raises(DomainError, match="could not draw"):
                    draw_indices(sample_l3, Scripted(rows), k, 1, min_gap)
                raised += 1
            kept_rows += len(want)
        assert kept_rows > 1_000 and raised > 10

    def test_argmax_semantics(self, sample_l2):
        b = CrossRatioFn(evaluator=lambda x, y, z, t: 0.5, label="const")
        rep = check_axioms(b, sample_l2, 20, seed=7)
        first = draw_points(sample_l2, np.random.default_rng(7), 5)
        first = tuple(p.circle_coord for p in first)
        # exactly 0: no witness
        assert rep["per_identity"]["symmetry"] == 0.0
        assert rep["argmax"]["symmetry"] is None
        # ties across all tuples: the first tuple, all five points of it, wins
        assert rep["per_identity"]["zero-locus"] == 0.5
        assert rep["argmax"]["zero-locus"] == first
        assert rep["per_identity"]["cocycle-zw"] == 0.25
        assert rep["argmax"]["cocycle-zw"] == first
        assert rep["strictness_floor"] == 0.5
        assert rep["max_violation"] == 0.5 and not rep["passed"]
        # violations no check above gives: all at or below 0 with a -0.0
        # among them count as 0.0, with no witness; an inf before a NaN,
        # which counts as inf too, is the first maximum and names the witness
        rep = crossratio._report("made-up", b, {
            "non-positive": np.array([-0.0, -1.0, 0.0, -2.0]),
            "inf-then-nan": np.array([0.5, np.inf, np.nan, 2.0]),
        }, lambda k: ("tuple", k))
        assert rep["per_identity"]["non-positive"] == 0.0
        assert not np.signbit(rep["per_identity"]["non-positive"])
        assert rep["argmax"]["non-positive"] is None
        assert rep["per_identity"]["inf-then-nan"] == np.inf
        assert rep["argmax"]["inf-then-nan"] == ("tuple", 1)
        assert rep["max_violation"] == np.inf and rep["tuples"] == 4

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
                assert set(rep["per_identity"].values()) == {np.inf}
                for name, positions in (("symmetry", [0, 2]), ("zero-locus", [0]),
                                        ("cocycle-wy", [0, 4])):
                    assert rep["argmax"][name] == witness(b, 5, seed, positions)
                for check, k, positions in ((check_relation12, 4, [0, 3]),
                                            (check_relation13, 6, [0, 1])):
                    rep = check(b, sample_l2, 20, seed=seed)
                    assert rep["max_violation"] == np.inf and not rep["passed"]
                    assert rep["per_identity"] == {rep["check"]: np.inf}
                    assert (rep["argmax"][rep["check"]]
                            == witness(b, k, seed, positions))

                calls = []

                def recorded(x, y, z, t, b=b):
                    calls.append((x, y, z, t))
                    return b(x, y, z, t)

                rep = check_invariance(CrossRatioFn(recorded, "recorded"),
                                       sample_l2, 10, seed=seed)
                assert rep["max_violation"] == np.inf and not rep["passed"]
                # two calls a tuple: on the drawn points, then on the moved ones
                first = next(i for i, q in enumerate(calls) if np.isnan(b(*q))) // 2
                assert (rep["argmax"]["invariance"][1]
                        == tuple(p.circle_coord for p in calls[2 * first]))
            pts = sample_l2.points
            _, rep = embed_from_cr(b, pts[3], pts[11], pts[19], sample=sample_l2,
                                   count=20)
            assert rep["max_violation"] == np.inf and not rep["passed"]

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
        keys = {"check", "label", "tuples", "per_identity", "argmax",
                "max_violation", "passed", "tol"}
        for rep in reports:
            extra = {"strictness_floor"} if rep["check"] == "axioms" else set()
            assert set(rep) == keys | extra, rep["check"]
            assert set(rep["argmax"]) == set(rep["per_identity"]), rep["check"]
            assert rep["max_violation"] == max(rep["per_identity"].values())
            assert rep["passed"] and rep["tol"] == CHECK_TOL == 1e-9
        # a check of one identity names it after itself
        assert [list(rep["per_identity"]) for rep in reports[1:]] == [
            ["invariance"], ["relation-affine"], ["relation-product"],
            ["embedding-reproduction"]]

    def test_witnesses_replay(self, sample_l2):
        # each identity, evaluated again at the points its witness names,
        # gives back its reported worst violation; the axioms' witness holds
        # w, the fifth point of the tuple, which both cocycles go through
        base = classical_cr_fn()

        def corrupted(x, y, z, t):
            phase = (x.circle_coord + 2 * y.circle_coord + 3 * z.circle_coord
                     + 5 * t.circle_coord)
            return base(x, y, z, t) + 1e-8 * (1.0 + np.sin(phase))

        b = CrossRatioFn(corrupted, "corrupted")
        pts = sample_l2.points
        at = {p.circle_coord: p for p in pts}

        def rel(a, c):
            return abs(a - c) / max(1.0, abs(a), abs(c))

        fmap, embedded = embed_from_cr(b, pts[3], pts[11], pts[19],
                                       sample=sample_l2, count=30)
        identities = {
            "symmetry": lambda x, y, z, t, w: rel(b(x, y, z, t), b(z, t, x, y)),
            "cocycle-zw": lambda x, y, z, t, w: rel(
                b(x, y, z, t), b(x, y, z, w) * b(x, w, z, t)),
            "cocycle-wy": lambda x, y, z, t, w: rel(
                b(x, y, z, t), b(x, y, w, t) * b(w, y, z, t)),
            "zero-locus": lambda x, y, z, t, w: abs(b(x, x, z, t)),
            "unit-locus": lambda x, y, z, t, w: max(
                abs(b(x, y, x, t) - 1.0), abs(b(x, y, z, y) - 1.0)),
            "relation-affine": lambda f, v, e, u: rel(
                1.0 - b(f, v, e, u), b(u, v, e, f)),
            "relation-product": lambda f, g, v, w, e, u: rel(
                (b(f, v, e, u) - 1.0) * (b(g, w, e, u) - 1.0),
                (b(f, w, e, u) - 1.0) * (b(g, v, e, u) - 1.0)),
            "embedding-reproduction": lambda *q: rel(
                classical_cr(*map(fmap, q)), b(*q)),
        }
        replayed = []
        for rep in (check_axioms(b, sample_l2, 30),
                    check_relation12(b, sample_l2, 30),
                    check_relation13(b, sample_l2, 30), embedded):
            assert not rep["passed"], rep["check"]
            for name, worst in rep["per_identity"].items():
                q = [at[a] for a in rep["argmax"][name]]
                assert identities[name](*q) == worst, (rep["check"], name)
                replayed.append(name)
        assert replayed == list(identities)
        rep = check_invariance(b, sample_l2, 10)
        g, angles = rep["argmax"]["invariance"]
        q = [at[a] for a in angles]
        moved = [translate_point(sample_l2.group, Word.of(g), p) for p in q]
        assert not rep["passed"]
        assert rel(b(*q), b(*moved)) == rep["per_identity"]["invariance"]
