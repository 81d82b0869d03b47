from fractions import Fraction

import numpy as np
import pytest

from crlab import surfgrp
from crlab.projlin import sym_power_rep
from crlab.surfgrp import (
    DEDUP_TOL, GENUS2_RELATOR, TWO_PI, BoundaryPoint, GeneratorSet,
    GroupDataError, Word, act_on_angle, angle_of_line, circular_gap,
    conjugate_split, enumerate_words, evaluate, fixed_points_2x2,
    line_of_angle, make_generator_set, octagon_fuchsian, sample_boundary,
    translate_point,
)


def rotated_group(g, a):
    """The group conjugated by the rotation through the angle a."""
    r = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
    return make_generator_set([r.T @ m @ r for m in g.matrices])


class TestWords:
    def test_free_reduction(self):
        assert Word.of(1, -1).letters == ()
        assert Word.of(1, 2, -2, -1, 3).letters == (3,)

    def test_inverse(self):
        w = Word.of(1, 2, -3)
        assert (w * w.inverse()).letters == ()
        assert w.inverse().letters == (3, -2, -1)

    def test_cyclic_reduce(self):
        w = Word.of(1, 2, 3, -1)
        assert conjugate_split(w)[1].letters == (2, 3)

    def test_conjugate_split(self):
        for letters in [(1, 2, 3, -1), (1, -2, 3, 2, -1), (2, 3), (1,), ()]:
            w = Word.of(*letters)
            v, c = conjugate_split(w)
            assert v * c * v.inverse() == w
            assert not conjugate_split(c)[0].letters  # cyclically reduced
        assert conjugate_split(Word.of(1, -2, 3, 2, -1))[0].letters == (1, -2)

    def test_zero_letter_rejected(self):
        with pytest.raises(ValueError, match="signed and nonzero"):
            Word.of(0)

    def test_str(self):
        assert str(Word(())) == "1"
        assert str(Word.of(1, -2, 3, -4)) == "a.b'.c.d'"


class TestEnumeration:
    def test_length_one(self):
        g = octagon_fuchsian()
        words = enumerate_words(g, 1)
        assert sorted(w.letters for w in words) == [
            (-4,), (-3,), (-2,), (-1,), (1,), (2,), (3,), (4,)]

    def test_length_two_count(self):
        # brute-force oracle: 8 letters, 64 pairs, minus 8 canceling pairs
        g = octagon_fuchsian()
        words = enumerate_words(g, 2)
        assert len(words) == 8 + 56

    def test_empty(self):
        g = octagon_fuchsian()
        assert enumerate_words(g, 0) == []

    def test_all_cyclically_reduced_and_ordered(self):
        g = octagon_fuchsian()
        words = enumerate_words(g, 3)
        assert not any(conjugate_split(w)[0].letters for w in words)
        keys = [(len(w), w.letters) for w in words]
        assert keys == sorted(keys)

    def test_octagon_count(self):
        # freely reduced length-2 words: 8 * 7; all are cyclically reduced
        # since the wrap condition coincides with free reduction there
        g = octagon_fuchsian()
        assert len([w for w in enumerate_words(g, 1)]) == 8
        words2 = [w for w in enumerate_words(g, 2) if len(w) == 2]
        assert len(words2) == 8 * 7


class TestEvaluate:
    def test_empty_word(self):
        g = octagon_fuchsian()
        assert np.allclose(evaluate(g, Word.of()), np.eye(2))

    def test_reduction_consistency(self):
        g = octagon_fuchsian()
        assert np.allclose(evaluate(g, Word.of(1, -1)), np.eye(2))

    def test_product(self):
        g = octagon_fuchsian()
        m = evaluate(g, Word.of(1, 2))
        assert np.allclose(m, g.matrices[0] @ g.matrices[1], atol=1e-12)

    def test_word_unit_det(self):
        # verifiable only at moderate norms: the 2x2 determinant loses
        # |M|^2 eps to cancellation
        g = octagon_fuchsian()
        m = evaluate(g, Word.of(1, 2, -3, 4, 1))
        assert abs(np.linalg.det(m) - 1.0) < 1e-9

    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_cached_inverses_keep_products_bit_identical(self, n):
        g = octagon_fuchsian()
        images = tuple(sym_power_rep(n, m) for m in g.matrices)
        wrapped = GeneratorSet(images)
        assert np.array_equal(evaluate(wrapped, Word(())), np.eye(n))
        for w in enumerate_words(g, 3):
            acc = np.eye(n)
            for x in w.letters:  # inverting on every use, as before caching
                m = images[abs(x) - 1]
                acc = acc @ (np.linalg.inv(m) if x < 0 else m)
            assert np.array_equal(evaluate(wrapped, w), acc)
        # a one-letter product is a copy, not the stored generator
        want = images[0].copy()
        evaluate(wrapped, Word.of(1))[:] = 0.0
        assert np.array_equal(wrapped.matrices[0], want)

    @pytest.mark.parametrize("letters", [(1, 2, 3, 4) * 3, (2, 1) * 5])
    def test_eigenvalue_matches_exact_product(self, letters):
        # the larger eigenvalue of evaluate's product by the 2x2 trace
        # formula, against that of the exact rational product of the float
        # generators, whose determinants are 1 only up to rounding
        g = octagon_fuchsian()
        exact = np.identity(2, dtype=object)
        to_fraction = np.vectorize(Fraction, otypes=[object])
        for x in letters:
            exact = exact @ to_fraction(g.matrices[x - 1])
        tr = abs(exact.trace())
        det = exact[0, 0] * exact[1, 1] - exact[0, 1] * exact[1, 0]
        want = 0.5 * (float(tr) + np.sqrt(float(tr * tr - 4 * det)))
        m = evaluate(g, Word.of(*letters))
        tr = abs(m[0, 0] + m[1, 1])
        got = 0.5 * (tr + np.sqrt(tr * tr - 4.0 * np.linalg.det(m)))
        assert abs(got - want) <= 1e-13 * want

    def test_singular_generator_rejected(self):
        with pytest.raises(GroupDataError, match="singular"):
            make_generator_set([np.zeros((2, 2))] + [np.eye(2)] * 3)

    def test_long_word_still_usable(self):
        g = octagon_fuchsian()
        w = Word.of(*([1, 2, -3, 4, 1, -2] * 5))
        m = evaluate(g, w)
        assert np.all(np.isfinite(m))
        att, rep = fixed_points_2x2(m, word=w)
        assert circular_gap(att.circle_coord, rep.circle_coord) > 1e-12


class TestGeneratorSet:
    @pytest.mark.parametrize("mats", [
        (np.diag([2.0, 0.5]), np.eye(3)),
        (np.ones((2, 3)), np.ones((2, 3))),
        (np.eye(2), np.ones(4)),
    ], ids=["mixed", "not-square", "flat"])
    def test_shapes_checked_before_inverting(self, mats):
        # unchecked, a mixed set would reach `evaluate`'s matmul and raise a
        # plain ValueError, and a 2 x 3 matrix would fail inversion as singular
        with pytest.raises(GroupDataError,
                           match="must be square matrices of one shape"):
            GeneratorSet(mats)

    def test_empty_set_rejected(self):
        # unchecked, `evaluate` raised an IndexError on it and
        # `sample_boundary` numpy's "need at least one array to stack"
        with pytest.raises(GroupDataError, match="at least one matrix"):
            GeneratorSet(())

    def test_nested_lists_are_float_arrays(self):
        # lists reached `evaluate` as lists, where @ raised a TypeError, and
        # `sample_boundary`, which raised an AttributeError on .shape
        g = octagon_fuchsian()
        lists = GeneratorSet(tuple(m.tolist() for m in g.matrices))
        w = Word.of(1, 2, -3, 4)
        assert evaluate(lists, w).tobytes() == evaluate(g, w).tobytes()
        assert np.array_equal(sample_boundary(lists, 2).angles(),
                              sample_boundary(g, 2).angles())

    def test_integer_matrices_do_not_wrap(self):
        # int64 products wrapped silently: a^60 read 790376311979428689.
        # a = [[1, 1], [1, 0]]^2, so a^60 = [[F121, F120], [F120, F119]]
        g = GeneratorSet((np.array([[2, 1], [1, 1]]), np.array([[1, 1], [0, 1]])))
        fib = [0, 1]
        while len(fib) < 122:
            fib.append(fib[-1] + fib[-2])
        got = evaluate(g, Word.of(*[1] * 60))
        assert got[0, 0] == pytest.approx(fib[121], rel=1e-13)
        assert got.dtype == float

    @pytest.mark.parametrize("build", [GeneratorSet, make_generator_set])
    def test_caller_writes_do_not_reach_the_group(self, build):
        # a group that kept the caller's arrays saw a later write to them,
        # while its inverses stayed those of the old matrices: a.a^-1 was
        # off I by 1.78
        g = octagon_fuchsian()
        mats = [m.copy() for m in g.matrices]
        group = build(mats)
        mats[0][0, 0] += 1.0
        assert group.matrices[0].tobytes() == g.matrices[0].tobytes()
        assert np.linalg.norm(evaluate(group, Word((1, -1))) - np.eye(2)) < 1e-12
        # the group's matrices and inverses are read-only
        for m in group.matrices + group.inverses:
            with pytest.raises(ValueError, match="read-only"):
                m[0, 0] = 0.0

    def test_product_is_evaluate_kept(self):
        # product(w) is evaluate(w) byte for byte, formed once and kept
        # read-only; fixed_points solves the kept product itself
        g = octagon_fuchsian()
        sym = GeneratorSet(tuple(sym_power_rep(4, m) for m in g.matrices))
        words = [Word(()), *enumerate_words(g, 3),
                 Word.of(1, 2, -1), Word.of(-3, 4, 4, 3)]
        for group in (make_generator_set(g.matrices), sym):
            for w in words:
                m = group.product(w)
                assert m.tobytes() == evaluate(group, w).tobytes(), w
                assert group.product(w) is m and not m.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    m[0, 0] = 0.0
        solved = []

        def recorded(m, word=None):
            solved.append(m)
            return fixed_points_2x2(m, word)

        group = make_generator_set(g.matrices)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(surfgrp, "fixed_points_2x2", recorded)
            for w in words[1:]:
                got = group.fixed_points(w)
                want = fixed_points_2x2(evaluate(g, w), word=w)
                assert [p.line.tobytes() for p in got] == [
                    p.line.tobytes() for p in want]
        assert len(solved) == len(words) - 1
        assert all(m is group.product(w) for m, w in zip(solved, words[1:]))

    @pytest.mark.parametrize("mat,message", [
        (np.eye(3), r"needs 2 x 2 matrices, not \(3, 3\)"),
        (np.ones((2, 3)), r"generator 0 has shape \(2, 3\)"),
    ], ids=["3x3", "2x3"])
    def test_base_group_needs_2x2(self, mat, message):
        with pytest.raises(GroupDataError, match=message):
            make_generator_set([mat] * 4)


class TestOctagon:
    def test_relator(self):
        g = octagon_fuchsian()
        r = evaluate(g, Word(GENUS2_RELATOR))
        res = min(np.linalg.norm(r - np.eye(2)), np.linalg.norm(r + np.eye(2)))
        assert res < 1e-8

    def test_generators_hyperbolic(self):
        g = octagon_fuchsian()
        for m in g.matrices:
            assert abs(np.trace(m)) > 2.0

    def test_generators_noncommuting(self):
        g = octagon_fuchsian()
        a, b = g.matrices[0], g.matrices[1]
        comm = a @ b @ np.linalg.inv(a) @ np.linalg.inv(b)
        assert np.linalg.norm(comm - np.eye(2)) > 0.1

    def test_unimodular(self):
        g = octagon_fuchsian()
        for m in g.matrices:
            assert abs(np.linalg.det(m) - 1.0) < 1e-12

    def test_bad_matrices_rejected(self):
        g = octagon_fuchsian()
        mats = list(g.matrices)
        mats[0] = np.diag([2.0, 0.5])  # breaks the relator
        with pytest.raises(GroupDataError, match="relator"):
            make_generator_set(mats)
        mats = list(g.matrices)
        mats[2] = 1.001 * mats[2]
        with pytest.raises(GroupDataError, match="generator 2 has det"):
            make_generator_set(mats)

    @pytest.mark.parametrize("count", [3, 5])
    def test_generator_count_rejected(self, count):
        mats = (octagon_fuchsian().matrices * 2)[:count]
        with pytest.raises(GroupDataError, match="needs 4 generators"):
            make_generator_set(mats)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_generator_rejected(self, bad):
        # a NaN determinant or relator residual compares False with every
        # bound, so only an explicit test rejects it
        g = octagon_fuchsian()
        for entry in [(0, 0), (1, 0)]:
            mats = [m.copy() for m in g.matrices]
            mats[1][entry] = bad
            with pytest.raises(GroupDataError, match="generator 1 has non-finite"):
                make_generator_set(mats)
        with pytest.raises(GroupDataError, match="generator 0 has non-finite"):
            make_generator_set([np.full((2, 2), bad)] + list(g.matrices[1:]))


class TestFixedPoints:
    def test_diagonal(self):
        att, rep = fixed_points_2x2(np.diag([2.0, 0.5]))
        assert att.circle_coord == pytest.approx(0.0, abs=1e-12)
        assert rep.circle_coord == pytest.approx(np.pi, abs=1e-12)
        assert att.word is None and rep.word is None

    def test_inverse_swaps(self):
        g = octagon_fuchsian()
        w = Word.of(1, 2)
        att, rep = fixed_points_2x2(evaluate(g, w), word=w)
        att_i, rep_i = fixed_points_2x2(
            evaluate(g, w.inverse()), word=w.inverse()
        )
        assert circular_gap(att.circle_coord, rep_i.circle_coord) < 1e-12
        assert circular_gap(rep.circle_coord, att_i.circle_coord) < 1e-12
        # a point is the attracting fixed point of its word: w- is (w^-1)+
        assert (att.word, rep.word) == (w, w.inverse())
        assert (att_i.word, rep_i.word) == (w.inverse(), w)

    def test_sample_point_is_its_words_attracting_point(self, sample_l4):
        # every sampled point is w+ of its word w, whichever of the rows of
        # w and w^-1 the dedup kept
        g = sample_l4.group
        worst = max(circular_gap(p.circle_coord, fixed_points_2x2(
            evaluate(g, p.word), word=p.word)[0].circle_coord)
            for p in sample_l4.points)
        assert worst <= 1e-13

    def test_elliptic_rejected(self):
        th = 0.4
        r = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        with pytest.raises(GroupDataError, match="not hyperbolic"):
            fixed_points_2x2(r)
        with pytest.raises(GroupDataError, match=r"hyperbolic .*: word a\.b'$"):
            fixed_points_2x2(r, word=Word.of(1, -2))
        # a representation's image: unchecked, the 2x2 formulas read the
        # corner entries of a Sym^2 image and return two angles that are no
        # fixed points at all
        images = tuple(sym_power_rep(3, m) for m in octagon_fuchsian().matrices)
        rep = GeneratorSet(images)
        with pytest.raises(GroupDataError, match=r"2 x 2 matrix, not \(3, 3\)"):
            fixed_points_2x2(evaluate(rep, Word.of(1)))
        with pytest.raises(GroupDataError, match="2 x 2 matrix"):
            rep.fixed_points(Word.of(1))

    def test_non_finite_element_named(self):
        # entries that are not finite are rejected before any arithmetic, so
        # no floating-point warning is emitted on them either
        w = Word.of(1, 1)
        for m in (np.diag([np.inf, 0.0]), np.full((2, 2), np.nan)):
            with pytest.raises(GroupDataError, match=r"non-finite entries: word a\.a$"):
                fixed_points_2x2(m, word=w)

    def test_equivariance_of_conjugates(self):
        g = octagon_fuchsian()
        w = Word.of(1, 2)
        v = Word.of(3, -1)
        att, _ = fixed_points_2x2(evaluate(g, w), word=w)
        conj = v * w * v.inverse()
        att_c, _ = fixed_points_2x2(evaluate(g, conj), word=conj)
        moved = act_on_angle(evaluate(g, v), att.circle_coord)
        assert circular_gap(att_c.circle_coord, moved) < 1e-9


class TestSampleBoundary:
    def test_small_sample(self):
        g = octagon_fuchsian()
        s = sample_boundary(g, 2)
        angles = s.angles()
        assert len(angles) >= 16
        assert np.all(np.diff(angles) > 0)

    def test_dedup_idempotent(self):
        g = octagon_fuchsian()
        s = sample_boundary(g, 2)
        angles = s.angles()
        gaps = np.diff(angles)
        assert np.all(gaps > 1e-9)
        wrap = 2 * np.pi - (angles[-1] - angles[0])
        assert wrap > 1e-9

    def test_wrap_around_duplicates_merged(self):
        # Conjugated by a rotation that moves a generator's attracting fixed
        # point to angle 0, the group has the fixed points of x and x.x round
        # to either side of 0 for some offsets of a few ulps: only the
        # wrap-around step of the dedup can merge them.
        g = octagon_fuchsian()
        lengths = sorted(len(p.word) for p in sample_boundary(g, 2).points)
        straddled = 0
        for x in (1, 2, 3, 4, -1, -2, -3, -4):
            theta = 0.5 * fixed_points_2x2(g.letter_matrix(x))[0].circle_coord
            for k in range(-3, 4):
                rotated = rotated_group(g, theta + k * np.spacing(theta))
                raw = [p.circle_coord for w in enumerate_words(rotated, 2)
                       for p in rotated.fixed_points(w)]
                if min(raw) <= DEDUP_TOL and max(raw) >= TWO_PI - DEDUP_TOL:
                    straddled += 1
                    # merged, and the shorter word's point kept
                    points = sample_boundary(rotated, 2).points
                    assert sorted(len(p.word) for p in points) == lengths
                    # and the sample is still sorted by circle coordinate
                    assert np.all(np.diff([p.circle_coord for p in points]) > 0)
        assert straddled

    @pytest.mark.parametrize("rotate", [False, True])
    def test_stacked_solve_matches_one_matrix_path(self, rotate):
        # the tree's products are evaluate's bytes, the stacked fixed points
        # fixed_points_2x2's, on every word of length <= 4; so are the
        # sample's points
        g = octagon_fuchsian()
        if rotate:
            g = rotated_group(g, 0.5 * fixed_points_2x2(g.letter_matrix(1))[0].circle_coord)
        else:
            g = make_generator_set(g.matrices)
        words, mats = [], []
        for level, cyclic, prods in surfgrp._tree_products(g, 4):
            for w, m in zip(level, prods):
                assert m.tobytes() == evaluate(g, Word(w)).tobytes(), w
            words += [Word(level[i]) for i in cyclic]
            mats.append(prods[cyclic])
        assert words == enumerate_words(g, 4)
        lines, angles, ok = surfgrp._fixed_point_stack(np.concatenate(mats))
        assert ok.all()
        solved, negative = {}, 0
        for w, line, phi in zip(words, lines, angles):
            m = evaluate(g, w)
            negative += m[0, 0] + m[1, 1] < 0
            solved[w] = fixed_points_2x2(m, word=w)
            for s, want in enumerate(solved[w]):
                assert line[s].tobytes() == want.line.tobytes(), w
                assert type(want.circle_coord) is float
                assert phi[s].hex() == want.circle_coord.hex(), w
        # the PSL sign flip runs: a trace is invariant under conjugation
        assert (len(words), negative) == (2816, 1296)
        # a sample point w+ is the attracting row of w or the repelling row
        # of w^-1, whichever the dedup kept, byte for byte
        only_repelling = 0
        for p in sample_boundary(g, 4).points:
            att, rep = solved[p.word][0], solved[p.word.inverse()][1]
            assert att.word == rep.word == p.word
            same = [p.line.tobytes() == q.line.tobytes()
                    and p.circle_coord.hex() == q.circle_coord.hex()
                    for q in (att, rep)]
            assert any(same), p.word
            only_repelling += same == [False, True]
            assert type(p.circle_coord) is type(att.circle_coord)
        assert only_repelling > 0

    def test_empty_sample(self):
        s = sample_boundary(make_generator_set(octagon_fuchsian().matrices), 0)
        assert s.points == ()
        assert s.angles().shape == (0,)

    @staticmethod
    def loop_error(mats, max_len):
        """The error the word-by-word solve raises first, in word order."""
        g = GeneratorSet(mats)
        with pytest.raises(Exception) as exc:
            for w in enumerate_words(g, max_len):
                fixed_points_2x2(evaluate(g, w), word=w)
        return exc.type, str(exc.value)

    def test_first_non_hyperbolic_word_named(self):
        # a and b are hyperbolic, a.b and its inverses and conjugates
        # elliptic (trace 1/2); b'.a' comes first in enumeration order
        mats = (np.diag([2.0, 0.5]), np.array([[-0.5, 1.0], [-2.5, 3.0]]))
        assert len(sample_boundary(GeneratorSet(mats), 1)) == 4
        for max_len in (2, 3):
            with pytest.raises(GroupDataError, match=r"word b'\.a'$") as exc:
                sample_boundary(GeneratorSet(mats), max_len)
            assert (exc.type, str(exc.value)) == self.loop_error(mats, max_len)
        # a group that is not of 2x2 matrices is rejected before any word
        rep = GeneratorSet(tuple(sym_power_rep(3, m) for m in mats))
        with pytest.raises(GroupDataError, match="group of 2 x 2 matrices"):
            sample_boundary(rep, 1)

    def test_overflow_raises_as_the_loop_does(self):
        # a.a's trace squares to inf, and a.a.a.a overflows: the stacked
        # solve hands the first such word to fixed_points_2x2
        mats = (np.diag([1e100, 1e-100]), np.diag([2.0, 0.5]))
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(evaluate(GeneratorSet(mats), Word.of(1, 1, 1, 1))).all()
            with pytest.raises(ValueError,
                               match=r"discriminant is not finite: word a'\.a'$") as exc:
                sample_boundary(GeneratorSet(mats), 4)
            assert (exc.type, str(exc.value)) == self.loop_error(mats, 4)
        with np.errstate(all="raise"):
            with pytest.raises(FloatingPointError) as exc:
                sample_boundary(GeneratorSet(mats), 4)
            assert (exc.type, str(exc.value)) == self.loop_error(mats, 4)

    def test_longer_sample_keeps_the_short_points(self):
        g = make_generator_set(octagon_fuchsian().matrices)
        s2, s3 = sample_boundary(g, 2), sample_boundary(g, 3)
        short = [p for p in s3.points if len(p.word) <= 2]
        assert [p.circle_coord for p in short] == list(s2.angles())
        for p, q in zip(short, s2.points):
            assert p.word == q.word
            assert p.line.tobytes() == q.line.tobytes()
            assert p.circle_coord.hex() == q.circle_coord.hex()

    def test_angles_cached_read_only(self):
        s = sample_boundary(octagon_fuchsian(), 2)
        angles = s.angles()
        assert angles.tolist() == [p.circle_coord for p in s.points]
        assert s.angles() is angles
        with pytest.raises(ValueError):
            angles[0] = 0.0
        # a sample set built directly gets its own array
        part = type(s)(points=s.points[::5], group=s.group)
        assert part.angles().tolist() == [p.circle_coord for p in s.points[::5]]
        assert not part.angles().flags.writeable

    def test_translate_point_is_conjugation(self, monkeypatch):
        # v . w+ is (v w v^-1)+; the reference solves for it, and
        # translate_point may not
        def refuse(*args, **kwargs):
            raise AssertionError("translate_point solved a fixed point")

        g = octagon_fuchsian()
        s = sample_boundary(g, 2)
        monkeypatch.setattr(surfgrp, "fixed_points_2x2", refuse)
        movers = [Word.of(x) for x in (1, 2, 3, 4, -1, -2, -3, -4)]
        movers += [Word.of(2, 1), Word.of(-3, 4), Word.of(1, 1), Word.of(-4, -2)]
        for v in movers:
            for p in s.points:
                q = translate_point(g, v, p)
                conj = v * p.word * v.inverse()
                want, _ = fixed_points_2x2(evaluate(g, conj), word=conj)
                assert circular_gap(q.circle_coord, want.circle_coord) < 1e-11
                assert q.word == want.word == conj
                np.testing.assert_array_equal(q.line, line_of_angle(q.circle_coord))

    def test_translate_word_is_one_free_reduction(self, sample_l2):
        # translate_point reduces the letters of v, w and v^-1 at once; by
        # confluence that is the word v * w * v^-1, also where v cancels
        # into w or v^-1 into it, for every reduced v of length <= 2
        g = octagon_fuchsian()
        letters = [x for x in range(-4, 5) if x]
        movers = [Word.of(x) for x in letters]
        movers += [Word.of(x, y) for x in letters for y in letters if x != -y]
        for v in movers:
            for p in sample_l2.points:
                for q in (p, translate_point(g, Word.of(-p.word.letters[0]), p)):
                    assert translate_point(g, v, q).word == v * q.word * v.inverse()

    def test_point_lines_are_read_only(self, sample_l2):
        # a caller's write to a returned point's line reached every later
        # use of it, for a kept fixed point that of every later caller
        g = octagon_fuchsian()
        w = Word.of(1, 3)
        points = [*sample_l2.points, *fixed_points_2x2(evaluate(g, w), word=w),
                  *g.fixed_points(w), BoundaryPoint.from_angle(1.0),
                  translate_point(g, Word.of(2), sample_l2.points[0]),
                  translate_point(g, Word.of(2), BoundaryPoint.from_angle(1.0))]
        for p in points:
            with pytest.raises(ValueError, match="read-only"):
                p.line[:] = [1.0, 0.0]
        assert not line_of_angle(0.5).flags.writeable

    def test_translate_synthetic_point_same_bytes(self):
        g = octagon_fuchsian()
        for v in (Word.of(1), Word.of(-3), Word.of(2, 1)):
            for phi in np.linspace(0.0, 2 * np.pi, 37, endpoint=False):
                p = BoundaryPoint.from_angle(phi)
                q = translate_point(g, v, p)
                want = BoundaryPoint.from_angle(
                    act_on_angle(evaluate(g, v), p.circle_coord))
                assert q.word is None
                assert float(q.circle_coord).hex() == want.circle_coord.hex()
                assert q.line.tobytes() == want.line.tobytes()

    def test_circular_order_preserved_by_generators(self):
        # orientation check on triples under every generator
        g = octagon_fuchsian()
        s = sample_boundary(g, 2)
        angles = s.angles()
        rng = np.random.default_rng(1)

        def orient(a, b, c):
            # +1 when b comes before c going counterclockwise from a
            return 1 if (b - a) % (2 * np.pi) < (c - a) % (2 * np.pi) else -1

        for k in range(1, 5):
            m = g.letter_matrix(k)
            for _ in range(50):
                i, j, l = rng.choice(len(angles), size=3, replace=False)
                a, b, c = angles[i], angles[j], angles[l]
                ma, mb, mc = (act_on_angle(m, x) for x in (a, b, c))
                assert orient(a, b, c) == orient(ma, mb, mc)


class TestAngleCoordinates:
    def test_roundtrip(self):
        for phi in np.linspace(0, 2 * np.pi, 17, endpoint=False):
            v = line_of_angle(phi)
            assert abs(angle_of_line(v) - phi) % (2 * np.pi) < 1e-12

    def test_antipodal_lines_identified(self):
        v = line_of_angle(1.0)
        assert abs(angle_of_line(-v) - 1.0) < 1e-12

    def test_from_angle_stays_below_two_pi(self):
        # a float % sends a tiny negative angle to exactly 2 pi, whose line
        # is [-1, 1.2e-16] where phi = 0's is [1, 0]
        zero = BoundaryPoint.from_angle(0.0)
        for phi in (-1e-17, -4e-16, -1e-300, -0.0):
            assert phi % TWO_PI == (TWO_PI if phi else 0.0)
            p = BoundaryPoint.from_angle(phi)
            assert p.circle_coord == 0.0
            assert p.line.tobytes() == zero.line.tobytes() == np.array([1.0, 0.0]).tobytes()
        for phi in (-1e-15, -TWO_PI, TWO_PI, 3 * TWO_PI - 1e-9, np.nextafter(TWO_PI, 0.0)):
            p = BoundaryPoint.from_angle(phi)
            assert 0.0 <= p.circle_coord < TWO_PI, phi
            assert p.circle_coord == float(phi) % TWO_PI, phi
