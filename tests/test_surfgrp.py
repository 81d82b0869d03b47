import numpy as np
import pytest

from crlab.projlin import sym_power_rep
from crlab.surfgrp import (
    GENUS2_RELATOR, GeneratorSet, GroupDataError, Word, _unit_det,
    act_on_angle, angle_of_line,
    circular_gap, cyclic_reduce, enumerate_words, evaluate, fixed_points_2x2,
    line_of_angle, make_generator_set, octagon_fuchsian, sample_boundary,
    schottky, translate_point,
)


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
        assert cyclic_reduce(w).letters == (2, 3)

    def test_power(self):
        w = Word.of(1, 2)
        assert w.power(3).letters == (1, 2, 1, 2, 1, 2)
        assert w.power(-1).letters == (-2, -1)


class TestEnumeration:
    def test_length_one(self):
        g = schottky(3.0, 3.0)
        words = enumerate_words(g, 1)
        assert sorted(w.letters for w in words) == [(-2,), (-1,), (1,), (2,)]

    def test_length_two_count(self):
        # brute-force oracle: 4 letters, 16 pairs, minus 4 canceling pairs
        g = schottky(3.0, 3.0)
        words = enumerate_words(g, 2)
        assert len(words) == 4 + 12

    def test_empty(self):
        g = schottky(3.0, 3.0)
        assert enumerate_words(g, 0) == []

    def test_all_cyclically_reduced_and_ordered(self):
        g = octagon_fuchsian()
        words = enumerate_words(g, 3)
        assert all(w.is_cyclically_reduced() for w in words)
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
        g = schottky(3.0, 3.0)
        assert np.allclose(evaluate(g, Word.of()), np.eye(2))

    def test_reduction_consistency(self):
        g = schottky(3.0, 3.0)
        assert np.allclose(evaluate(g, Word.of(1, -1)), np.eye(2))

    def test_product(self):
        g = schottky(3.0, 4.0)
        m = evaluate(g, Word.of(1, 2))
        assert np.allclose(m, g.matrices[0] @ g.matrices[1], atol=1e-12)

    def test_word_unit_det(self):
        # verifiable only at moderate norms: the 2x2 determinant loses
        # |M|^2 eps to cancellation
        g = octagon_fuchsian()
        m = evaluate(g, Word.of(1, 2, -3, 4, 1))
        assert abs(np.linalg.det(m) - 1.0) < 1e-9

    @pytest.mark.parametrize("n", [2, 5])
    def test_cached_inverses_keep_products_bit_identical(self, n):
        g = octagon_fuchsian()
        images = tuple(sym_power_rep(n, m) for m in g.matrices)
        wrapped = GeneratorSet(images, g.kind)
        for w in enumerate_words(g, 3)[::7]:
            acc = np.eye(n)
            for x in w.letters:  # inverting on every use, as before caching
                m = images[abs(x) - 1]
                acc = acc @ (np.linalg.inv(m) if x < 0 else m)
            want = _unit_det(acc)
            assert np.array_equal(evaluate(g, w, wrapped), want)
            assert np.array_equal(evaluate(g, w, images), want)

    def test_singular_generator_rejected(self):
        with pytest.raises(GroupDataError, match="singular"):
            make_generator_set([np.zeros((2, 2)), np.eye(2)], "schottky-free")

    def test_long_word_still_usable(self):
        g = octagon_fuchsian()
        w = Word.of(*([1, 2, -3, 4, 1, -2] * 5))
        m = evaluate(g, w)
        assert np.all(np.isfinite(m))
        att, rep = fixed_points_2x2(m, word=w)
        assert circular_gap(att.circle_coord, rep.circle_coord) > 1e-12


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
            make_generator_set(mats, "cocompact-genus-2")


class TestSchottky:
    def test_valid_configuration(self):
        g = schottky(3.0, 3.0, 0.5)
        att_a, rep_a = fixed_points_2x2(g.matrices[0])
        att_b, rep_b = fixed_points_2x2(g.matrices[1])
        angles = sorted(
            p.circle_coord for p in (att_a, rep_a, att_b, rep_b)
        )
        assert np.allclose(angles, [0.0, np.pi / 2, np.pi, 3 * np.pi / 2],
                           atol=1e-12)

    def test_not_hyperbolic(self):
        with pytest.raises(GroupDataError, match="hyperbolic"):
            schottky(1.5, 3.0)

    def test_separation_violated(self):
        with pytest.raises(GroupDataError, match="separation"):
            schottky(3.0, 3.0, separation=2.0)


class TestFixedPoints:
    def test_diagonal(self):
        att, rep = fixed_points_2x2(np.diag([2.0, 0.5]))
        assert att.circle_coord == pytest.approx(0.0, abs=1e-12)
        assert rep.circle_coord == pytest.approx(np.pi, abs=1e-12)
        assert att.eigenvalue == pytest.approx(2.0)

    def test_inverse_swaps(self):
        g = octagon_fuchsian()
        w = Word.of(1, 2)
        att, rep = fixed_points_2x2(evaluate(g, w), word=w)
        att_i, rep_i = fixed_points_2x2(
            evaluate(g, w.inverse()), word=w.inverse()
        )
        assert circular_gap(att.circle_coord, rep_i.circle_coord) < 1e-12
        assert circular_gap(rep.circle_coord, att_i.circle_coord) < 1e-12

    def test_elliptic_rejected(self):
        th = 0.4
        r = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        with pytest.raises(GroupDataError, match="not hyperbolic"):
            fixed_points_2x2(r)

    def test_equivariance_of_conjugates(self):
        g = octagon_fuchsian()
        w = Word.of(1, 2)
        v = Word.of(3, -1)
        att, _ = fixed_points_2x2(evaluate(g, w), word=w)
        conj = w.conjugated_by(v)
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

    def test_translate_point_is_conjugation(self):
        g = octagon_fuchsian()
        s = sample_boundary(g, 2)
        p = s.points[3]
        v = Word.of(2, 1)
        q = translate_point(g, v, p)
        expected = act_on_angle(evaluate(g, v), p.circle_coord)
        assert circular_gap(q.circle_coord, expected) < 1e-9
        assert q.word == p.word.conjugated_by(v)

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

    def test_schottky_sample(self):
        g = schottky(3.0, 3.0)
        s = sample_boundary(g, 3)
        assert len(s) > 20


class TestAngleCoordinates:
    def test_roundtrip(self):
        for phi in np.linspace(0, 2 * np.pi, 17, endpoint=False):
            v = line_of_angle(phi)
            assert abs(angle_of_line(v) - phi) % (2 * np.pi) < 1e-12

    def test_antipodal_lines_identified(self):
        v = line_of_angle(1.0)
        assert abs(angle_of_line(-v) - 1.0) < 1e-12
