import math

import numpy as np
import pytest

from crlab.projlin import (
    dominant_lines, normalize_rep, normalize_rows, sym_power_rep, veronese,
    veronese_dual,
)
from crlab.surfgrp import GeneratorSet, Word, conjugate_split, evaluate


def rot(theta):
    return np.array([[np.cos(theta), -np.sin(theta)],
                     [np.sin(theta), np.cos(theta)]])


def entries(stack):
    """`dominant_lines(stack)` as one entry per matrix: its line (a row of
    the one array), or its message."""
    lines, errors = dominant_lines(stack)
    return [line if error is None else error for line, error in zip(lines, errors)]


def alone(m):
    """`dominant_lines` of the one matrix m: its line, or its message."""
    return entries(m[None])[0]


def looped_lines(stack):
    """`dominant_lines` as a loop over the stack, the reference for its
    vectorized pick: one np.linalg.eig per finite matrix, the first index of
    the largest modulus, the two tests, and normalize_rep of that column."""
    out = []
    for m in stack:
        if not np.isfinite(m).all():
            out.append("matrix is not finite")
            continue
        w, vecs = np.linalg.eig(m)
        mod = np.abs(w).tolist()
        top = max(mod)
        k = mod.index(top)
        if abs(w.imag[k]) > 1e-9 * top:
            out.append("dominant eigenvalue is not real")
        elif len([x for x in mod if x >= (1 - 1e-9) * top]) > 1:
            out.append("dominant eigenvalue is not simple")
        else:
            out.append(normalize_rep(vecs[:, k].real))
    return out


def assert_same_pick(stack):
    """dominant_lines(stack) has looped_lines' bytes and messages; returns
    the number of messages."""
    got, want = entries(stack), looped_lines(stack)
    assert len(got) == len(want) == len(stack)
    for i, (g, w) in enumerate(zip(got, want)):
        if isinstance(w, str):
            assert g == w, i
        else:
            assert g.tobytes() == w.tobytes(), i
    return sum(isinstance(w, str) for w in want)


def random_sl2(rng, max_log=0.7):
    """Moderate-norm SL(2,R) matrix: rotation . diag . rotation."""
    lam = np.exp(rng.uniform(0.05, max_log))
    return rot(rng.uniform(0, np.pi)) @ np.diag([lam, 1 / lam]) @ rot(
        rng.uniform(0, np.pi))


def random_hyperbolic(rng, lam=3.0):
    g = random_sl2(rng)
    return g @ np.diag([lam, 1 / lam]) @ np.linalg.inv(g)


def moment_jet(n, p, q):
    """Taylor coefficients of s -> moment vector of p + s q, one row per s^j.

    Rows 0..k-1 span the k-dimensional osculating subspace of the moment
    curve at p (for q not a multiple of p).
    """
    def power(a, b, k):     # coefficients of (a + b s)^k, ascending in s
        out = np.ones(1)
        for _ in range(k):
            out = np.convolve(out, [a, b])
        return out

    return np.array([np.convolve(power(p[0], q[0], n - 1 - i),
                                 power(p[1], q[1], i)) for i in range(n)]).T


def sine_distance(v, w):
    """Projective distance |v - (v.w) w| of the unit representatives."""
    v = v / np.linalg.norm(v)
    w = w / np.linalg.norm(w)
    return float(np.linalg.norm(v - (v @ w) * w))


class TestVeronese:
    def test_all_ones(self):
        v = veronese(3, np.array([1.0, 1.0]))
        assert sine_distance(v, np.array([1.0, 1.0, 1.0])) < 1e-9

    def test_monomials(self):
        # oracle: evaluate the monomial basis x^2, xy, y^2 at (1, 2)
        x, y = 1.0, 2.0
        expected = np.array([x * x, x * y, y * y])
        assert sine_distance(veronese(3, np.array([x, y])), expected) < 1e-9

    def test_n2_identity(self):
        p = np.array([0.3, -0.8])
        assert sine_distance(veronese(2, p), p) < 1e-9

    def test_scale_invariance(self):
        a = veronese(5, np.array([2.0, 3.0]))
        b = veronese(5, np.array([-4.0, -6.0]))
        assert sine_distance(a, b) < 1e-9

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            veronese(3, np.array([0.0, 0.0]))

    def test_unit_representatives(self):
        rng = np.random.default_rng(6)
        for n in (2, 3, 5):
            p = rng.normal(size=2)
            for v in (veronese(n, p), veronese_dual(n, p)):
                assert abs(np.linalg.norm(v) - 1.0) < 1e-14
                assert v[np.abs(v) > 1e-12][0] > 0

    def test_dual_pairing_vanishes_only_diagonally(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 4, 5):
            p = normalize_rep(rng.normal(size=2))
            q = normalize_rep(rng.normal(size=2))
            cov = veronese_dual(n, p)
            assert abs(cov @ veronese(n, p)) < 1e-12
            det = p[0] * q[1] - p[1] * q[0]
            if abs(det) > 1e-3:
                assert abs(cov @ veronese(n, q)) > 1e-12

    def test_dual_is_osculating(self):
        # paired with the moment vector of q, the dual covector at p is a
        # fixed multiple of det([p q])^(n-1): it vanishes to order n-1 at
        # p, so it annihilates the osculating hyperplane there
        rng = np.random.default_rng(8)
        for n in (2, 3, 4, 5):
            p = normalize_rep(rng.normal(size=2))
            cov = veronese_dual(n, p)
            ratios = []
            for _ in range(5):
                x, y = rng.normal(size=2)
                moments = np.array([x ** (n - 1 - i) * y ** i for i in range(n)])
                det = p[0] * y - p[1] * x
                ratios.append((cov @ moments) / det ** (n - 1))
            assert np.allclose(ratios, ratios[0], rtol=1e-9)


def normalize_rep_numpy(v):
    """`normalize_rep` written with np.linalg.norm and numpy scalars."""
    v = np.asarray(v, dtype=float)
    nrm = np.linalg.norm(v)
    if not np.isfinite(nrm) or nrm < 1e-300:
        raise ValueError("zero or non-finite representative vector")
    v = v / nrm
    for x in v:
        if abs(x) > 1e-12:
            if x < 0:
                v = -v
            break
    return v


def veronese_numpy(n, p):
    x, y = normalize_rep_numpy(p)
    return normalize_rep_numpy(
        np.array([x ** (n - 1 - i) * y ** i for i in range(n)]))


def veronese_dual_numpy(n, p):
    x, y = normalize_rep_numpy(p)
    comb = [float(math.comb(n - 1, i)) for i in range(n)]
    return normalize_rep_numpy(
        np.array([comb[i] * x ** i * (-y) ** (n - 1 - i) for i in range(n)]))


class TestSameBytes:
    """The scalar layer gives the bytes of its numpy formulas above.

    Both sides run here, so this holds whatever BLAS kernels the host has.
    """

    def test_normalize_rep_on_strided_eig_columns(self):
        # dominant_lines passes vecs[:, k].real; a plain dot product on such a
        # strided column is not always the sum np.linalg.norm takes
        rng = np.random.default_rng(21)
        for n in range(2, 13):
            for _ in range(100):
                cols = np.linalg.eig(rng.standard_normal((n, n)))[1].real
                for k in range(n):
                    v = cols[:, k]
                    assert not v.flags.c_contiguous
                    assert (normalize_rep(v).tobytes()
                            == normalize_rep_numpy(v).tobytes()), (n, k)

    def test_normalize_rep_on_contiguous_vectors(self):
        rng = np.random.default_rng(22)
        for n in range(1, 13):
            for scale in (1e-150, 1e-8, 1.0, 1e8, 1e150):
                for _ in range(50):
                    v = scale * rng.standard_normal(n)
                    assert (normalize_rep(v).tobytes()
                            == normalize_rep_numpy(v).tobytes()), (n, scale)

    @pytest.mark.parametrize("v", [[0.0, 0.0], [np.nan, 1.0], [1.0, np.inf],
                                   [-np.inf, 0.0], [1e-301, 0.0]])
    def test_normalize_rep_rejects(self, v):
        for fn in (normalize_rep, normalize_rep_numpy):
            with pytest.raises(ValueError, match="zero or non-finite"):
                fn(np.array(v))

    def test_veronese_values(self):
        rng = np.random.default_rng(23)
        half = rng.uniform(0.0, np.pi, 300)
        lines = np.concatenate([[[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -0.5],
                                 [1.0, -1.0], [-2.0, 3.0]],   # exact coordinates
                                np.column_stack([np.cos(half), np.sin(half)])])
        for n in range(2, 10):
            for p in lines:
                assert veronese(n, p).tobytes() == veronese_numpy(n, p).tobytes()
                assert (veronese_dual(n, p).tobytes()
                        == veronese_dual_numpy(n, p).tobytes()), (n, p)

    @pytest.mark.parametrize("n", [-1, 0, 1])
    def test_veronese_needs_n_at_least_2(self, n):
        # sym_power_rep raised ZeroDivisionError at n = 0 and numpy's
        # "negative dimensions" at n = -1
        for fn, arg in ((veronese, np.array([0.6, 0.8])),
                        (veronese_dual, np.array([0.6, 0.8])),
                        (sym_power_rep, np.eye(2))):
            with pytest.raises(ValueError, match="n must be >= 2"):
                fn(n, arg)


def normalize_rows_2wide(v):
    """`normalize_rows` as it was on (..., 2) arrays alone, lead picked by
    two nested np.where: the reference `_fixed_point_stack`'s bytes rest on."""
    with np.errstate(all="ignore"):
        nrm = np.sqrt(np.vecdot(v, v))
        v = v / nrm[..., None]
    x, y = v[..., 0], v[..., 1]
    lead = np.where(abs(x) > 1e-12, x, np.where(abs(y) > 1e-12, y, 0.0))
    ok = np.isfinite(nrm) & (nrm >= 1e-300)
    return np.where((lead < 0)[..., None], -v, v), ok


def rows_with_small_leads(rng, count, n):
    """count random rows of width n; in row i the first i % n coordinates
    are 0 or about 1e-12 (the significance threshold) times the row's norm,
    of either sign."""
    v = rng.standard_normal((count, n))
    small = np.array([0.0, 0.5, 1.0, 2.0]) * 1e-12
    for i, row in enumerate(v):
        j = i % n
        row[:j] = (rng.choice([-1.0, 1.0], j) * rng.choice(small, j)
                   * np.linalg.norm(row[j:]))
    return v


class TestNormalizeRows:
    """`normalize_rows` is `normalize_rep` row by row, at any width."""

    def test_rows_match_normalize_rep(self):
        rng = np.random.default_rng(24)
        for n in range(1, 13):
            for scale in (1e-150, 1e-8, 1.0, 1e8, 1e150):
                v = scale * rows_with_small_leads(rng, 48, n)
                rows, ok = normalize_rows(v)
                assert ok.all() and rows.shape == v.shape
                for i, row in enumerate(v):
                    assert rows[i].tobytes() == normalize_rep(row).tobytes(), (n, scale, i)
                # any leading shape: each row on its own
                got, ok3 = normalize_rows(v.reshape(4, 12, n))
                assert got.reshape(48, n).tobytes() == rows.tobytes()
                assert ok3.shape == (4, 12) and ok3.all()

    def test_ok_false_exactly_where_normalize_rep_raises(self):
        # np.errstate(all="raise") turns any floating-point flag set outside
        # normalize_rows' own errstate into an error, as -W error would a
        # RuntimeWarning
        rng = np.random.default_rng(25)
        for n in range(1, 13):
            v = rng.standard_normal((12, n))
            v[1] = 0.0
            v[3] = 0.0
            v[3, -1] = 1e-301
            v[5, 0] = np.inf
            v[7, -1] = -np.inf
            v[9] = np.nan
            v[11, 0] = np.nan
            with np.errstate(all="raise"):
                rows, ok = normalize_rows(v)
            for i, row in enumerate(v):
                try:
                    want = normalize_rep(row)
                except ValueError:
                    assert not ok[i], (n, i)
                else:
                    assert ok[i] and rows[i].tobytes() == want.tobytes(), (n, i)
            assert ok.tolist() == [i % 2 == 0 for i in range(12)]

    def test_fixed_point_stack_shape_keeps_its_bytes(self):
        # (N, 2, 2) stacks of 2-vectors, the shape _fixed_point_stack passes
        # twice, get the bytes of the 2-wide version, rejected rows included
        rng = np.random.default_rng(26)
        for scale in (1e-150, 1.0, 1e150):
            v = scale * rows_with_small_leads(rng, 400, 2).reshape(200, 2, 2)
            v[:8, 1] = [[0.0, 0.0], [0.0, -0.0], [1e-301, 0.0], [np.inf, 1.0],
                        [-np.inf, 0.0], [np.nan, 1.0], [0.0, np.nan], [-0.0, -3.0]]
            with np.errstate(all="raise"):
                got, ok = normalize_rows(v)
            want, want_ok = normalize_rows_2wide(v)
            assert got.tobytes() == want.tobytes()
            assert ok.tobytes() == want_ok.tobytes()
            assert ok[:8, 1].tolist() == [False] * 7 + [True]


class TestSymPower:
    def test_diag_action(self):
        s = sym_power_rep(3, np.diag([2.0, 0.5]))
        assert np.allclose(s, np.diag([4.0, 1.0, 0.25]), atol=1e-14)

    def test_n2_is_identity_functor(self):
        a = random_sl2(np.random.default_rng(0))
        assert np.allclose(sym_power_rep(2, a), a, atol=1e-14)

    def test_identity(self):
        assert np.allclose(sym_power_rep(4, np.eye(2)), np.eye(4), atol=1e-15)

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            sym_power_rep(3, np.diag([2.0, 1.0]))

    def test_rejects_non_2x2(self):
        for a in (np.eye(3), np.eye(2).ravel()):
            with pytest.raises(ValueError, match="expected a 2x2 matrix"):
                sym_power_rep(3, a)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        # NaN passes the determinant test, which compares False either way
        one = np.eye(2)
        one[0, 1] = bad
        for a in (np.full((2, 2), bad), one):
            with pytest.raises(ValueError, match="non-finite"):
                sym_power_rep(3, a)

    def test_homomorphism(self):
        rng = np.random.default_rng(42)
        for n in (2, 3, 4, 5, 6):
            for _ in range(20):
                a, b = random_sl2(rng), random_sl2(rng)
                lhs = sym_power_rep(n, a @ b)
                rhs = sym_power_rep(n, a) @ sym_power_rep(n, b)
                assert np.linalg.norm(lhs - rhs) < 1e-10

    def test_equivariance_with_veronese(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 4, 5, 6):
            for _ in range(20):
                a = random_sl2(rng)
                p = rng.normal(size=2)
                lhs = sym_power_rep(n, a) @ veronese(n, p)
                rhs = veronese(n, a @ p)
                assert sine_distance(lhs, rhs) < 1e-10

    def test_unit_determinant(self):
        rng = np.random.default_rng(3)
        for n in (3, 4, 5):
            a = random_sl2(rng)
            assert abs(np.linalg.det(sym_power_rep(n, a)) - 1.0) < 1e-12


class TestEigenSplit:
    """`dominant_lines`, the one eigen routine, on a matrix and its inverse,
    one matrix at a time as a stack of one (`alone`)."""

    def test_stack_entries_stand_alone(self):
        # a stack mixing real, complex and tied spectra: every entry is the
        # line the matrix gives alone, byte for byte, or the same message
        spin = np.diag([1.0, 1.0, 0.5])
        spin[:2, :2] = 2.0 * rot(0.7)
        m = sym_power_rep(3, random_sl2(np.random.default_rng(19)))
        stack = np.array((m, spin, np.diag([2.0, -2.0, 0.25]), m.T))
        got = entries(stack)
        assert got[1:3] == ["dominant eigenvalue is not real",
                            "dominant eigenvalue is not simple"]
        for entry, mat in zip(got, stack):
            if isinstance(entry, str):
                assert alone(mat) == entry
            else:
                assert entry.tobytes() == alone(mat).tobytes()

    def test_non_finite_matrices_are_error_entries(self):
        # a stack mixing finite and non-finite matrices: eig, which rejects
        # a whole stack with one inf or NaN in it, sees the finite ones only,
        # and each of those is still the line the matrix gives alone
        m = sym_power_rep(3, random_hyperbolic(np.random.default_rng(23)))
        big = np.diag([np.inf, 2.0, 1.0])
        stack = np.array((m, big, m.T, np.full((3, 3), np.nan)))
        got = entries(stack)
        assert got[1] == got[3] == "matrix is not finite"
        for i in (0, 2):
            assert got[i].tobytes() == alone(stack[i]).tobytes()
        assert alone(big) == "matrix is not finite"
        # no finite matrix: nothing is solved
        assert entries(stack[[1, 3]]) == ["matrix is not finite"] * 2

    def test_negative_dominant_eigenvalue(self):
        # the eigenline of -3 is the second axis, sign-normalized
        got = alone(np.diag([1.0, -3.0, 0.5]))
        assert np.array_equal(got, [0.0, 1.0, 0.0])

    def test_rotation_rejected(self):
        assert alone(rot(0.7)) == "dominant eigenvalue is not real"

    def test_tied_moduli_rejected(self):
        # no eigenline dominates: a 3x3 rotation (moduli 1, 1, 1), and a top
        # modulus shared by 2 and -2
        spin = np.eye(3)
        spin[:2, :2] = rot(0.7)
        assert alone(spin) in ("dominant eigenvalue is not real",
                               "dominant eigenvalue is not simple")
        assert alone(np.diag([2.0, -2.0, 0.25])) == "dominant eigenvalue is not simple"

    def test_diagonal(self):
        m = np.diag([4.0, 1.0, 0.25])
        for mat, i in ((m, 0), (np.linalg.inv(m), 2)):
            e = np.zeros(3)
            e[i] = 1.0
            assert abs(abs(alone(mat) @ e) - 1.0) < 1e-12

    def test_conjugated_sym_power(self):
        rng = np.random.default_rng(11)
        lam = 3.0
        a = np.diag([lam, 1.0 / lam])
        g = random_sl2(rng)
        m = sym_power_rep(3, g @ a @ np.linalg.inv(g))
        # attracting and repelling lines carry the extreme eigenvalues
        for mat, value in ((m, lam ** 2), (np.linalg.inv(m), lam ** -2)):
            v = alone(mat)
            assert np.linalg.norm(m @ v - value * v) < 1e-10 * value

    def test_left_right_duality(self):
        # a dominant covector (of the transpose) annihilates the other
        # extreme eigenline and pairs with its own
        rng = np.random.default_rng(13)
        g = random_sl2(rng)
        m = sym_power_rep(4, g @ np.diag([2.0, 0.5]) @ np.linalg.inv(g))
        mi = np.linalg.inv(m)
        for a, b in ((m, mi), (mi, m)):
            cov = alone(a.T)
            assert abs(cov @ alone(b)) < 1e-10
            assert abs(cov @ alone(a)) > 1e-6

    def test_huge_norm_words_stay_accurate(self):
        # spectrum with extreme dynamic range, assembled as the pipeline
        # does: symmetric powers of moderate factors, then products
        rng = np.random.default_rng(17)
        g = sym_power_rep(5, random_sl2(rng))
        gi = np.linalg.inv(g)
        lam = 900.0
        d = np.array([lam ** 4, lam ** 2, 1.0, lam ** -2, lam ** -4])
        m = g @ np.diag(d) @ gi
        mi = g @ np.diag(1 / d) @ gi
        # lines are columns of g, covectors rows of g^-1
        assert sine_distance(alone(m), g[:, 0]) < 1e-12
        assert sine_distance(alone(mi), g[:, 4]) < 1e-12
        assert sine_distance(alone(m.T), gi[0]) < 1e-12
        assert sine_distance(alone(mi.T), gi[4]) < 1e-12


def class_stacks(rep, sample):
    """The stack `representation_pair` solves for each cyclic conjugacy
    class of the sample's words: (rho(r), rho(r^-1)^T, rho(r^-1), rho(r)^T)
    for every distinct rotation r of the class's word."""
    seen, stacks = set(), []
    for p in sample.points:
        ls = conjugate_split(p.word)[1].letters
        if ls in seen:
            continue
        stack = []
        for r in map(Word, dict.fromkeys(ls[i:] + ls[:i] for i in range(len(ls) or 1))):
            m, mi = evaluate(rep, r), evaluate(rep, r.inverse())
            stack += (m, mi.T, mi, m.T)
            seen.update((r.letters, r.inverse().letters))
        stacks.append(np.array(stack))
    return stacks


class TestStackedPick:
    """`dominant_lines`' vectorized pick, tests and normalization against
    the per-matrix loop (`looped_lines`), byte for byte."""

    def test_class_stacks_match_looped_pick(self, octagon, sample_l3):
        # every class of the L = 3 sample under Sym^(n-1) of the octagon,
        # and at n = 3 with a first generator whose dominant eigenvalues
        # are not real, so classes mix lines and messages
        c, s = 2 * np.cos(0.7), 2 * np.sin(0.7)
        spin = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 0.25]])
        cases = [[sym_power_rep(n, m) for m in octagon.matrices] for n in range(2, 10)]
        cases.append([spin] + cases[1][1:])
        messages = 0
        for images in cases:
            stacks = class_stacks(GeneratorSet(images), sample_l3)
            assert len(stacks) == 72
            for stack in stacks:
                messages += assert_same_pick(stack)
        assert messages > 0

    def test_synthetic_stacks_match_looped_pick(self):
        # non-finite, complex-spectrum, tied and one-matrix entries; one
        # complex spectrum makes the whole eig output complex
        rng = np.random.default_rng(27)
        spin = np.diag([1.0, 1.0, 0.5])
        spin[:2, :2] = 2.0 * rot(0.7)               # dominant pair not real
        low = np.diag([3.0, 1.0, 1.0])
        low[1:, 1:] = 0.5 * rot(0.4)                # complex, not dominant
        m = sym_power_rep(3, random_hyperbolic(rng))
        entries = [m, spin, low, m.T, np.diag([2.0, -2.0, 0.25]),
                   np.diag([2.0, 2.0 * (1 - 1e-10), 0.25]),   # tied within 1e-9
                   np.diag([2.0, 2.0 * (1 - 1e-8), 0.25]),    # just simple
                   np.diag([np.inf, 2.0, 1.0]), np.full((3, 3), np.nan),
                   np.zeros((3, 3)), -np.eye(3), np.diag([1.0, -3.0, 0.5])]
        stack = np.array(entries)
        assert np.iscomplexobj(np.linalg.eig(stack[:3])[0])
        assert assert_same_pick(stack) == 7
        for mat in entries:
            assert_same_pick(mat[None])
        assert_same_pick(stack[[7, 8]])             # nothing finite
        assert_same_pick(stack[[0, 2, 3, 6]])       # all lines
        for n in range(2, 10):                      # mixed real and complex
            stack = rng.standard_normal((40, n, n))
            stack[::9, 0, 0] = np.nan
            assert 0 < assert_same_pick(stack) < 40

    @staticmethod
    def assert_lines_are_looped(stack):
        """(lines, errors) of dominant_lines(stack) against looped_lines:
        the same bytes, a NaN row where the loop has a message, and the
        same messages."""
        lines, errors = dominant_lines(stack)
        want = looped_lines(stack)
        nan = np.full(stack.shape[-1], np.nan)
        assert lines.tobytes() == np.array(
            [nan if isinstance(w, str) else w for w in want]).tobytes()
        assert errors == [w if isinstance(w, str) else None for w in want]

    def test_non_finite_stack_solves_its_finite_matrices(self, monkeypatch):
        # eig runs on the whole stack first; its LinAlgError for the one
        # inf matrix sends the finite mask to a second eig on the rest
        rng = np.random.default_rng(31)
        stack = np.array([sym_power_rep(4, random_hyperbolic(rng)) for _ in range(5)])
        stack[3, 1, 2] = np.inf
        sizes = []
        eig = np.linalg.eig

        def counted(a):
            sizes.append(len(a))
            return eig(a)

        monkeypatch.setattr(np.linalg, "eig", counted)
        lines, errors = dominant_lines(stack)
        assert sizes == [5, 4]
        assert errors == [None] * 3 + ["matrix is not finite", None]
        monkeypatch.undo()
        self.assert_lines_are_looped(stack)

    def test_eig_error_of_a_finite_stack_is_raised_again(self, monkeypatch):
        def fails(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eig", fails)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            dominant_lines(np.eye(3)[None])

    def test_real_spectrum_stack_matches_looped_pick(self, octagon, sample_l3):
        # eig returns a real spectrum as a real array, with no not-real test
        # to run; a tied and a negative dominant eigenvalue, and a class
        # stack of Sym^(n-1) products, keep the loop's lines and messages
        images = GeneratorSet([sym_power_rep(5, m) for m in octagon.matrices])
        for stack in class_stacks(images, sample_l3)[::9]:
            assert not np.iscomplexobj(np.linalg.eig(stack)[0])
            self.assert_lines_are_looped(stack)
        mixed = np.array([np.diag([2.0, -2.0, 0.25]), np.diag([1.0, -3.0, 0.5]),
                          sym_power_rep(3, random_hyperbolic(np.random.default_rng(32)))])
        assert not np.iscomplexobj(np.linalg.eig(mixed)[0])
        self.assert_lines_are_looped(mixed)

    def test_lines_are_read_only_rows_of_one_array(self):
        # a row per matrix of the stack, NaN where its message is
        rng = np.random.default_rng(28)
        stack = np.array([sym_power_rep(4, random_hyperbolic(rng)) for _ in range(6)])
        stack[2, 0, 0] = np.inf
        stack[4] = np.diag([2.0, -2.0, 0.25, 0.5])
        want = {(): [None, None, "matrix is not finite", None,
                     "dominant eigenvalue is not simple", None],
                (0, 1, 3, 4, 5): [None] * 3 + ["dominant eigenvalue is not simple", None],
                (0, 1, 3, 5): [None] * 4}  # no inf; every line
        for rows, messages in want.items():
            got = stack[list(rows)] if rows else stack
            lines, errors = dominant_lines(got)
            assert type(lines) is np.ndarray and lines.shape == (len(got), 4)
            assert errors == messages
            failed = [e is not None for e in errors]
            assert np.isnan(lines).all(axis=1).tolist() == failed
            assert not np.isnan(lines[~np.array(failed)]).any()
            assert not lines.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                lines[0] = 0.0


class TestFlags:
    """The flag a word image hands the curves: its attracting line, and the
    hyperplane of its other eigenlines, whose covector is the dominant line
    of the inverse transpose (as in `representation_pair`)."""

    def test_diag_flag(self):
        m = np.diag([4.0, 1.0, 0.25])
        assert np.array_equal(alone(m), [1.0, 0.0, 0.0])
        # the hyperplane span(e1, e2) has covector e3
        cov = alone(np.linalg.inv(m).T)
        assert np.array_equal(cov, [0.0, 0.0, 1.0])

    def test_conjugation_equivariance(self):
        rng = np.random.default_rng(23)
        base = np.diag([5.0, 1.2, 1 / 6.0])
        g, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        m = g @ base @ g.T
        assert sine_distance(alone(m), g @ alone(base)) < 1e-9
        # g is orthogonal, so covectors move by g as well
        cov_a = alone(np.linalg.inv(base).T)
        cov_b = alone(np.linalg.inv(m).T)
        assert sine_distance(cov_b, g @ cov_a) < 1e-9

    def test_attracting_covector_annihilates_top(self):
        rng = np.random.default_rng(29)
        g = random_sl2(rng)
        m = sym_power_rep(4, g @ np.diag([2.5, 0.4]) @ np.linalg.inv(g))
        w, v = np.linalg.eig(m)
        top = v[:, np.argsort(-np.abs(w))[:3]].real
        cov = alone(np.linalg.inv(m).T)
        for i in range(3):
            assert abs(cov @ top[:, i]) < 1e-10

    def test_n2_single_line(self):
        # at n = 2 the flag is the attracting line alone; the covector
        # is the line's annihilator
        m = np.array([[3.0, 1.0], [0.0, 1 / 3.0]])
        line = alone(m)
        assert np.allclose(np.abs(line), [1.0, 0.0], atol=1e-12)
        assert abs(alone(np.linalg.inv(m).T) @ line) < 1e-12


class TestOsculatingVeronese:
    """The osculating subspaces of the moment curve, spanned by its Taylor
    coefficients, against `veronese`, `veronese_dual` and eigenlines."""

    def test_at_basepoint(self):
        # derivatives of (1, t, t^2) at t = 0 span e1 then e1, e2
        jet = moment_jet(3, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert np.array_equal(jet, np.eye(3))
        p = np.array([1.0, 0.0])
        assert np.array_equal(veronese(3, p), [1.0, 0.0, 0.0])
        assert abs(abs(veronese_dual(3, p)[2]) - 1.0) < 1e-12

    def test_first_block_is_curve_point(self):
        rng = np.random.default_rng(31)
        for n in (2, 3, 4, 5):
            p, q = rng.normal(size=2), rng.normal(size=2)
            assert sine_distance(moment_jet(n, p, q)[0], veronese(n, p)) < 1e-10

    def test_matches_eigen_flag_at_fixed_point(self):
        # line and hyperplane at the attracting fixed point of a word equal
        # the closed form
        rng = np.random.default_rng(37)
        for n in (3, 4, 5):
            a = random_hyperbolic(rng)
            fix = alone(a)
            s = sym_power_rep(n, a)
            assert sine_distance(alone(s), veronese(n, fix)) < 1e-8
            assert sine_distance(alone(np.linalg.inv(s).T),
                                 veronese_dual(n, fix)) < 1e-8

    def test_hyperplane_is_dual_covector(self):
        # the dual covector annihilates the first n - 1 Taylor coefficients
        # (the osculating hyperplane) and not the last
        p = np.array([0.6, -1.1])
        jet = moment_jet(4, p, np.array([1.1, 0.6]))
        pairings = np.abs(jet @ veronese_dual(4, p)) / np.linalg.norm(jet, axis=1)
        assert np.all(pairings[:3] < 1e-9)
        assert pairings[3] > 1e-3


class TestHyperconvexity:
    def test_veronese_spanning(self):
        # any n distinct circle points give n independent curve points
        rng = np.random.default_rng(41)
        for n in (3, 4, 5, 6):
            for _ in range(10):
                angles = np.sort(rng.uniform(0, np.pi, size=n))
                if np.min(np.diff(angles)) < 0.05:
                    continue
                vecs = np.array([
                    veronese(n, np.array([np.cos(a), np.sin(a)]))
                    for a in angles
                ])
                # |det| over the product of the row norms (Hadamard's bound)
                det = abs(np.linalg.det(vecs))
                assert det / np.prod(np.linalg.norm(vecs, axis=1)) > 1e-8

    def test_flag_dimensions(self):
        # the osculating flag of the moment curve has full dimension at
        # every level: all n Taylor coefficients are independent
        p = np.array([1.0, 2.0])
        jet = moment_jet(5, p, np.array([-2.0, 1.0]))
        for k in range(1, 6):
            assert np.linalg.matrix_rank(jet[:k]) == k
        det = abs(np.linalg.det(jet))
        assert det / np.prod(np.linalg.norm(jet, axis=1)) > 1e-8
