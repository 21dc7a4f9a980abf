"""Quantum matrix ring: straightening, minors, determinant, gradings."""

import hashlib
import json
import random
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from qzonal.coeff import L_Q, L_QINV, Laurent
from qzonal.qmatrix import (_INSERT_CACHES, AmbientMismatch, IndexOutOfRange,
                            Inhomogeneous,
                            QPolynomial, SizeMismatch, count_normal_monomials,
                            gen_rc, normal_form, quantum_det, quantum_minor)
from qzonal.symplectic import z_generator

from oracles import (enumerate_normal_monomials, generator, inversions, normal_form_merge,
                     specialize)


def x(N, i, j):
    return generator(N, i, j)


class TestStraightening:
    def test_antidiagonal_commutes(self):
        assert normal_form(2, [(2, 1), (1, 2)]) == x(2, 1, 2) * x(2, 2, 1)

    def test_diagonal_split(self):
        got = normal_form(2, [(2, 2), (1, 1)])
        want = x(2, 1, 1) * x(2, 2, 2) - (x(2, 1, 2) * x(2, 2, 1)).scale(L_Q - L_QINV)
        assert got == want

    def test_same_row_scales(self):
        assert normal_form(2, [(1, 2), (1, 1)]) == \
            (x(2, 1, 1) * x(2, 1, 2)).scale(L_QINV)

    def test_same_column_scales(self):
        assert normal_form(2, [(2, 1), (1, 1)]) == \
            (x(2, 1, 1) * x(2, 2, 1)).scale(L_QINV)

    def test_empty_word_is_unit(self):
        assert normal_form(3, []) == QPolynomial.unit(3)

    def test_index_validation(self):
        with pytest.raises(IndexOutOfRange):
            normal_form(2, [(3, 1)])

    def test_outputs_are_normal(self):
        rng = random.Random(7)
        for _ in range(200):
            N = rng.randint(2, 4)
            word = [(rng.randint(1, N), rng.randint(1, N))
                    for _ in range(rng.randint(0, 6))]
            p = normal_form(N, word)
            for mono in p.terms:
                assert all(mono[i] <= mono[i + 1] for i in range(len(mono) - 1))

    def test_confluence_left_to_right_vs_merge(self):
        rng = random.Random(11)
        for _ in range(150):
            N = rng.randint(2, 4)
            word = [(rng.randint(1, N), rng.randint(1, N))
                    for _ in range(rng.randint(2, 6))]
            assert normal_form(N, word) == normal_form_merge(N, word)

    def test_exhaustive_straightening_small(self):
        # every length-3 word over the 2x2 ring lands in the normal span
        N = 2
        normal = set(enumerate_normal_monomials(N, 3))
        for word in product(range(1, 3), repeat=6):
            pairs = list(zip(word[::2], word[1::2]))
            p = normal_form(N, pairs)
            assert set(p.terms) <= normal


sizes = st.sampled_from((3, 4))


def words(N, max_size):
    return st.lists(st.tuples(st.integers(1, N), st.integers(1, N)),
                    max_size=max_size)


def monomials(N):
    """c * x^m for a random normal monomial m and unit coefficient c."""
    return st.tuples(st.lists(st.integers(0, N * N - 1), max_size=3),
                     st.integers(-2, 2), st.sampled_from((1, -1))).map(
        lambda m: QPolynomial(N, {tuple(sorted(m[0])): {m[1]: m[2]}}))


class TestStraighteningProperties:
    """Random words and monomials at N = 3 and 4; these guard the insert memo,
    which is keyed by the suffix of letters that move."""

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_normal_form_matches_merge(self, data):
        N = data.draw(sizes)
        word = data.draw(words(N, 7))
        assert normal_form(N, word) == normal_form_merge(N, word)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_monomial_products_associate(self, data):
        N = data.draw(sizes)
        a, b, c = (data.draw(monomials(N)) for _ in range(3))
        assert (a * b) * c == a * (b * c)

    def test_memo_keys_are_moving_suffixes(self):
        normal_form(4, [(4, 4), (3, 4), (2, 2), (4, 1), (1, 3), (1, 1)])
        assert _INSERT_CACHES[4]
        for cache in _INSERT_CACHES.values():
            assert all(mono and mono[0] > g for mono, g in cache)


def _digest(polys):
    h = hashlib.sha256()
    for p in polys:
        h.update(json.dumps(p.to_json(), sort_keys=True).encode() + b"\n")
    return h.hexdigest()


def _pinned_family(family):
    """The products of one family, in a fixed order."""
    if family == "monomials":
        monos = [QPolynomial(3, {m: {0: 1}}) for m in enumerate_normal_monomials(3, 2)]
        return (a * b for a, b in product(monos, repeat=2))
    side = family[-1]
    z = [z_generator(side, i, j, 4) for i, j in product(range(1, 5), repeat=2)]
    return (a * b for a, b in product(z, repeat=2))


class TestRingStructure:
    # sha256 of the to_json of every product z(s,i,j) * z(s,k,l) at N = 4 and
    # of every product of two degree-2 normal monomials at N = 3, as the
    # Laurent-valued straightening loop gave them
    PINNED = {
        "z-L": "c3f9da57d20202e15f72b231d08a60a76873e1261e76ecec00b259db41dc47bd",
        "z-R": "34a74c359fded6ed4a74efe32112346c3238be1accdddce36c2220b1a3cd65cf",
        "monomials": "f789cfbd77676ca56384f79944e782918a05edf465cb972ad35bd751956cde1e",
    }

    @pytest.mark.parametrize("family", PINNED)
    def test_products_are_pinned(self, family):
        assert _digest(_pinned_family(family)) == self.PINNED[family]

    def test_unit(self):
        p = quantum_det(3)
        assert QPolynomial.unit(3) * p == p

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatch):
            x(2, 1, 1) * x(3, 1, 1)

    def test_associativity_random(self):
        rng = random.Random(3)
        for _ in range(40):
            N = rng.randint(2, 4)
            polys = []
            for _ in range(3):
                word = [(rng.randint(1, N), rng.randint(1, N))
                        for _ in range(rng.randint(1, 3))]
                polys.append(normal_form(N, word, Laurent.v_power(rng.randint(-2, 2))))
            a, b, c = polys
            assert (a * b) * c == a * (b * c)

    def test_bi_weight_additivity(self):
        rng = random.Random(5)
        for _ in range(40):
            N = rng.randint(2, 4)
            words = [[(rng.randint(1, N), rng.randint(1, N))
                      for _ in range(rng.randint(1, 3))] for _ in range(2)]
            a, b = (normal_form(N, w) for w in words)
            ra, ca = a.row_weight(), a.column_weight()
            rb, cb = b.row_weight(), b.column_weight()
            rr, cc = (a * b).row_weight(), (a * b).column_weight()
            assert rr == tuple(u + v for u, v in zip(ra, rb))
            assert cc == tuple(u + v for u, v in zip(ca, cb))

    def test_bi_weight_examples(self):
        d = quantum_det(2)
        assert (d.row_weight(), d.column_weight()) == ((1, 1), (1, 1))
        p = x(2, 1, 1) * x(2, 1, 2)
        assert (p.row_weight(), p.column_weight()) == ((2, 0), (1, 1))
        p = x(2, 1, 1) + x(2, 2, 2)
        with pytest.raises(Inhomogeneous):
            (p.row_weight(), p.column_weight())


class TestMinors:
    def test_rank_one_minor(self):
        assert quantum_minor(2, (1,), (1,)) == x(2, 1, 1)

    def test_two_by_two(self):
        want = x(2, 1, 1) * x(2, 2, 2) - (x(2, 1, 2) * x(2, 2, 1)).scale(L_Q)
        assert quantum_minor(2, (1, 2), (1, 2)) == want
        assert quantum_det(2) == want

    def test_degenerate_empty_minor(self):
        assert quantum_minor(3, (), ()) == QPolynomial.unit(3)

    def test_validation(self):
        with pytest.raises(SizeMismatch):
            quantum_minor(3, (1, 2), (1,))
        with pytest.raises(IndexOutOfRange):
            quantum_minor(3, (2, 1), (1, 2))
        with pytest.raises(IndexOutOfRange):
            quantum_minor(3, (1, 4), (1, 2))

    def test_det_term_counts(self):
        assert quantum_det(1) == x(1, 1, 1)
        assert quantum_det(3).term_count() == 6
        assert quantum_det(4).term_count() == 24

    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    def test_matches_permutation_sum(self, N):
        def inv(sigma):
            return sum(a > b for i, a in enumerate(sigma) for b in sigma[i + 1:])

        for r in range(N + 1):
            for rows in combinations(range(1, N + 1), r):
                for cols in combinations(range(1, N + 1), r):
                    want = QPolynomial(N)
                    for sigma in permutations(range(r)):
                        k = inv(sigma)
                        word = [(rows[i], cols[sigma[i]]) for i in range(r)]
                        want = want + normal_form(N, word, Laurent.q_power(k, (-1) ** k))
                    assert quantum_minor(N, rows, cols) == want

    @staticmethod
    def classical_minor(rows, cols):
        from itertools import permutations
        out = {}
        for sigma in permutations(range(len(cols))):
            sgn = -1 if inversions(sigma) % 2 else 1
            mono = tuple(sorted((rows[i], cols[sigma[i]]) for i in range(len(rows))))
            out[mono] = out.get(mono, 0) + sgn
        return {k: v for k, v in out.items() if v}

    def test_classical_specialization(self):
        from itertools import combinations
        for N in (2, 3, 4):
            for r in range(1, min(N, 3) + 1):
                for rows in combinations(range(1, N + 1), r):
                    for cols in combinations(range(1, N + 1), r):
                        qm = quantum_minor(N, rows, cols)
                        got = {}
                        for mono, c in qm.terms.items():
                            key = tuple(gen_rc(N, g) for g in mono)
                            val = specialize(Laurent(c), 1)
                            if val:
                                got[key] = got.get(key, 0) + val
                        assert got == self.classical_minor(rows, cols)


class TestPBWBasis:
    @pytest.mark.parametrize("N", [2, 3])
    @pytest.mark.parametrize("d", [0, 1, 2, 3, 4])
    def test_monomial_counts(self, N, d):
        monos = list(enumerate_normal_monomials(N, d))
        assert len(monos) == count_normal_monomials(N, d)
        assert len(set(monos)) == len(monos)

    def test_random_words_stay_in_span(self):
        rng = random.Random(13)
        for N in (2, 3):
            for d in (2, 3, 4):
                normal = set(enumerate_normal_monomials(N, d))
                for _ in range(150):
                    word = [(rng.randint(1, N), rng.randint(1, N)) for _ in range(d)]
                    p = normal_form(N, word)
                    assert set(p.terms) <= normal


class TestCentrality:
    @pytest.mark.parametrize("N", [2, 3])
    def test_det_is_central(self, N):
        d = quantum_det(N)
        for i in range(1, N + 1):
            for j in range(1, N + 1):
                g = x(N, i, j)
                assert d * g == g * d


class TestSerialization:
    def test_round_trip(self):
        p = quantum_det(2) * x(2, 2, 1) + x(2, 1, 2).scale(Laurent.v_power(-3, 5))
        for poly in (p, quantum_det(7)):
            assert QPolynomial.from_json(poly.to_json()) == poly

    def test_documented_shape(self):
        obj = quantum_det(2).to_json()
        assert obj == {"N": 2, "terms": [
            {"word": [[1, 1], [2, 2]], "coeff": {"0": "1"}},
            {"word": [[1, 2], [2, 1]], "coeff": {"2": "-1"}},
        ]}

    def test_non_normal_words_accepted(self):
        obj = {"N": 2, "terms": [{"word": [[2, 2], [1, 1]], "coeff": {"0": "1"}}]}
        assert QPolynomial.from_json(obj) == normal_form(2, [(2, 2), (1, 1)])
