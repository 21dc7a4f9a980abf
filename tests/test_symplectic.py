"""Symplectic operators, z-generators, Pfaffians, invariant sums, restrictions."""

import random
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from qzonal import symplectic
from qzonal.cap import ComponentTooLarge
from qzonal.coeff import L_ONE, L_Q, L_QINV, Laurent
from qzonal.isotypic import GradedComponent, operator_kernel
from qzonal.partitions import double_partition
from qzonal.qmatrix import (_INSERT_CACHES, QPolynomial, normal_form, quantum_det,
                            quantum_minor)
from qzonal.symplectic import (OddAmbient, OddSubset,
                               _canonical_components, _compositions,
                               _det_blocks, _move_step, _pfaffian_sum,
                               _pfaffian_words, _residual_terms,
                               _row_sorted_polynomial, _word_layout, _z_terms,
                               bi_invariant_generator, invariance_kernel_check,
                               left_invariant_generator, left_invariant_product,
                               partial_pfaffian,
                               pfaffian_equals_det, quantum_pfaffian,
                               relative_invariant_check, restrict_H,
                               sp_generating_set, torus_to_s,
                               verify_z_relations, z_generator)
from qzonal.uq_action import LEFT, RIGHT, act, gen_e, gen_f

from oracles import (composite_E, det_words, full_z_relations, generator, inversions,
                     left_relative_invariant_check, matching_length, matchings,
                     noumi_generating_set, pfaffian_det_full, restrict_Borel,
                     row_set_canonical_components, row_set_memo,
                     row_set_pfaffian_sum, row_set_pfaffian_words, sp_element,
                     sp_full_set, specialize, with_all_ones_component)


def x(N, i, j):
    return generator(N, i, j)


class TestSpElements:
    def test_diagonal_base_cases(self):
        assert sp_element("e", 1, 1, 4) == gen_e(4, 1)
        assert sp_element("f", 1, 1, 4) == gen_f(4, 1)

    def test_mixed_pair(self):
        want = composite_E(4, 1, 4) + composite_E(4, 3, 2).scale(Laurent.q_power(-2))
        assert sp_element("e", 1, 2, 4) == want

    def test_odd_ambient_rejected(self):
        with pytest.raises(OddAmbient):
            sp_element("e", 1, 1, 3)

    def test_generating_set_size(self):
        # 2m diagonal operators and the m - 1 mixed sp_e(i, i+1)
        assert len(sp_generating_set(4)) == 2 * 2 + (2 - 1)
        assert len(sp_generating_set(6)) == 2 * 3 + (3 - 1)
        assert len(sp_full_set(4)) == 2 * 4

    @pytest.mark.parametrize("N", [4, 6, 8])
    def test_swapped_indices_give_a_unit_multiple(self, N):
        # so the full set adds only unit multiples of the sp_X(i, j), i < j
        for kind in ("e", "f"):
            for i, j in permutations(range(1, N // 2 + 1), 2):
                unit = Laurent.q_power(2 * (j - i))
                assert sp_element(kind, j, i, N) == sp_element(kind, i, j, N).scale(unit)


@lru_cache(maxsize=None)
def _diagonal_kernel(side, a, b, N, d):
    """A basis of the degree-d vectors that the side's e_a, f_a, e_b and f_b
    kill, from operator_kernel.  Cached: the identity tests below share
    each basis, and none changes it."""
    ops = [(side, g(N, k)) for k in (a, b) for g in (gen_e, gen_f)]
    return operator_kernel(ops, GradedComponent(N, d)).rows


def _implied_mixed_f(N, d):
    """sp_f(i, i+1) against -f_a f_b sp_e(i, i+1) (on the right, sp_e(i, i+1)
    then f_a, f_b) on a basis of the degree-d vectors that e_a, f_a, e_b and
    f_b kill, a = 2i-1 and b = 2i+1, for both sides and every i; returns how
    many images were nonzero."""
    nonzero = 0
    for side in (LEFT, RIGHT):
        for i in range(1, N // 2):
            a, b = 2 * i - 1, 2 * i + 1
            fa, fb = gen_f(N, a), gen_f(N, b)
            spe, spf = sp_element("e", i, i + 1, N), sp_element("f", i, i + 1, N)
            implied = fa * fb * spe if side == LEFT else spe * fa * fb
            for row in _diagonal_kernel(side, a, b, N, d):
                p = QPolynomial(N, row)
                image = act(side, spf, p)
                assert image == -act(side, implied, p), (side, i, row)
                nonzero += not image.is_zero()
    return nonzero


def _mixed_e_against_s(N, d):
    """sp_e(i, i+1) against s_i, the mixed operator of sp_generating_set, on
    a basis of the degree-d vectors that e_a, f_a, e_b and f_b kill, a =
    2i-1 and b = 2i+1, for both sides and every i; returns how many images
    were nonzero."""
    nonzero = 0
    for side in (LEFT, RIGHT):
        for i, s in enumerate(sp_generating_set(N)[N:], 1):
            spe = sp_element("e", i, i + 1, N)
            for row in _diagonal_kernel(side, 2 * i - 1, 2 * i + 1, N, d):
                p = QPolynomial(N, row)
                image = act(side, s, p)
                assert image == act(side, spe, p), (side, i, row)
                nonzero += not image.is_zero()
    return nonzero


@lru_cache(maxsize=None)
def _n4_invariants(side):
    """Polynomials at N = 4 that the side's sp-operators kill."""
    z = [z_generator(side, i, j, 4) for i, j in combinations(range(1, 5), 2)]
    out = z + [z[0] * z[5], bi_invariant_generator(1, 4), bi_invariant_generator(2, 4)]
    return out + [left_invariant_generator(2, 4)] * (side == LEFT)


@st.composite
def _n4_decision_inputs(draw):
    """(side, kind, p) at N = 4: p random, invariant on the side, or such an
    invariant plus x[1,1] (broken)."""
    side = draw(st.sampled_from([LEFT, RIGHT]))
    kind = draw(st.sampled_from(["random", "invariant", "broken"]))
    if kind == "random":
        letter = st.tuples(st.integers(1, 4), st.integers(1, 4))
        p = QPolynomial(4)
        for word in draw(st.lists(st.lists(letter, min_size=1, max_size=3),
                                  min_size=1, max_size=4)):
            p = p + normal_form(4, word, Laurent.v_power(draw(st.integers(-2, 2))))
        return side, kind, p
    p = draw(st.sampled_from(_n4_invariants(side)))
    return side, kind, (p + x(4, 1, 1) if kind == "broken" else p)


class TestImpliedMixedF:
    """Noumi's mixed sp_e(i, i+1) and sp_f(i, i+1), which sp_generating_set
    replaces by s_i, against the identities its docstring proves and
    Noumi's 4m - 2 operators."""

    @pytest.mark.parametrize("N,d", [(4, 2), (4, 4), (6, 2), (8, 2)])
    def test_identity_on_the_diagonal_kernels(self, N, d):
        assert _implied_mixed_f(N, d) > 0

    @pytest.mark.parametrize("N,d", [(4, 2), (4, 4), (6, 2), (8, 2)])
    def test_mixed_e_is_s_on_the_diagonal_kernels(self, N, d):
        assert _mixed_e_against_s(N, d) > 0

    @pytest.mark.stretch
    @pytest.mark.parametrize("N,d", [(6, 4), (4, 6)])
    def test_identity_on_the_diagonal_kernels_stretch(self, N, d):
        assert _implied_mixed_f(N, d) > 0

    @given(_n4_decision_inputs())
    @settings(max_examples=60, deadline=None)
    def test_invariance_decisions_equal_noumi_set(self, case):
        side, kind, p = case
        got = invariance_kernel_check(p, side)
        assert got == invariance_kernel_check(p, side, noumi_generating_set(4))
        if kind != "random":
            assert got == (kind == "invariant")


class TestZGenerators:
    def test_smallest_case_is_det(self):
        assert z_generator("L", 1, 2, 2) == quantum_det(2)

    def test_diagonal_vanishes(self):
        for N in (2, 4, 6):
            for i in range(1, N + 1):
                assert z_generator("L", i, i, N).is_zero()
                assert z_generator("R", i, i, N).is_zero()

    def test_skew_symmetry(self):
        # oriented: z[i,j] = -q^-1 z[j,i] for i < j
        for N in (4, 6):
            for side in ("L", "R"):
                for i, j in combinations(range(1, N + 1), 2):
                    zij = z_generator(side, i, j, N)
                    zji = z_generator(side, j, i, N)
                    assert (zij + zji.scale(L_QINV)).is_zero()

    def test_explicit_small_value(self):
        # z^L_{1,2} at N=4: v^0 minor(12|12) + v^-4 minor(12|34)
        got = z_generator("L", 1, 2, 4)
        want = quantum_minor(4, (1, 2), (1, 2)) + \
            quantum_minor(4, (1, 2), (3, 4)).scale(Laurent.v_power(-4))
        assert got == want

    @pytest.mark.parametrize("side", ["L", "R"])
    @pytest.mark.parametrize("N", [4, 6, 8])
    def test_relation_suite(self, side, N):
        report = verify_z_relations(side, N)
        bad = [r for r in report if not r["pass"]]
        assert not bad, bad

    @pytest.mark.parametrize("side", ["L", "R"])
    @pytest.mark.parametrize("N", [2, 4, 6])
    def test_report_equals_full_expansion(self, side, N):
        assert verify_z_relations(side, N) == full_z_relations(side, N)

    @pytest.mark.stretch
    @pytest.mark.parametrize("side", ["L", "R"])
    def test_report_equals_full_expansion_stretch(self, side):
        assert verify_z_relations(side, 8) == full_z_relations(side, 8)

    @pytest.mark.parametrize("side", ["L", "R"])
    @pytest.mark.parametrize("N", [4, 6])
    def test_failing_report_equals_full_expansion(self, side, N, monkeypatch):
        # q^-2 in place of q^-1 breaks every relation that uses q^-1
        qinv = Laurent.q_power(-2)
        monkeypatch.setattr("qzonal.symplectic.L_QINV", qinv)
        report = verify_z_relations(side, N)
        assert report == full_z_relations(side, N, qinv)
        failed = {r["relation"] for r in report if not r["pass"]}
        assert {"skew", "interlaced_bracket", "disjoint_bracket_alt"} <= failed

    @pytest.mark.parametrize("side", ["L", "R"])
    @pytest.mark.parametrize("N", [4, 6, 8])
    def test_component_count_is_full_term_count(self, side, N):
        # residuals that are not zero: a z alone, a product alone, and the
        # two commutators without their q and (q - q^-1) terms
        right, m = side == "R", N // 2

        def broken(z, i, j, k, l):
            return [z(i, j), z(i, j) * z(k, l),
                    z(i, j) * z(k, l) - z(k, l) * z(i, j),
                    z(i, j) * z(i, k) - z(i, k) * z(i, j)]

        for idx in [(1, 2, 3, 4), (1, 3, 2, 4), (N, 2, N - 1, 1), (2, N, 1, N - 2)]:
            full = broken(lambda i, j: z_generator(side, i, j, N), *idx)
            part = broken(lambda i, j: _z_terms(right, i, j, N, min(m, 2)), *idx)
            for f, p in zip(full, part):
                assert not f.is_zero()
                assert _residual_terms(p, right, m) == f.term_count()

    def test_z_generator_side_names(self):
        assert z_generator(LEFT, 1, 3, 4) == z_generator("L", 1, 3, 4)
        assert z_generator(RIGHT, 1, 3, 4) == z_generator("R", 1, 3, 4)
        for side in ("bogus", "l", None):
            with pytest.raises(ValueError):
                z_generator(side, 1, 3, 4)

    def test_verify_z_relations_rejects_unknown_side(self):
        with pytest.raises(ValueError):
            verify_z_relations("bogus", 4)

    def test_invariance(self):
        for N in (4, 6):
            ops = sp_generating_set(N)
            for i, j in combinations(range(1, N + 1), 2):
                assert invariance_kernel_check(z_generator("L", i, j, N), LEFT, ops)
                assert invariance_kernel_check(z_generator("R", i, j, N), RIGHT, ops)

    def test_non_invariant_example(self):
        assert not invariance_kernel_check(x(4, 1, 1), LEFT)


class TestMatchings:
    def test_counts(self):
        assert len(matchings(range(1, 5))) == 3
        assert len(matchings(range(1, 7))) == 15
        assert len(matchings(range(1, 9))) == 105

    def test_lengths(self):
        assert matching_length(((1, 2), (3, 4))) == 0
        assert matching_length(((1, 3), (2, 4))) == 1
        assert matching_length(((1, 4), (2, 3))) == 2

    def test_odd_rejected(self):
        with pytest.raises(OddSubset):
            matchings((1, 2, 3))


def matching_sum(points, N):
    """sum over matchings of (-q)^len * the ordered z-product, multiplied
    through the generic straightening of QPolynomial.__mul__."""
    total = QPolynomial(N)
    for pairs in matchings(points):
        prod = QPolynomial.unit(N)
        for i, j in pairs:
            prod = prod * z_generator("L", i, j, N)
        inv = matching_length(pairs)
        total = total + prod.scale(Laurent.q_power(inv, -1 if inv % 2 else 1))
    return total


def pfaffian_states(N):
    """The memo of _pfaffian_sum after every partial Pfaffian and every
    canonical column-pair component at N."""
    m, memo = N // 2, {}
    for r in range(2, N + 1, 2):
        _pfaffian_sum(r, (r // 2,) * m, N, memo)
    for c in _compositions(m):
        _pfaffian_sum(N, c + (0,) * (m - len(c)), N, memo)
    return memo


class TestQuantumPfaffian:
    def test_two_by_two(self):
        assert quantum_pfaffian(2) == z_generator("L", 1, 2, 2)

    def test_expansion_matches_matching_sum(self):
        N = 4
        z = {(i, j): z_generator("L", i, j, N)
             for i, j in combinations(range(1, 5), 2)}
        want = z[(1, 2)] * z[(3, 4)] \
            - (z[(1, 3)] * z[(2, 4)]).scale(L_Q) \
            + (z[(1, 4)] * z[(2, 3)]).scale(L_Q * L_Q)
        assert quantum_pfaffian(4) == want
        # the row-sorted expansion against the generic product path
        for N in (2, 4, 6):
            assert quantum_pfaffian(N) == matching_sum(range(1, N + 1), N)
        for r in (2, 4):
            assert partial_pfaffian(r, 6) == matching_sum(range(1, r + 1), 6)
        # full-width column digits: 3 bits at N = 8
        for r in (2, 4, 6):
            assert partial_pfaffian(r, 8) == matching_sum(range(1, r + 1), 8)

    @given(st.lists(st.integers(1, 6), max_size=5), st.integers(1, 6))
    @settings(max_examples=120, deadline=None)
    def test_single_letter_move_is_straightening(self, prefix, b):
        # fold the one letter x[k+1,b] through the prefix, one _move_step a
        # letter, each letter x[t+1,c] landing on its row's digit
        k = len(prefix)
        rows = tuple(range(1, k + 2))
        W, E, bias = _word_layout(6)
        state = {b - 1: (0, {bias: 1})}
        for t, c in enumerate(prefix):
            state = _move_step(state, c - 1, E + W * (k - t))
        words = {key + off + (c << E): v for c, (off, keys) in state.items()
                 for key, v in keys.items() if v}
        moved = _row_sorted_polynomial(rows, 6, words)
        word = [(k + 1, b)] + [(r, c) for r, c in zip(rows, prefix)]
        assert moved == normal_form(6, word)

    def test_packed_exponents_within_documented_bound(self):
        for N in (2, 4, 6, 8):
            W, E, bias = _word_layout(N)
            bound = N * (2 * N - 3)
            assert bias >= bound and bias + bound < 1 << E
            m = N // 2
            for (size, pairs), words in pfaffian_states(N).items():
                points = tuple(range(1, size + 1))
                assert all(0 <= key < 1 << (E + W * size) for key in words)
                # as the tail of a sum on size + 2 rows, shifted for each
                # pairing t of row 1 with row t + 2
                if size + 2 <= N:
                    exps = {key & (1 << E) - 1 for key in words}
                    for t in range(size + 1):
                        delta = 2 * (size + 2) - 4 + 2 * t
                        assert all(0 <= e + delta <= 2 * bias for e in exps)
                pf = _row_sorted_polynomial(points, N, words)
                for mono, c in pf.terms.items():
                    # a z-term puts two letters on its pair
                    letters = [0] * m
                    for g in mono:
                        letters[g % N // 2] += 1
                    assert all(n <= 2 * b for n, b in zip(letters, pairs))
                    if 2 * sum(pairs) == size:
                        assert letters == [2 * b for b in pairs]
                    # rows and columns are conserved by every relation, and
                    # each power of q adds 2 to the exponent
                    parity = (sum(points) - sum(g % N + 1 for g in mono)) % 2
                    for e in c:
                        assert abs(e) <= bound and e % 2 == parity

    def test_memo_holds_one_state_per_size_and_bound(self):
        # every composition of 4 on one memo, as pfaffian_equals_det(8) forms
        # them; keyed by row set the same sums took 267 states
        memo = {}
        for c in _compositions(4):
            _pfaffian_sum(8, c + (0,) * (4 - len(c)), 8, memo)
        assert len(memo) == 33

    @pytest.mark.parametrize("N", [2, 4, 6, 8])
    def test_every_sub_sum_equals_per_pairing_walk(self, N):
        # the one walk per sub-sum against the oracle that walks a trie for
        # each pairing of row 1, on every table the memo holds: each
        # partial Pfaffian, each canonical component and their sub-sums
        for (size, pairs), words in pfaffian_states(N).items():
            points = tuple(range(1, size + 1))
            assert row_set_pfaffian_sum(points, pairs, N, *row_set_memo(N)) == words

    @pytest.mark.parametrize("N", [2, 4, 6, 8])
    def test_equals_row_set_recursion(self, N):
        assert _canonical_components(N) == row_set_canonical_components(N)
        for r in range(2, N + 1, 2):
            assert _pfaffian_words(r, N) == row_set_pfaffian_words(r, N)

    @pytest.mark.parametrize("qterm", [L_Q, L_ONE, Laurent.q_power(2)])
    def test_row_relabeling_shifts_the_exponent(self, qterm, monkeypatch):
        # with 1 or q^2 in place of q the repeated-pair components no longer
        # cancel, so their states are not all empty
        monkeypatch.setattr("qzonal.symplectic.L_Q", qterm)
        N, memo, oracle = 6, pfaffian_states(6), {}
        repeated = [words for (size, pairs), words in memo.items()
                    if 2 * sum(pairs) == size and max(pairs) > 1]
        assert any(repeated) == (qterm != L_Q)
        for (size, pairs), words in memo.items():
            s = size // 2
            for P in combinations(range(1, N + 1), size):
                shift = sum(P) - s * (2 * s + 1)
                want = {key + shift: k for key, k in words.items()}
                assert row_set_pfaffian_sum(P, pairs, N, {}, oracle) == want

    @pytest.mark.parametrize("N", [2, 4, 6])
    def test_equals_quantum_det(self, N):
        assert quantum_pfaffian(N) == quantum_det(N)
        assert pfaffian_equals_det(N) == (quantum_det(N).term_count(), 0)

    @pytest.mark.parametrize("N", [0, 2, 4, 6])
    def test_components_equal_full_expansion(self, N):
        assert pfaffian_equals_det(N) == pfaffian_det_full(N)

    @pytest.mark.stretch
    def test_components_equal_full_expansion_stretch(self):
        assert pfaffian_equals_det(8) == pfaffian_det_full(8)

    def test_compositions(self):
        assert list(_compositions(0)) == [()]
        assert sorted(_compositions(3)) == [(1, 1, 1), (1, 2), (2, 1), (3,)]
        assert len(list(_compositions(4))) == 8

    @pytest.mark.parametrize("N, want", [(2, (2, 1)), (4, (30, 25)), (6, (1308, 1251))])
    @pytest.mark.parametrize("qterm", [L_ONE, Laurent.q_power(2)])
    def test_repeated_pair_components_count(self, N, want, qterm, monkeypatch):
        # the minor's second term with 1 or q^2 in place of q: the components
        # with a repeated pair no longer cancel, and each canonical one
        # stands for C(N/2, parts) components of the full expansion
        monkeypatch.setattr("qzonal.symplectic.L_Q", qterm)
        assert pfaffian_equals_det(N) == pfaffian_det_full(N) == want
        if N > 2:
            assert any(words for c, words in _canonical_components(N).items()
                       if len(c) < N // 2)

    @pytest.mark.parametrize("N", [2, 4, 6, 8])
    def test_packed_det_is_quantum_det(self, N):
        det = {}
        for block in _det_blocks(N):
            det.update(block)
        rows = tuple(range(1, N + 1))
        assert _row_sorted_polynomial(rows, N, det) == quantum_det(N)

    @pytest.mark.parametrize("N", range(1, 9))
    def test_det_blocks_partition_the_permutation_words(self, N):
        # the blocks built from free-column-set tables against the oracle's
        # one word per permutation: disjoint, N! words in all, same signs
        blocks = list(_det_blocks(N))
        det = {}
        for block in blocks:
            assert not det.keys() & block.keys()
            det.update(block)
        assert sum(map(len, blocks)) == len(det) == factorial(N)
        assert det == dict(det_words(N))

    def test_monomial_with_two_exponents_counts_once(self, monkeypatch):
        words = dict(det_words(4))
        first = min(words)
        words[first] *= 2
        words[first + 1] = 1      # the same columns, one more power of v
        monkeypatch.setattr("qzonal.symplectic._canonical_components",
                            with_all_ones_component(words))
        wrong = _row_sorted_polynomial((1, 2, 3, 4), 4, words)
        assert pfaffian_equals_det(4) == (wrong.term_count(), 1) == (24, 1)
        assert (wrong - quantum_det(4)).term_count() == 1

    @pytest.mark.parametrize("change", ["extra", "sign", "swap"])
    def test_streamed_det_mismatch_counts_as_full_tables(self, change, monkeypatch):
        # det(4) with one more word (so every word of det(4) still matches),
        # with one sign flipped, or with one word replaced by a word not in
        # det(4) (so it keeps 4! words and only the block test catches it):
        # the block test fails and the residual is counted on the full tables
        words = dict(det_words(4))
        if change == "extra":
            words[min(words) + 4] = 1   # the first word's columns, v^4 more
        elif change == "sign":
            words[max(words)] *= -1
        else:
            last = max(words)           # the last word's columns, v^4 more
            assert last + 4 not in words
            words[last + 4] = words.pop(last)
        monkeypatch.setattr("qzonal.symplectic._canonical_components",
                            with_all_ones_component(words))
        wrong = _row_sorted_polynomial((1, 2, 3, 4), 4, words)
        assert pfaffian_equals_det(4) == (wrong.term_count(),
                                          (wrong - quantum_det(4)).term_count()) == (24, 1)

    def test_leaves_insert_memo_empty(self):
        # row-sorted words never go through the generic straightening, and
        # the Pfaffian keeps no table of its own between calls
        def tables():
            return {name: len(v) for name, v in vars(symplectic).items()
                    if isinstance(v, (dict, list, set)) and not name.startswith("__")}

        _INSERT_CACHES.pop(6, None)
        quantum_pfaffian(6)
        partial_pfaffian(4, 6)
        assert pfaffian_equals_det(6) == (720, 0)
        assert not _INSERT_CACHES.get(6)
        assert tables() == {}

    def test_killed_by_right_action(self):
        N = 4
        pf = quantum_pfaffian(N)
        for k in range(1, N):
            assert act(RIGHT, gen_e(N, k), pf).is_zero()
            assert act(RIGHT, gen_f(N, k), pf).is_zero()

    def test_invariant_both_sides(self):
        pf = quantum_pfaffian(4)
        assert invariance_kernel_check(pf, LEFT)
        assert invariance_kernel_check(pf, RIGHT)

    def test_odd_ambient(self):
        with pytest.raises(OddAmbient):
            quantum_pfaffian(3)


class TestClassicalLimit:
    @staticmethod
    def classical_pfaffian(A):
        n = len(A)
        total = 0
        for pairs in matchings(range(1, n + 1)):
            sgn = -1 if matching_length(pairs) % 2 else 1
            prod = 1
            for i, j in pairs:
                prod *= A[i - 1][j - 1]
            total += sgn * prod
        return total

    @staticmethod
    def det(A):
        from itertools import permutations
        n = len(A)
        total = 0
        for sigma in permutations(range(n)):
            sgn = -1 if inversions(sigma) % 2 else 1
            prod = 1
            for i in range(n):
                prod *= A[i][sigma[i]]
            total += sgn * prod
        return total

    def test_sign_pattern_at_one(self):
        signs = {pairs: Laurent.v_power(2 * matching_length(pairs),
                                        -1 if matching_length(pairs) % 2 else 1)
                 for pairs in matchings(range(1, 5))}
        at_one = {pairs: specialize(c, 1) for pairs, c in signs.items()}
        assert at_one == {((1, 2), (3, 4)): 1,
                          ((1, 3), (2, 4)): -1,
                          ((1, 4), (2, 3)): 1}

    def test_pfaffian_squared_is_det(self):
        rng = random.Random(21)
        for _ in range(25):
            n = 4
            A = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    A[i][j] = rng.randint(-9, 9)
                    A[j][i] = -A[i][j]
            assert self.classical_pfaffian(A) ** 2 == self.det(A)


class TestPartialPfaffian:
    def test_full_subset_is_pfaffian(self):
        assert partial_pfaffian(4, 4) == quantum_pfaffian(4)

    @pytest.mark.parametrize("N", [2, 4, 6, 8])
    def test_smallest_subset(self, N):
        # the one matching (1, 2) has the factor (-q)^0
        assert partial_pfaffian(2, N) == z_generator("L", 1, 2, N)

    def test_annihilation(self):
        N = 4
        pf = partial_pfaffian(2, N)
        for k in range(1, N):
            assert act(RIGHT, gen_f(N, k), pf).is_zero()
        assert act(RIGHT, gen_e(N, 1), pf).is_zero()
        # the boundary raising operator does not kill it
        assert not act(RIGHT, gen_e(N, 2), pf).is_zero()

    def test_odd_subset(self):
        with pytest.raises(OddSubset):
            partial_pfaffian(3, 4)


class TestInvariantSums:
    def test_row_block_sum_small(self):
        got = left_invariant_generator(1, 2)
        assert got == quantum_det(2).scale(Laurent.q_power(-2))

    def test_row_block_sum_four(self):
        got = left_invariant_generator(1, 4)
        want = quantum_minor(4, (1, 2), (1, 2)).scale(Laurent.q_power(-2)) + \
            quantum_minor(4, (1, 2), (3, 4)).scale(Laurent.q_power(-4))
        assert got == want

    def test_left_invariance(self):
        for N in (4, 6):
            ops = sp_generating_set(N)
            for r in range(1, N // 2 + 1):
                assert invariance_kernel_check(
                    left_invariant_generator(r, N), LEFT, ops)

    def test_product_invariance(self):
        ops = sp_generating_set(4)
        for mu in [(1,), (2,), (1, 1)]:
            p = left_invariant_product(mu, 4)
            assert invariance_kernel_check(p, LEFT, ops)

    @pytest.mark.parametrize("mu", [(1, 2), (1, -1)])
    def test_product_refuses_a_non_partition(self, mu):
        # (1, 2) would give g_2^2, of row weight (2, 2, 2, 2), and (1, -1)
        # would skip its factor, of row weight (2, 2, 0, 0)
        with pytest.raises(ValueError, match="not a partition"):
            left_invariant_product(mu, 4)

    def test_two_sided_generator_small(self):
        assert bi_invariant_generator(1, 2) == quantum_det(2)

    def test_two_sided_generator_four(self):
        got = bi_invariant_generator(1, 4)
        want = quantum_minor(4, (1, 2), (1, 2)) + \
            quantum_minor(4, (1, 2), (3, 4)).scale(Laurent.q_power(-2)) + \
            quantum_minor(4, (3, 4), (1, 2)).scale(Laurent.q_power(2)) + \
            quantum_minor(4, (3, 4), (3, 4))
        assert got == want

    def test_two_sided_invariance(self):
        for N in (4, 6):
            ops = sp_generating_set(N)
            for r in range(1, N // 2 + 1):
                e = bi_invariant_generator(r, N)
                assert invariance_kernel_check(e, LEFT, ops)
                assert invariance_kernel_check(e, RIGHT, ops)

    def test_product_independence(self):
        # products of total degree 2m, m <= 3, at N=4 are independent
        from qzonal.isotypic import SubspaceBasis
        from itertools import combinations_with_replacement
        N = 4
        gens = {r: bi_invariant_generator(r, N) for r in (1, 2)}
        for m in (1, 2, 3):
            prods = []
            for k in range(1, m + 1):
                for combo in combinations_with_replacement((1, 2), k):
                    if sum(combo) == m:
                        poly = QPolynomial.unit(N)
                        for r in combo:
                            poly = poly * gens[r]
                        prods.append(poly)
            basis = SubspaceBasis()
            for p in prods:
                assert basis.insert(p.terms) is not None
            assert basis.rank == len(prods)

    @pytest.mark.parametrize("N", [2, 4, 6, 8])
    def test_generator_term_counts(self, N, monkeypatch):
        # the size gate's count is exact: a cap of the count builds the
        # generator with that many terms, one less refuses it
        m = N // 2
        for r in range(1, m + 1):
            for build, count, what in (
                    (left_invariant_generator, comb(m, r) * factorial(2 * r), "left"),
                    (bi_invariant_generator, comb(m, r) ** 2 * factorial(2 * r), "bi")):
                monkeypatch.setenv("QZ_CAP", str(count))
                assert build(r, N).term_count() == count
                monkeypatch.setenv("QZ_CAP", str(count - 1))
                with pytest.raises(ComponentTooLarge,
                                   match=f"^{count} terms of a {what}-invariant generator"):
                    build(r, N)

    def test_bi_invariant_generator_over_cap_forms_no_minor(self, monkeypatch):
        minors = []
        monkeypatch.setattr(symplectic, "quantum_minor",
                            lambda *a: minors.append(a) or quantum_minor(*a))
        monkeypatch.setenv("QZ_CAP", "1000")
        with pytest.raises(ComponentTooLarge,
                           match="^40320 terms of a bi-invariant generator exceed the cap 1000$"):
            bi_invariant_generator(4, 8)
        assert minors == []


class TestRestrictions:
    def test_torus_restriction_of_det(self):
        assert restrict_H(quantum_det(2)) == {(1, 1): {0: 1}}

    def test_torus_kills_off_diagonal(self):
        assert restrict_H(x(2, 1, 2)) == {}

    def test_paired_minor_restriction(self):
        got = restrict_H(bi_invariant_generator(2, 4))
        assert got == {(1, 1, 1, 1): {0: 1}}

    def test_generator_restriction(self):
        got = restrict_H(bi_invariant_generator(1, 4))
        assert got == {(1, 1, 0, 0): {0: 1}, (0, 0, 1, 1): {0: 1}}

    def test_s_collapse(self):
        got = torus_to_s(restrict_H(bi_invariant_generator(1, 4)), 4)
        assert got == {(1, 0): {0: 1}, (0, 1): {0: 1}}
        with pytest.raises(ValueError):
            torus_to_s({(1, 0, 0, 0): {0: 1}}, 4)

    def test_borel_restriction(self):
        p = x(2, 1, 2) + x(2, 2, 1)
        assert restrict_Borel(p, "+") == x(2, 1, 2)
        assert restrict_Borel(p, "-") == x(2, 2, 1)

    def test_borel_diagonal_elements_commute(self):
        # images of x_kk and x_ll commute in the triangular quotient
        for N in (2, 3):
            for sign in ("+", "-"):
                for k in range(1, N + 1):
                    for l in range(1, N + 1):
                        a = restrict_Borel(x(N, k, k) * x(N, l, l), sign)
                        b = restrict_Borel(x(N, l, l) * x(N, k, k), sign)
                        assert a == b

    def test_borel_is_multiplicative(self):
        rng = random.Random(17)
        from qzonal.qmatrix import normal_form
        for _ in range(40):
            N = 3
            sign = rng.choice("+-")
            words = [[(rng.randint(1, N), rng.randint(1, N))
                      for _ in range(2)] for _ in range(2)]
            a, b = (normal_form(N, w) for w in words)
            ra, rb = restrict_Borel(a, sign), restrict_Borel(b, sign)
            assert restrict_Borel(ra * rb, sign) == restrict_Borel(a * b, sign)


class TestRelativeInvariants:
    def test_det_both_sides(self):
        d = quantum_det(3)
        assert left_relative_invariant_check(d, (1, 1, 1))
        assert relative_invariant_check(d, (1, 1, 1))

    def test_principal_minor(self):
        m = quantum_minor(4, (1, 2), (1, 2))
        assert left_relative_invariant_check(m, (1, 1, 0, 0))

    def test_non_highest_vector(self):
        assert not left_relative_invariant_check(x(2, 1, 2), (1, 0))

    def test_partial_pfaffian_row_side(self):
        pf = partial_pfaffian(2, 4)
        assert relative_invariant_check(pf, (1, 1, 0, 0))

    def test_wrong_row_weight_is_refused(self):
        # a right highest-weight vector of row weight (1,1,0,0), asked for (2,2)
        u = left_invariant_product((1,), 4)
        assert relative_invariant_check(u, (1, 1, 0, 0))
        assert not relative_invariant_check(u, double_partition((2,)))

    def test_only_the_last_f_fails(self):
        # row weight (1,1,1,1): the right f_1 and f_2 kill p, f_3 does not
        p = quantum_minor(4, (1, 2, 3), (1, 2, 3)) * x(4, 4, 4)
        assert p.row_weight() == (1, 1, 1, 1)
        assert [act(RIGHT, gen_f(4, k), p).is_zero() for k in (1, 2, 3)] == \
            [True, True, False]
        assert not relative_invariant_check(p, (1, 1, 1, 1))
