"""Left/right enveloping-algebra actions, and the composite root vectors of
the oracles."""

import copy
import functools
import random
from collections import Counter
from operator import add, mul, sub

import pytest
from hypothesis import given, settings, strategies as st

from qzonal import qmatrix, uq_action
from qzonal.coeff import Laurent
from qzonal.isotypic import SubspaceBasis, kernel_on
from qzonal.qmatrix import (AmbientMismatch, IndexOutOfRange, QPolynomial,
                            normal_form, quantum_det)
from qzonal.symplectic import sp_generating_set, z_generator
from qzonal.uq_action import LEFT, RIGHT, act, gen_e, gen_f, q_weight

from oracles import (composite_E, enumerate_normal_monomials, generator,
                     normal_form_merge, q_int)


def x(N, i, j):
    return generator(N, i, j)


def weight_pairing(doubled_coords, weight) -> int:
    """v-exponent <2w, mu> for a doubled weight w and integer vector mu."""
    return sum(c * m for c, m in zip(doubled_coords, weight))


class TestGeneratorActions:
    def test_left_e_moves_column_down(self):
        assert act(LEFT, gen_e(2, 1), x(2, 1, 2)) == x(2, 1, 1)

    def test_left_e_kills_first_column(self):
        assert act(LEFT, gen_e(2, 1), x(2, 1, 1)).is_zero()

    def test_left_f_twisted_leibniz(self):
        got = act(LEFT, gen_f(2, 1), x(2, 1, 1) * x(2, 1, 1))
        want = (x(2, 1, 1) * x(2, 1, 2)).scale(Laurent({-3: 1, 1: 1}))
        assert got == want

    def test_right_e_moves_row(self):
        assert act(RIGHT, gen_e(2, 1), x(2, 1, 2)) == x(2, 2, 2)

    def test_weight_atoms(self):
        # column reading on the left
        eps2 = (0, 2)
        got = act(LEFT, q_weight(2, eps2), x(2, 1, 2))
        assert got == x(2, 1, 2).scale(Laurent.q_power(1))
        # row reading on the right
        got = act(RIGHT, q_weight(2, eps2), x(2, 1, 2))
        assert got == x(2, 1, 2)

    def test_index_validation(self):
        with pytest.raises(IndexOutOfRange):
            gen_e(2, 2)
        with pytest.raises(AmbientMismatch):
            act(LEFT, gen_e(3, 1), x(2, 1, 1))

    def test_ambient_mismatch(self):
        for op in (add, sub, mul):
            with pytest.raises(AmbientMismatch):
                op(gen_e(3, 1), gen_e(4, 1))


class TestOperatorRelations:
    @pytest.mark.parametrize("N,d", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3)])
    def test_ef_commutator(self, N, d):
        for side in (LEFT, RIGHT):
            for i in range(1, N):
                for j in range(1, N):
                    u = gen_e(N, i) * gen_f(N, j) - gen_f(N, j) * gen_e(N, i)
                    for mono in enumerate_normal_monomials(N, d):
                        p = QPolynomial(N, {mono: {0: 1}})
                        lhs = act(side, u, p)
                        if i != j:
                            assert lhs.is_zero()
                            continue
                        wt = p.column_weight() if side == LEFT else p.row_weight()
                        m = wt[i - 1] - wt[i]
                        if m == 0:
                            assert lhs.is_zero()
                        else:
                            c = q_int(abs(m))
                            assert lhs == p.scale(c if m > 0 else -c)

    @pytest.mark.parametrize("N,d", [(3, 2), (3, 3), (4, 2), (4, 3)])
    def test_serre_relations(self, N, d):
        two = q_int(2)
        for side in (LEFT, RIGHT):
            for g in (gen_e, gen_f):
                for i in range(1, N):
                    for j in range(1, N):
                        if i == j:
                            continue
                        a, b = g(N, i), g(N, j)
                        if abs(i - j) == 1:
                            u = a * a * b - (a * b * a).scale(two) + b * a * a
                        else:
                            u = a * b - b * a
                        for mono in enumerate_normal_monomials(N, d):
                            p = QPolynomial(N, {mono: {0: 1}})
                            assert act(side, u, p).is_zero()

    def test_left_right_actions_commute(self):
        rng = random.Random(2)
        for N in (2, 3, 4):
            atoms = [gen_e(N, k) for k in range(1, N)] + \
                    [gen_f(N, k) for k in range(1, N)]
            for _ in range(25):
                a, b = rng.choice(atoms), rng.choice(atoms)
                word = [(rng.randint(1, N), rng.randint(1, N))
                        for _ in range(rng.randint(1, 3))]
                p = normal_form(N, word)
                assert act(RIGHT, b, act(LEFT, a, p)) == \
                    act(LEFT, a, act(RIGHT, b, p))

    def test_coproduct_bracketing(self):
        # action on a product agrees with the two-factor product rule
        rng = random.Random(9)
        for _ in range(30):
            N = 3
            k = rng.randint(1, 2)
            wa = [(rng.randint(1, N), rng.randint(1, N)) for _ in range(2)]
            wb = [(rng.randint(1, N), rng.randint(1, N)) for _ in range(2)]
            a, b = normal_form(N, wa), normal_form(N, wb)
            # doubled coordinates of alpha_k / 2
            half = tuple(1 if i == k - 1 else -1 if i == k else 0 for i in range(N))
            minus = tuple(-c for c in half)
            for side, g in ((LEFT, gen_e(N, k)), (LEFT, gen_f(N, k)),
                            (RIGHT, gen_e(N, k)), (RIGHT, gen_f(N, k))):
                lhs = act(side, g, a * b)
                rhs = act(side, g, a) * act(side, q_weight(N, minus), b) + \
                    act(side, q_weight(N, half), a) * act(side, g, b)
                assert lhs == rhs, (side, k)


class TestCompositeRootVectors:
    def test_base_cases(self):
        assert composite_E(3, 1, 2) == gen_e(3, 1)
        assert composite_E(3, 2, 1) == gen_f(3, 1)

    def test_nested_action(self):
        got = act(LEFT, composite_E(3, 1, 3), x(3, 1, 3))
        assert got == x(3, 1, 1)

    def test_intermediate_independence(self):
        for d in (1, 2):
            # composite_E goes through k = 2; the same commutators through 3
            u2, d2 = composite_E(4, 1, 4), composite_E(4, 4, 1)
            a, b = composite_E(4, 1, 3), composite_E(4, 3, 4)
            u3 = a * b - b * a
            a, b = composite_E(4, 4, 3), composite_E(4, 3, 1)
            d3 = a * b - b * a
            for side in (LEFT, RIGHT):
                for mono in enumerate_normal_monomials(4, d):
                    p = QPolynomial(4, {mono: {0: 1}})
                    assert act(side, u2, p) == act(side, u3, p)
                    assert act(side, d2, p) == act(side, d3, p)

    def test_validation(self):
        with pytest.raises(IndexOutOfRange):
            composite_E(3, 1, 1)


class TestWeights:
    def test_weight_compatibility(self):
        rng = random.Random(4)
        for _ in range(30):
            N = rng.randint(2, 4)
            word = [(rng.randint(1, N), rng.randint(1, N))
                    for _ in range(rng.randint(1, 3))]
            p = normal_form(N, word)
            if p.is_zero():
                continue
            lam = tuple(rng.randint(-2, 2) for _ in range(N))
            got = act(LEFT, q_weight(N, lam), p)
            assert got == p.scale(Laurent.v_power(
                weight_pairing(lam, p.column_weight())))

    def test_det_killed_both_sides(self):
        for N in (2, 3, 4):
            d = quantum_det(N)
            for k in range(1, N):
                for side in (LEFT, RIGHT):
                    assert act(side, gen_e(N, k), d).is_zero()
                    assert act(side, gen_f(N, k), d).is_zero()


def atoms(N):
    """e_k, f_k or q^w with w a doubled weight."""
    ks = st.integers(1, N - 1)
    return st.one_of(ks.map(lambda k: gen_e(N, k)), ks.map(lambda k: gen_f(N, k)),
                     st.lists(st.integers(-2, 2), min_size=N, max_size=N).map(
                         lambda w: q_weight(N, w)))


class TestSidesCommute:
    """Zonal extraction spans a left-invariant vector on the right only, so
    it rests on left and right actions commuting."""

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_left_and_right_atoms_commute(self, data):
        N = data.draw(st.sampled_from((3, 4)))
        letters = data.draw(st.lists(st.integers(0, N * N - 1),
                                     min_size=1, max_size=4))
        p = QPolynomial(N, {tuple(sorted(letters)): {0: 1}})
        a, b = data.draw(atoms(N)), data.draw(atoms(N))
        assert act(LEFT, a, act(RIGHT, b, p)) == act(RIGHT, b, act(LEFT, a, p))


ATOMS = [(side, kind) for side in (LEFT, RIGHT) for kind in "ef"]
GEN = {"e": gen_e, "f": gen_f}


def _straightened_action(N, side, kind, k, mono):
    """e_k/f_k on a normal monomial by the twisted Leibniz rule: substitute
    the acted-on letter, twist by v^(alpha_k-pairing left - right), and
    straighten the word with normal_form."""
    word = [(g // N + 1, g % N + 1) for g in mono]

    def moved(r, c):
        if side == LEFT:
            if kind == "e":
                return (r, c - 1) if c == k + 1 else None
            return (r, c + 1) if c == k else None
        if kind == "e":
            return (r + 1, c) if r == k else None
        return (r - 1, c) if r == k + 1 else None

    def twist(r, c):
        i = c if side == LEFT else r
        return (i == k) - (i == k + 1)

    out = QPolynomial(N)
    for pos, letter in enumerate(word):
        new = moved(*letter)
        if new is None:
            continue
        e = (sum(twist(*l) for l in word[:pos])
             - sum(twist(*l) for l in word[pos + 1:]))
        out = out + normal_form(N, word[:pos] + [new] + word[pos + 1:],
                                Laurent.v_power(e))
    return out


def _check_closed_form(N, mono):
    p = QPolynomial(N, {mono: {0: 1}})
    for side, kind in ATOMS:
        for k in range(1, N):
            got = act(side, GEN[kind](N, k), p)
            assert got == _straightened_action(N, side, kind, k, mono)
            for image, c in got.terms.items():
                # one letter g was replaced; the a copies of g give v^s [a]
                (g,) = Counter(mono) - Counter(image)
                a = mono.count(g)
                s = min(c) + 2 * (a - 1)
                assert Laurent(c) == Laurent.v_power(s) * q_int(a)


class TestClosedFormAction:
    """act applies e_k/f_k to a normal monomial in closed form; the
    reference substitutes letter by letter and straightens the word."""

    @pytest.mark.parametrize("N,deg", [(2, 4), (3, 4), (4, 3)])
    def test_matches_straightening_exhaustively(self, N, deg):
        for d in range(deg + 1):
            for mono in enumerate_normal_monomials(N, d):
                _check_closed_form(N, mono)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_straightening_with_repeated_letters(self, data):
        N = data.draw(st.sampled_from((5, 6)))
        pool = data.draw(st.lists(st.integers(0, N * N - 1), min_size=1, max_size=3))
        letters = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=7))
        _check_closed_form(N, tuple(sorted(letters)))

    def test_acting_never_straightens(self, monkeypatch):
        monkeypatch.setattr(qmatrix, "_INSERT_CACHES", {})
        monkeypatch.setattr(uq_action, "_ATOM_CACHES", {})
        d = quantum_det(4)
        for side, kind in ATOMS:
            for k in range(1, 4):
                assert act(side, GEN[kind](4, k), d).is_zero()
        assert not qmatrix._INSERT_CACHES.get(4)


def _straightened_operator(side, u, p):
    """u.p (left) or p.u (right) by the reference: each e_k/f_k acts on each
    monomial through _straightened_action, each q^w by its weight pairing,
    the words compose as in act, and everything is summed on QPolynomial."""
    N = p.N
    out = QPolynomial(N)
    for word, coeff in u.terms.items():
        cur = p
        for kind, arg in reversed(word) if side == LEFT else word:
            nxt = QPolynomial(N)
            for mono, c in cur.terms.items():
                if kind == "q":
                    one = QPolynomial(N, {mono: c})
                    wt = one.column_weight() if side == LEFT else one.row_weight()
                    nxt = nxt + one.scale(Laurent.v_power(weight_pairing(arg, wt)))
                else:
                    nxt = nxt + _straightened_action(N, side, kind, arg, mono).scale(Laurent(c))
            cur = nxt
        out = out + cur.scale(Laurent(coeff))
    return out


def laurents():
    return st.dictionaries(st.integers(-4, 4), st.integers(-3, 3).filter(bool),
                           min_size=1, max_size=3).map(Laurent)


def operators(N):
    """Laurent combinations of words of up to three atoms."""
    word = st.lists(atoms(N), min_size=1, max_size=3).map(
        lambda us: functools.reduce(mul, us))
    return st.lists(st.tuples(word, laurents()), min_size=1, max_size=3).map(
        lambda ts: functools.reduce(add, (w.scale(c) for w, c in ts)))


def polynomials(N):
    """Laurent combinations of normal monomials of degree up to 3."""
    mono = st.lists(st.integers(0, N * N - 1), max_size=3).map(
        lambda ls: tuple(sorted(ls)))
    return st.dictionaries(mono, laurents(), min_size=1, max_size=4).map(
        lambda ts: QPolynomial(N, {m: c.t for m, c in ts.items()}))


class TestActMatchesStraightening:
    """act runs on integer maps; the reference straightens every substituted
    word and sums with Laurent arithmetic."""

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_random_operators(self, data):
        N = data.draw(st.sampled_from((3, 4)))
        side = data.draw(st.sampled_from((LEFT, RIGHT)))
        u = data.draw(operators(N))
        p = data.draw(polynomials(N))
        assert act(side, u, p) == _straightened_operator(side, u, p)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_sp_generators_and_cancelling_sum(self, data):
        N = data.draw(st.sampled_from((3, 4)))
        side = data.draw(st.sampled_from((LEFT, RIGHT)))
        e, f = gen_e(N, 1), gen_f(N, 1)
        ops = [e * f - f * e] + (sp_generating_set(4) if N == 4 else [])
        u = data.draw(st.sampled_from(ops))
        p = data.draw(polynomials(N))
        assert act(side, u, p) == _straightened_operator(side, u, p)


class TestSharedMaps:
    """The integer maps of the atom table, the input and the output are
    shared, never changed once made; so are those of every operand of the
    arithmetic and the echelon."""

    @staticmethod
    def _act_all(inputs):
        ops = sp_generating_set(4) + [q_weight(4, (1, -1, 2, 0))]
        return [act(side, u, p) for p in inputs for side in (LEFT, RIGHT)
                for u in ops]

    @staticmethod
    def _maps(polys):
        return [{m: dict(c) for m, c in p.terms.items()} for p in polys]

    def test_acting_changes_no_map(self, monkeypatch):
        monkeypatch.setattr(uq_action, "_ATOM_CACHES", {})
        inputs = [quantum_det(4), z_generator(LEFT, 1, 3, 4) * z_generator(LEFT, 2, 4, 4)]
        before = self._maps(inputs)
        first = self._act_all(inputs)
        assert any(not r.is_zero() for r in first)
        assert self._maps(inputs) == before
        # a second pass reads every atom image from the warm table
        outputs, table = self._maps(first), copy.deepcopy(uq_action._ATOM_CACHES)
        assert table[4]
        assert self._act_all(inputs) == first
        assert self._maps(inputs) == before and self._maps(first) == outputs
        assert uq_action._ATOM_CACHES == table
        monkeypatch.setattr(uq_action, "_ATOM_CACHES", {})
        assert self._act_all(inputs) == first

    def test_arithmetic_and_echelon_change_no_map(self):
        z13, z24 = z_generator(LEFT, 1, 3, 4), z_generator(LEFT, 2, 4, 4)
        e, f = sp_generating_set(4)[:2]
        two = Laurent({0: 1, 2: 1})
        # z13 and z13.scale(two) share every monomial, so sums meet on keys
        inputs = [z13, z24, z13.scale(two), e, f, e.scale(two)]
        before = self._maps(inputs)
        results = []
        for a, b in ((z13, z24), (z13, inputs[2]), (e, f), (e, inputs[5])):
            results += [a + b, a - b, b - a, a - a, a * b, b * a, a.scale(two),
                        a.scale(-1), -a, 3 * a]
        assert self._maps(inputs) == before
        kept = self._maps(results)
        basis = SubspaceBasis()
        rows = [z13.terms, z24.terms, (z13 * z24).terms, inputs[2].terms]
        assert [basis.insert(r) is None for r in rows] == [False, False, False, True]
        kernel_on([(LEFT, e), (RIGHT, f)], 4, [z13.terms, z24.terms, results[0].terms])
        assert self._maps(inputs) == before and self._maps(results) == kept

    def test_coefficients_are_plain_dicts(self):
        p = z_generator(LEFT, 1, 3, 4) * z_generator(RIGHT, 2, 4, 4)
        u = sp_generating_set(4)[2]
        basis = SubspaceBasis()
        basis.insert(p.terms)
        basis.insert(act(LEFT, u, p).terms)
        maps = [p.terms, u.terms, act(RIGHT, u, p).terms] + basis.rows
        assert all(type(c) is dict for m in maps for c in m.values())


class TestHashing:
    """Equal combinations hash equal, whichever way they were built."""

    def test_equal_operators_hash_equal(self):
        e, f = gen_e(4, 1), gen_f(4, 1)
        a = e * f - f * e
        b = -(f * e - e * f)
        assert a == b and a.terms is not b.terms and hash(a) == hash(b)
        assert b in {a} and len({a, b, e, f}) == 3

    def test_equal_polynomials_hash_equal(self):
        word = [(2, 2), (1, 1), (2, 1)]
        a = normal_form(3, word, Laurent.q_power(1))
        b = normal_form_merge(3, word, Laurent.q_power(1))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
