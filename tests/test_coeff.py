"""Coefficient arithmetic: Laurent ring, its fraction field, and Q(q,t)."""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qzonal import coeff
from qzonal.coeff import (L_ONE, L_Q, L_QINV, L_ZERO, Laurent, QTPoly, QTRational,
                          RationalScalar, _qt_at_t, _qt_flip, _qt_lift,
                          add_terms, laurent_gcd, qt_divexact, qt_gcd)
from oracles import _qt_gcd_prs, inversions, q_factorial, q_int, specialize


def lau(**kw):
    return Laurent({int(k[1:].replace("m", "-")): v for k, v in kw.items()})


laurents = st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=5) \
    .map(lambda d: Laurent({e: c for e, c in d.items() if c}))


class TestLaurentArithmetic:
    def test_exponent_cancellation(self):
        assert Laurent.v_power(2) * Laurent.v_power(-2) == L_ONE

    def test_commutator_square(self):
        c = L_Q - L_QINV
        assert c * c == Laurent({4: 1, 0: -2, -4: 1})

    def test_additive_inverse_is_empty(self):
        a = L_Q + L_QINV
        assert (a - a).t == {}

    @given(laurents, laurents, laurents)
    @settings(max_examples=120, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    @given(laurents, laurents)
    @settings(max_examples=80, deadline=None)
    def test_specialize_is_a_homomorphism(self, a, b):
        for v0 in (Fraction(1), Fraction(2), Fraction(-3, 2)):
            assert specialize(a * b, v0) == specialize(a, v0) * specialize(b, v0)
            assert specialize(a + b, v0) == specialize(a, v0) + specialize(b, v0)

    def test_specialize_examples(self):
        assert specialize(L_Q - L_QINV, 1) == 0
        assert specialize(q_int(2), 1) == 2
        assert specialize(Laurent({4: 1, 0: -2, -4: 1}), 2) == Fraction(225, 16)

    def test_json_round_trip(self):
        a = Laurent({4: 1, 0: -2, -4: 1})
        assert a.to_json() == {"4": "1", "0": "-2", "-4": "1"}
        assert Laurent.from_json(a.to_json()) == a

    def test_divexact(self):
        a = (L_Q + L_ONE) * (L_QINV + Laurent.v_power(0, 3))
        assert a.divexact(L_Q + L_ONE) == L_QINV + Laurent.v_power(0, 3)
        with pytest.raises(ValueError):
            (L_Q + L_ONE).divexact(L_Q - L_ONE)

    @given(laurents, laurents, laurents)
    @settings(max_examples=60, deadline=None)
    def test_gcd_divides_products(self, a, b, c):
        if a.is_zero() or b.is_zero() or c.is_zero():
            return
        g = laurent_gcd(a * c, b * c)
        (a * c).divexact(g)
        (b * c).divexact(g)
        # the common factor must survive into the gcd
        g.divexact(laurent_gcd(g, c))


class TestStringForms:
    # These strings reach the JSON reports and the Macdonald golden bytes.
    @pytest.mark.parametrize("terms,text", [
        ({}, "0"),
        ({0: 1}, "1"),
        ({0: -1}, "-1"),
        ({0: 7}, "7"),
        ({1: 1}, "v"),
        ({3: -2}, "-2*v^3"),
        ({2: 1}, "q"),
        ({2: 1, -2: -1}, "q - q^-1"),
        ({4: 3, -2: -1}, "3*q^2 - q^-1"),
        ({-1: 1, -4: 2}, "v^-1 + 2*q^-2"),
        ({5: -1, 2: 1, 0: -3, -1: 4, -2: 1}, "-v^5 + q - 3 + 4*v^-1 + q^-1"),
    ])
    def test_laurent(self, terms, text):
        assert repr(Laurent(terms)) == text

    @pytest.mark.parametrize("terms,text", [
        ({}, "0"),
        ({(0, 0): 1}, "1"),
        ({(0, 0): -1}, "-1"),
        ({(0, 0): 5}, "5"),
        ({(1, 0): 1}, "q"),
        ({(0, 1): -1}, "-t"),
        ({(2, 3): 4}, "4*q^2*t^3"),
        ({(1, 1): -1, (0, 2): 2, (0, 0): -3}, "-q*t + 2*t^2 - 3"),
        ({(3, 0): 1, (1, 2): -2, (0, 1): 1}, "q^3 - 2*q*t^2 + t"),
    ])
    def test_qt_poly(self, terms, text):
        assert repr(QTPoly(terms)) == text
        assert QTPoly(terms).to_json() == text


class TestQIntegers:
    def test_small_q_integers(self):
        assert q_int(2) == L_Q + L_QINV
        assert q_int(3) == Laurent({4: 1, 0: 1, -4: 1})

    def test_factorial_base_cases(self):
        assert q_factorial(0) == L_ONE
        assert q_factorial(1) == L_ONE

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_inversion_generating_function(self, n):
        # sum over S_n of q^(2 inversions) equals q^C(n,2) [n]!
        total = Laurent()
        for sigma in permutations(range(n)):
            total = total + Laurent.q_power(2 * inversions(sigma))
        assert total == Laurent.q_power(n * (n - 1) // 2) * q_factorial(n)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_factorial_positivity(self, n):
        shifted = Laurent.q_power(n * (n - 1) // 2) * q_factorial(n)
        assert all(e >= 0 and c > 0 for e, c in shifted.t.items())


qt_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(-4, 4),
    max_size=4).map(lambda d: QTPoly({e: c for e, c in d.items() if c}))


field_settings = settings(max_examples=60, deadline=None,
                          suppress_health_check=[HealthCheck.differing_executors])


class FractionFieldProperties:
    """Properties of every ReducedFraction field, inherited by one test class
    per field; the class names the ``field``, its ring's strategy ``ring``
    and the ring's ``one`` and ``zero``.  Hypothesis runs each property once
    per subclass, so its check against differing executors is off."""

    @given(st.data())
    @field_settings
    def test_canonical_reduction(self, data):
        # a/b built plainly and with a common factor c compare equal
        a, b, c = (data.draw(self.ring) for _ in range(3))
        if b.is_zero() or c.is_zero():
            return
        assert self.field(a, b) == self.field(a * c, b * c)

    @given(st.data())
    @field_settings
    def test_unit_denominator_fast_path(self, data):
        # a denominator of one skips the gcd; the reducing path agrees
        p, d = data.draw(self.ring), data.draw(self.ring)
        if d.is_zero():
            return
        assert self.field(p * d, d) == self.field(p)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            self.field(self.one) / self.field(self.zero)

    @given(st.data())
    @field_settings
    def test_poly_factor(self, data):
        # a ring-element factor on either side acts as the fraction c / 1
        a, b, c = (data.draw(self.ring) for _ in range(3))
        if b.is_zero():
            return
        x = self.field(a, b)
        assert x * c == c * x == x * self.field(c, self.one)

    @given(st.data())
    @field_settings
    def test_division_by_ring_element(self, data):
        a, b, c = (data.draw(self.ring) for _ in range(3))
        if b.is_zero():
            return
        x = self.field(a, b)
        if c.is_zero():
            with pytest.raises(ZeroDivisionError):
                x / c
        else:
            assert x / c == self.field(a, b * c) == x / self.field(c)


class TestRationalScalar(FractionFieldProperties):
    field, ring, one, zero = RationalScalar, laurents, L_ONE, Laurent()

    def test_reduction_is_canonical(self):
        a = RationalScalar(L_Q - L_QINV, L_Q + L_QINV)
        b = RationalScalar((L_Q - L_QINV) * q_int(3), (L_Q + L_QINV) * q_int(3))
        assert a == b

    def test_denominator_normalization(self):
        a = RationalScalar(L_ONE, Laurent({3: -2}))
        assert a.den == L_ONE or a.den.t[a.den.max_exp()] > 0

    def test_field_ops(self):
        a = RationalScalar(L_ONE, L_Q + L_ONE)
        assert (a / a) == RationalScalar.one()
        assert (a - a).is_zero()
        with pytest.raises(ZeroDivisionError):
            a / RationalScalar(L_ZERO)


class TestQTField(FractionFieldProperties):
    field, ring, one, zero = QTRational, qt_polys, QTPoly.const(1), QTPoly()

    def test_telescoping_product(self):
        one = QTPoly.const(1)
        t = QTPoly.gen_t()
        qt = QTPoly.gen_q() * t
        a = QTRational(one - t, one - qt)
        b = QTRational(one - qt, one - t)
        assert a * b == QTRational.const(1)

    def test_q_over_q(self):
        q = QTPoly.gen_q()
        assert QTRational(q, q) == QTRational.const(1)

    def test_cancellation_to_zero(self):
        one = QTPoly.const(1)
        qt = QTPoly.gen_q() * QTPoly.gen_t()
        assert (QTRational(one - qt) + QTRational(qt - one)).is_zero()

    def test_parameter_inversion_involutive(self):
        one = QTPoly.const(1)
        q = QTPoly.gen_q()
        t = QTPoly.gen_t()
        u = QTRational((one + q) * (one - t), one - q * t)
        assert u.invert_parameters().invert_parameters() == u

    def test_substitute_v(self):
        # q -> v^4, t -> v^8 sends q*t to v^12
        qt = QTPoly.gen_q() * QTPoly.gen_t()
        assert qt.substitute_v(2, 4) == Laurent.v_power(12)


def _nonzero_qt(max_q, max_t):
    """Nonzero polynomials of degree <= max_q in q and <= max_t in t."""
    return st.dictionaries(
        st.tuples(st.integers(0, max_q), st.integers(0, max_t)),
        st.integers(-6, -1) | st.integers(1, 6), min_size=1, max_size=5,
    ).map(QTPoly)


# general, q alone, t alone, constants and 1 (so coprime pairs come up too)
gcd_factors = st.one_of(_nonzero_qt(3, 3), _nonzero_qt(3, 0), _nonzero_qt(0, 3),
                        _nonzero_qt(0, 0), st.just(QTPoly.const(1)))


class TestQTGcd:
    """The heuristic gcd against the pseudo-remainder sequence it replaces."""

    @given(gcd_factors, gcd_factors, gcd_factors,
           st.integers(-12, -1) | st.integers(1, 12),
           st.integers(-12, -1) | st.integers(1, 12))
    @settings(max_examples=300, deadline=None)
    def test_equals_prs(self, g, a, b, ka, kb):
        # ka, kb give the inputs integer content and either leading sign
        A, B = g * a * ka, g * b * kb
        G, A_G, B_G = qt_gcd(A, B)
        assert G == _qt_gcd_prs(A, B)
        assert (A_G, B_G) == (qt_divexact(A, G), qt_divexact(B, G))

    @given(gcd_factors, gcd_factors, gcd_factors,
           st.integers(-12, -1) | st.integers(1, 12),
           st.integers(-12, -1) | st.integers(1, 12))
    @settings(max_examples=200, deadline=None)
    def test_prs_is_a_unit_normal_gcd(self, g, a, b, ka, kb):
        # the reference on its own, with no heuristic to agree with
        A, B = g * a * ka, g * b * kb
        G = _qt_gcd_prs(A, B)
        A_G, B_G = qt_divexact(A, G), qt_divexact(B, G)
        assert G * A_G == A and G * B_G == B
        assert _qt_gcd_prs(A_G, B_G) == QTPoly.const(1)
        assert G.t[G.lead_key()] > 0

    def test_negative_leading_term_gives_negated_cofactors(self):
        # the gcd is unit normal, so a negative leading term goes to the
        # cofactors
        p, q = QTPoly({(1, 0): -2, (0, 1): 4}), QTPoly.gen_q()
        assert qt_gcd(p, p * q) == (-p, QTPoly.const(-1), -q)

    def test_inexact_division_is_refused(self):
        # the leading coefficient 3 divides neither 2 nor 4
        one, q = QTPoly.const(1), QTPoly.gen_q()
        with pytest.raises(ValueError):
            qt_divexact(QTPoly.const(2), QTPoly.const(3))
        with pytest.raises(ValueError):
            qt_divexact(q * 4 + one, q * 3)

    # (q + t)(1 - q t) and (q + t)(q - t^2): gcd q + t
    one, q, t = QTPoly.const(1), QTPoly.gen_q(), QTPoly.gen_t()
    A, B = (q + t) * (one - q * t), (q + t) * (q - t * t)

    def test_rejected_candidate_is_never_returned(self, monkeypatch):
        # 1 - q t divides A but not B: the first 8 candidates are rejected,
        # and each rejection grows xi before the next try
        lifts = []
        one_minus_qt = self.one - self.q * self.t
        lift = coeff._qt_lift

        def stubborn_lift(gamma, xi):
            lifts.append(xi)
            return one_minus_qt if len(lifts) <= 8 else lift(gamma, xi)
        monkeypatch.setattr(coeff, "_qt_lift", stubborn_lift)
        assert qt_gcd(self.A, self.B)[0] == self.q + self.t
        assert len(lifts) == 9
        assert all(a < b for a, b in zip(lifts, lifts[1:]))

    @given(st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                           st.integers(-50, -1) | st.integers(1, 50),
                           min_size=1, max_size=8),
           st.integers(1, 20))
    def test_symmetric_digits_recover_small_coefficients(self, terms, k):
        # the digit recovery the termination argument in qt_gcd uses: every
        # coefficient below xi/2 in absolute value comes back from p(q, xi)
        P = QTPoly(terms)
        xi = 2 * max(map(abs, terms.values())) + k
        assert _qt_lift(_qt_at_t(P, xi), xi) == P


@given(gcd_factors, gcd_factors, gcd_factors, st.integers(0, 2), st.integers(0, 2),
       st.integers(-12, -1) | st.integers(1, 12))
@settings(max_examples=300, deadline=None)
def test_inverted_parameters_equal_the_reduced_flip(a, b, g, i, j, k):
    # invert_parameters takes no gcd; the gcd-reduced fraction of the flipped
    # sides must be what it returns.  g cancels before the flip, q^i t^j
    # leaves one side divisible by q or t, k gives content and either sign
    u = QTRational(g * a * QTPoly.monomial(i, j, k), g * b)
    exps = list(u.num.t) + list(u.den.t)
    mq, mt = max(e for e, _ in exps), max(e for _, e in exps)
    want = QTRational(_qt_flip(u.num, mq, mt), _qt_flip(u.den, mq, mt))
    got = u.invert_parameters()
    assert (got.num, got.den) == (want.num, want.den)


def test_inverted_zero_is_zero():
    assert QTRational.const(0).invert_parameters().is_zero()


@given(st.integers(-3, 3))
def test_fields_never_compare_equal(c):
    # the same integer in Q(v) and in Q(q,t) are elements of different fields
    assert RationalScalar(Laurent.v_power(0, c)) != QTRational.const(c)


class TestAddTerms:
    def test_laurent_values(self):
        acc = {"a": L_ONE, "b": L_Q}
        out = add_terms(acc, {"b": -L_Q, "c": L_QINV})
        assert out is acc
        assert acc == {"a": L_ONE, "c": L_QINV}

    def test_scale_multiplies_each_term(self):
        two = Laurent.v_power(0, 2)
        acc = {"a": L_ONE}
        add_terms(acc, {"a": L_Q, "b": L_QINV}, two)
        assert acc == {"a": L_ONE + two * L_Q, "b": two * L_QINV}
        # a scaled term that cancels an existing entry removes it
        add_terms(acc, {"b": L_QINV}, Laurent.v_power(0, -2))
        assert acc == {"a": L_ONE + two * L_Q}

    def test_qt_rational_values(self):
        q = QTRational.from_poly(QTPoly.gen_q())
        half = QTRational(QTPoly.const(1), QTPoly.const(2))
        acc = {(1, 0): q, (0, 1): half}
        assert add_terms(acc, {(1, 0): q, (0, 1): half}, QTRational.const(-1)) is acc
        assert acc == {}
        add_terms(acc, {(2, 0): half}, q)
        assert acc == {(2, 0): q * half}
