"""Coefficient arithmetic: Laurent ring, its fraction field, and Q(q,t)."""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qzonal.coeff import (L_ONE, L_Q, L_QINV, Laurent, QTPoly, QTRational,
                          RationalScalar, add_terms, laurent_gcd, q_factorial,
                          q_int)
from qzonal.partitions import inversions


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
            assert (a * b).specialize(v0) == a.specialize(v0) * b.specialize(v0)
            assert (a + b).specialize(v0) == a.specialize(v0) + b.specialize(v0)

    def test_specialize_examples(self):
        assert (L_Q - L_QINV).specialize(1) == 0
        assert q_int(2).specialize(1) == 2
        assert Laurent({4: 1, 0: -2, -4: 1}).specialize(2) == Fraction(225, 16)

    def test_json_round_trip(self):
        a = Laurent({4: 1, 0: -2, -4: 1})
        assert a.to_json() == {"4": "1", "0": "-2", "-4": "1"}
        assert Laurent.from_json(a.to_json()) == a

    def test_divexact(self):
        a = (L_Q + L_ONE) * (L_QINV + Laurent.integer(3))
        assert a.divexact(L_Q + L_ONE) == L_QINV + Laurent.integer(3)
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
            a / RationalScalar.zero()


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


@given(st.integers(-3, 3))
def test_fields_never_compare_equal(c):
    # the same integer in Q(v) and in Q(q,t) are elements of different fields
    assert RationalScalar(Laurent.integer(c)) != QTRational.const(c)


class TestAddTerms:
    def test_laurent_values(self):
        acc = {"a": L_ONE, "b": L_Q}
        out = add_terms(acc, {"b": -L_Q, "c": L_QINV})
        assert out is acc
        assert acc == {"a": L_ONE, "c": L_QINV}

    def test_scale_multiplies_each_term(self):
        two = Laurent.integer(2)
        acc = {"a": L_ONE}
        add_terms(acc, {"a": L_Q, "b": L_QINV}, two)
        assert acc == {"a": L_ONE + two * L_Q, "b": two * L_QINV}
        # a scaled term that cancels an existing entry removes it
        add_terms(acc, {"b": L_QINV}, Laurent.integer(-2))
        assert acc == {"a": L_ONE + two * L_Q}

    def test_qt_rational_values(self):
        q = QTRational.from_poly(QTPoly.gen_q())
        half = QTRational(QTPoly.const(1), QTPoly.const(2))
        acc = {(1, 0): q, (0, 1): half}
        assert add_terms(acc, {(1, 0): q, (0, 1): half}, QTRational.const(-1)) is acc
        assert acc == {}
        add_terms(acc, {(2, 0): half}, q)
        assert acc == {(2, 0): q * half}
