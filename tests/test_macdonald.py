"""Difference operators, Macdonald polynomials, central-element scalars."""

import hashlib
import os
import runpy
from collections import Counter
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

import qzonal
from qzonal.coeff import (Laurent, QTPoly, QTRational, QTR_ONE, add_terms,
                          qt_divexact, qt_gcd)
from qzonal import coeff, macdonald
from qzonal.cap import ComponentTooLarge
from qzonal.isotypic import zonal_vector
from qzonal.macdonald import (NoConventionMatches, SingularSubstitution,
                              SymPolynomial, _over_common_denominator, _times_factors,
                              compare_zonal, elementary_symmetric_eigenvalue,
                              macdonald_d1, macdonald_dr, macdonald_eigenvalue,
                              macdonald_polynomial, macdonald_specialize,
                              schur_polynomial)
from qzonal.partitions import double_partition, dominance_lt, pad, partitions, trim

from oracles import (NonzeroRemainder, _dr_body, _qt_gcd_prs, c1_doubled_display,
                     c_lambda, macdonald_polynomial_fractions,
                     c1_printed_display, central_element_scalar,
                     central_index_sum, expand, expand_m_basis, from_exponents,
                     inversions, macdonald_dr_expanded,
                     macdonald_polynomial_eigen, q_factorial, q_int,
                     qt_prs_cofactors, schur_bialternant, shift,
                     solve_alternant_per_call, xp_add, xp_div_binomial,
                     xp_div_vandermonde, xp_mul, xp_scale)

Q = QTRational.from_poly(QTPoly.gen_q())
T = QTRational.from_poly(QTPoly.gen_t())


def _evaluate(mdict, q_to, t_to):
    """Reference substitution: sum each numerator and denominator term by
    term in Q(q,t) with powers of the values; ZeroDivisionError when a
    denominator vanishes."""
    def value(p):
        out = QTRational.const(0)
        for (eq, et), c in p.t.items():
            term = QTRational.const(c)
            for _ in range(eq):
                term = term * q_to
            for _ in range(et):
                term = term * t_to
            out = out + term
        return out

    out = {}
    for lam, c in mdict.items():
        val = value(c.num) / value(c.den)
        if not val.is_zero():
            out[lam] = val
    return out


def msym(lam, n):
    return SymPolynomial.monomial_symmetric(lam, n)


class TestShift:
    def test_scales_only_one_variable(self):
        f = msym((1,), 2)
        shifted = shift(expand(f), 0)
        assert shifted == {(1, 0): Q, (0, 1): QTR_ONE}

    def test_untouched_variable(self):
        assert shift({(0, 1): QTR_ONE}, 0) == {(0, 1): QTR_ONE}


class TestDifferenceOperators:
    def test_constant_eigenvalue(self):
        got = macdonald_d1(SymPolynomial.monomial_symmetric((), 2))
        assert got.m_basis() == {(): T + QTR_ONE}

    def test_degree_one_eigenvalue(self):
        got = macdonald_d1(msym((1,), 2))
        assert got.m_basis() == {(1,): Q * T + QTR_ONE}

    def test_triangularity_with_mixture(self):
        got = macdonald_d1(msym((2,), 2)).m_basis()
        assert set(got) == {(2,), (1, 1)}
        # diagonal entry is the eigenvalue q^2 t + 1
        assert got[(2,)] == Q * Q * T + QTR_ONE

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_triangularity_matrix(self, n, d):
        for mu in partitions(d, n):
            img = macdonald_d1(msym(mu, n)).m_basis()
            for nu in img:
                assert nu == mu or dominance_lt(nu, mu)

    def test_zeroth_operator_is_identity(self):
        f = msym((2, 1), 3)
        assert macdonald_dr(f, 0) == f

    def test_d1_cross_implementation(self):
        for f in _operator_inputs():
            assert (macdonald_d1(f) - _d1_product_form(f)).is_zero()

    def test_nonzero_remainder_detection(self):
        # dividing x_0 by (x_0 - x_1) must fail
        with pytest.raises(NonzeroRemainder):
            xp_div_binomial({(0, 1): QTR_ONE}, 0, 1)

    def test_operator_commutativity(self):
        n = 3
        for lam in [(1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]:
            f = msym(lam, n)
            a = macdonald_dr(macdonald_d1(f), 2)
            b = macdonald_d1(macdonald_dr(f, 2))
            assert (a - b).is_zero()


def _d1_product_form(f):
    """sum_i prod_{j != i} (t x_i - x_j)/(x_i - x_j) T_{q,x_i} f, put over the
    Vandermonde V = prod_{a < b} (x_a - x_b): prod_{j != i} (x_i - x_j) is
    (-1)^i V / V_i, with V_i the Vandermonde of the other variables."""
    n = f.n

    def linear(a, ca, b, cb):
        return {tuple(int(k == a) for k in range(n)): ca,
                tuple(int(k == b) for k in range(n)): cb}

    minus_one = QTRational.const(-1)
    num = {}
    for i in range(n):
        term = {(0,) * n: QTRational.const(-1 if i % 2 else 1)}
        for j in range(n):
            if j != i:
                term = xp_mul(term, linear(i, T, j, minus_one))
        for a, b in combinations([j for j in range(n) if j != i], 2):
            term = xp_mul(term, linear(a, QTR_ONE, b, minus_one))
        num = xp_add(num, xp_mul(term, shift(expand(f), i)))
    return from_exponents(n, xp_div_vandermonde(num, n))


def _mixed_denominators():
    """A symmetric input whose coefficient denominators share the factor
    1 - q t and also include the coprime 1 + q and 2."""
    one, q, t = QTPoly.const(1), QTPoly.gen_q(), QTPoly.gen_t()
    return SymPolynomial.from_m_basis({
        (2,): QTRational(one, one - q * t),
        (1, 1): QTRational(one + q, (one - q * t) * (one - t)),
        (1,): QTRational(t, one + q),
        (): QTRational(q, QTPoly.const(2)),
    }, 3)


def _operator_inputs():
    yield _mixed_denominators()
    for n in (1, 2, 3):
        for d in range(4):
            for lam in partitions(d, n):
                yield SymPolynomial.from_m_basis(macdonald_polynomial(lam, n), n)


def _inhomogeneous():
    """A symmetric input of mixed degree with denominators 1 - t and 1 + q t."""
    one, q, t = QTPoly.const(1), QTPoly.gen_q(), QTPoly.gen_t()
    return SymPolynomial.from_m_basis({
        (2, 1): QTRational(q, one - t),
        (1, 1): QTRational.const(-3),
        (1,): QTRational(one, one + q * t),
        (): QTR_ONE,
    }, 3)


class TestAlternantSolve:
    """D_r and the Schur polynomials come from N at the exponents mu + delta;
    the full expansion divided by the Vandermonde must agree."""

    def test_dr_equals_the_expansion(self):
        inputs = [_mixed_denominators(), _inhomogeneous()]
        for n in range(1, 5):
            for d in range(6):
                for lam in partitions(d, n):
                    inputs.append(msym(lam, n))
                    inputs.append(SymPolynomial.from_m_basis(macdonald_polynomial(lam, n), n))
        for f in inputs:
            for r in range(f.n + 1):
                assert expand(macdonald_dr(f, r)) == macdonald_dr_expanded(f, r)

    def test_schur_equals_the_bialternant(self):
        for n in range(5):
            for d in range(6):
                for lam in partitions(d, n):
                    assert schur_polynomial(lam, n) == schur_bialternant(lam, n)

    def test_dominance_lemma(self):
        # sort(mu + delta - w.delta) strictly dominates mu for w != id
        checked = 0
        for n in range(1, 5):
            delta = tuple(range(n - 1, -1, -1))
            for d in range(6):
                for mu in partitions(d, n):
                    e = tuple(a + b for a, b in zip(pad(mu, n), delta))
                    for w in list(permutations(range(n)))[1:]:
                        beta = tuple(e[i] - delta[w[i]] for i in range(n))
                        if min(beta) >= 0:
                            nu = trim(sorted(beta, reverse=True))
                            assert dominance_lt(mu, nu), (mu, w)
                            checked += 1
        assert checked == 56  # the (mu, w) pairs at these sizes

    @pytest.mark.parametrize("coeffs", [
        {(1, 0): QTR_ONE},  # the sorted exponent without the rest of its orbit
        {(0, 1): QTR_ONE},
        {(1, 0): QTR_ONE, (0, 1): T}])
    def test_non_symmetric_input_raises(self, coeffs):
        with pytest.raises(ValueError, match="not symmetric"):
            from_exponents(2, coeffs)

    @pytest.mark.parametrize("lam,n", [((1, 2), 2), ((1, -1), 2)])
    def test_schur_refuses_a_bad_partition(self, lam, n):
        with pytest.raises(ValueError, match="not a partition"):
            schur_polynomial(lam, n)

    def test_schur_and_m_with_more_than_n_parts_are_zero(self):
        assert schur_polynomial((1, 1, 1), 2) == {}
        assert SymPolynomial.monomial_symmetric((1, 1, 1), 2).is_zero()

    def test_m_basis_keys_of_one_orbit_add(self):
        f = SymPolynomial.from_m_basis({(1,): QTR_ONE, (1, 0): T, (2, 1): T,
                                        (1, 2): -T, (1, 1, 1): QTR_ONE}, 2)
        assert f == SymPolynomial.from_m_basis({(1,): QTR_ONE + T}, 2)


class TestAlternantPlan:
    """``_solve_alternant`` walks the memoized (n, degree) plan; the solve
    that forms every beta and its sort on each call must agree with it."""

    @staticmethod
    def _sweep():
        out = []
        for n in range(1, 5):
            for d in range(6):
                for lam in partitions(d, n):
                    out.append(schur_polynomial(lam, n))
                    for f in (msym(lam, n),
                              SymPolynomial.from_m_basis(macdonald_polynomial(lam, n), n)):
                        for r in range(n + 1):
                            g = macdonald_dr(f, r)
                            out.append((g.nums, g.den))
        return out

    def test_plan_equals_the_per_call_solve(self, monkeypatch):
        fast = self._sweep()
        monkeypatch.setattr(macdonald, "_solve_alternant", solve_alternant_per_call)
        assert self._sweep() == fast


class TestNumeratorSpace:
    """The operators run on integral numerators over one common denominator;
    the same ring-generic bodies run directly over Q(q,t) must agree."""

    def test_dr_matches_direct_field_arithmetic(self):
        for f in _operator_inputs():
            for r in range(1, f.n + 1):
                assert expand(macdonald_dr(f, r)) == _dr_body(expand(f), f.n, r)

    def test_common_denominator_is_the_lcm(self):
        one, q, t = QTPoly.const(1), QTPoly.gen_q(), QTPoly.gen_t()
        f = _mixed_denominators()
        coeffs = expand(f)
        nums, den = _over_common_denominator(coeffs)
        lcm = (one - q * t) * (one - t) * (one + q) * QTPoly.const(2)
        assert den in (lcm, -lcm)
        assert set(nums) == set(coeffs)
        for e, c in coeffs.items():
            assert isinstance(nums[e], QTPoly)
            assert QTRational(nums[e], den) == c

    def test_integral_input_takes_no_gcd(self, monkeypatch):
        calls = []
        real_gcd = coeff.qt_gcd

        def counting_gcd(a, b):
            calls.append((a, b))
            return real_gcd(a, b)
        # QTRational looks coeff.qt_gcd up when it reduces a fraction
        monkeypatch.setattr(macdonald, "qt_gcd", counting_gcd)
        monkeypatch.setattr(coeff, "qt_gcd", counting_gcd)
        # the outputs stay over the denominator 1, and reading them reduces
        # each coefficient over 1 with no gcd
        for mu in partitions(3, 3):
            assert macdonald_d1(msym(mu, 3)).m_basis()
            assert macdonald_dr(msym(mu, 3), 2).m_basis()
        assert calls == []


def test_macdonald_gcds_equal_prs(monkeypatch):
    # every gcd the polynomials and operators take at n = 3, |lambda| <= 5
    # and n = 4, |lambda| <= 4, with each D_r output reduced by m_basis
    seen = []

    def checked(a, b):
        cofactors = qt_gcd(a, b)
        seen.append(cofactors[0] == _qt_gcd_prs(a, b))
        return cofactors
    monkeypatch.setattr(coeff, "qt_gcd", checked)
    monkeypatch.setattr(macdonald, "qt_gcd", checked)
    for n, top in ((3, 5), (4, 4)):
        for d in range(1, top + 1):
            for lam in partitions(d, n):
                f = SymPolynomial.from_m_basis(macdonald_polynomial(lam, n), n)
                for r in range(1, n + 1):
                    macdonald_dr(f, r).m_basis()
    assert len(seen) > 200 and all(seen)


def test_forced_fallback_gives_the_same_polynomials(monkeypatch):
    # every gcd of P_lambda and its reduced D_r P_lambda at n <= 4,
    # |lambda| <= 6 and every r taken by the pseudo-remainder sequence alone,
    # against the default run
    def sweep():
        out = []
        for n in range(1, 5):
            for d in range(1, 7):
                for lam in partitions(d, n):
                    P = macdonald_polynomial(lam, n)
                    f = SymPolynomial.from_m_basis(P, n)
                    out.append((P, [macdonald_dr(f, r).m_basis() for r in range(1, n + 1)]))
        return out
    want = sweep()
    calls = []

    def prs(A, B):
        calls.append(1)
        return qt_prs_cofactors(A, B)
    monkeypatch.setattr(coeff, "qt_gcd", prs)
    monkeypatch.setattr(macdonald, "qt_gcd", prs)
    assert sweep() == want
    assert len(calls) > 400


BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench")


@pytest.mark.parametrize("name,n,max_degree", [
    ("macdonald-n3", 3, 4), ("smoke-macdonald-n2", 2, 3)])
def test_bench_golden_sha256(name, n, max_degree):
    # run_path compiles the worker from its source and writes nothing to bench/
    worker = runpy.run_path(os.path.join(BENCH, "worker.py"))
    out = worker["macdonald_op"](qzonal, {"n": n, "max_degree": max_degree,
                                          "seed": 0})()
    with open(os.path.join(BENCH, "golden", "SHA256SUMS"), encoding="utf-8") as fh:
        sums = {fname: digest for digest, fname in map(str.split, fh)}
    assert hashlib.sha256(out).hexdigest() == sums[name + ".json"]


_ONE, _Q, _T = QTPoly.const(1), QTPoly.gen_q(), QTPoly.gen_t()
# small Q(q,t) values, zero included, over a few coprime denominators
_values = st.builds(lambda c, a, b, den: QTRational(QTPoly.monomial(a, b, c), den),
                    st.integers(-2, 2), st.integers(0, 1), st.integers(0, 1),
                    st.sampled_from([_ONE, _ONE - _Q, _ONE + _Q * _T, QTPoly.const(2)]))
# keys may be unsorted, carry trailing zeros or have more than n parts
_m_dicts = st.dictionaries(st.lists(st.integers(0, 3), max_size=5).map(tuple),
                           _values, max_size=5)


class TestSymPolynomialArithmetic:
    @given(st.integers(1, 4), _m_dicts, _m_dicts, _values)
    @settings(max_examples=150, deadline=None)
    def test_m_basis_arithmetic_equals_the_expansion(self, n, d, e, c):
        # the per-partition arithmetic against the per-exponent sums and
        # products of every permutation of each partition
        f, g = SymPolynomial.from_m_basis(d, n), SymPolynomial.from_m_basis(e, n)
        fx, gx = expand_m_basis(d, n), expand_m_basis(e, n)
        assert expand(f) == fx
        assert expand(f + g) == xp_add(fx, gx)
        assert expand(f - g) == xp_add(fx, {k: -v for k, v in gx.items()})
        assert expand(f.scale(c)) == xp_scale(fx, c)
        assert from_exponents(n, fx) == f

    def test_subtraction_negates(self):
        minus_one = QTRational.const(-1)
        for f in _operator_inputs():
            g = macdonald_d1(f)
            assert f - g == f + g.scale(minus_one)
            assert g - f == g + f.scale(minus_one)
            assert (f - f).is_zero()

    # f over (1 - q t)(1 + q) and g over (1 - q t)(1 - t): the lcm is
    # (1 - q t)(1 + q)(1 - t)
    f = SymPolynomial.from_m_basis({(2,): QTRational(_T, (_ONE - _Q * _T) * (_ONE + _Q)),
                                    (1, 1): QTRational(_Q, _ONE + _Q)}, 2)
    g = SymPolynomial.from_m_basis({(2,): QTRational(_ONE, (_ONE - _Q * _T) * (_ONE - _T)),
                                    (1,): QTR_ONE}, 2)

    def test_differing_denominators_meet_at_their_lcm(self, monkeypatch):
        calls = []
        real_gcd = coeff.qt_gcd

        def counting_gcd(a, b):
            calls.append(1)
            return real_gcd(a, b)
        monkeypatch.setattr(macdonald, "qt_gcd", counting_gcd)
        lcm = (_ONE - _Q * _T) * (_ONE + _Q) * (_ONE - _T)
        f, g, fm, gm = self.f, self.g, self.f.m_basis(), self.g.m_basis()
        assert f.den != g.den
        for got, sign in ((f + g, 1), (f - g, -1)):
            assert got.den in (lcm, -lcm)
            want = add_terms(dict(fm), gm, QTRational.const(sign))
            assert got.m_basis() == want
        assert len(calls) == 2  # one gcd for each of + and -

    def test_equality_across_denominators(self):
        # the same polynomial over its reduced denominator and over a
        # multiple of it
        f = self.f
        h = SymPolynomial(2, {lam: c * (_ONE - _T) for lam, c in f.nums.items()},
                          f.den * (_ONE - _T))
        assert h.den != f.den and h == f and f == h
        assert (h - f).is_zero() and not (h + f).is_zero()
        assert f != self.g and f + self.g != f
        assert (f + self.g) - self.g == f
        assert h.m_basis() == f.m_basis() and repr(h) == repr(f)


class TestMacdonaldPolynomials:
    def test_degree_one(self):
        assert macdonald_polynomial((1,), 2) == {(1,): QTR_ONE}

    def test_row_two(self):
        got = macdonald_polynomial((2,), 2)
        one = QTPoly.const(1)
        q, t = QTPoly.gen_q(), QTPoly.gen_t()
        want = QTRational((one + q) * (one - t), one - q * t)
        assert got == {(2,): QTR_ONE, (1, 1): want}

    @pytest.mark.parametrize("n", [2, 3])
    def test_eigen_property(self, n):
        for d in range(1, 5):
            for lam in partitions(d, n):
                P = macdonald_polynomial(lam, n)
                f = SymPolynomial.from_m_basis(P, n)
                ev = macdonald_eigenvalue(lam, n)
                assert (macdonald_d1(f) - f.scale(ev)).is_zero()
                for r in range(n + 1):
                    evr = elementary_symmetric_eigenvalue(lam, n, r)
                    assert (macdonald_dr(f, r) - f.scale(evr)).is_zero()

    @pytest.mark.parametrize("n", [2, 3])
    def test_schur_specialization(self, n):
        for d in range(1, 5):
            for lam in partitions(d, n):
                P = macdonald_polynomial(lam, n)
                assert macdonald_specialize(P, Q, Q) == schur_polynomial(lam, n)

    @pytest.mark.parametrize("n", [2, 3])
    def test_parameter_inversion_symmetry(self, n):
        for d in range(1, 5):
            for lam in partitions(d, n):
                P = macdonald_polynomial(lam, n)
                assert {k: v.invert_parameters() for k, v in P.items()} == P

    def test_tableau_sum_equals_eigen_solve(self):
        for n, top in ((1, 5), (2, 5), (3, 5), (4, 4)):
            for d in range(top + 1):
                for lam in partitions(d, n):
                    assert macdonald_polynomial(lam, n) == \
                        macdonald_polynomial_eigen(lam, n)

    def test_factored_sum_equals_the_fraction_sum(self):
        # the 126 lambda with at most 5 parts, |lambda| <= 7 at n <= 4 and
        # |lambda| <= 6 at n = 5, against the sum that reduces every state
        checked = 0
        for n, top in ((1, 7), (2, 7), (3, 7), (4, 7), (5, 6)):
            for d in range(top + 1):
                for lam in partitions(d, n):
                    assert macdonald_polynomial(lam, n) == \
                        macdonald_polynomial_fractions(lam, n)
                    checked += 1
        assert checked == 126

    @given(st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                           st.integers(-9, -1) | st.integers(1, 9), max_size=8),
           st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3))
                    .filter(lambda e: e != (0, 0)), max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_shift_product_equals_the_polynomial_product(self, terms, factors):
        want = QTPoly(terms)
        for a, b in factors:
            want = want * (_ONE - QTPoly.monomial(a, b))
        assert QTPoly(_times_factors(terms, Counter(factors))) == want

    def test_denominators_divide_c_lambda(self):
        # J_lam = c_lam P_lam is integral, so every reduced denominator of
        # P_lam divides c_lam = prod_s (1 - q^a(s) t^(l(s)+1))
        checked = 0
        for n in range(1, 5):
            for d in range(1, 7):
                for lam in partitions(d, n):
                    c = c_lambda(lam)
                    for coefficient in macdonald_polynomial(lam, n).values():
                        qt_divexact(c, coefficient.den)  # raises unless it divides
                        checked += 1
        assert checked == 186

    def test_needs_a_variable(self):
        with pytest.raises(ValueError):
            macdonald_polynomial((), 0)

    @pytest.mark.parametrize("lam", [(1, 2), (-1,), (2, -1)])
    def test_rejects_a_non_partition(self, lam):
        with pytest.raises(ValueError, match="not a partition"):
            macdonald_polynomial(lam, 2)

    def test_singular_substitution(self):
        P = macdonald_polynomial((2, 1), 3)
        one = QTRational.const(1)
        with pytest.raises(SingularSubstitution):
            macdonald_specialize(P, one, one)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_specialize_matches_rational_evaluation(self, n):
        values = [QTRational.const(0), QTRational.const(1), QTRational.const(-1), Q, T,
                  Q * Q, QTRational.const(2) * Q * T, QTRational.const(-3) * T * T]
        for d in range(1, 5):
            for lam in partitions(d, n):
                P = macdonald_polynomial(lam, n)
                for q_to in values:
                    for t_to in values:
                        try:
                            expected = _evaluate(P, q_to, t_to)
                        except ZeroDivisionError:
                            with pytest.raises(SingularSubstitution):
                                macdonald_specialize(P, q_to, t_to)
                        else:
                            assert macdonald_specialize(P, q_to, t_to) == expected
        one = QTRational.const(1)
        with pytest.raises(SingularSubstitution):
            macdonald_specialize(macdonald_polynomial((2, 1), 3), one, one)

    def test_specialize_refuses_a_non_monomial_value(self):
        P = macdonald_polynomial((2, 1), 3)
        for bad in (QTRational.from_poly(QTPoly.gen_q() + QTPoly.const(1)),
                    QTRational(QTPoly.const(1), QTPoly.gen_q())):
            with pytest.raises(ValueError, match="not a monomial"):
                macdonald_specialize(P, bad, T)
            with pytest.raises(ValueError, match="not a monomial"):
                macdonald_specialize(P, Q, bad)

    def test_eigenvalues_distinct(self):
        for n in (2, 3):
            for d in range(1, 5):
                evs = [macdonald_eigenvalue(lam, n) for lam in partitions(d, n)]
                for i in range(len(evs)):
                    for j in range(i + 1, len(evs)):
                        assert evs[i] != evs[j]


def _never(*args):
    raise AssertionError("formed before the cap was checked")


class TestCapGates:
    """Each size gate raises ComponentTooLarge before anything is formed."""

    @pytest.fixture(autouse=True)
    def cold_plans(self):
        # a plan built by an earlier test would form nothing here either
        macdonald._alternant_plan.cache_clear()
        yield
        macdonald._alternant_plan.cache_clear()

    @pytest.mark.parametrize("n,d,cap,schur,dr", [
        (4, 3, "20", "permutations", r"\(S, w\) pairs"),  # 4! = 24
        (2, 60, "30", "partitions", "partitions")])  # p(60, <= 2) = 31 > C(2,1) 2!
    def test_a_built_plan_passes_no_lower_cap(self, monkeypatch, n, d, cap, schur, dr):
        monkeypatch.delenv("QZ_CAP", raising=False)
        f = msym((d,), n)
        schur_polynomial((d,), n)
        macdonald_dr(f, 1)
        assert macdonald._alternant_plan.cache_info().hits > 0  # the plan is built
        monkeypatch.setenv("QZ_CAP", cap)
        with pytest.raises(ComponentTooLarge, match=schur + " .*exceed the cap"):
            schur_polynomial((d,), n)
        with pytest.raises(ComponentTooLarge, match=dr + " .*exceed the cap"):
            macdonald_dr(f, 1)

    def test_monomial_symmetric_counts_permutations(self, monkeypatch):
        # m_(1) in 7 variables forms no permutation; D_1 on it counts its
        # C(7,1) 7! = 35,280 (S, w) pairs before forming one
        monkeypatch.setenv("QZ_CAP", "1000")
        monkeypatch.setattr(macdonald, "permutations", _never)
        with pytest.raises(ComponentTooLarge, match=r"\(S, w\) pairs .*exceed the cap"):
            macdonald_d1(SymPolynomial.monomial_symmetric((1,), 7))

    def test_difference_operator_counts_pairs(self, monkeypatch):
        monkeypatch.delenv("QZ_CAP", raising=False)  # C(8,1) 8! = 322,560
        f = from_exponents(8, {(0,) * 8: QTR_ONE})
        monkeypatch.setattr(macdonald, "_over_common_denominator", _never)
        monkeypatch.setattr(macdonald, "_solve_alternant", _never)
        with pytest.raises(ComponentTooLarge, match="exceed the cap"):
            macdonald_dr(f, 1)

    def test_difference_operator_counts_partitions(self, monkeypatch):
        # every degree counts: p(60, <= 3) + p(1, <= 3) = 331 + 1
        monkeypatch.setenv("QZ_CAP", "331")
        f = msym((60,), 3) + msym((1,), 3)
        monkeypatch.setattr(macdonald, "_over_common_denominator", _never)
        monkeypatch.setattr(macdonald, "_solve_alternant", _never)
        with pytest.raises(ComponentTooLarge, match="partitions .*exceed the cap"):
            macdonald_dr(f, 1)

    def test_schur_counts_permutations(self, monkeypatch):
        monkeypatch.delenv("QZ_CAP", raising=False)  # 9! = 362,880
        monkeypatch.setattr(macdonald, "permutations", _never)
        monkeypatch.setattr(macdonald, "_solve_alternant", _never)
        with pytest.raises(ComponentTooLarge, match="permutations .*exceed the cap"):
            schur_polynomial((1,), 9)

    def test_schur_counts_partitions(self, monkeypatch):
        monkeypatch.setenv("QZ_CAP", "1000")  # 4! = 24, p(60, <= 4) = 1,906
        monkeypatch.setattr(macdonald, "permutations", _never)
        monkeypatch.setattr(macdonald, "_solve_alternant", _never)
        with pytest.raises(ComponentTooLarge, match="partitions .*exceed the cap"):
            schur_polynomial((60,), 4)

    @pytest.mark.parametrize("lam,n,cap,what", [
        ((8, 6, 4, 2), 8, None, "states"), ((5, 3, 2, 1), 6, "1000", "states"),
        ((300,), 300, None, "contents"), ((10 ** 9,), 1, None, "steps")])
    def test_tableau_sum_counts_states(self, monkeypatch, lam, n, cap, what):
        if cap is None:
            monkeypatch.delenv("QZ_CAP", raising=False)
        else:
            monkeypatch.setenv("QZ_CAP", cap)
        monkeypatch.setattr(macdonald, "_strips", _never)
        monkeypatch.setattr(macdonald, "_strip_weight", _never)
        with pytest.raises(ComponentTooLarge, match=what + " .*exceed the cap"):
            macdonald_polynomial(lam, n)

    @pytest.mark.parametrize("lam,n", [((6, 6, 6, 6), 4), ((300, 300), 2),
                                       ((1,), 12), ((8, 4, 4, 4), 4)])
    def test_nearly_minimal_shapes_pass_the_cap(self, lam, n):
        # minimal or nearly minimal shapes have few states at any size
        P = macdonald_polynomial(lam, n)
        assert P[lam] == QTR_ONE and all(dominance_lt(nu, lam) for nu in P if nu != lam)


class TestCentralElementScalars:
    def test_trivial_weight(self):
        got = central_element_scalar(1, (0, 0), 2)
        assert got == Laurent.q_power(0) + Laurent.q_power(2)

    def test_lowest_weight_reduction_identity(self):
        # scalar from the closed form == prefactor * bare sum, by construction
        for lam in [(0, 0, 0), (1, 0, 0), (2, 1, 0)]:
            n = 3
            for k in (1, 2):
                from math import comb
                pref = Laurent.q_power(2 * sum(lam) + comb(n, 2) + k * (n - 1)) \
                    * q_factorial(k) * q_factorial(n - k)
                assert central_element_scalar(k, lam, n) == \
                    pref * central_index_sum(k, lam, n)

    @pytest.mark.parametrize("nprime", [1, 2, 3])
    def test_doubled_reduction(self, nprime):
        # applying the closed form to a doubled weight at k=1 collapses the
        # index sum pairwise onto the half-size alphabet
        for mu in [(0,) * nprime, (1,) + (0,) * (nprime - 1), (2, 1)[:nprime]]:
            lam = double_partition(mu)
            assert central_element_scalar(1, lam, 2 * nprime) == \
                c1_doubled_display(mu, nprime)

    @pytest.mark.parametrize("nprime", [1, 2, 3])
    def test_published_display_discrepancy(self, nprime):
        # the published doubled-weight display differs from the closed form
        # by the lambda-independent factor q^(2n-1) [2] / [2n-1]
        n2 = 2 * nprime
        for mu in [(0,) * nprime, (1,) + (0,) * (nprime - 1)]:
            lam = double_partition(mu)
            lhs = central_element_scalar(1, lam, n2) * \
                Laurent.q_power(n2 - 1) * q_int(2)
            rhs = c1_printed_display(mu, nprime) * q_int(n2 - 1)
            assert lhs == rhs

    def test_trivial_weight_normalisation(self):
        # every central element acts on the trivial module by the length
        # generating function of S_n; at mu = 0 the corrected doubled display
        # gives this value and the printed one does not
        for n in range(1, 6):
            want = Laurent()
            for sigma in permutations(range(n)):
                want = want + Laurent.q_power(2 * inversions(sigma))
            for k in range(1, n + 1):
                assert central_element_scalar(k, (0,) * n, n) == want
            if n % 2 == 0:
                zero = (0,) * (n // 2)
                assert c1_doubled_display(zero, n // 2) == want
                assert c1_printed_display(zero, n // 2) != want

    def test_coset_length_additivity(self):
        # l(tau s1 s2) = l(tau) + l(s1) + l(s2) over S_4 with k = 2
        n, k = 4, 2
        taus = [w for w in permutations(range(n))
                if list(w[:k]) == sorted(w[:k]) and list(w[k:]) == sorted(w[k:])]
        assert len(taus) == 6
        for tau in taus:
            for s1 in permutations(range(k)):
                for s2 in permutations(range(k, n)):
                    w = tuple(tau[s1[i]] if i < k else tau[s2[i - k]]
                              for i in range(n))
                    assert inversions(w) == \
                        inversions(tau) + inversions(s1) + inversions(s2)


class TestZonalComparison:
    def test_parameter_free_cases_match_everywhere(self):
        for mu in [(1,), (1, 1)]:
            report = compare_zonal(zonal_vector(mu, 4))
            assert all(e["match"] for e in report["conventions"])
            assert all(e["constant"] == "1" for e in report["conventions"])

    def test_partial_orbit_is_not_symmetric(self):
        # each present exponent still has the coefficient of its sorted form
        zv = zonal_vector((1,), 4)
        del zv.s_restriction[(0, 1)]
        with pytest.raises(NoConventionMatches,
                           match="zonal restriction is not symmetric"):
            compare_zonal(zv)

    def test_odd_power_of_q_leaves_the_ring(self):
        # v^2 = q: one coefficient moved off the even powers of q
        zv = zonal_vector((1,), 4)
        zv.s_restriction[(0, 1)] = {2: 1}
        with pytest.raises(NoConventionMatches,
                           match=r"zonal restriction leaves Z\[q\^\(\+-2\)\]"):
            compare_zonal(zv)

    def test_row_two_discriminates(self):
        report = compare_zonal(zonal_vector((2,), 4))
        got = {e["convention"]: e["match"] for e in report["conventions"]}
        assert got == {"(q^2, q^4)": True,
                       "(q^2, q^-4)": False,
                       "(q^-2, q^-4)": True}
