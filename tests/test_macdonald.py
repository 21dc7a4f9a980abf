"""Difference operators, Macdonald polynomials, central-element scalars."""

from itertools import combinations, permutations

import pytest

from qzonal.coeff import (Laurent, QTPoly, QTRational, QTR_ONE, q_factorial,
                          q_int)
from qzonal import coeff, macdonald
from qzonal.isotypic import zonal_vector
from qzonal.macdonald import (NonzeroRemainder, SingularSubstitution,
                              SymPolynomial, _dr_body,
                              _over_common_denominator,
                              c1_doubled_display, c1_printed_display,
                              central_element_scalar, compare_zonal,
                              elementary_symmetric_eigenvalue,
                              macdonald_d1, macdonald_dr, macdonald_eigenvalue,
                              macdonald_polynomial, macdonald_specialize,
                              schur_polynomial, shift, central_index_sum,
                              xp_add, xp_div_binomial, xp_div_vandermonde,
                              xp_mul)
from qzonal.partitions import (double_partition, dominance_lt, inversions,
                               partitions)

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
        shifted = shift(f.coeffs, 0)
        assert shifted == {(1, 0): Q, (0, 1): QTR_ONE}

    def test_untouched_variable(self):
        f = SymPolynomial(2, {(0, 1): QTR_ONE})
        assert shift(f.coeffs, 0) == {(0, 1): QTR_ONE}


class TestDifferenceOperators:
    def test_constant_eigenvalue(self):
        got = macdonald_d1(SymPolynomial.one(2))
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
            xp_div_binomial({(0, 1): QTR_ONE}, 2, 0, 1)

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
        num = xp_add(num, xp_mul(term, shift(f.coeffs, i)))
    return SymPolynomial(n, xp_div_vandermonde(num, n))


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


class TestNumeratorSpace:
    """The operators run on integral numerators over one common denominator;
    the same ring-generic bodies run directly over Q(q,t) must agree."""

    def test_dr_matches_direct_field_arithmetic(self):
        for f in _operator_inputs():
            for r in range(1, f.n + 1):
                assert macdonald_dr(f, r) == \
                    SymPolynomial(f.n, _dr_body(f.coeffs, f.n, r))

    def test_common_denominator_is_the_lcm(self):
        one, q, t = QTPoly.const(1), QTPoly.gen_q(), QTPoly.gen_t()
        f = _mixed_denominators()
        nums, den = _over_common_denominator(f.coeffs)
        lcm = (one - q * t) * (one - t) * (one + q) * QTPoly.const(2)
        assert den in (lcm, -lcm)
        assert set(nums) == set(f.coeffs)
        for e, c in f.coeffs.items():
            assert isinstance(nums[e], QTPoly)
            assert QTRational(nums[e], den) == c

    def test_integral_input_takes_no_gcd(self, monkeypatch):
        calls = []
        real_gcd = coeff.qt_gcd

        def counting_gcd(a, b):
            calls.append((a, b))
            return real_gcd(a, b)
        monkeypatch.setattr(macdonald, "qt_gcd", counting_gcd)
        monkeypatch.setattr(coeff, "qt_gcd", counting_gcd)
        for mu in partitions(3, 3):
            macdonald_d1(msym(mu, 3))
            macdonald_dr(msym(mu, 3), 2)
        assert calls == []


class TestSymPolynomialArithmetic:
    def test_subtraction_negates(self):
        minus_one = QTRational.const(-1)
        for f in _operator_inputs():
            g = macdonald_d1(f)
            assert f - g == f + g.scale(minus_one)
            assert g - f == g + f.scale(minus_one)
            assert (f - f).is_zero()


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

    def test_row_two_discriminates(self):
        report = compare_zonal(zonal_vector((2,), 4))
        got = {e["convention"]: e["match"] for e in report["conventions"]}
        assert got == {"(q^2, q^4)": True,
                       "(q^2, q^-4)": False,
                       "(q^-2, q^-4)": True}
