"""Symmetric polynomials over Q(q,t): difference operators, Macdonald
polynomials by triangular eigen-solve, central-element scalars, and the
comparison harness against torus-restricted zonal vectors.
"""

from __future__ import annotations

from itertools import combinations, permutations
from math import comb

from .cap import check_cap
from .coeff import (QT_ONE, Laurent, QTPoly, QTRational, QTR_ONE, QTR_ZERO,
                    add_terms, q_factorial, q_int, qt_divexact, qt_gcd)
from .partitions import inversions, is_partition, pad, partitions, trim


class NonzeroRemainder(ArithmeticError):
    """Division by the Vandermonde determinant left a remainder."""


class EigenvalueCollision(ArithmeticError):
    """Two partitions of the same size share a difference-operator eigenvalue."""


class SingularSubstitution(ValueError):
    """A parameter substitution sends a coefficient's denominator to zero."""


class NoConventionMatches(RuntimeError):
    """No tested parameter convention reproduces the zonal restriction."""


# ---------------------------------------------------------------------------
# polynomials in x_1..x_n: {exponent tuple: coefficient}, with coefficients
# in Q(q,t) (QTRational) or, inside the difference operators, Z[q,t] (QTPoly)
# ---------------------------------------------------------------------------

def xp_add(a: dict, b: dict) -> dict:
    return add_terms(dict(a), b)


def xp_scale(a: dict, c: QTRational) -> dict:
    if c.is_zero():
        return {}
    return {e: c * v for e, v in a.items()}


def xp_mul(a: dict, b: dict) -> dict:
    out = {}
    for e1, c1 in a.items():
        add_terms(out, {tuple(x + y for x, y in zip(e1, e2)): c2
                        for e2, c2 in b.items()}, c1)
    return out


def xp_div_binomial(p: dict, n: int, i: int, j: int) -> dict:
    """Exact division by (x_i - x_j); raises NonzeroRemainder."""
    if not p:
        return {}
    rem = dict(p)
    quo = {}

    def key(e):
        return (e[i], e)

    while rem:
        e = max(rem, key=key)
        c = rem[e]
        if e[i] == 0:
            raise NonzeroRemainder("division by a Vandermonde factor failed")
        qe = list(e)
        qe[i] -= 1
        qe = tuple(qe)
        add_terms(quo, {qe: c})
        # subtract c * x^qe * (x_i - x_j): drops x^e, adds c to x^(qe + e_j)
        del rem[e]
        je = list(qe)
        je[j] += 1
        add_terms(rem, {tuple(je): c})
    return quo


def xp_div_vandermonde(p: dict, n: int) -> dict:
    for i in range(n):
        for j in range(i + 1, n):
            p = xp_div_binomial(p, n, i, j)
    return p


# ---------------------------------------------------------------------------
# symmetric polynomials
# ---------------------------------------------------------------------------

class SymPolynomial:
    """Polynomial in n variables over Q(q,t), expected to be symmetric."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs=None):
        self.n = n
        self.coeffs = coeffs if coeffs is not None else {}

    @staticmethod
    def monomial_symmetric(lam, n: int) -> "SymPolynomial":
        if len(trim(lam)) > n:
            return SymPolynomial(n)
        return SymPolynomial(n, dict.fromkeys(set(permutations(pad(lam, n))), QTR_ONE))

    @staticmethod
    def one(n: int) -> "SymPolynomial":
        return SymPolynomial(n, {(0,) * n: QTR_ONE})

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        return SymPolynomial(self.n, xp_add(self.coeffs, other.coeffs))

    def __sub__(self, other):
        return SymPolynomial(self.n, xp_add(self.coeffs,
                                            {e: -c for e, c in other.coeffs.items()}))

    def scale(self, c: QTRational):
        return SymPolynomial(self.n, xp_scale(self.coeffs, c))

    def __eq__(self, other):
        return (isinstance(other, SymPolynomial) and self.n == other.n
                and self.coeffs == other.coeffs)

    def is_symmetric(self) -> bool:
        for e, c in self.coeffs.items():
            rep = tuple(sorted(e, reverse=True))
            if self.coeffs.get(rep) != c:
                return False
        return True

    def m_basis(self) -> dict:
        """{partition: coefficient}; raises when not symmetric."""
        if not self.is_symmetric():
            raise ValueError("polynomial is not symmetric")
        out = {}
        for e, c in self.coeffs.items():
            rep = trim(sorted(e, reverse=True))
            out[rep] = c
        return out

    @staticmethod
    def from_m_basis(mdict: dict, n: int) -> "SymPolynomial":
        out = SymPolynomial(n)
        for lam, c in mdict.items():
            out = out + SymPolynomial.monomial_symmetric(lam, n).scale(c)
        return out

    def __repr__(self):
        try:
            mb = self.m_basis()
            return " + ".join("(%r)*m%s" % (mb[l], list(l))
                              for l in sorted(mb, reverse=True)) or "0"
        except ValueError:
            return "<non-symmetric polynomial, %d terms>" % len(self.coeffs)


def shift(coeffs: dict, i: int) -> dict:
    """The q-shift T_{q,x_i}: x_i -> q x_i on a coefficient dict, whose
    coefficients may lie in Z[q,t] (QTPoly) or Q(q,t) (QTRational)."""
    base = QTPoly.gen_q()
    out = {}
    powers = {0: QT_ONE}
    for e, c in coeffs.items():
        k = e[i]
        if k:
            for j in range(max(powers) + 1, k + 1):
                powers[j] = powers[j - 1] * base
            c = c * powers[k]
        out[e] = c
    return {e: c for e, c in out.items() if not c.is_zero()}


# ---------------------------------------------------------------------------
# Macdonald difference operators
#
# D_r is Q(q,t)-linear, so D_r(F/D) = D_r(F)/D.  It splits f once into
# integral numerators over one common denominator, runs its body over
# Z[q,t], where no gcd is taken, and reduces once per output coefficient.
# The body only adds and multiplies coefficients (the q-shifts, t-weights and
# signs are monomials), so it runs unchanged over Q(q,t) as well.  D_1 is
# D_r at r = 1.
# ---------------------------------------------------------------------------

def _over_common_denominator(coeffs: dict):
    """(numerators, D) with each coefficient equal to its numerator / D; D is
    the lcm of the denominators, and a gcd is taken only where one is not 1."""
    den = QT_ONE
    for d in {c.den for c in coeffs.values()}:
        if d.is_one():
            continue
        den = d if den.is_one() else den * qt_divexact(d, qt_gcd(den, d))
    cofactors = {}
    nums = {}
    for e, c in coeffs.items():
        k = cofactors.get(c.den)
        if k is None:
            k = cofactors[c.den] = qt_divexact(den, c.den)
        nums[e] = c.num * k
    return nums, den


def _dr_body(coeffs: dict, n: int, r: int) -> dict:
    """sum over r-subsets S and permutations w of sgn(w) t^(sum_S (w.delta)_i)
    x^(w.delta) (prod_{i in S} T_{q,x_i} f) / V, with V the Vandermonde."""
    delta = tuple(n - 1 - i for i in range(n))
    num = {}
    for S in combinations(range(n), r):
        g = coeffs
        for i in S:
            g = shift(g, i)
        for w in permutations(range(n)):
            wd = tuple(delta[w[i]] for i in range(n))
            weight = QTPoly.monomial(0, sum(wd[i] for i in S),
                                     -1 if inversions(w) % 2 else 1)
            add_terms(num, xp_mul({wd: weight}, g))
    return xp_div_vandermonde(num, n)


def macdonald_d1(f: SymPolynomial) -> SymPolynomial:
    """D_1 f = sum_i prod_{j != i} (t x_i - x_j)/(x_i - x_j) (T_{q,x_i} f),
    the first-order case D_r(1) of macdonald_dr."""
    return macdonald_dr(f, 1)


def macdonald_dr(f: SymPolynomial, r: int) -> SymPolynomial:
    """Coefficient of X^(n-r) in the generating difference operator: for each
    permutation w and r-subset S, a signed x^(w.delta) t-weighted q-shift."""
    if r == 0:
        return f
    if not 0 <= r <= f.n:
        raise ValueError("order must lie in 0..n")
    nums, den = _over_common_denominator(f.coeffs)
    return SymPolynomial(f.n, {e: QTRational(c, den)
                               for e, c in _dr_body(nums, f.n, r).items()})


def macdonald_eigenvalue(lam, n: int) -> QTRational:
    """sum_i q^(lam_i) t^(n-i), the e_1 of the eigenvalue alphabet."""
    return elementary_symmetric_eigenvalue(lam, n, 1)


def elementary_symmetric_eigenvalue(lam, n: int, r: int) -> QTRational:
    """e_r of the eigenvalue alphabet q^(lam_i) t^(n-i)."""
    lam = pad(lam, n)
    alphabet = [QTPoly.monomial(lam[i], n - 1 - i) for i in range(n)]
    out = QTPoly()
    for S in combinations(range(n), r):
        prod = QTPoly.const(1)
        for i in S:
            prod = prod * alphabet[i]
        out = out + prod
    return QTRational.from_poly(out)


def macdonald_polynomial(lam, n: int) -> dict:
    """P_lam in the monomial-symmetric basis: {partition: QTRational}.

    Solved from the triangular eigenproblem for D_1 with unit leading
    coefficient; the linear order on partitions of |lam| is lexicographic
    descending, which refines dominance.
    """
    lam = trim(lam)
    if not is_partition(lam):
        raise ValueError(f"{lam} is not a partition")
    if n < 1:
        raise ValueError("need at least one variable")
    if len(lam) > n:
        raise ValueError("partition has more parts than variables")
    d = sum(lam)
    if d == 0:
        return {(): QTR_ONE}
    # lex order refines dominance: only lam and the partitions after it enter
    plist = partitions(d, n)
    plist = plist[plist.index(lam):]
    action = {mu: macdonald_d1(SymPolynomial.monomial_symmetric(mu, n)).m_basis()
              for mu in plist}
    ev_lam = macdonald_eigenvalue(lam, n)
    u = {lam: QTR_ONE}
    for mu in plist[1:]:
        acc = QTR_ZERO
        for nu, unu in u.items():
            c = action[nu].get(mu)
            if c is not None:
                acc = acc + unu * c
        if acc.is_zero():
            u[mu] = QTR_ZERO
            continue
        ev_mu = macdonald_eigenvalue(mu, n)
        gap = ev_lam - ev_mu
        if gap.is_zero():
            raise EigenvalueCollision(f"{lam} and {mu} share an eigenvalue")
        u[mu] = acc / gap
    return {mu: c for mu, c in u.items() if not c.is_zero()}


def schur_polynomial(lam, n: int) -> dict:
    """Bialternant form det(x_i^(lam_j + n - j)) / Vandermonde, in the
    monomial-symmetric basis with integer coefficients."""
    lam = pad(lam, n)
    exps = tuple(lam[j] + (n - 1 - j) for j in range(n))
    # the exponents are distinct, so each permutation gives its own monomial
    num = {tuple(exps[w[i]] for i in range(n)):
           QTRational.const(-1 if inversions(w) % 2 else 1)
           for w in permutations(range(n))}
    quo = xp_div_vandermonde(num, n)
    return SymPolynomial(n, quo).m_basis()


def _monomial(value) -> tuple:
    """(c, a, b) for a value c*q^a*t^b given as a QTPoly or a QTRational over
    1; raises ValueError for any other value."""
    p = value.num if isinstance(value, QTRational) and value.den.is_one() else value
    if not isinstance(p, QTPoly) or len(p.t) > 1:
        raise ValueError(f"the value {value!r} is not a monomial c*q^a*t^b")
    if not p.t:
        return 0, 0, 0
    ((a, b), c), = p.t.items()
    return c, a, b


def macdonald_specialize(mdict: dict, q_to, t_to) -> dict:
    """Substitute monomial values c*q^a*t^b for q and t in a monomial-basis
    coefficient table.  That substitution is a ring map of Z[q,t], so it is
    applied to each numerator and denominator, which are then reduced once.
    Raises SingularSubstitution when a denominator vanishes, ValueError when
    a value is not a monomial, and ComponentTooLarge when a power of q or t
    exceeds the size cap, since the fractions reduce on dense lists."""
    (cq, aq, bq), (ct, at, bt) = _monomial(q_to), _monomial(t_to)

    def image(p: QTPoly) -> QTPoly:
        out = {}
        for (i, j), c in p.t.items():
            e = (aq * i + at * j, bq * i + bt * j)
            out[e] = out.get(e, 0) + c * cq ** i * ct ** j
        out = {e: c for e, c in out.items() if c}
        check_cap(max(map(max, out), default=0), "powers of q or t")
        return QTPoly(out)

    out = {}
    for lam, c in mdict.items():
        den = image(c.den)
        if den.is_zero():
            raise SingularSubstitution(
                "the substitution sends the denominator %s of the m%s "
                "coefficient to zero" % (c.den, list(lam)))
        num = image(c.num)
        if not num.is_zero():
            out[lam] = QTRational(num, den)
    return out


# ---------------------------------------------------------------------------
# central-element scalars
# ---------------------------------------------------------------------------

def central_element_scalar(k: int, lam, n: int) -> Laurent:
    """Scalar by which the k-th central element acts on the irreducible with
    highest weight lam:

        q^(2|lam| + C(n,2) + k(n-1)) [k]! [n-k]!
            * sum_{i_1<...<i_k} q^(-2 lam_{i_1} - ... + 2(i_1-n) + ...)

    At the trivial weight it is sum_{sigma in S_n} q^(2 inv(sigma))
    = q^(C(n,2)) [n]! for every k.
    """
    if not 1 <= k <= n:
        raise ValueError("central element index must lie in 1..n")
    size = sum(pad(lam, n))
    pref = Laurent.q_power(2 * size + comb(n, 2) + k * (n - 1))
    pref = pref * q_factorial(k) * q_factorial(n - k)
    return pref * central_index_sum(k, lam, n)


def doubled_weight_sum(lam, nprime: int) -> Laurent:
    """sum_{1<=i<=n'} q^(-2 lam_i + 4(i - n'))."""
    lam = pad(lam, nprime)
    out = Laurent()
    for i in range(1, nprime + 1):
        out = out + Laurent.q_power(-2 * lam[i - 1] + 4 * (i - nprime))
    return out


def c1_doubled_display(lam, nprime: int) -> Laurent:
    """Closed form for the first central element on a doubled weight, n = 2n':
    q^(4|lam| + C(n,2) + n - 2) [2] [n-1]! * the doubled weight sum (the k = 1
    prefactor times the paired index sum q^(-1) [2] * doubled_weight_sum).
    Erratum: the printed display has the k = 2 prefactor in place of k = 1."""
    n2 = 2 * nprime
    lam = pad(lam, nprime)
    size = sum(lam)
    pref = Laurent.q_power(4 * size + comb(n2, 2) + n2 - 2)
    pref = pref * q_int(2) * q_factorial(n2 - 1)
    return pref * doubled_weight_sum(lam, nprime)


def c1_printed_display(lam, nprime: int) -> Laurent:
    """The doubled-weight display as printed (n = 2n'): q^(4|lam| + C(n,2)
    + 2(n-1) - 1) [2]^2 [n-2]! * the doubled weight sum.  It carries the k = 2
    prefactor by mistake in place of the k = 1 one, so it is
    q^(n-1) [2] / [n-1] times c1_doubled_display (criterion 9b')."""
    n2 = 2 * nprime
    lam = pad(lam, nprime)
    size = sum(lam)
    pref = Laurent.q_power(4 * size + comb(n2, 2) + 2 * (n2 - 1) - 1)
    pref = pref * q_int(2) * q_int(2) * q_factorial(n2 - 2)
    return pref * doubled_weight_sum(lam, nprime)


def central_index_sum(k: int, lam, n: int) -> Laurent:
    """Bare index sum inside central_element_scalar (no prefactor)."""
    lam = pad(lam, n)
    out = Laurent()
    for S in combinations(range(1, n + 1), k):
        e = sum(-2 * lam[i - 1] + 2 * (i - n) for i in S)
        out = out + Laurent.q_power(e)
    return out


# ---------------------------------------------------------------------------
# comparison of zonal restrictions with Macdonald polynomials
# ---------------------------------------------------------------------------

DEFAULT_CONVENTIONS = ((2, 4), (2, -4), (-2, -4))


def convention_name(conv) -> str:
    a, b = conv

    def power(e):
        return "q^%d" % e if e != 1 else "q"
    return "(%s, %s)" % (power(a), power(b))


def compare_zonal(zv) -> dict:
    """Compare the normalized torus restriction of an extracted zonal vector
    (an isotypic.ZonalVector) with the Macdonald polynomial P_mu under each
    (q -> q^a, t -> q^b) convention.

    Returns a report; raises NoConventionMatches when nothing matches.
    """
    mu, N = zv.mu, zv.vector.N
    # the primitive restriction must live in Z[q^(+-2)] (v-exponents = 0 mod 4)
    for c in zv.s_restriction.values():
        if any(e % 4 for e in c):
            raise AssertionError("zonal restriction leaves Z[q^(+-2)]")
    zcoeffs = {}
    for e, val in zv.normalized_s_coefficients().items():
        if zcoeffs.setdefault(trim(sorted(e, reverse=True)), val) != val:
            raise AssertionError("zonal restriction is not symmetric")
    pmu = macdonald_polynomial(mu, N // 2)
    entries = []
    for conv in DEFAULT_CONVENTIONS:
        entry = {"convention": convention_name(conv), "match": False,
                 "constant": None, "note": ""}
        try:
            sub = {lam: c.substitute_v(*conv) for lam, c in pmu.items()}
        except ZeroDivisionError:
            entry["note"] = "singular substitution"
        else:
            if zcoeffs == {lam: c for lam, c in sub.items() if not c.is_zero()}:
                entry["match"] = True
                entry["constant"] = repr(zcoeffs[mu] / sub[mu])
        entries.append(entry)
    report = {
        "mu": list(mu),
        "N": N,
        "restriction": {"-".join(map(str, k)) or "0": repr(v)
                        for k, v in sorted(zcoeffs.items(), reverse=True)},
        "conventions": entries,
    }
    if not any(e["match"] for e in entries):
        raise NoConventionMatches(report)
    return report
