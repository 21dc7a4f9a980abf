"""Symmetric polynomials over Q(q,t): difference operators, Macdonald
polynomials from the tableau sum, and the comparison harness against
torus-restricted zonal vectors.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import combinations, permutations, product
from math import comb, factorial, prod

from .cap import check_cap
from .coeff import (QT_ONE, QTPoly, QTRational, QTR_ONE, _dict_add, add_terms,
                    qt_divexact, qt_gcd)
from .partitions import (count_partitions, dominance_le, is_partition,
                         lehmer_inversions, pad, partitions, trim)


class SingularSubstitution(ValueError):
    """A parameter substitution sends a coefficient's denominator to zero."""


class NoConventionMatches(RuntimeError):
    """No parameter convention can reproduce the zonal restriction: it leaves
    Z[q^(+-2)] or is not symmetric.  A restriction that is both, but that no
    tested convention matches, is reported by ``compare_zonal``, not raised."""


# ---------------------------------------------------------------------------
# symmetric polynomials in x_1..x_n over Q(q,t), on the monomial-symmetric
# basis: {partition with at most n parts: QTRational}
# ---------------------------------------------------------------------------

def exponents_to_m_basis(n: int, coeffs: dict) -> dict:
    """{partition: c} of a polynomial given as {exponent of length n: c};
    raises ValueError unless each exponent's whole orbit, n!/prod mult! of
    them, is present with one coefficient.  No permutation is formed."""
    mb, sizes = {}, {}
    for e, c in coeffs.items():
        lam = trim(sorted(e, reverse=True))
        if len(e) != n or mb.setdefault(lam, c) != c:
            raise ValueError("polynomial is not symmetric")
        sizes[lam] = sizes.get(lam, 0) + 1
    if any(size * prod(map(factorial, Counter(pad(lam, n)).values())) != factorial(n)
           for lam, size in sizes.items()):
        raise ValueError("polynomial is not symmetric")
    return mb


class SymPolynomial:
    """Symmetric polynomial in n variables over Q(q,t), held as integral
    m-basis numerators ``nums`` ({partition with at most n parts: nonzero
    QTPoly}) over one denominator ``den`` with a positive leading term.
    The fraction is not reduced: ``m_basis`` and the printer reduce each
    coefficient when they are called."""

    __slots__ = ("n", "nums", "den")

    def __init__(self, n: int, nums=None, den=QT_ONE):
        self.n = n
        self.nums = nums if nums is not None else {}
        self.den = den

    @staticmethod
    def monomial_symmetric(lam, n: int) -> "SymPolynomial":
        """m_lam in n variables."""
        return SymPolynomial.from_m_basis({lam: QTR_ONE}, n)

    def is_zero(self):
        return not self.nums

    def _plus(self, other, sign):
        """self + sign * other over the lcm of the two denominators: equal
        denominators add their numerators with no gcd, others take one."""
        den, a, b = _lcm_cofactors(self.den, other.den)
        nums = dict(self.nums) if a.is_one() else {lam: c * a for lam, c in self.nums.items()}
        scale = sign if b.is_one() else b * sign
        return SymPolynomial(self.n, add_terms(nums, other.nums, scale), den)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def scale(self, c: QTRational):
        if c.is_zero():
            return SymPolynomial(self.n)
        return SymPolynomial(self.n, {lam: v * c.num for lam, v in self.nums.items()},
                             self.den * c.den)

    def __eq__(self, other):
        return (isinstance(other, SymPolynomial) and self.n == other.n
                and (self - other).is_zero())

    def m_basis(self) -> dict:
        """{partition: coefficient}, each coefficient reduced here."""
        return {lam: QTRational(c, self.den) for lam, c in self.nums.items()}

    @staticmethod
    def from_m_basis(mdict: dict, n: int) -> "SymPolynomial":
        """sum c_lam m_lam in n variables: each key sorted and trimmed, the
        c_lam of keys of one orbit added, and m_lam with more than n parts,
        zero in n variables, dropped.  The c_lam are put over their lcm once."""
        nums, den = _over_common_denominator(
            {lam: c for lam, c in mdict.items() if sum(map(bool, lam)) <= n})
        out = {}
        for lam, c in nums.items():
            add_terms(out, {trim(sorted(lam, reverse=True)): c})
        return SymPolynomial(n, out, den)

    def __repr__(self):
        mb = self.m_basis()
        return " + ".join("(%r)*m%s" % (mb[l], list(l))
                          for l in sorted(mb, reverse=True)) or "0"


# ---------------------------------------------------------------------------
# Macdonald difference operators.  D_r is Q(q,t)-linear, so it solves on the
# integral numerators of f over f's one denominator, with no gcd, and keeps
# that denominator.  D_1 is D_r at r = 1.
# ---------------------------------------------------------------------------

def _lcm_cofactors(a: QTPoly, b: QTPoly) -> tuple:
    """(L, L/a, L/b) for L the lcm of denominators a and b with positive
    leading terms; one gcd, taken only when a != b and neither is 1."""
    if a == b:
        return a, QT_ONE, QT_ONE
    if a.is_one() or b.is_one():
        return a * b, b, a
    _, a_g, b_g = qt_gcd(a, b)
    return a * b_g, b_g, a_g


def _over_common_denominator(coeffs: dict):
    """(numerators, D) with each coefficient equal to its numerator / D; D is
    the lcm of the denominators, and a gcd is taken only where one is not 1."""
    dens = {c.den for c in coeffs.values()}
    den = QT_ONE
    for d in dens:
        den = _lcm_cofactors(den, d)[0]
    cofactors = {d: qt_divexact(den, d) for d in dens}
    return {e: c.num * cofactors[c.den] for e, c in coeffs.items()}, den


@cache
def _alternant_plan(n: int, d: int) -> tuple:
    """The rows ``_solve_alternant`` reads at degree d in n variables: one
    (mu, rows) per partition mu of d with at most n parts, in descending lex
    order, with rows the (beta, w.delta, sgn w, sort(beta)) over the
    permutations w with beta = mu + delta - w.delta >= 0, the identity first.
    They depend on (n, d) alone, so each plan is built once per process and
    serves every D_r and Schur solve; a caller holds n! and the partition
    count to the cap before it asks for one, on every call."""
    delta = tuple(range(n - 1, -1, -1))
    words = [(tuple(delta[k] for k in w), -1 if inv % 2 else 1)
             for w, inv in zip(permutations(range(n)), lehmer_inversions(n))]
    plan = []
    for mu in partitions(d, n):
        e = tuple(a + b for a, b in zip(pad(mu, n), delta))
        rows = []
        for wd, sign in words:  # the identity comes first
            beta = tuple(a - b for a, b in zip(e, wd))
            if min(beta, default=0) >= 0:
                rows.append((beta, wd, sign, trim(sorted(beta, reverse=True))))
        plan.append((mu, tuple(rows)))
    return tuple(plan)


def _solve_alternant(n: int, degrees, term) -> dict:
    """The m-basis {mu: {(eq, et): int}} of D = N / a_delta, for the mu with
    at most n parts of each degree in ``degrees``, from N at mu + delta alone.
    N = sum_w sgn(w) x^(w.delta) G_w, and term(acc, beta, w.delta, sgn w,
    sort(beta)) adds sgn(w) times the x^beta coefficient of G_w, a
    {(eq, et): int} map, into acc; the caller vouches that D is symmetric.

    With D = sum_nu d_nu m_nu, the x^(mu+delta) coefficients of N and of
    a_delta D agree: over the w with beta = mu + delta - w.delta >= 0,
    sum_w sgn(w) G_w[x^beta] = sum_w sgn(w) d_sort(beta).
    Lemma: for w != id, sort(beta) strictly dominates mu, since the first k
    entries of beta and w.delta sum to at most those of sort(beta) and delta,
    with equality for every k only at w.delta = delta.  Descending lex order,
    the order of the plan, extends dominance, so each d_mu is solved from
    values already known (Macdonald, *Symmetric Functions and Hall
    Polynomials*, I section 3)."""
    out = {}
    for d in degrees:
        for mu, rows in _alternant_plan(n, d):
            acc = {}
            for beta, wd, sign, key in rows:
                term(acc, beta, wd, sign, key)
                # the identity's sort(beta) is mu itself, not solved yet
                for k, c in out.get(key, {}).items():
                    acc[k] = acc.get(k, 0) - sign * c
            if acc := {k: c for k, c in acc.items() if c}:
                out[mu] = acc
    return out


def macdonald_d1(f: SymPolynomial) -> SymPolynomial:
    """D_1 f = sum_i prod_{j != i} (t x_i - x_j)/(x_i - x_j) (T_{q,x_i} f),
    the first-order case D_r(1) of macdonald_dr."""
    return macdonald_dr(f, 1)


def macdonald_dr(f: SymPolynomial, r: int) -> SymPolynomial:
    """D_r f = N / a_delta, N = sum over the r-subsets S and permutations w of
    sgn(w) t^(sum_S (w.delta)_i) x^(w.delta) prod_{i in S} T_{q,x_i} f
    (Macdonald VI (3.4)_r).  D_r maps Lambda_n into Lambda_n (VI section 3),
    so ``_solve_alternant`` needs only N_(mu+delta) = sum_(S, w) sgn(w)
    q^(sum_S beta_i) t^(sum_S (w.delta)_i) num_sort(beta), with beta =
    mu + delta - w.delta >= 0 and num the numerators of f's m-basis.  D_r f
    keeps f's denominator, so nothing is reduced.  The cap bounds the
    C(n,r) n! pairs (S, w) and the partitions solved for before either is
    formed."""
    if r == 0:
        return f
    n = f.n
    if not 0 <= r <= n:
        raise ValueError("order must lie in 0..n")
    check_cap(comb(n, r) * factorial(n), "(S, w) pairs of a difference operator")
    nums = f.nums
    degrees = {sum(mu) for mu in nums}
    check_cap(sum(count_partitions(d, n) for d in degrees),
              "partitions solved for by a difference operator")
    subsets = list(combinations(range(n), r))

    def term(acc, beta, wd, sign, key):
        num = nums.get(key)
        for S in subsets if num else ():
            a, b = sum(beta[i] for i in S), sum(wd[i] for i in S)
            for (x, y), c in num.t.items():
                acc[x + a, y + b] = acc.get((x + a, y + b), 0) + sign * c

    return SymPolynomial(n, {mu: QTPoly(c) for mu, c in
                             _solve_alternant(n, degrees, term).items()}, f.den)


def macdonald_eigenvalue(lam, n: int) -> QTRational:
    """sum_i q^(lam_i) t^(n-i), the e_1 of the eigenvalue alphabet."""
    return elementary_symmetric_eigenvalue(lam, n, 1)


def elementary_symmetric_eigenvalue(lam, n: int, r: int) -> QTRational:
    """e_r of the eigenvalue alphabet q^(lam_i) t^(n-i)."""
    lam = pad(lam, n)
    return QTRational.from_poly(sum(
        (QTPoly.monomial(sum(lam[i] for i in S), sum(n - 1 - i for i in S))
         for S in combinations(range(n), r)), QTPoly()))


def _strips(mu: tuple, r: int):
    """The kappa with mu/kappa a horizontal strip of r boxes: kappa interlaces
    mu and is r boxes smaller, so its last part is what the others leave."""
    size = sum(mu) - r
    for head in product(*(range(low, high + 1) for high, low in zip(mu, mu[1:]))):
        if 0 <= (last := size - sum(head)) <= mu[-1]:
            yield head + (last,)


def _strip_weight(mu: tuple, kappa: tuple) -> tuple:
    """psi_(mu/kappa) of a horizontal strip as (top, bottom): Counters of the
    (a, b) of its factors 1 - q^a t^b, the factors they share cancelled.  psi
    is the product of b_kappa(s)/b_mu(s) over the boxes s in the rows that
    meet the strip but not in the columns that meet it, with b(s) =
    (1 - q^a t^(l+1))/(1 - q^(a+1) t^l) for the arm a and leg l of s
    (Macdonald VI (6.24)).  Such a box keeps its leg."""
    columns = {j for k, m in zip(kappa, mu) for j in range(k, m)}
    top, bottom = Counter(), Counter()
    for i, (k, m) in enumerate(zip(kappa, mu)):
        for j in set(range(k)) - columns if k < m else ():
            leg = sum(1 for part in mu[i + 1:] if part > j)
            a, b = k - j - 1, m - j - 1  # the arms in kappa and in mu
            top.update(((a, leg + 1), (b + 1, leg)))
            bottom.update(((a + 1, leg), (b, leg + 1)))
    return top - bottom, bottom - top


def _times_factors(p: dict, factors: Counter) -> dict:
    """p * prod (1 - q^a t^b) over the (a, b) in ``factors``, for p a
    {(eq, et): int} map: one shift and subtract per factor."""
    for a, b in factors.elements():
        out = dict(p)
        for (x, y), c in p.items():
            s = out.get((x + a, y + b), 0) - c
            if s:
                out[x + a, y + b] = s
            else:
                del out[x + a, y + b]
        p = out
    return p


def macdonald_polynomial(lam, n: int) -> dict:
    """P_lam in the monomial-symmetric basis: {partition: QTRational}.

    The m_nu coefficient, nonzero exactly for nu <= lam in dominance, is the
    tableau sum (Macdonald VI (7.13')): over the chains of horizontal strips
    () = lam(0) < ... < lam(l) = lam with |lam(i)/lam(i-1)| = nu_i, the product
    of the psi_(lam(i)/lam(i-1)).  The strip of the largest entry is peeled
    first, with a memo on the (shape, content prefix) states whose shape
    dominates their prefix; the cap bounds them before any is formed.

    A state's sum is held as a Z[q,t] numerator over a Counter of factors
    1 - q^a t^b, and no gcd is taken inside the sum.  A product cancels
    psi's top against the running denominator and adds the counters; a sum
    puts its terms over the counters' maximum, multiplying each numerator by
    the factors it lacks.  Each output coefficient is reduced once.
    """
    lam = trim(lam)
    if not is_partition(lam):
        raise ValueError(f"{lam} is not a partition")
    if n < 1:
        raise ValueError("need at least one variable")
    if len(lam) > n:
        raise ValueError("partition has more parts than variables")
    d = sum(lam)
    check_cap(d * min(n, d), "steps to count the contents of the tableau sum")
    check_cap(count_partitions(d, n), "candidate contents of the tableau sum")
    contents = [nu for nu in partitions(d, n) if dominance_le(nu, lam)]
    # a state (mu, nu[:k]) has at most k rows, and mu_i >= lam_(i+j) after
    # peeling j = l(nu) - k strips off lam
    rows, states = pad(lam, min(n, d)), 0
    for nu in contents:
        states += sum(prod(rows[i] - rows[i + len(nu) - k] + 1 for i in range(k))
                      for k in range(1, len(nu) + 1))
        check_cap(states, "(shape, content prefix) states of the tableau sum")
    # (shape, content) -> the sum over its chains as (numerator, Counter of
    # the factors 1 - q^a t^b of its denominator)
    memo = {((), ()): ({(0, 0): 1}, Counter())}

    def chains(mu, content):
        if (mu, content) not in memo:
            terms = []
            for kappa in _strips(mu, content[-1]):
                if dominance_le(content[:-1], kappa):
                    num, den = chains(trim(kappa), content[:-1])
                    if num:
                        top, bottom = _strip_weight(mu, kappa)
                        shared = top & den
                        terms.append((_times_factors(num, top - shared),
                                      den - shared + bottom))
            den = Counter()
            for _, d in terms:
                den |= d
            num = {}
            for p, d in terms:
                num = _dict_add(num, _times_factors(p, den - d))
            memo[mu, content] = num, den
        return memo[mu, content]

    def reduced(num, den):
        return QTRational(QTPoly(num), QTPoly(_times_factors({(0, 0): 1}, den)))

    return {nu: reduced(*chains(lam, nu)) for nu in contents}


def schur_polynomial(lam, n: int) -> dict:
    """s_lam = a_(lam+delta) / a_delta in the monomial-symmetric basis with
    integer coefficients, or {} when lam has more than n parts:
    a_(lam+delta) = sum_w sgn(w) x^(w.delta) x^(w.lam), (w.lam)_i =
    lam_(n-1-(w.delta)_i).  The cap bounds the n! permutations and the
    partitions solved for before either is formed."""
    lam = trim(lam)
    if not is_partition(lam):
        raise ValueError(f"{lam} is not a partition")
    if len(lam) > n:
        return {}
    check_cap(factorial(n), f"(= {n}!) permutations of the alternant")
    check_cap(count_partitions(sum(lam), n), "partitions solved for by the alternant")
    lam = pad(lam, n)

    def term(acc, beta, wd, sign, key):
        if beta == tuple(lam[n - 1 - k] for k in wd):
            acc[0, 0] = acc.get((0, 0), 0) + sign

    quo = _solve_alternant(n, (sum(lam),), term)
    return {mu: QTRational.const(c[0, 0]) for mu, c in quo.items()}


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
# comparison of zonal restrictions with Macdonald polynomials
# ---------------------------------------------------------------------------

DEFAULT_CONVENTIONS = ((2, 4), (2, -4), (-2, -4))


def convention_name(conv) -> str:
    return "(q^%d, q^%d)" % conv


def compare_zonal(zv) -> dict:
    """Compare the normalized torus restriction of an extracted zonal vector
    (an isotypic.ZonalVector) with the Macdonald polynomial P_mu under each
    (q -> q^a, t -> q^b) convention.

    Returns a report whose "conventions" entries say which match, possibly
    none; raises NoConventionMatches when the restriction leaves Z[q^(+-2)]
    or is not symmetric.
    """
    mu, N = zv.mu, zv.vector.N
    # the primitive restriction must live in Z[q^(+-2)] (v-exponents = 0 mod 4)
    for c in zv.s_restriction.values():
        if any(e % 4 for e in c):
            raise NoConventionMatches("zonal restriction leaves Z[q^(+-2)]")
    try:
        zcoeffs = exponents_to_m_basis(N // 2, zv.normalized_s_coefficients())
    except ValueError:
        raise NoConventionMatches("zonal restriction is not symmetric") from None
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
    return {"conventions": entries}
