"""Slow reference paths that the engine no longer runs, kept for tests.

Each one is the direct computation a faster engine path replaced, or a
helper only tests call; tests compare the engine with them at sizes where
both run.
"""

import re
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations
from math import comb, prod
from operator import lshift

from qzonal.cli import UsageError
from qzonal.cap import check_cap
from qzonal.coeff import (_ONE, L_ONE, L_Q, L_QINV, QT_ONE, QTR_ONE, QTR_ZERO,
                          Laurent, QTPoly, QTRational, _add_scaled, _qt_unit_normal,
                          _zx_gcd, add_terms, qt_divexact)
from qzonal import isotypic
from qzonal.isotypic import SubspaceBasis, _paired_row_weight, kernel_on, vec_primitive
from qzonal.macdonald import (SymPolynomial, _over_common_denominator, _strips,
                              exponents_to_m_basis, macdonald_d1,
                              macdonald_eigenvalue)
from qzonal.partitions import dominance_le, lehmer_inversions, pad, partitions, trim
from qzonal.qmatrix import IndexOutOfRange, QPolynomial, gen_id, normal_form
from qzonal import symplectic
from qzonal.symplectic import (OddSubset, _check_even, _compositions, _move_step,
                               _word_layout, bi_invariant_generator,
                               left_invariant_product, sp_generating_set,
                               z_generator)
from qzonal.uq_action import LEFT, RIGHT, UqElement, act, gen_e, gen_f, q_weight


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------

def specialize(a: Laurent, v0):
    """Evaluate a Laurent polynomial at an exact nonzero rational v0."""
    v0 = Fraction(v0)
    if v0 == 0:
        raise ZeroDivisionError("v0 must be nonzero")
    return sum((Fraction(c) * v0 ** e for e, c in a.t.items()), Fraction(0))


def q_int(j: int) -> Laurent:
    """[j] = (q**j - q**-j)/(q - q**-1), symmetric convention."""
    if j < 1:
        raise ValueError("q_int needs j >= 1")
    return Laurent({2 * (j - 1 - 2 * i): 1 for i in range(j)})


def q_factorial(k: int) -> Laurent:
    """[k]! = [1][2]...[k], with [0]! = 1."""
    if k < 0:
        raise ValueError("q_factorial needs k >= 0")
    out = L_ONE
    for j in range(2, k + 1):
        out = out * q_int(j)
    return out


def inversions(word) -> int:
    """The inversion count of a word, pair by pair."""
    n = len(word)
    return sum(1 for i in range(n) for j in range(i + 1, n) if word[i] > word[j])


def qt_prs_cofactors(A: QTPoly, B: QTPoly) -> tuple:
    """(G, A/G, B/G) for nonzero A, B with G = _qt_gcd_prs(A, B): the
    pseudo-remainder sequence in place of coeff.qt_gcd."""
    G = _qt_gcd_prs(A, B)
    return G, qt_divexact(A, G), qt_divexact(B, G)


def _qt_gcd_prs(A: QTPoly, B: QTPoly) -> QTPoly:
    """gcd of nonzero A, B in Z[q,t], content-then-univariate over (Z[q])[t]
    by a primitive pseudo-remainder sequence."""
    ca, A = _qt_primitive(A)
    cb, B = _qt_primitive(B)
    if _qt_t_lead(A)[0] < _qt_t_lead(B)[0]:
        A, B = B, A
    while B.t:
        db, lb = _qt_t_lead(B)
        # pseudo-remainder: A := A lc(B) - B lc(A) t^(deg A - deg B)
        while A.t:
            da, la = _qt_t_lead(A)
            if da < db:
                break
            A = A * lb + B * (la * QTPoly.monomial(0, da - db, -1))
        if A.t:
            A = _qt_primitive(A)[1]
        A, B = B, A
    cg = _zx_gcd(ca, cb)
    return _qt_unit_normal(A * QTPoly({(eq, 0): c for eq, c in enumerate(cg) if c}))


def _qt_primitive(p: QTPoly) -> tuple:
    """(content, primitive part) of nonzero p in (Z[q])[t]: the content is
    the gcd in Z[q] of its t-coefficients, as a dense q-list with a positive
    leading coefficient; p itself is returned when the content is 1."""
    rows = {}
    for (eq, et), c in p.t.items():
        rows.setdefault(et, {})[eq] = c
    g = []
    for row in rows.values():
        g = _zx_gcd(g, [row.get(i, 0) for i in range(max(row) + 1)])
        if g == [1]:
            return g, p
    return g, qt_divexact(p, QTPoly({(eq, 0): c for eq, c in enumerate(g) if c}))


def _qt_t_lead(p: QTPoly) -> tuple:
    """(degree in t, leading coefficient in t) of nonzero p."""
    d = max(et for _, et in p.t)
    return d, QTPoly({(eq, 0): c for (eq, et), c in p.t.items() if et == d})


# ---------------------------------------------------------------------------
# the quantum matrix ring
# ---------------------------------------------------------------------------

def generator(N: int, row: int, col: int) -> QPolynomial:
    """The generator x[row, col] as a polynomial."""
    return QPolynomial(N, {(gen_id(N, row, col),): _ONE})


def enumerate_normal_monomials(N: int, d: int):
    """Every normal monomial of degree d, as sorted letter tuples."""
    return combinations_with_replacement(range(N * N), d)


def normal_form_merge(N: int, word, coeff: Laurent = L_ONE) -> QPolynomial:
    """Divide-and-merge straightening; agrees with normal_form (confluence)."""
    if len(word) <= 1:
        return normal_form(N, word, coeff)
    mid = len(word) // 2
    left = normal_form_merge(N, word[:mid])
    right = normal_form_merge(N, word[mid:])
    return (left * right).scale(coeff)


def restrict_Borel(p: QPolynomial, sign: str) -> QPolynomial:
    """Triangular restriction: keep terms supported on the closed upper ('+')
    or lower ('-') triangle.  Products of restricted elements computed in the
    ambient ring and restricted again agree with the quotient product."""
    N = p.N
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    keep_upper = sign == "+"
    out = {}
    for mono, c in p.terms.items():
        ok = all((g // N <= g % N) if keep_upper else (g // N >= g % N)
                 for g in mono)
        if ok:
            out[mono] = c
    return QPolynomial(N, out)


def left_relative_invariant_check(p: QPolynomial, lam) -> bool:
    """The B-\\G relative-invariant test, the left twin of
    symplectic.relative_invariant_check: the column weight equals lam and
    the left raising operators e_k all kill p."""
    N = p.N
    lam = tuple(lam) + (0,) * (N - len(tuple(lam)))
    if p.column_weight() != lam:
        return False
    return all(act(LEFT, gen_e(N, k), p).is_zero() for k in range(1, N))


# ---------------------------------------------------------------------------
# Noumi's sp-operators from composite root vectors, the operators
# symplectic.sp_generating_set replaced
# ---------------------------------------------------------------------------

def composite_E(N: int, i: int, j: int) -> UqElement:
    """E[i,j] built from E[i,k]E[k,j] - E[k,j]E[i,k] with k = min(i,j)+1; base
    cases are e_k, f_k.

    Any k strictly between i and j gives the same operator on the matrix
    ring (checked in the test-suite rather than assumed).
    """
    if i == j or not (1 <= i <= N and 1 <= j <= N):
        raise IndexOutOfRange(f"E[{i},{j}] needs distinct indices in 1..{N}")
    if j == i + 1:
        return gen_e(N, i)
    if j == i - 1:
        return gen_f(N, j)
    k = min(i, j) + 1
    a = composite_E(N, i, k)
    b = composite_E(N, k, j)
    return a * b - b * a


def sp_element(kind: str, i: int, j: int, N: int) -> UqElement:
    """The symplectic combinations of composite root vectors:
    E[2i-a,2j-b] + q^{2(i-j)} E[2j-a,2i-b], with (a, b) = (1, 0) for kind 'e'
    and (0, 1) for kind 'f', and no second term when i == j.
    """
    m = _check_even(N)
    if not (1 <= i <= m and 1 <= j <= m):
        raise IndexOutOfRange(f"sp indices must lie in 1..{m}")
    if kind not in ("e", "f"):
        raise ValueError("kind must be 'e' or 'f'")
    a, b = (1, 0) if kind == "e" else (0, 1)
    out = composite_E(N, 2 * i - a, 2 * j - b)
    if i != j:
        out = out + composite_E(N, 2 * j - a, 2 * i - b).scale(Laurent.q_power(2 * (i - j)))
    return out


def sp_full_set(N: int) -> list:
    """All sp_e(i,j) and sp_f(i,j)."""
    m = _check_even(N)
    return [sp_element(kind, i, j, N)
            for kind in ("e", "f")
            for i in range(1, m + 1) for j in range(1, m + 1)]


def noumi_generating_set(N: int) -> list:
    """The 4m - 2 sp-operators of Noumi's generating set, N = 2m: the
    diagonal pairs sp_e(j,j), sp_f(j,j) and the mixed sp_e(i,i+1) and
    sp_f(i,i+1), which sp_generating_set's docstring reduces to its own."""
    m = N // 2
    diagonal = [sp_element(kind, j, j, N) for j in range(1, m + 1) for kind in ("e", "f")]
    return diagonal + [sp_element(kind, i, i + 1, N) for kind in ("e", "f")
                       for i in range(1, m)]


# ---------------------------------------------------------------------------
# the bi-invariant products, which the invariance suite reads from their
# generators' rows
# ---------------------------------------------------------------------------

def bi_invariant_products(deg: int, N: int) -> list:
    """[(combo, prod_{r in combo} e_r)] for each weakly increasing combo in
    1..N/2 whose product has degree 2 sum(combo) <= deg, by degree, then
    combo.  Each generator is built once, and each partial product is held to
    the size cap as it grows, so the table is refused before any is used.
    """
    m = _check_even(N)
    combos = [c for k in range(1, deg // 2 + 1)
              for c in combinations_with_replacement(range(1, m + 1), k)
              if 2 * sum(c) <= deg]
    generators = {}
    out = []
    for combo in sorted(combos, key=lambda c: (sum(c), c)):
        poly = QPolynomial.unit(N)
        for r in combo:
            if r not in generators:
                generators[r] = bi_invariant_generator(r, N)
            poly = poly * generators[r]
            check_cap(poly.term_count(), "terms of a bi-invariant product")
        out.append((combo, poly))
    return out


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------

def canonical_rows(basis) -> list:
    """Fully reduced echelon rows of a SubspaceBasis, primitive, sorted by
    pivot column.

    This form is construction-independent, so two bases of the same
    subspace compare equal row by row; the pinned sp-kernel fixtures hold
    it.
    """
    rows = [dict(r) for r in basis.rows]
    order = sorted(range(len(rows)), key=lambda r: min(rows[r]) if rows[r] else -1)
    rows = [rows[r] for r in order]
    for i in range(len(rows) - 1, -1, -1):
        p = min(rows[i])
        for j in range(len(rows)):
            if j != i and p in rows[j]:
                neg = {e: -v for e, v in rows[j][p].items()}
                if rows[i][p] != _ONE:
                    rows[j] = _add_scaled({}, rows[j], rows[i][p])
                _add_scaled(rows[j], rows[i], neg)
        rows[i] = vec_primitive(rows[i])
    return [vec_primitive(r) for r in rows]


def one_shot_kernel(ops_with_sides: list, N: int, vectors: list) -> SubspaceBasis:
    """kernel_on from one solve: every (side, op)'s constraint rows through
    one echelon and back-substitution, the solve that
    isotypic._nullspace_block splits by row."""
    basis = SubspaceBasis()
    rows = isotypic._constraint_rows(ops_with_sides, N, vectors)
    for combo in isotypic._echelon_nullspace(rows, range(len(vectors))):
        basis.insert(isotypic._combine(vectors, combo))
    return basis


def right_span(seed: QPolynomial):
    """Span of a homogeneous seed under the right e_k, breadth-first, on
    full rows: the echelon ``isotypic.SliceSpan`` replaced.  Every row is
    homogeneous in row weight: an inserted image is, and a row it is
    reduced by shares its pivot monomial."""
    N = seed.N
    span = SubspaceBasis()
    queue = [span.insert(seed.terms)]
    ops = [gen_e(N, k) for k in range(1, N)]
    while queue:
        nxt = []
        for row in queue:
            p = QPolynomial(N, row)
            for g in ops:
                res = span.insert(act(RIGHT, g, p).terms)
                if res is not None:
                    nxt.append(res)
        queue = nxt
    return span


def full_row_zonal_line(mu, N: int) -> dict:
    """The zonal vector's primitive terms from the full-row span: the right
    sp-kernel on its rows of paired row weight, solved on full rows."""
    span = right_span(left_invariant_product(mu, N))
    paired = [r for r in span.rows if _paired_row_weight(min(r), N)]
    kernel = kernel_on([(RIGHT, g) for g in sp_generating_set(N)], N, paired)
    assert kernel.rank == 1
    return kernel.rows[0]


# ---------------------------------------------------------------------------
# Macdonald polynomials
# ---------------------------------------------------------------------------

def expand(f: SymPolynomial) -> dict:
    """{exponent: coefficient} of f, each m-basis coefficient shared by every
    permutation of its partition padded to length n."""
    return {e: c for lam, c in f.m_basis().items()
            for e in set(permutations(pad(lam, f.n)))}


def from_exponents(n: int, coeffs: dict) -> SymPolynomial:
    """The SymPolynomial of {exponent: coefficient}; raises ValueError unless
    it is symmetric."""
    return SymPolynomial.from_m_basis(exponents_to_m_basis(n, coeffs), n)


def xp_add(a: dict, b: dict) -> dict:
    """Sum of two {exponent tuple: coefficient} polynomials."""
    return add_terms(dict(a), b)


def xp_scale(a: dict, c: QTRational) -> dict:
    """c times an {exponent tuple: coefficient} polynomial."""
    if c.is_zero():
        return {}
    return {e: c * v for e, v in a.items()}


def expand_m_basis(mdict: dict, n: int) -> dict:
    """sum c_lam m_lam in n variables as {exponent: coefficient}: the orbit of
    each key's nonzero parts, padded to length n, summed term by term; a key
    with more than n nonzero parts gives m_lam = 0."""
    out = {}
    for lam, c in mdict.items():
        parts = sorted((a for a in lam if a), reverse=True)
        if len(parts) <= n:
            out = xp_add(out, {e: c for e in set(permutations(parts + [0] * (n - len(parts))))})
    return out


def macdonald_polynomial_eigen(lam, n: int) -> dict:
    """P_lam in the monomial-symmetric basis, solved from the triangular
    eigenproblem for D_1 with unit leading coefficient.

    The linear order on partitions of |lam| is lexicographic descending,
    which refines dominance, so only lam and the partitions after it enter.
    The eigenvalues of distinct partitions differ, so no gap is zero.
    """
    lam = trim(lam)
    d = sum(lam)
    if d == 0:
        return {(): QTR_ONE}
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
        u[mu] = QTR_ZERO if acc.is_zero() else \
            acc / (ev_lam - macdonald_eigenvalue(mu, n))
    return {mu: c for mu, c in u.items() if not c.is_zero()}


def strip_weight_fraction(mu: tuple, kappa: tuple) -> QTRational:
    """psi_(mu/kappa) of a horizontal strip as one reduced fraction: the
    product of b_kappa(s)/b_mu(s) over the boxes s in the rows that meet the
    strip but not in the columns that meet it (Macdonald VI (6.24))."""
    columns = {j for k, m in zip(kappa, mu) for j in range(k, m)}
    top, bottom = [], []  # the (a, b) of each factor 1 - q^a t^b
    for i, (k, m) in enumerate(zip(kappa, mu)):
        for j in set(range(k)) - columns if k < m else ():
            leg = sum(1 for part in mu[i + 1:] if part > j)
            a, b = k - j - 1, m - j - 1  # the arms in kappa and in mu
            top += [(a, leg + 1), (b + 1, leg)]
            bottom += [(a + 1, leg), (b, leg + 1)]
    return QTRational(*(prod((QT_ONE - QTPoly.monomial(*e) for e in side), start=QT_ONE)
                        for side in (top, bottom)))


def macdonald_polynomial_fractions(lam, n: int) -> dict:
    """P_lam by the tableau sum with every state's sum a reduced QTRational,
    so each product and each sum of the chain sum takes a gcd: the path the
    factored denominators replaced."""
    lam = trim(lam)
    memo = {((), ()): QTR_ONE}

    def chains(mu, content):
        if (mu, content) not in memo:
            memo[mu, content] = sum(
                (strip_weight_fraction(mu, kappa) * chains(trim(kappa), content[:-1])
                 for kappa in _strips(mu, content[-1])
                 if dominance_le(content[:-1], kappa)), QTR_ZERO)
        return memo[mu, content]

    return {nu: chains(lam, nu) for nu in partitions(sum(lam), n)
            if dominance_le(nu, lam)}


def c_lambda(lam) -> QTPoly:
    """c_lam = prod over the boxes s of lam of 1 - q^(a(s)) t^(l(s)+1), with
    arm a and leg l: J_lam = c_lam P_lam has coefficients in Z[q,t]
    (Macdonald VI (8.3), (8.11))."""
    out = QT_ONE
    for i, row in enumerate(lam):
        for j in range(row):
            leg = sum(1 for part in lam[i + 1:] if part > j)
            out = out * (QT_ONE - QTPoly.monomial(row - j - 1, leg + 1))
    return out


# ---------------------------------------------------------------------------
# D_r and Schur polynomials by full expansion and division by the
# Vandermonde, the path the alternant solve replaced
# ---------------------------------------------------------------------------

class NonzeroRemainder(ArithmeticError):
    """Division by the Vandermonde determinant left a remainder."""


def xp_mul(a: dict, b: dict) -> dict:
    """Product of two {exponent tuple: coefficient} polynomials."""
    out = {}
    for e1, c1 in a.items():
        add_terms(out, {tuple(x + y for x, y in zip(e1, e2)): c2
                        for e2, c2 in b.items()}, c1)
    return out


def xp_div_binomial(p: dict, i: int, j: int) -> dict:
    """Exact division by (x_i - x_j); raises NonzeroRemainder."""
    rem = dict(p)
    quo = {}
    while rem:
        e = max(rem, key=lambda e: (e[i], e))
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
            p = xp_div_binomial(p, i, j)
    return p


def shift(coeffs: dict, i: int) -> dict:
    """The q-shift T_{q,x_i}: x_i -> q x_i on a coefficient dict, whose
    coefficients may lie in Z[q,t] (QTPoly) or Q(q,t) (QTRational)."""
    return {e: c * QTPoly.monomial(e[i], 0) if e[i] else c
            for e, c in coeffs.items() if not c.is_zero()}


def _dr_body(coeffs: dict, n: int, r: int) -> dict:
    """sum over r-subsets S and permutations w of sgn(w) t^(sum_S (w.delta)_i)
    x^(w.delta) (prod_{i in S} T_{q,x_i} f) / V, with V the Vandermonde.  It
    only adds and multiplies coefficients, so it runs over Z[q,t] and Q(q,t)."""
    delta = tuple(n - 1 - i for i in range(n))
    words = [(tuple(delta[k] for k in w), -1 if inv % 2 else 1)
             for w, inv in zip(permutations(range(n)), lehmer_inversions(n))]
    num = {}
    for S in combinations(range(n), r):
        g = coeffs
        for i in S:
            g = shift(g, i)
        for wd, sign in words:
            weight = QTPoly.monomial(0, sum(wd[i] for i in S), sign)
            add_terms(num, xp_mul({wd: weight}, g))
    return xp_div_vandermonde(num, n)


def macdonald_dr_expanded(f: SymPolynomial, r: int) -> dict:
    """D_r f as {exponent: coefficient}, by _dr_body on the numerators of every
    coefficient of f's expansion over their common denominator, reduced once
    per output exponent."""
    if r == 0:
        return expand(f)
    nums, den = _over_common_denominator(expand(f))
    return {e: QTRational(c, den) for e, c in _dr_body(nums, f.n, r).items()}


def solve_alternant_per_call(n: int, degrees, term) -> dict:
    """macdonald._solve_alternant without its plan: delta, every mu + delta,
    beta = mu + delta - w.delta and sort(beta) are formed again on each
    call.  The same callback, term(acc, beta, w.delta, sgn w, sort(beta)),
    adds sgn(w) times the x^beta coefficient of G_w into acc."""
    delta = tuple(range(n - 1, -1, -1))
    words = [(tuple(delta[k] for k in w), -1 if inv % 2 else 1)
             for w, inv in zip(permutations(range(n)), lehmer_inversions(n))]
    out = {}
    for d in degrees:
        for mu in partitions(d, n):
            e = tuple(a + b for a, b in zip(pad(mu, n), delta))
            acc = {}
            for i, (wd, sign) in enumerate(words):  # the identity comes first
                beta = tuple(a - b for a, b in zip(e, wd))
                if min(beta, default=0) < 0:
                    continue
                key = trim(sorted(beta, reverse=True))
                term(acc, beta, wd, sign, key)
                for k, c in (out.get(key, {}) if i else {}).items():
                    acc[k] = acc.get(k, 0) - sign * c
            if acc := {k: c for k, c in acc.items() if c}:
                out[mu] = acc
    return out


def schur_bialternant(lam, n: int) -> dict:
    """det(x_i^(lam_j + n - j)) divided by the Vandermonde, in the
    monomial-symmetric basis."""
    lam = pad(lam, n)
    exps = tuple(lam[j] + (n - 1 - j) for j in range(n))
    # the exponents are distinct, so each permutation gives its own monomial
    num = {tuple(exps[w[i]] for i in range(n)): QTRational.const(-1 if inv % 2 else 1)
           for w, inv in zip(permutations(range(n)), lehmer_inversions(n))}
    return from_exponents(n, xp_div_vandermonde(num, n)).m_basis()


# ---------------------------------------------------------------------------
# central-element scalars (criterion 9)
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
# perfect matchings and the z-relation suite
# ---------------------------------------------------------------------------


def matchings(points) -> list:
    """Perfect matchings of an ordered point set, pairs (i,j) with i < j and
    first coordinates increasing."""
    points = tuple(points)
    if len(points) % 2:
        raise OddSubset("perfect matchings need an even point count")
    if not points:
        return [()]
    out = []
    head, rest = points[0], points[1:]
    for pos, j in enumerate(rest):
        remaining = rest[:pos] + rest[pos + 1:]
        for sub in matchings(remaining):
            out.append(((head, j),) + sub)
    return out


def matching_length(pairs) -> int:
    """Inversion count of the flattened word i1 j1 i2 j2 ..."""
    word = [x for pair in pairs for x in pair]
    return inversions(word)


def _walk_prefixes(seed: dict, prefixes, pos: int, W: int, base: int):
    """Yield (prefix, seed moved past x[r1,d1] ... x[rpos,dpos]) for the
    sorted pos-digit prefixes d1..dpos, the last move landing above base.

    stack[t] is the seed moved past the first t letters of the current
    prefix, so a prefix costs one step per letter not shared with the last.
    """
    digit = (1 << W) - 1
    stack = [seed]
    prev = None
    for p in prefixes:
        keep = 0 if prev is None else pos - ((p ^ prev).bit_length() + W - 1) // W
        del stack[keep + 1:]
        for t in range(keep, pos):
            d = (p >> W * (pos - 1 - t)) & digit
            stack.append(_move_step(stack[t], d, base + W * (pos - t)))
        prev = p
        yield p, stack[pos]


def row_set_pfaffian_sum(points: tuple, bound: tuple, N: int, zcache: dict,
                         memo: dict) -> dict:
    """symplectic._pfaffian_sum memoized by row set: the sum over matchings
    of points, recursing on the minimal point and forming the sum over every
    row set it meets, each with its own exponents, instead of shifting the
    one on the first rows.  Each pairing (head, j) moves the terms of
    z(head, j) itself along its own prefix trie (_walk_prefixes), where the
    engine walks one trie per sub-sum for every j from z(1, 2)."""
    W, E, bias = _word_layout(N)
    if not points:
        return {bias: 1}
    hit = memo.get((points, bound))
    if hit is not None:
        return hit
    out = {}
    head, rest = points[0], points[1:]
    cap = len(rest) // 2
    shares = {}
    for k, c in enumerate(bound):
        if c:
            sub = tuple(min(b - 1 if i == k else b, cap) for i, b in enumerate(bound))
            shares.setdefault(sub, []).append(k)
    for pos, j in enumerate(rest):
        zterms = zcache.get((head, j))
        if zterms is None:
            zterms = zcache[(head, j)] = [[] for _ in bound]
            for (g1, g2), c in z_generator("L", head, j, N).terms.items():
                zterms[g1 % N // 2].append((g1 % N, g2 % N, c))
        base = E + W * (len(rest) - 1 - pos)
        mask = (1 << base) - 1
        sign = -1 if pos % 2 else 1
        top = base + W * (pos + 1)
        for sub, pairs in shares.items():
            groups = {}
            for key, k in row_set_pfaffian_sum(rest[:pos] + rest[pos + 1:], sub, N,
                                               zcache, memo).items():
                groups.setdefault(key >> base, []).append((key & mask, k))
            seed = {}
            for a, b, zc in (t for k in pairs for t in zterms[k]):
                words = seed.setdefault(b, (0, {}))[1]
                for ze, zk in zc.items():
                    key = (a << top) + ze + 2 * pos
                    words[key] = words.get(key, 0) + sign * zk
            for prefix, state in _walk_prefixes(seed, sorted(groups), pos, W, base):
                for t, tk in groups[prefix]:
                    for c, (off, words) in state.items():
                        off += (c << base) + t
                        for key, k in words.items():
                            key += off
                            out[key] = out.get(key, 0) + k * tk
        out = {key: k for key, k in out.items() if k}
    memo[(points, bound)] = out
    return out


# (N, the minor's q) -> (zcache, memo) of row_set_pfaffian_sum
_ROW_SET_MEMOS = {}


def row_set_memo(N: int) -> tuple:
    """The (zcache, memo) that row_set_pfaffian_sum fills at N, shared by
    every oracle sum at N in one test run, so the N = 8 tables are built
    once.  The sums depend on N and on symplectic.L_Q, which tests patch, so
    both key the cache."""
    return _ROW_SET_MEMOS.setdefault((N, symplectic.L_Q), ({}, {}))


def row_set_pfaffian_words(r: int, N: int) -> dict:
    """symplectic._pfaffian_words on row_set_pfaffian_sum."""
    return row_set_pfaffian_sum(tuple(range(1, r + 1)), (r // 2,) * (N // 2), N,
                                *row_set_memo(N))


def row_set_canonical_components(N: int) -> dict:
    """symplectic._canonical_components on row_set_pfaffian_sum."""
    m = N // 2
    points = tuple(range(1, N + 1))
    return {c: row_set_pfaffian_sum(points, c + (0,) * (m - len(c)), N, *row_set_memo(N))
            for c in _compositions(m)}


def det_words(N: int):
    """Yield quantum_det(N) as (packed word, sign) over the rows 1..N, one
    permutation at a time: the reference for symplectic._det_blocks.

    Each permutation s is one word, its columns in row order, with
    v-exponent 2 inv(s) and sign (-1)^inv(s), inv(s) read off the Lehmer
    codes as in quantum_minor.
    """
    W, E, bias = _word_layout(N)
    shifts = [E + W * (N - i) for i in range(1, N + 1)]
    for s, inv in zip(permutations(range(N)), lehmer_inversions(N)):
        yield sum(map(lshift, s, shifts)) + bias + 2 * inv, -1 if inv % 2 else 1


def pfaffian_det_full(N: int) -> tuple:
    """pfaffian_equals_det's (terms, residual_terms) from the whole packed
    Pf(N), every column-pair component formed on row_set_pfaffian_sum, so
    independently of the engine's shifted memo, against det(N) from
    det_words."""
    E = _word_layout(N)[1]
    pf, det = row_set_pfaffian_words(N, N), dict(det_words(N))
    return (len({key >> E for key in pf}),
            len({key >> E for key in pf.keys() | det.keys()
                 if pf.get(key) != det.get(key)}))


def with_all_ones_component(words):
    """A stand-in for symplectic._canonical_components whose all-ones
    component, the one pfaffian_equals_det compares with det(N), is words."""
    real = symplectic._canonical_components

    def components(N):
        out = real(N)
        out[(1,) * (N // 2)] = words
        return out
    return components


def full_z_relations(side: str, N: int, qinv=L_QINV) -> list:
    """The z-relation report of symplectic.verify_z_relations, computed by
    expanding every instance on the full z-generators (all N/2 column or row
    pairs) and counting the terms of the whole residual.

    qinv stands for q^-1 in every relation; any other value makes instances
    fail, so the report can be compared on nonzero residuals too.
    """
    zs = {}

    def z(i, j):
        key = (i, j)
        if key not in zs:
            zs[key] = z_generator(side, i, j, N)
        return zs[key]

    qc = L_Q - qinv
    report = []

    def entry(name, idx, residual):
        report.append({
            "relation": name,
            "indices": list(idx),
            "pass": residual.is_zero(),
            "residual_terms": residual.term_count(),
        })

    for i in range(1, N + 1):
        entry("diagonal_zero", (i,), z(i, i))
    for i, j in combinations(range(1, N + 1), 2):
        entry("skew", (i, j), z(i, j) + z(j, i).scale(qinv))
    for i, j, k in combinations(range(1, N + 1), 3):
        entry("shared_row_q", (i, j, k), z(i, j) * z(i, k) - (z(i, k) * z(i, j)).scale(L_Q))
    for i, j, k, l in combinations(range(1, N + 1), 4):
        il_jk, jk_il = z(i, l) * z(j, k), z(j, k) * z(i, l)
        ik_jl, jl_ik = z(i, k) * z(j, l), z(j, l) * z(i, k)
        bracket = z(i, j) * z(k, l) - z(k, l) * z(i, j)
        entry("outer_commute", (i, j, k, l), il_jk - jk_il)
        entry("interlaced_bracket", (i, j, k, l), ik_jl - jl_ik - il_jk.scale(qc))
        entry("disjoint_bracket", (i, j, k, l),
              bracket - ik_jl.scale(qc) + il_jk.scale(L_Q * qc))
        entry("disjoint_bracket_alt", (i, j, k, l),
              bracket - jl_ik.scale(L_Q) + ik_jl.scale(qinv))
    return report


# ---------------------------------------------------------------------------
# the `qz act --expr` parser, stepping one character at a time
# ---------------------------------------------------------------------------

_ATOM_RE = re.compile(r"([ef])(\d+)|q(½|h)?\[([-\d,\s]*)\]|([vq])\^(-?\d+)|(-?\d+)|(\S)")


def parse_uq_expression(text: str, N: int) -> UqElement:
    """Flat expression language: terms joined by '+'/'-', each term an
    optional scalar prefix (integers, v^k, q^k) followed by atoms e<k>,
    f<k>, q[..] (integer weight) or q½[..]/qh[..] (doubled half-integers),
    composed by juxtaposition.  Every sign must be followed by a term, and
    there must be at least one ("0" is the zero operator)."""
    total = UqElement.zero(N)
    term = UqElement.one(N)
    sign = 1
    seen = False

    def flush():
        nonlocal total, term, seen
        if seen:
            total = total + term.scale(sign)

    pos = 0
    text = text.strip()
    while pos < len(text):
        ch = text[pos]
        if ch.isspace() or ch == "*":
            pos += 1
            continue
        if ch in "+-":
            if not seen:
                # sign of the upcoming term
                if ch == "-":
                    sign = -sign
                pos += 1
                continue
            if _looks_like_term_break(text, pos):
                flush()
                term = UqElement.one(N)
                sign = 1 if ch == "+" else -1
                seen = False
                pos += 1
                continue
        m = _ATOM_RE.match(text, pos)
        if not m:
            raise UsageError(f"cannot parse operator expression at {text[pos:]!r}")
        pos = m.end()
        seen = True
        if m.group(1):
            k = int(m.group(2))
            term = term * (gen_e(N, k) if m.group(1) == "e" else gen_f(N, k))
        elif m.group(4) is not None:
            coords = [x.strip() for x in m.group(4).split(",")]
            if not all(re.fullmatch(r"-?\d+", x) for x in coords):
                raise UsageError(f"bad weight {m.group()!r}: "
                                 "coordinates are comma-separated integers")
            coords = [int(x) for x in coords]
            if m.group(3) is None:
                coords = [2 * c for c in coords]
            term = term * q_weight(N, coords)
        elif m.group(5):
            e = int(m.group(6))
            if m.group(5) == "q":
                e *= 2
            term = term.scale(Laurent.v_power(e))
        elif m.group(7) is not None:
            term = term.scale(int(m.group(7)))
        else:
            raise UsageError(f"unexpected token {m.group(8)!r}")
    if not seen:
        # "", "+" or a dangling sign after the last term
        raise UsageError(f"operator expression {text!r} ends without a term")
    flush()
    return total


def _looks_like_term_break(text, pos):
    # a +/- between atoms starts a new term; inside a scalar it is a sign
    before = text[:pos].rstrip()
    return bool(before) and (before[-1].isalnum() or before[-1] in "]")
