"""Quantum-symplectic invariant theory on an even ambient size N = 2m.

Contents: the sp-operators deforming the symplectic subalgebra, the
quadratic z-generators of the quantum antisymmetric algebra and their
relation suite, the quantum Pfaffian and partial Pfaffians over perfect
matchings, the invariant sums built from paired-column quantum minors, and
the torus/Borel restriction maps.

The Pfaffian's matching expansion has one letter per row in every word, so
it is kept as row-sorted column words, packed into ints, and multiplied by
moving one letter through the lower rows with the two-column relations (the
row-sorting action on column tensors behind Noumi's and Jing-Zhang's
expansions); all z-terms of a pairing move together along one prefix trie.
"""

from __future__ import annotations

from itertools import combinations, permutations
from math import comb
from operator import lshift

from .cap import check_cap
from .coeff import L_Q, L_QINV, Laurent, _add_scaled
from .partitions import halve_partition, inversions, lehmer_inversions
from .qmatrix import IndexOutOfRange, QPolynomial, normal_form, quantum_minor
from .uq_action import LEFT, RIGHT, UqElement, act, composite_E, gen_e, gen_f

__all__ = [
    "OddAmbient", "OddSubset", "sp_element", "sp_generating_set",
    "sp_full_set", "z_generator", "verify_z_relations", "z_relation_count",
    "matchings", "matching_length", "quantum_pfaffian", "partial_pfaffian",
    "pfaffian_equals_det", "invariance_kernel_check", "left_invariant_generator",
    "left_invariant_product", "bi_invariant_generator", "paired_indices",
    "restrict_H", "torus_to_s", "restrict_Borel", "relative_invariant_check",
]


class OddAmbient(ValueError):
    """The construction needs an even ambient size."""


class OddSubset(ValueError):
    """Pfaffians are indexed by even-size subsets."""


def _check_even(N):
    if N % 2:
        raise OddAmbient(f"ambient size {N} must be even")
    return N // 2


# ---------------------------------------------------------------------------
# sp operators
# ---------------------------------------------------------------------------

def sp_element(kind: str, i: int, j: int, N: int) -> UqElement:
    """The symplectic combinations of composite root vectors.

    kind 'e':  E[2i-1,2j] + q^{2(i-j)} E[2j-1,2i]   (E[2i-1,2i] when i == j)
    kind 'f':  E[2i,2j-1] + q^{2(i-j)} E[2j,2i-1]   (E[2i,2i-1] when i == j)
    kind 'h':  E[2i-1,2j-1] - q^{2(i-j)} E[2j,2i]
    """
    m = _check_even(N)
    if not (1 <= i <= m and 1 <= j <= m):
        raise IndexOutOfRange(f"sp indices must lie in 1..{m}")
    w = Laurent.q_power(2 * (i - j))
    if kind == "e":
        if i == j:
            return composite_E(N, 2 * i - 1, 2 * i)
        return composite_E(N, 2 * i - 1, 2 * j) + \
            composite_E(N, 2 * j - 1, 2 * i).scale(w)
    if kind == "f":
        if i == j:
            return composite_E(N, 2 * i, 2 * i - 1)
        return composite_E(N, 2 * i, 2 * j - 1) + \
            composite_E(N, 2 * j, 2 * i - 1).scale(w)
    if kind == "h":
        return composite_E(N, 2 * i - 1, 2 * j - 1) - \
            composite_E(N, 2 * j, 2 * i).scale(w)
    raise ValueError("kind must be 'e', 'f' or 'h'")


def sp_generating_set(N: int) -> list:
    """The generating sp-operators: diagonal pairs plus adjacent mixed pairs."""
    m = _check_even(N)
    ops = []
    for j in range(1, m + 1):
        ops.append(sp_element("e", j, j, N))
        ops.append(sp_element("f", j, j, N))
    for i in range(1, m):
        ops.append(sp_element("e", i, i + 1, N))
        ops.append(sp_element("f", i, i + 1, N))
    return ops


def sp_full_set(N: int) -> list:
    """All sp_e(i,j) and sp_f(i,j)."""
    m = _check_even(N)
    return [sp_element(kind, i, j, N)
            for kind in ("e", "f")
            for i in range(1, m + 1) for j in range(1, m + 1)]


def invariance_kernel_check(p: QPolynomial, side: str, ops=None) -> bool:
    """True iff every operator in ops (default: generating set) kills p."""
    if ops is None:
        ops = sp_generating_set(p.N)
    return all(act(side, g, p).is_zero() for g in ops)


# ---------------------------------------------------------------------------
# z-generators and their relations
# ---------------------------------------------------------------------------

def z_generator(side: str, i: int, j: int, N: int) -> QPolynomial:
    """Degree-2 antisymmetric generators built from paired-column 2-minors.

    side 'L': sum_k v^(i+j+1-4k) (x[i,2k-1] x[j,2k] - q x[i,2k] x[j,2k-1])
    side 'R': sum_k v^-(i+j+1-4k) (x[2k-1,i] x[2k,j] - q x[2k,i] x[2k-1,j])

    with k running over the column (row) pairs 1..N/2.
    """
    m = _check_even(N)
    right = side in ("R", RIGHT)
    if not right and side not in ("L", LEFT):
        raise ValueError(f"side must be 'L', 'R', {LEFT!r} or {RIGHT!r}, not {side!r}")
    if not (1 <= i <= N and 1 <= j <= N):
        raise IndexOutOfRange(f"z indices must lie in 1..{N}")
    out = QPolynomial(N)
    for k in range(1, m + 1):
        vexp = i + j + 1 - 4 * k
        if right:
            w = [(2 * k - 1, i), (2 * k, j)]
            w2 = [(2 * k, i), (2 * k - 1, j)]
            vexp = -vexp
        else:
            w = [(i, 2 * k - 1), (j, 2 * k)]
            w2 = [(i, 2 * k), (j, 2 * k - 1)]
        coeff = Laurent.v_power(vexp)
        out = out + normal_form(N, w, coeff) - normal_form(N, w2, coeff * L_Q)
    return out


# relation suite on the concrete z polynomials; each instance must expand to 0
_Z_RELATION_NAMES = (
    "skew",               # z[i,j] + q^-1 z[j,i]
    "diagonal_zero",      # z[i,i]
    "shared_row_q",       # z[i,j] z[i,k] - q z[i,k] z[i,j]
    "outer_commute",      # z[i,l] z[j,k] - z[j,k] z[i,l]
    "interlaced_bracket",  # z[i,k] z[j,l] - z[j,l] z[i,k] - (q-q^-1) z[i,l] z[j,k]
    "disjoint_bracket",   # z[i,j] z[k,l] - z[k,l] z[i,j]
    #   - (q-q^-1) z[i,k] z[j,l] + q(q-q^-1) z[i,l] z[j,k]
    "disjoint_bracket_alt",  # same bracket vs q z[j,l] z[i,k] - q^-1 z[i,k] z[j,l]
)


def verify_z_relations(side: str, N: int) -> list:
    """Expand every relation instance through the rewriter; report each."""
    _check_even(N)
    zs = {}

    def z(i, j):
        key = (i, j)
        if key not in zs:
            zs[key] = z_generator(side, i, j, N)
        return zs[key]

    qc = L_Q - L_QINV
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
        entry("skew", (i, j), z(i, j) + z(j, i).scale(L_QINV))
    for i, j, k in combinations(range(1, N + 1), 3):
        entry("shared_row_q", (i, j, k), z(i, j) * z(i, k) - (z(i, k) * z(i, j)).scale(L_Q))
    for i, j, k, l in combinations(range(1, N + 1), 4):
        # the six distinct products of the four relations, each formed once
        il_jk, jk_il = z(i, l) * z(j, k), z(j, k) * z(i, l)
        ik_jl, jl_ik = z(i, k) * z(j, l), z(j, l) * z(i, k)
        bracket = z(i, j) * z(k, l) - z(k, l) * z(i, j)
        entry("outer_commute", (i, j, k, l), il_jk - jk_il)
        entry("interlaced_bracket", (i, j, k, l), ik_jl - jl_ik - il_jk.scale(qc))
        entry("disjoint_bracket", (i, j, k, l),
              bracket - ik_jl.scale(qc) + il_jk.scale(L_Q * qc))
        entry("disjoint_bracket_alt", (i, j, k, l),
              bracket - jl_ik.scale(L_Q) + ik_jl.scale(L_QINV))
    return report


def z_relation_count(N: int) -> int:
    """Number of relation instances verify_z_relations reports for one side:
    one per point, pair and triple, and four per 4-subset."""
    return N + comb(N, 2) + comb(N, 3) + 4 * comb(N, 4)


# ---------------------------------------------------------------------------
# quantum Pfaffian
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


def _word_layout(N: int) -> tuple:
    """(W, E, bias) of a packed word: columns c1..ck in row order and
    v-exponent e are the int sum_i (c_i - 1) << (E + W*(k - i)) + e + bias.

    Every term _pfaffian_sum forms has |e| <= N(2N - 3) = bias.  A pairing
    (i, j) at position pos adds a z-term exponent i + j + 1 - 4k (+ 2) in
    [4 - 2N, 2N - 2], 2*pos for q^pos, and -2, 0 or +-2 for each of the pos
    moves: between 4 - 2N and 2N - 2 + 4*pos.  Over 2s points the s nested
    positions sum to at most (2s - 2) + (2s - 4) + ... = s(s - 1), so with
    s <= N/2, e lies in [-N(N - 2), N(2N - 3)] and e + bias in [0, 2*bias].
    """
    bias = N * (2 * N - 3)
    return (N - 1).bit_length(), (2 * bias).bit_length(), bias


def _move_step(state: dict, d: int, shift: int) -> dict:
    """Move the letter x[j,c] of every word in state past x[r,d], r < j;
    x[r,d] lands on the empty digit at shift.

    state is {c: (offset, {packed word: int})}, each word being key + offset.
    d == c scales by q^-1 and c < d commutes, which only moves the offset;
    c > d also splits off -(q - q^-1) x[r,c] x[j,d].  The new digit tells
    the sources apart, so only the two halves of one split meet on a key.
    The tables of state are shared along the trie and never changed.
    """
    dd = d << shift
    nxt = {c: (off + dd, words) for c, (off, words) in state.items() if c != d}
    own = state.get(d)
    splits = [(off + (c << shift), words) for c, (off, words) in state.items() if c > d]
    if not splits:
        if own:
            nxt[d] = (own[0] + dd - 2, own[1])
        return nxt
    out = {}
    if own:
        off, words = own
        off += dd - 2
        out = {key + off: k for key, k in words.items()}
    get = out.get
    for off, words in splits:
        for key, k in words.items():
            key += off + 2
            out[key] = get(key, 0) - k
            key -= 4
            out[key] = get(key, 0) + k
    nxt[d] = (0, out)
    return nxt


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


def _pfaffian_sum(points: tuple, N: int, zcache: dict, memo: dict) -> dict:
    """Sum over matchings of points of (-q)^len * ordered z-products, as
    {packed word: int} (_word_layout); the rows are the points.

    Every word has one letter per row, so it is normal once its rows are
    sorted.  Pairing the minimal point with the point j at position pos of
    the rest contributes pos inversions, a factor (-q)^pos.  In
    z(head, j) * Pf(rest without j) only the letter x[j,b] of each z-term
    x[head,a] x[j,b] moves, right past the pos lower-row letters; the words
    of Pf(rest without j) are grouped by those pos columns, and all z-terms
    are moved together along the trie of the group prefixes
    (_walk_prefixes).  A front joins a tail by adding the packed ints: the
    front holds the digits above the tail's and an unbiased exponent.
    """
    W, E, bias = _word_layout(N)
    if not points:
        return {bias: 1}
    hit = memo.get(points)
    if hit is not None:
        return hit
    out = {}
    head, rest = points[0], points[1:]
    for pos, j in enumerate(rest):
        zterms = zcache.get((head, j))
        if zterms is None:
            zterms = zcache[(head, j)] = [
                (g1 % N, g2 % N, c)
                for (g1, g2), c in z_generator("L", head, j, N).terms.items()]
        base = E + W * (len(rest) - 1 - pos)
        mask = (1 << base) - 1
        groups = {}
        for key, k in _pfaffian_sum(rest[:pos] + rest[pos + 1:], N, zcache, memo).items():
            groups.setdefault(key >> base, []).append((key & mask, k))
        sign = -1 if pos % 2 else 1
        top = base + W * (pos + 1)
        seed = {}
        for a, b, zc in zterms:
            words = seed.setdefault(b, (0, {}))[1]
            for ze, zk in zc.items():
                key = (a << top) + ze + 2 * pos
                words[key] = words.get(key, 0) + sign * zk
        get = out.get
        for prefix, state in _walk_prefixes(seed, sorted(groups), pos, W, base):
            # the fronts are the words of state, their moving letter c put
            # on the digit at base
            for t, tk in groups[prefix]:
                for c, (off, words) in state.items():
                    off += (c << base) + t
                    for key, k in words.items():
                        key += off
                        out[key] = get(key, 0) + k * tk
        # most words cancel against other pairings of head: drop them as
        # each pairing is added, so the table never holds them all at once
        out = {key: k for key, k in out.items() if k}
    memo[points] = out
    return out


def _row_sorted_polynomial(points: tuple, N: int, words: dict) -> QPolynomial:
    """{packed word: int} over the rows points as a QPolynomial."""
    W, E, bias = _word_layout(N)
    digit, emask = (1 << W) - 1, (1 << E) - 1
    last = len(points) - 1
    letters = [((r - 1) * N, E + W * (last - i)) for i, r in enumerate(points)]
    terms = {}
    for key, k in words.items():
        mono = tuple(row + ((key >> s) & digit) for row, s in letters)
        terms.setdefault(mono, {})[(key & emask) - bias] = k
    return QPolynomial(N, terms)


def _pfaffian_words(r: int, N: int) -> dict:
    """The Pfaffian over matchings of {1..r} as {packed word: int}."""
    return _pfaffian_sum(tuple(range(1, r + 1)), N, {}, {})


def _det_words(N: int) -> dict:
    """quantum_det(N) as {packed word: int} over the rows 1..N.

    Each permutation s is one word, its columns in row order, with
    v-exponent 2 inv(s) and sign (-1)^inv(s), inv(s) read off the Lehmer
    codes as in quantum_minor; the Pfaffian plays no part.  For N >= 2,
    0 <= 2 inv(s) <= N(N - 1) <= bias = N(2N - 3), so the exponent field of
    _word_layout holds it.
    """
    W, E, bias = _word_layout(N)
    shifts = [E + W * (N - i) for i in range(1, N + 1)]
    return {sum(map(lshift, s, shifts)) + bias + 2 * inv: -1 if inv % 2 else 1
            for s, inv in zip(permutations(range(N)), lehmer_inversions(N))}


def pfaffian_equals_det(N: int) -> tuple:
    """Decide Pf(N) = det(N) exactly on packed words: (terms, residual_terms).

    terms counts the normal monomials of Pf(N) (its distinct column words)
    and residual_terms those of Pf(N) - det(N), the column words whose
    exponent -> coefficient maps differ; it is 0 iff Pf(N) = det(N).
    """
    _check_even(N)
    E = _word_layout(N)[1]
    pf, det = _pfaffian_words(N, N), _det_words(N)
    terms = len({key >> E for key in pf})
    if pf == det:
        return terms, 0
    return terms, len({key >> E for key in pf.keys() | det.keys()
                       if pf.get(key) != det.get(key)})


def quantum_pfaffian(N: int) -> QPolynomial:
    _check_even(N)
    return partial_pfaffian(N, N)


def partial_pfaffian(r: int, N: int) -> QPolynomial:
    """Pfaffian over matchings of {1..r} only, r even."""
    if r % 2:
        raise OddSubset(f"subset size {r} must be even")
    _check_even(N)
    if r > N:
        raise IndexOutOfRange("subset exceeds the ambient size")
    return _row_sorted_polynomial(tuple(range(1, r + 1)), N, _pfaffian_words(r, N))


# ---------------------------------------------------------------------------
# invariant sums of paired-column minors
# ---------------------------------------------------------------------------

def paired_indices(subset) -> tuple:
    """{a1 < a2 < ...} -> (2a1-1, 2a1, 2a2-1, 2a2, ...)."""
    out = []
    for a in sorted(subset):
        out.extend((2 * a - 1, 2 * a))
    return tuple(out)


def left_invariant_generator(r: int, N: int) -> QPolynomial:
    """sum_J q^(-2|J|) minor(rows 1..2r; cols paired by J), J an r-subset."""
    m = _check_even(N)
    if not 1 <= r <= m:
        raise IndexOutOfRange(f"generator index must lie in 1..{m}")
    rows = tuple(range(1, 2 * r + 1))
    out = QPolynomial(N)
    for J in combinations(range(1, m + 1), r):
        coeff = Laurent.q_power(-2 * sum(J))
        out = out + quantum_minor(N, rows, paired_indices(J)).scale(coeff)
    return out


def left_invariant_product(lam, N: int) -> QPolynomial:
    """Product of powers of the generators indexed by a doubled partition.

    Each factor and each partial product is held to the size cap before the
    next multiplication, so a seed too large to build is refused early.
    """
    mu = halve_partition(lam)
    m = _check_even(N)
    if len(mu) > m:
        raise IndexOutOfRange("partition is longer than the paired size")
    out = QPolynomial.unit(N)
    mu = tuple(mu) + (0,)
    for r in range(1, len(mu)):
        mult = mu[r - 1] - mu[r]
        if mult:
            gen = left_invariant_generator(r, N)
            check_cap(gen.term_count(), "terms of a left-invariant generator")
        for _ in range(mult):
            out = out * gen
            check_cap(out.term_count(), "terms of a left-invariant product")
    return out


def bi_invariant_generator(r: int, N: int) -> QPolynomial:
    """sum_{I,J} q^(2(|I|-|J|)) minor(rows paired by I; cols paired by J)."""
    m = _check_even(N)
    if not 1 <= r <= m:
        raise IndexOutOfRange(f"generator index must lie in 1..{m}")
    out = QPolynomial(N)
    for I in combinations(range(1, m + 1), r):
        for J in combinations(range(1, m + 1), r):
            coeff = Laurent.q_power(2 * (sum(I) - sum(J)))
            out = out + quantum_minor(N, paired_indices(I), paired_indices(J)).scale(coeff)
    return out


# ---------------------------------------------------------------------------
# restriction maps
# ---------------------------------------------------------------------------

def restrict_H(p: QPolynomial) -> dict:
    """Torus restriction x[i,j] -> delta_ij t_i, as {t-exponents: {v-exponent: int}}."""
    N = p.N
    out = {}
    for mono, c in p.terms.items():
        if any(g // N != g % N for g in mono):
            continue
        exps = [0] * N
        for g in mono:
            exps[g // N] += 1
        _add_scaled(out, {tuple(exps): c})
    return out


def torus_to_s(tpoly: dict, N: int) -> dict:
    """Rewrite a torus polynomial in s_i = t_{2i-1} t_{2i}; raises when a
    monomial does not pair up."""
    m = _check_even(N)
    out = {}
    for exps, c in tpoly.items():
        s = []
        for i in range(m):
            if exps[2 * i] != exps[2 * i + 1]:
                raise ValueError("torus monomial does not descend to s-variables")
            s.append(exps[2 * i])
        out[tuple(s)] = c
    return out


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


# ---------------------------------------------------------------------------
# relative invariants (highest-weight style test)
# ---------------------------------------------------------------------------

G_MOD_B = "G/B+"
B_MOD_G = "B-\\G"


def relative_invariant_check(p: QPolynomial, lam, side: str) -> bool:
    """Weight-and-highest-vector test for the flag-type relative invariants.

    side 'B-\\G': column weight equals lam and the left raising operators
    e_k all kill p; side 'G/B+': row weight equals lam and the right
    operators f_k all kill p.
    """
    N = p.N
    lam = tuple(lam) + (0,) * (N - len(tuple(lam)))
    if side == B_MOD_G:
        if p.column_weight() != lam:
            return False
        return all(act(LEFT, gen_e(N, k), p).is_zero() for k in range(1, N))
    if side == G_MOD_B:
        if p.row_weight() != lam:
            return False
        return all(act(RIGHT, gen_f(N, k), p).is_zero() for k in range(1, N))
    raise ValueError("side must be 'G/B+' or 'B-\\G'")
