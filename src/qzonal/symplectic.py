"""Quantum-symplectic invariant theory on an even ambient size N = 2m.

Contents: the sp-operators deforming the symplectic subalgebra, the
quadratic z-generators of the quantum antisymmetric algebra and their
relation suite, the quantum Pfaffian and partial Pfaffians over perfect
matchings, the invariant sums built from paired-column quantum minors, and
the torus restriction maps.

The Pfaffian's matching expansion has one letter per row in every word, so
it is kept as row-sorted column words, packed into ints, and multiplied by
moving one letter through the lower rows with the two-column relations (the
row-sorting action on column tensors behind Noumi's and Jing-Zhang's
expansions); all z-terms of a pairing move together along one prefix trie.
Relabeling rows in order maps a sub-sum onto a v-power times the one on the
first rows, so one sub-sum per row count is formed.  Pf = det is decided per
column-pair component: relabeling the pairs in order maps each component
onto one on the first pairs, so one component per composition of N/2 is
formed and counted once per placement.  In the same way each relation of
the suite's one table is decided on its first indices and first two pairs.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations, groupby, permutations
from math import comb, factorial
from operator import itemgetter, lshift

from .cap import check_cap
from .coeff import L_Q, L_QINV, Laurent, _add_scaled
from .partitions import is_partition, lehmer_inversions, trim
from .qmatrix import IndexOutOfRange, QPolynomial, normal_form, quantum_minor
from .uq_action import LEFT, RIGHT, UqElement, act, composite_E, gen_f

__all__ = [
    "OddAmbient", "OddSubset", "sp_element", "sp_generating_set",
    "sp_full_set", "z_generator", "verify_z_relations", "z_relation_count",
    "quantum_pfaffian", "partial_pfaffian", "pfaffian_equals_det",
    "invariance_kernel_check", "left_invariant_generator",
    "left_invariant_product", "bi_invariant_generator", "paired_indices",
    "restrict_H", "torus_to_s", "relative_invariant_check",
]


class OddAmbient(ValueError):
    """The construction needs an even ambient size.  No verb reaches it:
    `pfaffian`, `verify` and `zonal` refuse an odd N before any construction."""


class OddSubset(ValueError):
    """Pfaffians are indexed by even-size subsets.  No verb reaches it: `verify`
    forms the partial Pfaffian of r = 2, and `pfaffian` that of r = N, even."""


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
    raise ValueError("kind must be 'e' or 'f'")


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

def _side_is_right(side) -> bool:
    if side in ("R", RIGHT):
        return True
    if side in ("L", LEFT):
        return False
    raise ValueError(f"side must be 'L', 'R', {LEFT!r} or {RIGHT!r}, not {side!r}")


def _z_terms(right: bool, i: int, j: int, N: int, pairs: int) -> QPolynomial:
    """The terms of z(i,j) on the column (right: row) pairs 1..pairs."""
    out = QPolynomial(N)
    for k in range(1, pairs + 1):
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


def z_generator(side: str, i: int, j: int, N: int) -> QPolynomial:
    """Degree-2 antisymmetric generators built from paired-column 2-minors.

    side 'L': sum_k v^(i+j+1-4k) (x[i,2k-1] x[j,2k] - q x[i,2k] x[j,2k-1])
    side 'R': sum_k v^-(i+j+1-4k) (x[2k-1,i] x[2k,j] - q x[2k,i] x[2k-1,j])

    with k running over the column (row) pairs 1..N/2: z(i,j) =
    v^(i+j+1) sum_k v^(-4k) D_k(i,j), D_k the 2-minor on pair k.
    verify_z_relations builds the same terms on pairs 1..2 only.
    """
    m = _check_even(N)
    right = _side_is_right(side)
    if not (1 <= i <= N and 1 <= j <= N):
        raise IndexOutOfRange(f"z indices must lie in 1..{N}")
    return _z_terms(right, i, j, N, m)


# the relation suite: (name, arity, residual on indices i < j < ...), in the
# order verify_z_relations reports them; every instance must expand to 0.
# L_QINV is read when a residual is formed.
_Z_RELATIONS = (
    ("diagonal_zero", 1, lambda z, i: z(i, i)),
    ("skew", 2, lambda z, i, j: z(i, j) + z(j, i).scale(L_QINV)),
    ("shared_row_q", 3, lambda z, i, j, k:
        z(i, j) * z(i, k) - (z(i, k) * z(i, j)).scale(L_Q)),
    ("outer_commute", 4, lambda z, i, j, k, l:
        z(i, l) * z(j, k) - z(j, k) * z(i, l)),
    ("interlaced_bracket", 4, lambda z, i, j, k, l:
        z(i, k) * z(j, l) - z(j, l) * z(i, k) - (z(i, l) * z(j, k)).scale(L_Q - L_QINV)),
    ("disjoint_bracket", 4, lambda z, i, j, k, l:
        z(i, j) * z(k, l) - z(k, l) * z(i, j) - (z(i, k) * z(j, l)).scale(L_Q - L_QINV)
        + (z(i, l) * z(j, k)).scale(L_Q * (L_Q - L_QINV))),
    ("disjoint_bracket_alt", 4, lambda z, i, j, k, l:
        z(i, j) * z(k, l) - z(k, l) * z(i, j) - (z(j, l) * z(i, k)).scale(L_Q)
        + (z(i, k) * z(j, l)).scale(L_QINV)),
)


def _residual_terms(residual: QPolynomial, right: bool, m: int) -> int:
    """Term count of an instance's residual over all m pairs, from its
    residual on pairs 1..2: m T{1} + C(m,2) T{1,2} (see verify_z_relations)."""
    N = residual.N
    alone = both = 0
    for mono in residual.terms:
        used = {(g // N if right else g % N) // 2 for g in mono}
        if used == {0}:
            alone += 1
        elif len(used) == 2:
            both += 1
    return m * alone + comb(m, 2) * both


def verify_z_relations(side: str, N: int) -> list:
    """Decide every relation instance exactly; report each with the term
    count of its residual in the full ring.

    One residual per relation, on the indices 1..arity, decides all its
    instances.  By z_generator, z(i,j) = v^(i+j+1) sum_k v^(-4k) D_k(i,j),
    D_k the 2-minor on column pair k, and every term of an instance has the
    same index sum.  Sending the rows 1..arity in order to the instance's
    i < j < ... (columns, on the right side) is an injective algebra map
    that keeps monomials normal and sends D_k(a,b) to D_k on the image
    rows, so the instance's residual is a power of v times the image of the
    first one, with as many terms.

    The z's are built on the column (right: row) pairs 1..min(m, 2) only,
    m = N/2.  Straightening keeps column weight, so a residual splits into
    one component per multiset {k, k'} of pairs its words use, the same
    combination of D_k D_k' and D_k' D_k, times v^(-4(k+k'-3)), as its
    {1,2} component is of D_1 D_2 and D_2 D_1 (likewise {k,k} against
    {1,1}, and single pairs in degree 1).  Sending the columns 1..4 in order
    to 2k-1, 2k, 2k'-1, 2k' is again such a map, so the full residual has
    m T{1} + C(m,2) T{1,2} terms, T{1} counting the words on pair 1 only
    and T{1,2} those on both pairs 1 and 2; it is zero iff that count is.
    The right side exchanges rows and columns and negates the v-powers.
    """
    m = _check_even(N)
    right = _side_is_right(side)
    z = partial(_z_terms, right, N=N, pairs=min(m, 2))
    report = []
    for arity, relations in groupby(_Z_RELATIONS, key=itemgetter(1)):
        if arity > N:
            break
        counts = [(name, _residual_terms(residual(z, *range(1, arity + 1)), right, m))
                  for name, _, residual in relations]
        report.extend({"relation": name, "indices": list(idx),
                       "pass": terms == 0, "residual_terms": terms}
                      for idx in combinations(range(1, N + 1), arity)
                      for name, terms in counts)
    return report


def z_relation_count(N: int) -> int:
    """Number of relation instances verify_z_relations reports for one side."""
    return sum(comb(N, arity) for _, arity, _ in _Z_RELATIONS)


# ---------------------------------------------------------------------------
# quantum Pfaffian
# ---------------------------------------------------------------------------

def _word_layout(N: int) -> tuple:
    """(W, E, bias) of a packed word: columns c1..ck in row order and
    v-exponent e are the int sum_i (c_i - 1) << (E + W*(k - i)) + e + bias.

    Every matching sum on 2s rows in 1..N, as _pfaffian_sum forms (rows
    1..2s) or shifts (other rows), has |e| <= N(2N - 3) = bias.  A pairing
    (i, j) at position pos adds a z-term exponent i + j + 1 - 4k (+ 2) in
    [4 - 2N, 2N - 2], 2*pos for q^pos, and -2, 0 or +-2 for each of the pos
    moves: between 4 - 2N and 2N - 2 + 4*pos.  The s nested positions sum
    to at most s(s - 1), so e lies in [-N(N - 2), N(2N - 3)] for s <= N/2.
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


def _pfaffian_sum(size: int, bound: tuple, N: int, zcache: dict, memo: dict) -> dict:
    """Sum over matchings of the rows 1..size of (-q)^len * ordered
    z-products, as {packed word: int} (_word_layout).  Only the words that
    use column pair k at most bound[k-1] times are kept.

    Every word has one letter per row, so it is normal once its rows are
    sorted.  Pairing row 1 with row j = pos + 2 gives (-q)^pos, and in
    z(1, j) * Pf(rest without j) only the x[j,b] of each z-term x[1,a] x[j,b]
    moves, past the pos lower-row letters: the rest's words are grouped by
    those pos columns, and all z-terms move along the trie of the group
    prefixes (_walk_prefixes).  A front joins a tail by adding packed ints
    (the front holds the higher digits and an unbiased exponent).  Moving
    keeps columns, so a z-term on pair k meets the rest's words within bound
    less one k, clipped; equal sub-bounds share a walk.

    Pf(rest without j) is the memoized sum on rows 1..size-2, exponents
    raised by delta = 2*size - 4 - pos: x[a,c] -> x[p_a,c], p increasing, is
    an injective algebra map keeping row-sorted words normal (two letters
    relate by which row is lower and how the columns compare, _move_step;
    packed digits are positional), and as z(i,j) = v^(i+j+1) sum_k v^(-4k)
    D_k(i,j), a matching of 2s rows P picks up v^(sum P - s(2s+1)): delta.
    """
    W, E, bias = _word_layout(N)
    if not size:
        return {bias: 1}
    hit = memo.get((size, bound))
    if hit is not None:
        return hit
    out = {}
    cap = size // 2 - 1
    shares = {}
    for k, c in enumerate(bound):
        if c:
            sub = tuple(min(b - 1 if i == k else b, cap) for i, b in enumerate(bound))
            shares.setdefault(sub, []).append(k)
    for pos, j in enumerate(range(2, size + 1)):
        zterms = zcache.get(j)
        if zterms is None:
            zterms = zcache[j] = [[] for _ in bound]
            for (g1, g2), c in z_generator("L", 1, j, N).terms.items():
                zterms[g1 % N // 2].append((g1 % N, g2 % N, c))
        base = E + W * (size - 2 - pos)
        mask = (1 << base) - 1
        delta = 2 * size - 4 - pos
        sign = -1 if pos % 2 else 1
        top = base + W * (pos + 1)
        for sub, pairs in shares.items():
            groups = {}
            for key, k in _pfaffian_sum(size - 2, sub, N, zcache, memo).items():
                groups.setdefault(key >> base, []).append(((key & mask) + delta, k))
            seed = {}
            for a, b, zc in (t for k in pairs for t in zterms[k]):
                words = seed.setdefault(b, (0, {}))[1]
                for ze, zk in zc.items():
                    key = (a << top) + ze + 2 * pos
                    words[key] = words.get(key, 0) + sign * zk
            get = out.get
            for prefix, state in _walk_prefixes(seed, sorted(groups), pos, W, base):
                # the fronts are the words of state, their moving letter c
                # put on the digit at base
                for t, tk in groups[prefix]:
                    for c, (off, words) in state.items():
                        off += (c << base) + t
                        for key, k in words.items():
                            key += off
                            out[key] = get(key, 0) + k * tk
        # most words cancel against other pairings of row 1: drop them as
        # each pairing is added, so the table never holds them all at once
        out = {key: k for key, k in out.items() if k}
    memo[(size, bound)] = out
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
    return _pfaffian_sum(r, (r // 2,) * (N // 2), N, {}, {})


def _compositions(m: int):
    """The compositions of m: tuples of positive parts summing to m."""
    if not m:
        yield ()
    for first in range(1, m + 1):
        yield from ((first,) + tail for tail in _compositions(m - first))


def _canonical_components(N: int) -> dict:
    """{c: the words of Pf(N) that use column pair i exactly c[i-1] times}
    for every composition c of N/2, on one call-local memo."""
    m = N // 2
    zcache, memo = {}, {}
    return {c: _pfaffian_sum(N, c + (0,) * (m - len(c)), N, zcache, memo)
            for c in _compositions(m)}


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

    Moving keeps the columns of a word, so Pf(N) splits into components C_M,
    M the multiset of the m = N/2 column pairs its z-terms use.  Sending the
    columns of pairs 1..s in order to those of the s pairs in M is an
    injective algebra map that keeps words normal, and prod v^(-4k) is one
    power of v on C_M, so C_M is a v-power times the image of the component
    with M's multiplicities in order on pairs 1..s, with as many terms.  Only
    these are formed, one per composition c of m, each standing for the
    C(m, len(c)) ways to place its pairs.  A word of det(N) uses every pair
    once, so det(N) is compared with the all-ones component; any other
    component is residual as a whole.
    """
    m = _check_even(N)
    E = _word_layout(N)[1]
    terms = residual = 0
    for c, words in _canonical_components(N).items():
        det = _det_words(N) if len(c) == m else {}
        count = comb(m, len(c))
        terms += count * len({key >> E for key in words})
        if words != det:
            residual += count * len({key >> E for key in words.keys() | det.keys()
                                     if words.get(key) != det.get(key)})
    return terms, residual


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
    """sum_J q^(-2|J|) minor(rows 1..2r; cols paired by J), J an r-subset.

    Its term count is C(N/2, r) (2r)!, held to the size cap before any minor
    is formed: a minor has (2r)! distinct normal words, and distinct column
    sets J give disjoint monomials, so no two terms meet.
    """
    m = _check_even(N)
    if not 1 <= r <= m:
        raise IndexOutOfRange(f"generator index must lie in 1..{m}")
    check_cap(comb(m, r) * factorial(2 * r), "terms of a left-invariant generator")
    rows = tuple(range(1, 2 * r + 1))
    out = QPolynomial(N)
    for J in combinations(range(1, m + 1), r):
        coeff = Laurent.q_power(-2 * sum(J))
        out = out + quantum_minor(N, rows, paired_indices(J)).scale(coeff)
    return out


def left_invariant_product(mu, N: int) -> QPolynomial:
    """prod_r g_r^(mu_r - mu_(r+1)), g_r the left-invariant generators: the
    seed of row weight 2mu.

    Each partial product is held to the size cap before the next
    multiplication, so a seed too large to build is refused early.
    """
    mu = trim(mu)
    if not is_partition(mu):
        raise ValueError(f"{mu} is not a partition")
    m = _check_even(N)
    if len(mu) > m:
        raise IndexOutOfRange("partition is longer than the paired size")
    out = QPolynomial.unit(N)
    mu = mu + (0,)
    for r in range(1, len(mu)):
        mult = mu[r - 1] - mu[r]
        if mult:
            gen = left_invariant_generator(r, N)
        for _ in range(mult):
            out = out * gen
            check_cap(out.term_count(), "terms of a left-invariant product")
    return out


def bi_invariant_generator(r: int, N: int) -> QPolynomial:
    """sum_{I,J} q^(2(|I|-|J|)) minor(rows paired by I; cols paired by J).

    Its term count is C(N/2, r)^2 (2r)!, held to the size cap before any
    minor is formed, by the argument of ``left_invariant_generator`` on row
    and column sets.
    """
    m = _check_even(N)
    if not 1 <= r <= m:
        raise IndexOutOfRange(f"generator index must lie in 1..{m}")
    check_cap(comb(m, r) ** 2 * factorial(2 * r), "terms of a bi-invariant generator")
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


# ---------------------------------------------------------------------------
# relative invariants (highest-weight style test)
# ---------------------------------------------------------------------------

def relative_invariant_check(p: QPolynomial, lam) -> bool:
    """Weight-and-highest-vector test for the G/B+ relative invariants: the
    row weight equals lam and the right operators f_k all kill p."""
    N = p.N
    lam = tuple(lam) + (0,) * (N - len(tuple(lam)))
    if p.row_weight() != lam:
        return False
    return all(act(RIGHT, gen_f(N, k), p).is_zero() for k in range(1, N))
