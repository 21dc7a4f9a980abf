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
expansions); the z-terms of every pairing of row 1 move together along one
walk of the sub-sum's prefix trie.
Relabeling rows in order maps a sub-sum onto a v-power times the one on the
first rows, so one sub-sum per row count is formed.  Pf = det is decided per
column-pair component: relabeling the pairs in order maps each component
onto one on the first pairs, so one component per composition of N/2 is
formed and counted once per placement.  In the same way each relation of
the suite's one table is decided on its first indices and first two pairs.
"""

from __future__ import annotations

from functools import cache, partial
from itertools import combinations, groupby, permutations
from math import comb, factorial
from operator import itemgetter, lshift

from .cap import check_cap
from .coeff import L_Q, L_QINV, Laurent, _add_scaled
from .partitions import is_partition, trim
from .qmatrix import IndexOutOfRange, QPolynomial, normal_form, quantum_minor
from .uq_action import LEFT, RIGHT, act, gen_e, gen_f


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

def sp_generating_set(N: int) -> list:
    """The 3m - 1 sp-operators that decide sp-invariance at N = 2m: e_a and
    f_a for every odd a, then for 1 <= i < m, with a = 2i-1, c = 2i and
    b = 2i+1, s_i = -e_a e_b e_c - e_c e_b e_a + q^-2 f_c.

    They decide what Noumi's operators (Adv. Math. 123, 1996) decide.  His
    diagonal sp_e(j,j), sp_f(j,j) are e_{2j-1}, f_{2j-1}.  His mixed ones,
    sums of composite root vectors, satisfy sp_X(j,i) = q^{2(j-i)} sp_X(i,j)
    for X = e, f, and expand to sp_e(i,i+1) = e_a e_c e_b - e_a e_b e_c -
    e_c e_b e_a + e_b e_c e_a + q^-2 f_c and sp_f(i,i+1) = e_c + q^-2 (f_b
    f_c f_a - f_c f_b f_a - f_a f_b f_c + f_a f_c f_b).  Let e_a, f_a, e_b,
    f_b kill p: it has alpha_a- and alpha_b-weight 0 (as in
    ``isotypic.operator_kernel``).  A left action applies a word's letters
    right to left, so every word ending in e_a or e_b (f_a or f_b) kills p:
    sp_e(i,i+1).p = -e_a e_b e_c.p + q^-2 f_c.p = s_i.p and sp_f(i,i+1).p
    = e_c.p - q^-2 f_a f_b f_c.p.  w = e_c.p is killed by f_a and f_b,
    which commute with e_c, and has alpha_a- and alpha_b-weight -1, so
    [e_k, f_k] = (K_k - K_k^-1)/(q - q^-1) gives f_a e_a.w = w = f_b e_b.w;
    and e_a commutes with f_b.  Hence sp_f(i,i+1).p = -f_a f_b.(s_i.p).  The
    right action applies letters left to right, and the mirror image gives
    p.sp_e(i,i+1) = -p.e_c e_b e_a + q^-2 p.f_c = p.s_i and p.sp_f(i,i+1) =
    -((p.s_i).f_a).f_b.  Both sets hold every e_a, f_a, a odd: a p they
    kill meets the premise for every i, and a p they do not kill fails
    both.  So every joint kernel and every invariance decision is Noumi's.
    """
    _check_even(N)
    e, f = partial(gen_e, N), partial(gen_f, N)
    diagonal = [g(a) for a in range(1, N, 2) for g in (e, f)]
    return diagonal + [-(e(a) * e(a + 2) * e(a + 1)) - e(a + 1) * e(a + 2) * e(a)
                       + f(a + 1).scale(Laurent.q_power(-2)) for a in range(1, N - 2, 2)]


def invariance_kernel_check(p: QPolynomial, side: str, ops=None) -> bool:
    """True iff every operator in ops kills p.  The default, the generating
    set, decides what Noumi's full sp family decides (sp_generating_set)."""
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
    # each z(i, j) is built once per call: the relations read 8 of them 33 times
    z = cache(partial(_z_terms, right, N=N, pairs=min(m, 2)))
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


# det(N) is checked one block per choice of the columns of its first rows
_PREFIX_ROWS = 3


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


def _pfaffian_sum(size: int, bound: tuple, N: int, memo: dict) -> dict:
    """Sum over matchings of the rows 1..size of (-q)^len * ordered
    z-products, as {packed word: int} (_word_layout).  Only the words that
    use column pair k at most bound[k-1] times are kept.

    Every word has one letter per row, so it is normal once its rows are
    sorted.  Pairing row 1 with row j = t + 2 gives (-q)^t, and in
    z(1, j) * Pf(rest without j) only the x[j,b] of each z-term x[1,a] x[j,b]
    moves, past the t lower-row letters, which are the first t letters of
    the rest's word.  So one depth-first walk of the digit trie of the
    rest's words serves every j: the node at depth t is the seed moved past
    the first t letters, and joins the tails under it for j = t + 2.  Two
    facts make one seed exact for all j.  A move depends only on the two
    columns and on which row is lower (_move_step), here always the moving
    row j, and step t lands on the digit E + W*(size - 2 - t) of row t + 2
    whatever j is.  And by z_generator, z(1, j) = v^(j-2) z(1, 2) with row j
    in place of row 2, so the seed is built from z(1, 2), and the pairing's
    (-q)^t v^(j-2) = (-1)^t v^(3t) goes into the tail's sign and delta.  A
    front joins a tail by adding packed ints (the front holds the higher
    digits and an unbiased exponent); a word whose sum reaches zero is
    deleted there and then.  Moving keeps columns, so a z-term on pair k
    meets the rest's words within bound less one k, clipped; equal
    sub-bounds share a walk.

    Pf(rest without j) is the memoized sum on rows 1..size-2, exponents
    raised by 2*size - 4 - t: x[a,c] -> x[p_a,c], p increasing, is an
    injective algebra map keeping row-sorted words normal (two letters
    relate by which row is lower and how the columns compare, _move_step;
    packed digits are positional), and as z(i,j) = v^(i+j+1) sum_k v^(-4k)
    D_k(i,j), a matching of 2s rows P picks up v^(sum P - s(2s+1)).  With
    the pairing's v^(3t), the tail's delta is 2*size - 4 + 2t.
    """
    W, E, bias = _word_layout(N)
    if not size:
        return {bias: 1}
    hit = memo.get((size, bound))
    if hit is not None:
        return hit
    z12 = z_generator("L", 1, 2, N).terms   # {(x[1,a], x[2,b]): Laurent}
    cap = size // 2 - 1
    shares = {}
    for k, c in enumerate(bound):
        if c:
            sub = tuple(min(b - 1 if i == k else b, cap) for i, b in enumerate(bound))
            shares.setdefault(sub, []).append(k)
    depth = size - 2
    top = E + W * (size - 1)
    digit = (1 << W) - 1
    # per pairing t: the digit of row j, and the tail's delta and sign
    pairings = [(E + W * (depth - t), 2 * size - 4 + 2 * t, -1 if t % 2 else 1)
                for t in range(depth + 1)]
    out = {}
    get = out.get
    for sub, pairs in shares.items():
        rest = _pfaffian_sum(depth, sub, N, memo)
        stack = [{g2 % N: (0, {((g1 % N) << top) + ze: zk for ze, zk in zc.items()})
                  for (g1, g2), zc in z12.items() if g1 % N // 2 in pairs}]
        prev = None
        for key, k in sorted(rest.items()):
            # stack[t] is the seed moved past the first t letters of key;
            # keep the levels shared with the last word
            keep = 0 if prev is None else \
                depth - (((key ^ prev) >> E).bit_length() + W - 1) // W
            del stack[keep + 1:]
            for t in range(keep, depth):
                d = (key >> E + W * (depth - 1 - t)) & digit
                stack.append(_move_step(stack[t], d, E + W * (depth - t)))
            prev = key
            for state, (base, delta, sign) in zip(stack, pairings):
                # the fronts are the words of state, their moving letter c
                # put on the digit of row j at base
                tail = (key & (1 << base) - 1) + delta
                tk = sign * k
                for c, (off, words) in state.items():
                    off += (c << base) + tail
                    for wkey, wk in words.items():
                        wkey += off
                        wk = get(wkey, 0) + wk * tk
                        if wk:
                            out[wkey] = wk
                        else:
                            # a state may hold a zero, so the key may be new
                            out.pop(wkey, None)
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
    return _pfaffian_sum(r, (r // 2,) * (N // 2), N, {})


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
    memo = {}
    return {c: _pfaffian_sum(N, c + (0,) * (m - len(c)), N, memo)
            for c in _compositions(m)}


def _det_blocks(N: int):
    """Yield quantum_det(N) as {packed word: sign} blocks over the rows
    1..N, one block per choice of the columns of the first _PREFIX_ROWS rows.

    Permutation s is the word of its columns in row order, with v-exponent
    2 inv(s) and sign (-1)^inv(s), as in quantum_minor; the Pfaffian plays
    no part.  table(F) is det on the bottom |F| rows over the sorted column
    set F: giving the top one of those rows column F[p] makes p inversions
    with the rows below, so table(F) is the disjoint union over p of
    table(F without F[p]) with F[p] on that row's digit, 2p more in the
    exponent and (-1)^p on the sign.  Each table is kept with both signs.
    A prefix's inversions are those inside it plus one per prefix column c
    and smaller free column; its block is table(free) under the prefix's
    digits, read with the sign of that count.  For N >= 2,
    0 <= 2 inv(s) <= N(N - 1) <= bias = N(2N - 3), so the exponent field
    of _word_layout holds it.
    """
    W, E, bias = _word_layout(N)
    tables = {0: ({0: 1}, {0: -1})}     # column bit set -> (table, -table)

    def table(free: int) -> tuple:
        hit = tables.get(free)
        if hit is None:
            cols = [c for c in range(N) if free >> c & 1]
            shift = E + W * (len(cols) - 1)
            hit = tables[free] = ({}, {})
            for p, c in enumerate(cols):
                top = (c << shift) + 2 * p
                pos, neg = table(free ^ 1 << c)
                if p % 2:
                    pos, neg = neg, pos
                hit[0].update({top + k: sign for k, sign in pos.items()})
                hit[1].update({top + k: sign for k, sign in neg.items()})
        return hit

    rows = min(_PREFIX_ROWS, N)
    shifts = [E + W * (N - i) for i in range(1, rows + 1)]
    full = (1 << N) - 1
    for prefix in permutations(range(N), rows):
        inside = sum(a > b for a, b in combinations(prefix, 2))
        # column c has c smaller columns; over the prefix, those in it count
        # once per pair
        cross = sum(prefix) - comb(rows, 2)
        inv = inside + cross
        pk = sum(map(lshift, prefix, shifts)) + bias + 2 * inv
        free = full ^ sum(1 << c for c in prefix)
        yield {pk + k: sign for k, sign in table(free)[inv % 2].items()}


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

    The all-ones component equals det(N) iff it has N! words and holds each
    block of det(N) with its signs (_det_blocks): the blocks' keys are N!
    distinct words, so its words then have distinct columns.  det(N) is
    built whole, as the union of the blocks, only when that test fails, to
    count the residual.
    """
    m = _check_even(N)
    E = _word_layout(N)[1]
    terms = residual = 0
    for c, words in _canonical_components(N).items():
        count = comb(m, len(c))
        det = {}
        if len(c) == m:
            have = words.items()
            if len(words) == factorial(N) and all(
                    block.items() <= have for block in _det_blocks(N)):
                terms += count * len(words)
                continue
            for block in _det_blocks(N):
                det.update(block)
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

def _paired_minor_sum(r: int, N: int, rows: bool, cols: bool, what: str) -> QPolynomial:
    """sum_{I,J} q^(2(|I|-|J|)) minor(rows paired by I; cols paired by J),
    I, J r-subsets of 1..N/2; I = {} on rows 1..2r when rows is false, and
    likewise J for cols.  Its C(N/2, r)^(rows + cols) (2r)! terms are held to
    the size cap before any minor is formed: a minor has (2r)! distinct normal
    words, and distinct row or column sets meet in no monomial.
    """
    m = _check_even(N)
    if not 1 <= r <= m:
        raise IndexOutOfRange(f"generator index must lie in 1..{m}")
    check_cap(comb(m, r) ** (rows + cols) * factorial(2 * r), f"terms of a {what} generator")
    first = [((), tuple(range(1, 2 * r + 1)))]
    paired = [(S, tuple(i for a in S for i in (2 * a - 1, 2 * a)))
              for S in combinations(range(1, m + 1), r)]
    terms = {}
    for I, row_set in paired if rows else first:
        for J, col_set in paired if cols else first:
            _add_scaled(terms, quantum_minor(N, row_set, col_set).terms,
                        Laurent.q_power(2 * (sum(I) - sum(J))).t)
    return QPolynomial(N, terms)


def left_invariant_generator(r: int, N: int) -> QPolynomial:
    """g_r = sum_J q^(-2|J|) minor(rows 1..2r; cols paired by J)."""
    return _paired_minor_sum(r, N, False, True, "left-invariant")


def right_invariant_generator(r: int, N: int) -> QPolynomial:
    """h_r = sum_I q^(2|I|) minor(rows paired by I; cols 1..2r)."""
    return _paired_minor_sum(r, N, True, False, "right-invariant")


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
    """e_r = sum_{I,J} q^(2(|I|-|J|)) minor(rows paired by I; cols paired by J)."""
    return _paired_minor_sum(r, N, True, True, "bi-invariant")


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
