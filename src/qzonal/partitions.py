"""Partition combinatorics shared by the invariant and symmetric-function sides."""

from __future__ import annotations


def is_partition(lam) -> bool:
    lam = tuple(lam)
    return all(a >= b for a, b in zip(lam, lam[1:])) and all(a >= 0 for a in lam)


def trim(lam) -> tuple:
    """Drop trailing zero parts."""
    lam = tuple(lam)
    while lam and lam[-1] == 0:
        lam = lam[:-1]
    return lam


def pad(lam, n: int) -> tuple:
    """The first n parts of lam, padded with zeros to length n."""
    return (tuple(lam) + (0,) * n)[:n]


def partitions(d: int, max_parts: int) -> tuple:
    """All partitions of d with at most max_parts parts, largest-first order."""
    out = []

    def rec(rest, bound, acc):
        if rest == 0:
            out.append(tuple(acc))
            return
        if len(acc) == max_parts:
            return
        for part in range(min(rest, bound), 0, -1):
            acc.append(part)
            rec(rest - part, part, acc)
            acc.pop()

    rec(d, d, [])
    return tuple(out)


def count_partitions(d: int, max_parts: int, up_to: bool = False) -> int:
    """p(d, <= max_parts parts), counted as the partitions into parts <= max_parts.
    With up_to, the partitions of 0..d: a second kind of part 1 pads each to d."""
    ways = [1] + [0] * d
    for part in ([1] if up_to else []) + list(range(1, min(d, max_parts) + 1)):
        for s in range(part, d + 1):
            ways[s] += ways[s - part]
    return ways[d]


def dominance_le(mu, lam) -> bool:
    """mu <= lam in dominance order (same size assumed)."""
    mu, lam = trim(mu), trim(lam)
    if sum(mu) != sum(lam):
        return False
    pm = pl = 0
    for i in range(max(len(mu), len(lam))):
        pm += mu[i] if i < len(mu) else 0
        pl += lam[i] if i < len(lam) else 0
        if pm > pl:
            return False
    return True


def dominance_lt(mu, lam) -> bool:
    return trim(mu) != trim(lam) and dominance_le(mu, lam)


def double_partition(mu) -> tuple:
    """(m1, m2, ...) -> (m1, m1, m2, m2, ...)."""
    out = []
    for part in trim(mu):
        out.extend((part, part))
    return tuple(out)


def lehmer_inversions(r: int) -> list:
    """inv(s) for the permutations s of r letters, in lexicographic order
    (the order of itertools.permutations).

    The letter a row takes, at position p among those still free, makes p
    inversions with the later rows: inv(s) is the digit sum of the Lehmer
    code of s, which for the n-th permutation is n in the factorial base.
    """
    invs = [0]
    for base in range(2, r + 1):
        invs = [p + inv for p in range(base) for inv in invs]
    return invs
