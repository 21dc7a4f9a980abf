"""Slow reference paths that the engine no longer runs, kept for tests.

Each one is the direct computation a faster engine path replaced, or a
helper only tests call; tests compare the engine with them at sizes where
both run.
"""

from itertools import combinations

from qzonal.coeff import L_Q, L_QINV
from qzonal.partitions import inversions
from qzonal.symplectic import OddSubset, z_generator


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
