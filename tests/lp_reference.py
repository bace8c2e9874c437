"""The explicit adversary LP over all point pairs, with full triangle rows.

`ordmatch.distortion` solves a projected LP over the agent-item distances
only; this unprojected form is the reference the tests compare it against.
Solve it with `solve_lp(*lp, pivot_rule="bland")`.
"""
import itertools
from fractions import Fraction

from ordmatch._simplex import EQUAL, LESS
from ordmatch.core import FractionalMatching, Instance, Matching, Metric


def point_pairs(n: int) -> list[tuple[int, int]]:
    """The LP's variables: unordered pairs of the 2n points, in column order."""
    return list(itertools.combinations(range(2 * n), 2))


def adversary_lp(inst: Instance, p: FractionalMatching, m_star: Matching):
    """(objective, rows, senses, rhs): maximize p's cost over all metrics
    consistent with the instance, normalized by cost(m_star) = 1.  The rows
    are the triangle inequalities for all triples, the per-agent ordinal
    chains, and last the normalization.
    """
    n = inst.n
    idx = {pq: t for t, pq in enumerate(point_pairs(n))}
    nv = len(idx)

    def var(x: int, y: int) -> int:
        return idx[(x, y) if x < y else (y, x)]

    rows = []
    for x, y, z in itertools.combinations(range(2 * n), 3):
        for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
            row = [0] * nv
            row[var(a, b)] += 1
            row[var(a, c)] -= 1
            row[var(c, b)] -= 1
            rows.append(row)
    for i in range(n):
        prefs = inst.prefs[i]
        for k in range(n - 1):
            row = [0] * nv
            row[var(i, n + prefs[k])] += 1
            row[var(i, n + prefs[k + 1])] -= 1
            rows.append(row)
    norm = [0] * nv
    for i, j in m_star.assign.items():
        norm[var(i, n + j)] += 1
    rows.append(norm)

    objective = [Fraction(0)] * nv
    for i in range(n):
        for j in range(n):
            objective[var(i, n + j)] += p.p[i][j]
    senses = [LESS] * (len(rows) - 1) + [EQUAL]
    rhs = [0] * (len(rows) - 1) + [1]
    return objective, rows, senses, rhs


def metric_from_lp_point(n: int, x) -> Metric:
    """Rebuild the full metric from an adversary-LP point and verify it."""
    m = 2 * n
    rows = [[Fraction(0)] * m for _ in range(m)]
    for (a, b), v in zip(point_pairs(n), x):
        rows[a][b] = rows[b][a] = Fraction(v)
    metric = Metric(n, tuple(tuple(r) for r in rows))
    metric.check_triangle()
    return metric
