"""Thin-matching machinery: exact cut-by-cut thinness reports, the Hall
1/n^2 rounding of doubly stochastic matrices and the derandomized RSD built
on it, Birkhoff-von-Neumann decomposition, the alternating-cycle family on
which decompositions concentrate badly, and exhaustive search for thin
perfect matchings.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .core import (
    FractionalMatching,
    Instance,
    InvalidInputError,
    Matching,
    Metric,
    as_fraction,
)
from .mechanisms import exact_rsd_marginals, monte_carlo_marginals

INFINITE = math.inf


# ---------------------------------------------------------------------------
# bipartite matching on a 0/1 support graph (Kuhn augmenting paths)
# ---------------------------------------------------------------------------


def _max_bipartite(adj: Sequence[Sequence[int]], n: int) -> list[int]:
    """Maximum matching of the len(adj) agents into n items; adj[a] lists
    items in the deterministic try order.  Returns item->agent (or -1),
    scanning agents in ascending order.
    """
    agent_of_item = [-1] * n

    def augment(a: int, seen: list[bool]) -> bool:
        for j in adj[a]:
            if not seen[j]:
                seen[j] = True
                if agent_of_item[j] < 0 or augment(agent_of_item[j], seen):
                    agent_of_item[j] = a
                    return True
        return False

    for a in range(len(adj)):
        augment(a, [False] * n)
    return agent_of_item


# ---------------------------------------------------------------------------
# thinness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThinnessReport:
    """The worst cut ratio |M across S| / p-weight across S, with a witness.

    beta is +inf exactly when some cut carries matching edges but no
    fractional weight; 0/0 cuts are excluded from the ratio.
    """

    beta: Union[Fraction, float]
    witness_cut: frozenset[int]


def _cut_edges(
    p: FractionalMatching, matching: Matching
) -> list[tuple[int, int, Fraction, int]]:
    """Edges as (point, point, p-weight, matching multiplicity)."""
    n = p.n
    edges = {}
    for i in range(n):
        for j in range(n):
            if p.p[i][j]:
                edges[(i, n + j)] = [p.p[i][j], 0]
    for i, j in matching.assign.items():
        key = (i, n + j)
        if key in edges:
            edges[key][1] = 1
        else:
            edges[key] = [Fraction(0), 1]
    return [(x, y, w, m) for (x, y), (w, m) in sorted(edges.items())]


def _components(n_points: int, edges) -> list[list[int]]:
    parent = list(range(n_points))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y, w, m in edges:
        if w or m:
            parent[find(x)] = find(y)
    groups: dict[int, list[int]] = {}
    for x in range(n_points):
        groups.setdefault(find(x), []).append(x)
    return [sorted(g) for g in sorted(groups.values())]


def _cut_sums(members: Sequence[int], edges):
    """Yield (mask, p-weight, matching count) across each of the
    2^(|members|-1) cuts of one vertex set; edges are local to it.
    """
    pos = {v: t for t, v in enumerate(members)}
    local = [(pos[x], pos[y], w, m) for x, y, w, m in edges]
    for mask in range(1, 1 << (len(members) - 1)):
        weight = Fraction(0)
        count = 0
        for x, y, w, m in local:
            if (mask >> x & 1) != (mask >> y & 1):
                weight += w
                count += m
        yield mask, weight, count


def _best_cut_over_masks(members: list[int], edges) -> tuple:
    """The worst cut of one vertex set as (beta, witness_set), with beta None
    when every cut was 0/0.
    """

    def cut(mask: int) -> frozenset[int]:
        return frozenset(v for t, v in enumerate(members) if mask >> t & 1)

    best = None
    for mask, weight, count in _cut_sums(members, edges):
        if not weight:
            if count:
                return INFINITE, cut(mask)
            continue
        if best is None or count * best[1] > best[0] * weight:
            best = (count, weight, mask)
    if best is None:
        return None, frozenset()
    return Fraction(best[0]) / best[1], cut(best[2])


def thinness(
    p: FractionalMatching, matching: Matching, cap: int = 24
) -> ThinnessReport:
    """Exact maximum cut ratio of a matching against a fractional matching.

    When the matching's support sits inside the support of p, only cuts that
    split a single connected component of the support matter, which keeps the
    enumeration tractable; otherwise all 2^(2n-1) cuts are scanned up to the
    cap.
    """
    n = p.n
    if not matching.is_perfect(n):
        raise InvalidInputError("thinness needs a perfect matching")
    edges = _cut_edges(p, matching)
    inside = all(w > 0 for _, _, w, m in edges if m)
    if inside:
        best = None
        witness = frozenset()
        for comp in _components(2 * n, edges):
            if len(comp) < 2:
                continue
            comp_set = set(comp)
            comp_edges = [e for e in edges if e[0] in comp_set]
            beta, cut = _best_cut_over_masks(comp, comp_edges)
            if beta is None:
                continue
            if best is None or beta > best:
                best, witness = beta, cut
        return ThinnessReport(beta=best, witness_cut=witness)
    if 2 * n > cap:
        raise InvalidInputError(
            f"2n={2 * n} exceeds the cut-enumeration cap {cap} and the matching "
            "support is not inside the fractional support"
        )
    beta, cut = _best_cut_over_masks(list(range(2 * n)), edges)
    return ThinnessReport(beta=beta, witness_cut=cut)


def cut_ratio(
    p: FractionalMatching, matching: Matching, cut: frozenset[int]
) -> Union[Fraction, float]:
    """|M across the cut| / p-weight across the cut (inf on zero weight)."""
    n = p.n
    weight = Fraction(0)
    count = 0
    for i in range(n):
        for j in range(n):
            if (i in cut) != (n + j in cut):
                weight += p.p[i][j]
                if matching.assign.get(i) == j:
                    count += 1
    if weight == 0:
        return INFINITE if count else Fraction(0)
    return Fraction(count) / weight


def cut_metric(n: int, cut: frozenset[int]) -> Metric:
    """The pseudo-metric that charges 1 across the cut and 0 within."""
    rows = tuple(
        tuple(Fraction(int((x in cut) != (y in cut))) for y in range(2 * n))
        for x in range(2 * n)
    )
    return Metric(n, rows)


# ---------------------------------------------------------------------------
# Hall rounding and derandomized RSD
# ---------------------------------------------------------------------------


def hall_round(p: FractionalMatching) -> Matching:
    """A perfect matching on the edges with p >= 1/n^2.

    For doubly stochastic p the threshold subgraph always satisfies Hall's
    condition, and any such matching costs at most n^2 times the fractional
    cost on every metric.
    """
    if not p.is_doubly_stochastic():
        raise InvalidInputError("hall_round needs a doubly stochastic matching")
    n = p.n
    threshold = Fraction(1, n * n)
    adj = [[j for j in range(n) if p.p[i][j] >= threshold] for i in range(n)]
    agent_of_item = _max_bipartite(adj, n)
    if any(a < 0 for a in agent_of_item):
        raise RuntimeError("threshold subgraph lost Hall's condition")
    return Matching({a: j for j, a in enumerate(agent_of_item)})


def derandomized_rsd(
    inst: Instance,
    exact_cap: int = 8,
    trials: int = 20000,
    seed: int = 0,
) -> Matching:
    """Hall-round the RSD match probabilities: exact marginals up to the cap,
    Monte-Carlo marginals beyond it.
    """
    if inst.n <= exact_cap:
        marginals = exact_rsd_marginals(inst, inst.n, cap=exact_cap)
    else:
        marginals = monte_carlo_marginals(inst, inst.n, trials, seed)
    return hall_round(marginals)


# ---------------------------------------------------------------------------
# Birkhoff-von-Neumann decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BvnDecomposition:
    n: int
    terms: tuple[tuple[Fraction, Matching], ...]

    def reassemble(self) -> FractionalMatching:
        rows = [[Fraction(0)] * self.n for _ in range(self.n)]
        for w, m in self.terms:
            for i, j in m.assign.items():
                rows[i][j] += w
        return FractionalMatching(self.n, tuple(tuple(r) for r in rows))


def bvn_decompose(p: FractionalMatching) -> BvnDecomposition:
    """Write a doubly stochastic matrix as an exact convex combination of
    permutation matchings.  Each step extracts the lexicographically smallest
    perfect matching in the remaining support with the minimum entry on it as
    weight, so the decomposition is deterministic.
    """
    if not p.is_doubly_stochastic():
        raise InvalidInputError("bvn_decompose needs a doubly stochastic matrix")
    n = p.n
    residual = [list(row) for row in p.p]
    terms = []
    while any(v for row in residual for v in row):
        perm = _lex_min_perfect(residual, n)
        weight = min(residual[i][perm[i]] for i in range(n))
        terms.append((weight, Matching.from_permutation(perm)))
        for i in range(n):
            residual[i][perm[i]] -= weight
        if len(terms) > n * n:
            raise RuntimeError("decomposition exceeded n^2 terms")
    return BvnDecomposition(n=n, terms=tuple(terms))


def _lex_min_perfect(residual: Sequence[Sequence[Fraction]], n: int) -> list[int]:
    """Lexicographically smallest perfect matching in the positive support."""
    fixed = [-1] * n
    used = [False] * n
    for a in range(n):
        for j in range(n):
            if used[j] or residual[a][j] <= 0:
                continue
            used[j] = True
            fixed[a] = j
            adj = [
                [t for t in range(n) if not used[t] and residual[b][t] > 0]
                for b in range(a + 1, n)
            ]
            if sum(b >= 0 for b in _max_bipartite(adj, n)) == len(adj):
                break
            used[j] = False
            fixed[a] = -1
        if fixed[a] < 0:
            raise RuntimeError("support lost its perfect matching")
    return fixed


# ---------------------------------------------------------------------------
# alternating-cycle counterexamples
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CycleCounterexample:
    """A disjoint union of `copies` cycles of length 4k whose edge weights
    alternate q and 1-q.  Odd cycle positions are agents, even positions are
    items; `q_matching` is the matching on the q-weighted edges and each
    distinguished cut crosses exactly those edges, so its ratio against
    q_matching is exactly 1/q.
    """

    k: int
    q: Fraction
    copies: int
    p: FractionalMatching
    cuts: tuple[frozenset[int], ...]
    q_matching: Matching
    alt_matching: Matching

    def q_side_sample_probability(self) -> Fraction:
        """Chance that independent per-component sampling from the unique
        two-term decomposition picks the q side somewhere: 1 - (1-q)^copies.
        """
        return 1 - (1 - self.q) ** self.copies


def cycle_counterexample(
    k: int, q: Fraction | int | str, copies: int = 1
) -> CycleCounterexample:
    q = as_fraction(q)
    if k < 1 or copies < 1:
        raise InvalidInputError("need k >= 1 and copies >= 1")
    if not 0 < q < 1:
        raise InvalidInputError("need 0 < q < 1")
    n = 2 * k * copies
    rows = [[Fraction(0)] * n for _ in range(n)]
    q_assign = {}
    alt_assign = {}
    cuts = []
    for c in range(copies):
        base = c * 2 * k
        for t in range(2 * k):
            rows[base + t][base + t] = q
            rows[base + (t + 1) % (2 * k)][base + t] = 1 - q
            q_assign[base + t] = base + t
            alt_assign[base + (t + 1) % (2 * k)] = base + t
        cuts.append(
            frozenset(
                [base + 2 * i + 1 for i in range(k)]
                + [n + base + 2 * i for i in range(k)]
            )
        )
    return CycleCounterexample(
        k=k,
        q=q,
        copies=copies,
        p=FractionalMatching(n, tuple(tuple(r) for r in rows)),
        cuts=tuple(cuts),
        q_matching=Matching(q_assign),
        alt_matching=Matching(alt_assign),
    )


# ---------------------------------------------------------------------------
# exhaustive thin search
# ---------------------------------------------------------------------------


def thin_search(
    p: FractionalMatching, beta: Fraction | int | str, cap: int = 5
) -> Optional[Matching]:
    """Lexicographically first perfect matching that is beta-thin against p,
    or None.  Exhaustive over n! matchings and all cuts; n is capped.
    """
    beta = as_fraction(beta)
    n = p.n
    if n > cap:
        raise InvalidInputError(f"n={n} exceeds the thin-search cap {cap}")
    for perm in itertools.permutations(range(n)):
        matching = Matching.from_permutation(perm)
        sums = _cut_sums(range(2 * n), _cut_edges(p, matching))
        if all(count <= beta * weight for _, weight, count in sums):
            return matching
    return None
