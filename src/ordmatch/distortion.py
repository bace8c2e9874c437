"""Exact distortion evaluation.

`min_cost_matching` is an exact Hungarian solver.  `adversarial_distortion`
maximizes cost(M)/cost(OPT) over every metric consistent with the preference
profile: one exact LP per candidate optimal matching M* (normalized to
cost(M*) = 1), after a combinatorial probe for the infinite case (a
consistent metric with cost(OPT) = 0 but positive mechanism cost).

The LPs run over the agent-item distances only; a bipartite distance matrix
extends to a metric on all 2n points exactly when every entry is at most any
3-edge detour (d(a,b) <= d(a,b') + d(a',b') + d(a',b)), and the witness
metric is recovered by shortest-path completion.  These detour rows are
generated lazily.  All rows are integer lists built once per call (the
target's weights scaled by one common denominator), so the simplex takes
them as they are.  Most candidates M* need no LP at all: the optimal dual of
an earlier LP of the same call is an exact certificate that M*'s value
cannot beat the incumbent, checked in integers.  `DistortionReport.stats`
counts candidates, LPs, prunes, detour rows and pivots.  A matching enters
as its 0/1 indicator matrix, and every report, finite or infinite, is
re-checked on its witness.  The reference LP over all point pairs with full
triangle rows, which the tests compare against, is `tests/lp_reference.py`.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from ._simplex import EQUAL, LESS, solve_lp
from .core import (
    FractionalMatching,
    Instance,
    InvalidInputError,
    Matching,
    Metric,
    consistent,
    cost,
    fractional_cost,
)

INFINITE = math.inf


# ---------------------------------------------------------------------------
# minimum-cost matching
# ---------------------------------------------------------------------------


def _hungarian(costs: Sequence[Sequence[int]]) -> list[int]:
    """O(n^3) minimum-cost assignment on integer costs."""
    n = len(costs)
    INF = math.inf
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    p = [0] * (n + 1)
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [INF] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = INF
            j1 = -1
            row = costs[i0 - 1]
            for j in range(1, n + 1):
                if not used[j]:
                    cur = row[j - 1] - u[i0] - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if minv[j] < delta:
                        delta = minv[j]
                        j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    assign = [0] * n
    for j in range(1, n + 1):
        if p[j]:
            assign[p[j] - 1] = j - 1
    return assign


def min_cost_matching(metric: Metric) -> tuple[Matching, Fraction]:
    """A minimum-cost perfect matching and its exact cost.

    Ties between optimal matchings break to the lexicographically smallest
    assignment vector, enforced by an exact priority perturbation.
    """
    n = metric.n
    rows = [[metric.agent_item(i, j) for j in range(n)] for i in range(n)]
    denom = 1
    for row in rows:
        for val in row:
            denom = denom * val.denominator // math.gcd(denom, val.denominator)
    big = (n + 1) ** (n + 1)
    perturbed = [
        [int(rows[i][j] * denom) * big + j * (n + 1) ** (n - 1 - i) for j in range(n)]
        for i in range(n)
    ]
    assign = _hungarian(perturbed)
    total = sum(rows[i][assign[i]] for i in range(n))
    return Matching.from_permutation(assign), total


# ---------------------------------------------------------------------------
# adversarial distortion oracle
# ---------------------------------------------------------------------------


class WitnessError(RuntimeError):
    """The oracle's witness metric does not re-evaluate to its report."""


@dataclass
class OracleStats:
    """Deterministic work counters of one oracle call.

    Every candidate optimum M* is dual-pruned, LP-pruned, or solved to its
    exact value.  `lps` and `pivots` include the strict-mode margin stage.
    """

    candidates: int = 0
    lps: int = 0
    lp_pruned: int = 0
    dual_pruned: int = 0
    detour_rows: int = 0
    pivots: int = 0


@dataclass(frozen=True)
class DistortionReport:
    """Outcome of a worst-consistent-metric maximization.

    In strict mode `strict_margin` is the largest common gap (capped at 1)
    between consecutive preferences that the witness can afford while staying
    worst-case; 0 means the supremum is only attained with ties.
    """

    value: Union[Fraction, float]  # exact rational, or math.inf
    mechanism_cost: Fraction
    opt_cost: Fraction
    witness_metric: Optional[Metric] = None
    witness_opt: Optional[Matching] = None
    strict_margin: Optional[Fraction] = None
    stats: Optional[OracleStats] = field(default=None, compare=False)


def _zero_closure(inst: Instance, m0: Sequence[int]) -> list[int]:
    """Union-find roots after forcing the matching m0 to cost 0: zero
    distances propagate along each agent's preference prefix and by
    transitivity through the zero components.
    """
    n = inst.n
    parent = list(range(2 * n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> bool:
        rx, ry = find(x), find(y)
        if rx == ry:
            return False
        parent[rx] = ry
        return True

    for i in range(n):
        union(i, n + m0[i])
    changed = True
    while changed:
        changed = False
        for a in range(n):
            ra = find(a)
            deepest = -1
            ranks = inst.ranks[a]
            for j in range(n):
                if find(n + j) == ra and ranks[j] > deepest:
                    deepest = ranks[j]
            for pos in range(deepest):
                if union(n + inst.prefs[a][pos], a):
                    changed = True
    return [find(x) for x in range(2 * n)]


def _infinite_witness(
    inst: Instance, p: FractionalMatching
) -> Optional[tuple[Metric, Matching]]:
    """A consistent metric with cost(OPT) = 0 but positive cost for p, if
    one exists: scan all candidate zero-cost optima and their zero closures.
    """
    n = inst.n
    support = [(i, j) for i in range(n) for j in range(n) if p.p[i][j]]
    for m0 in itertools.permutations(range(n)):
        roots = _zero_closure(inst, m0)
        if any(roots[i] != roots[n + j] for i, j in support):
            rows = tuple(
                tuple(
                    Fraction(0) if roots[x] == roots[y] else Fraction(1)
                    for y in range(2 * n)
                )
                for x in range(2 * n)
            )
            return Metric(n, rows), Matching.from_permutation(m0)
    return None


def _complete_bipartite(n: int, d: Sequence[Sequence[Fraction]]) -> Metric:
    """Shortest-path completion of an agent-item distance matrix that already
    satisfies the 3-edge detour inequalities (so two-edge paths suffice for
    same-side pairs and the given entries are never shortcut).
    """
    m = 2 * n
    rows = [[Fraction(0)] * m for _ in range(m)]
    for i in range(n):
        for j in range(n):
            rows[i][n + j] = rows[n + j][i] = d[i][j]
    for a in range(n):
        for b in range(a + 1, n):
            v = min(d[a][j] + d[b][j] for j in range(n))
            rows[a][b] = rows[b][a] = v
    for a in range(n):
        for b in range(a + 1, n):
            v = min(d[i][a] + d[i][b] for i in range(n))
            rows[n + a][n + b] = rows[n + b][n + a] = v
    return Metric(n, tuple(tuple(r) for r in rows))


class _BipartiteAdversary:
    """Shared state for the per-M* maximizations of one oracle call.

    Works in increment space: agent i's distance to its rank-t item is the
    prefix sum g[i][0] + ... + g[i][t] with g >= 0, which absorbs both the
    ordinal chains and nonnegativity structurally.  Every row is a list of
    ints: the target matrix p is scaled once by its common denominator
    `scale`.  Detour rows discovered while refining one candidate optimum
    remain valid for all others, and a relaxation value at most the
    incumbent prunes the candidate outright.

    Each optimal LP also leaves its dual z >= 0 on the detour rows.  As every
    consistent metric satisfies the detour rows, z bounds any other candidate
    without an LP: with residual r = den*c - sum_i z_i R_i, the value for a
    normalization row N is at most incumbent whenever r_k <= 0 where N_k = 0
    and r_k <= incumbent*scale*den*N_k elsewhere.
    """

    def __init__(self, inst: Instance, p: FractionalMatching):
        self.n = n = inst.n
        self.nv = n * n
        self.ranks = inst.ranks
        weights = [w for row in p.p for w in row]
        self.scale = math.lcm(*(w.denominator for w in weights))
        self.objective = self._to_increments([int(w * self.scale) for w in weights])
        self.detour_rows: list[list[int]] = []
        self.detour_seen: set[tuple[int, int, int, int]] = set()
        self.residuals: list[tuple[list[int], int]] = []  # (r, den), oldest first
        self.stats = OracleStats()

    def _to_increments(self, pair_weights: Sequence[int]) -> list[int]:
        """Row vector over g for sum_{i,j} w[i*n+j] * d(a_i, b_j)."""
        n = self.n
        out = [0] * self.nv
        for i in range(n):
            for j in range(n):
                w = pair_weights[i * n + j]
                if w:
                    for t in range(self.ranks[i][j] + 1):
                        out[i * n + t] += w
        return out

    def _distances(self, g: Sequence) -> list[list]:
        """Agent-item distances from increments (of g's number type)."""
        n = self.n
        d = [[0] * n for _ in range(n)]
        for i in range(n):
            acc = 0
            row = d[i]
            prefs_row = self.ranks[i]
            prefix = []
            for t in range(n):
                acc += g[i * n + t]
                prefix.append(acc)
            for j in range(n):
                row[j] = prefix[prefs_row[j]]
        return d

    def _violated_detours(self, g: Sequence[Fraction]) -> bool:
        """Add detour rows violated at g; works for points and for rays,
        where violation means a strictly positive row value along the ray.
        The test is scale-free, so it runs on g times its common denominator.
        """
        n = self.n
        den = math.lcm(*(v.denominator for v in g))
        d = self._distances([v.numerator * (den // v.denominator) for v in g])
        added = False
        for a in range(n):
            da = d[a]
            for a2 in range(n):
                if a2 == a:
                    continue
                da2 = d[a2]
                for b in range(n):
                    lhs = da[b] - da2[b]
                    for b2 in range(n):
                        if b2 == b:
                            continue
                        if lhs > da[b2] + da2[b2] and (
                            (a, b, a2, b2) not in self.detour_seen
                        ):
                            self.detour_seen.add((a, b, a2, b2))
                            w = [0] * self.nv
                            w[a * n + b] += 1
                            w[a * n + b2] -= 1
                            w[a2 * n + b2] -= 1
                            w[a2 * n + b] -= 1
                            self.detour_rows.append(self._to_increments(w))
                            self.stats.detour_rows += 1
                            added = True
        return added

    def _norm_row(self, m_star: Sequence[int]) -> list[int]:
        n = self.n
        norm = [0] * self.nv
        for i, j in enumerate(m_star):
            norm[i * n + j] += 1
        return self._to_increments(norm)

    def _solve(self, objective, rows, senses, rhs):
        res = solve_lp(objective, rows, senses, rhs, maximize=True)
        self.stats.lps += 1
        self.stats.pivots += res.pivots
        return res

    def residual(self, z: Sequence[int], den: int) -> Optional[list[int]]:
        """den*c - sum_i z_i R_i over the first len(z) detour rows, or None
        when some z_i < 0 (then z certifies nothing).
        """
        if any(zi < 0 for zi in z):
            return None
        r = [den * c for c in self.objective]
        for zi, row in zip(z, self.detour_rows):
            if zi:
                r = [rk - zi * ak for rk, ak in zip(r, row)]
        return r

    def bounded_by(self, r: Sequence[int], den: int, norm: Sequence[int], bound) -> bool:
        """Whether residual r proves the LP value under `norm` <= bound."""
        lim = bound.numerator * self.scale * den
        q = bound.denominator
        return all(rk * q <= lim * nk for rk, nk in zip(r, norm))

    def maximize(self, m_star: Sequence[int], prune_below=None):
        """Exact LP value and point for one candidate optimum, or None when
        an earlier dual or the relaxation already shows the value cannot
        beat `prune_below`.
        """
        self.stats.candidates += 1
        norm = self._norm_row(m_star)
        if prune_below is not None and any(
            self.bounded_by(r, den, norm, prune_below)
            for r, den in reversed(self.residuals)
        ):
            self.stats.dual_pruned += 1
            return None
        while True:
            k = len(self.detour_rows)
            res = self._solve(
                self.objective,
                self.detour_rows + [norm],
                [LESS] * k + [EQUAL],
                [0] * k + [1],
            )
            if res.status == "optimal":
                r = self.residual(res.dual[:k], res.dual_den)
                if r is not None:
                    self.residuals.append((r, res.dual_den))
                value = res.value / self.scale
                if prune_below is not None and value <= prune_below:
                    self.stats.lp_pruned += 1
                    return None
                if not self._violated_detours(res.x):
                    d = self._distances(res.x)
                    return value, d
            elif res.status == "unbounded":
                if not self._violated_detours(res.ray):
                    raise RuntimeError(
                        "adversary LP unbounded after the infinite-case probe"
                    )
            else:
                raise RuntimeError("adversary LP infeasible; this cannot happen")

    def maximize_margin(self, m_star: Sequence[int], value: Fraction):
        """Second lexicographic stage: holding the objective at `value`,
        maximize a common lower bound on every consecutive-preference gap
        (capped at 1 -- scaling can inflate margins whenever any positive
        margin is feasible).  Returns (margin, distance matrix).
        """
        n = self.n
        margin_col = self.nv
        norm = self._norm_row(m_star)
        objective = [0] * self.nv + [1]
        # c.g = value, with c scaled by `scale`, cleared of value's denominator
        level = [value.denominator * c for c in self.objective] + [0]
        fixed_rows = [norm + [0], level]
        fixed_senses = [EQUAL, EQUAL]
        fixed_rhs = [1, value.numerator * self.scale]
        for i in range(n):
            for t in range(1, n):
                gap = [0] * (self.nv + 1)
                gap[i * n + t] -= 1
                gap[margin_col] += 1
                fixed_rows.append(gap)
        fixed_rows.append([0] * self.nv + [1])  # margin <= 1
        fixed_senses += [LESS] * (n * (n - 1) + 1)
        fixed_rhs += [0] * (n * (n - 1)) + [1]
        while True:
            k = len(self.detour_rows)
            res = self._solve(
                objective,
                [row + [0] for row in self.detour_rows] + fixed_rows,
                [LESS] * k + fixed_senses,
                [0] * k + fixed_rhs,
            )
            if res.status != "optimal":
                raise RuntimeError("margin stage must be feasible and bounded")
            if not self._violated_detours(res.x[: self.nv]):
                return res.value, self._distances(res.x[: self.nv])


def _adversarial(
    inst: Instance, p: FractionalMatching, cap: int, strict: bool
) -> DistortionReport:
    n = inst.n
    if n > cap:
        raise InvalidInputError(
            f"n={n} exceeds the oracle cap {cap}; evaluate on a known metric instead"
        )
    margin = None
    witness = _infinite_witness(inst, p)
    if witness is not None:
        metric, witness_opt = witness
        value, stats = INFINITE, OracleStats()
    else:
        solver = _BipartiteAdversary(inst, p)
        value = best_d = best_mstar = None
        for m_star in itertools.permutations(range(n)):
            result = solver.maximize(m_star, prune_below=value)
            if result is None:
                continue
            candidate, d = result
            if value is None or candidate > value:
                value, best_d, best_mstar = candidate, d, m_star
        if strict:
            margin, best_d = solver.maximize_margin(best_mstar, value)
        metric = _complete_bipartite(n, best_d)
        witness_opt = Matching.from_permutation(best_mstar)
        stats = solver.stats

    mech_cost = fractional_cost(p, metric)
    _, opt_cost = min_cost_matching(metric)
    if value == INFINITE:
        holds = opt_cost == 0 and mech_cost > 0
    else:
        holds = mech_cost == value and opt_cost == 1
    if not holds:
        raise WitnessError(
            f"witness re-evaluates to {mech_cost}/{opt_cost}, not to the value {value}"
        )
    return DistortionReport(
        value=value,
        mechanism_cost=mech_cost,
        opt_cost=opt_cost,
        witness_metric=metric,
        witness_opt=witness_opt,
        strict_margin=margin,
        stats=stats,
    )


def adversarial_distortion(
    inst: Instance, matching: Matching, cap: int = 6, strict: bool = False
) -> DistortionReport:
    """Exact sup of cost(M)/cost(OPT) over all metrics consistent with the
    instance; +inf when a consistent metric has free optimum but charges M.

    Consistency is the weak-inequality relation; `strict=True` additionally
    maximizes the smallest consecutive-preference gap of the (finite-case)
    witness after the value, reporting it as `strict_margin`.
    """
    if not matching.is_perfect(inst.n):
        raise InvalidInputError("adversarial distortion needs a perfect matching")
    return _adversarial(inst, FractionalMatching.indicator(matching, inst.n), cap, strict)


def adversarial_distortion_fractional(
    inst: Instance, p: FractionalMatching, cap: int = 6, strict: bool = False
) -> DistortionReport:
    """Worst-case expected distortion of a doubly stochastic matching."""
    if p.n != inst.n or not p.is_doubly_stochastic():
        raise InvalidInputError("need a doubly stochastic fractional matching")
    return _adversarial(inst, p, cap, strict)


# ---------------------------------------------------------------------------
# expectation on a known metric
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpectedDistortion:
    value: Fraction
    halfwidth: Optional[float] = None  # 95% normal half-width, Monte Carlo only


OrderMechanism = Callable[[Instance, Sequence[int]], Matching]


def expected_distortion_known_metric(
    mechanism: OrderMechanism,
    inst: Instance,
    metric: Metric,
    mode: str = "exact",
    trials: int = 2000,
    seed: int = 0,
    cap: int = 8,
) -> ExpectedDistortion:
    """E[cost]/cost(OPT) for an order-driven mechanism on a known metric.

    `mechanism(inst, order)` must be deterministic given the order; exact
    mode averages over all n! orders, Monte-Carlo mode over seeded samples.
    """
    if not consistent(inst, metric):
        raise InvalidInputError("metric is not consistent with the instance")
    _, opt = min_cost_matching(metric)
    if opt == 0:
        raise InvalidInputError("optimal cost is 0; the distortion ratio is undefined")
    n = inst.n
    if mode == "exact":
        if n > cap:
            raise InvalidInputError(f"exact expectation needs n <= {cap}")
        total = Fraction(0)
        for order in itertools.permutations(range(n)):
            total += cost(mechanism(inst, order), metric)
        return ExpectedDistortion(value=total / math.factorial(n) / opt)
    if mode != "mc":
        raise InvalidInputError(f"unknown mode {mode!r}")
    costs = []
    for t in range(trials):
        order = list(range(n))
        random.Random(f"edist:{seed}:{t}").shuffle(order)
        costs.append(cost(mechanism(inst, order), metric))
    mean = sum(costs, Fraction(0)) / trials
    var = sum((c - mean) ** 2 for c in costs) / trials
    halfwidth = 1.96 * math.sqrt(float(var) / trials) / float(opt)
    return ExpectedDistortion(value=mean / opt, halfwidth=halfwidth)


# ---------------------------------------------------------------------------
# consistent-metric sampling (oracle cross-validation, known-metric corpora)
# ---------------------------------------------------------------------------


def sample_consistent_metric(
    inst: Instance, rng: random.Random, grid: int = 8
) -> Metric:
    """A random metric consistent with the instance: each agent's item
    distances are drawn from the grid [1, 3] (so every 3-edge detour bound
    holds trivially) and sorted along its preference list; the remaining
    pairs are shortest-path completions.
    """
    n = inst.n
    d = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        vals = sorted(Fraction(grid + rng.randrange(2 * grid + 1), grid) for _ in range(n))
        for pos, j in enumerate(inst.prefs[i]):
            d[i][j] = vals[pos]
    return _complete_bipartite(n, d)
