"""Exact domain types for ordinal metric matching.

Agents and items share one index space of 2n points: indices 0..n-1 are the
agents, indices n..2n-1 are the items.  All distances and probabilities are
`fractions.Fraction`; nothing in this package goes through floating point.
"""
from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Sequence


class InvalidInputError(ValueError):
    """An argument violates a documented precondition."""


class DisconnectedGraphError(ValueError):
    """A graph metric was requested for a disconnected graph."""


def as_fraction(x) -> Fraction:
    """Coerce ints, strings like '3/4', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise InvalidInputError(f"not an exact rational: {x!r}")


def check_perm(perm: Sequence[int], n: int, name: str) -> tuple[int, ...]:
    """`perm` as a tuple, or InvalidInputError unless it permutes 0..n-1."""
    perm = tuple(perm)
    if tuple(sorted(perm)) != tuple(range(n)):
        raise InvalidInputError(f"{name} is not a permutation of 0..{n - 1}")
    return perm


@dataclass(frozen=True)
class Instance:
    """An ordinal matching instance: n full preference lists over n items."""

    n: int
    prefs: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "prefs", tuple(tuple(p) for p in self.prefs))
        if self.n < 1:
            raise InvalidInputError("need n >= 1")
        if len(self.prefs) != self.n:
            raise InvalidInputError("need one preference list per agent")
        full = tuple(range(self.n))
        for i, p in enumerate(self.prefs):
            if tuple(sorted(p)) != full:
                raise InvalidInputError(f"prefs[{i}] is not a permutation of 0..n-1")

    @cached_property
    def ranks(self) -> tuple[tuple[int, ...], ...]:
        """ranks[i][j] = position of item j in agent i's list (0 = favorite)."""
        out = []
        for p in self.prefs:
            r = [0] * self.n
            for pos, j in enumerate(p):
                r[j] = pos
            out.append(tuple(r))
        return tuple(out)

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "prefs": [list(p) for p in self.prefs]})

    @classmethod
    def from_json(cls, text: str) -> "Instance":
        obj = json.loads(text)
        return cls(int(obj["n"]), tuple(tuple(int(j) for j in p) for p in obj["prefs"]))


@dataclass(frozen=True)
class Metric:
    """A (pseudo)metric on the 2n shared points, stored as an exact matrix.

    Zero distance between distinct points is allowed.  Construction checks
    shape, nonnegativity, symmetry, and the zero diagonal; the O(n^3) triangle
    check is `check_triangle`, which every generator output must pass.
    """

    n: int
    dist: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        m = 2 * self.n
        rows = tuple(tuple(as_fraction(v) for v in row) for row in self.dist)
        object.__setattr__(self, "dist", rows)
        if self.n < 1 or len(rows) != m or any(len(r) != m for r in rows):
            raise InvalidInputError("metric must be a (2n)x(2n) matrix with n >= 1")
        for x in range(m):
            if rows[x][x] != 0:
                raise InvalidInputError(f"dist[{x}][{x}] != 0")
            for y in range(x + 1, m):
                if rows[x][y] < 0:
                    raise InvalidInputError(f"dist[{x}][{y}] < 0")
                if rows[x][y] != rows[y][x]:
                    raise InvalidInputError(f"dist[{x}][{y}] != dist[{y}][{x}]")

    def agent_item(self, i: int, j: int) -> Fraction:
        return self.dist[i][self.n + j]

    def check_triangle(self) -> None:
        m = 2 * self.n
        dist = self.dist
        for x in range(m):
            dx = dist[x]
            for y in range(m):
                dxy = dx[y]
                dy = dist[y]
                for z in range(m):
                    if dxy > dx[z] + dy[z]:
                        raise InvalidInputError(
                            f"triangle violated: d({x},{y}) > d({x},{z}) + d({z},{y})"
                        )

    def to_json(self) -> str:
        return json.dumps(
            {"n": self.n, "dist": [[str(v) for v in row] for row in self.dist]}
        )

    @classmethod
    def from_json(cls, text: str) -> "Metric":
        obj = json.loads(text)
        return cls(
            int(obj["n"]),
            tuple(tuple(Fraction(v) for v in row) for row in obj["dist"]),
        )


@dataclass(frozen=True)
class Matching:
    """An injective partial map from agent indices to item indices."""

    assign: MappingProxyType

    def __post_init__(self):
        object.__setattr__(self, "assign", MappingProxyType(dict(self.assign)))
        items = list(self.assign.values())
        if len(set(items)) != len(items):
            raise InvalidInputError("matching is not injective")
        for i, j in self.assign.items():
            if i < 0 or j < 0:
                raise InvalidInputError("negative agent or item index")

    @classmethod
    def from_permutation(cls, perm: Sequence[int]) -> "Matching":
        return cls({i: j for i, j in enumerate(perm)})

    def __len__(self) -> int:
        return len(self.assign)

    def __hash__(self) -> int:
        return hash(self.pairs())

    def is_perfect(self, n: int) -> bool:
        return len(self.assign) == n and all(
            0 <= i < n and 0 <= j < n for i, j in self.assign.items()
        )

    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.assign.items()))

    def to_json(self) -> str:
        return json.dumps({"assign": {str(i): j for i, j in self.pairs()}})

    @classmethod
    def from_json(cls, text: str) -> "Matching":
        obj = json.loads(text)
        return cls({int(i): int(j) for i, j in obj["assign"].items()})


@dataclass(frozen=True)
class FractionalMatching:
    """A doubly sub-stochastic n x n matrix of exact match probabilities."""

    n: int
    p: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(as_fraction(v) for v in row) for row in self.p)
        object.__setattr__(self, "p", rows)
        if self.n < 1 or len(rows) != self.n or any(len(r) != self.n for r in rows):
            raise InvalidInputError("p must be n x n with n >= 1")
        for row in rows:
            for v in row:
                if v < 0 or v > 1:
                    raise InvalidInputError("entries must lie in [0, 1]")
            if sum(row) > 1:
                raise InvalidInputError("row sum exceeds 1")
        for j in range(self.n):
            if sum(row[j] for row in rows) > 1:
                raise InvalidInputError("column sum exceeds 1")

    def is_doubly_stochastic(self) -> bool:
        one = Fraction(1)
        return all(sum(row) == one for row in self.p) and all(
            sum(row[j] for row in self.p) == one for j in range(self.n)
        )

    @classmethod
    def indicator(cls, matching: Matching, n: int) -> "FractionalMatching":
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i, j in matching.assign.items():
            rows[i][j] = Fraction(1)
        return cls(n, tuple(tuple(r) for r in rows))

    @classmethod
    def uniform(cls, n: int) -> "FractionalMatching":
        v = Fraction(1, n)
        return cls(n, tuple(tuple(v for _ in range(n)) for _ in range(n)))

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "p": [[str(v) for v in row] for row in self.p]})

    @classmethod
    def from_json(cls, text: str) -> "FractionalMatching":
        obj = json.loads(text)
        return cls(
            int(obj["n"]), tuple(tuple(Fraction(v) for v in row) for row in obj["p"])
        )


@dataclass(frozen=True)
class WeightedGraph:
    """An undirected graph on the 2n shared points with rational edge weights."""

    n: int
    edges: tuple[tuple[int, int, Fraction], ...]

    def __post_init__(self):
        m = 2 * self.n
        es = []
        for x, y, w in self.edges:
            w = as_fraction(w)
            if not (0 <= x < m and 0 <= y < m) or x == y:
                raise InvalidInputError(f"bad edge ({x},{y})")
            if w < 0:
                raise InvalidInputError(f"negative weight on ({x},{y})")
            es.append((x, y, w))
        object.__setattr__(self, "edges", tuple(es))

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, Fraction], ...], ...]:
        adj = [[] for _ in range(2 * self.n)]
        for x, y, w in self.edges:
            adj[x].append((y, w))
            adj[y].append((x, w))
        return tuple(tuple(a) for a in adj)


def cost(matching: Matching, metric: Metric) -> Fraction:
    """Total distance over matched pairs; the empty sum is 0."""
    total = Fraction(0)
    for i, j in matching.assign.items():
        if i >= metric.n or j >= metric.n:
            raise InvalidInputError(f"pair ({i},{j}) out of range for n={metric.n}")
        total += metric.agent_item(i, j)
    return total


def fractional_cost(p: FractionalMatching, metric: Metric) -> Fraction:
    """sum_{i,j} p[i][j] * d(agent i, item j)."""
    if p.n != metric.n:
        raise InvalidInputError("dimension mismatch between p and metric")
    total = Fraction(0)
    for i in range(p.n):
        row = p.p[i]
        drow = metric.dist[i]
        for j in range(p.n):
            if row[j]:
                total += row[j] * drow[metric.n + j]
    return total


def metric_from_graph(g: WeightedGraph) -> Metric:
    """All-pairs shortest-path metric of a connected weighted graph."""
    m = 2 * g.n
    adj = g.adjacency
    rows = []
    for src in range(m):
        dist = [None] * m
        dist[src] = Fraction(0)
        heap = [(Fraction(0), src)]
        while heap:
            dv, v = heapq.heappop(heap)
            if dist[v] is not None and dv > dist[v]:
                continue
            for u, w in adj[v]:
                nd = dv + w
                if dist[u] is None or nd < dist[u]:
                    dist[u] = nd
                    heapq.heappush(heap, (nd, u))
        if any(v is None for v in dist):
            raise DisconnectedGraphError("graph is not connected")
        rows.append(tuple(dist))
    return Metric(g.n, tuple(rows))


def prefs_from_metric(metric: Metric) -> Instance:
    """Each agent ranks items by increasing distance, ties by ascending index."""
    n = metric.n
    prefs = []
    for i in range(n):
        drow = metric.dist[i]
        prefs.append(tuple(sorted(range(n), key=lambda j: (drow[n + j], j))))
    return Instance(n, tuple(prefs))


def consistent(inst: Instance, metric: Metric) -> bool:
    """True iff every agent's list is weakly increasing in distance."""
    if inst.n != metric.n:
        raise InvalidInputError("dimension mismatch between instance and metric")
    n = inst.n
    for i in range(n):
        drow = metric.dist[i]
        p = inst.prefs[i]
        for k in range(n - 1):
            if drow[n + p[k]] > drow[n + p[k + 1]]:
                return False
    return True
