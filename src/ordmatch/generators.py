"""Hard-instance generators: the binary-tree family with its per-agent
adversarial metrics and unlucky-agent walks, the exponential line instances
for serial mechanisms, the Boston cascade instance, and a seeded random
geometric source for test corpora.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .core import (
    FractionalMatching,
    Instance,
    InvalidInputError,
    Matching,
    Metric,
    WeightedGraph,
    as_fraction,
    check_perm,
    metric_from_graph,
    prefs_from_metric,
)


@dataclass(frozen=True)
class TreeInstance:
    """The binary-tree instance: 2^k agents at the leaves, 2^k items at the
    internal vertices (the root has a single child), edge weight 2^(k-t) at
    depth t.  Items are numbered by in-order traversal with the root last, so
    subtrees cover contiguous agent and item ranges.
    """

    k: int
    n: int
    graph: WeightedGraph
    metric: Metric
    instance: Instance
    parent: tuple[int, ...]            # per item; -1 for the root
    children: tuple[tuple[int, ...], ...]  # per item; () for leaf-parents
    depth: tuple[int, ...]             # per item; root has depth 0
    leaf_parent: tuple[int, ...]       # per agent
    agent_range: tuple[tuple[int, int], ...]  # per item, half-open
    item_range: tuple[tuple[int, int], ...]   # per item, half-open
    root: int

    def path_to_root(self, agent: int) -> tuple[int, ...]:
        """Items on the path from an agent's leaf up to the root, inclusive."""
        path = [self.leaf_parent[agent]]
        while self.parent[path[-1]] >= 0:
            path.append(self.parent[path[-1]])
        return tuple(path)


@dataclass(frozen=True)
class AdversaryWalkResult:
    """Outcome of the unlucky-agent descent on a tree instance."""

    chosen_agent: int
    unlucky: Optional[frozenset[int]] = None
    crossing_weights: Optional[tuple[Fraction, ...]] = None


def tree_instance(k: int) -> TreeInstance:
    if k < 1:
        raise InvalidInputError("need k >= 1")
    n = 2 ** k
    parent = [-1] * n
    children: list[tuple[int, ...]] = [()] * n
    agent_range: list[tuple[int, int]] = [(0, 0)] * n
    counter = [0]

    def rec(alo: int, ahi: int) -> int:
        if ahi - alo == 2:
            v = counter[0]
            counter[0] += 1
            agent_range[v] = (alo, ahi)
            return v
        mid = (alo + ahi) // 2
        left = rec(alo, mid)
        v = counter[0]
        counter[0] += 1
        right = rec(mid, ahi)
        parent[left] = v
        parent[right] = v
        children[v] = (left, right)
        agent_range[v] = (alo, ahi)
        return v

    top = rec(0, n)
    root = counter[0]
    parent[top] = root
    children[root] = (top,)
    agent_range[root] = (0, n)

    depth = [0] * n
    order = [root]
    while order:
        v = order.pop()
        for c in children[v]:
            depth[c] = depth[v] + 1
            order.append(c)

    item_range = [(0, 0)] * n

    def ranges(v: int) -> tuple[int, int]:
        if not children[v]:
            item_range[v] = (v, v + 1)
        elif v == root:
            ranges(top)
            item_range[v] = (0, n)
        else:
            lo = ranges(children[v][0])[0]
            hi = ranges(children[v][1])[1]
            item_range[v] = (lo, hi)
        return item_range[v]

    ranges(root)

    leaf_parent = [0] * n
    edges = []
    for v in range(n):
        if children[v]:
            w = Fraction(2 ** (k - depth[v]))
            for c in children[v]:
                edges.append((n + v, n + c, w))
        else:
            w = Fraction(2 ** (k - depth[v]))
            alo, ahi = agent_range[v]
            for a in (alo, alo + 1):
                leaf_parent[a] = v
                edges.append((n + v, a, w))

    graph = WeightedGraph(n, tuple(edges))
    metric = metric_from_graph(graph)
    instance = prefs_from_metric(metric)
    return TreeInstance(
        k=k,
        n=n,
        graph=graph,
        metric=metric,
        instance=instance,
        parent=tuple(parent),
        children=tuple(children),
        depth=tuple(depth),
        leaf_parent=tuple(leaf_parent),
        agent_range=tuple(agent_range),
        item_range=tuple(item_range),
        root=root,
    )


def tree_adversary_metric(t: TreeInstance, i: int) -> Metric:
    """The consistent metric that punishes matchings for agent i: weight-1
    edges from agent i to every item on its root path, weight 0 elsewhere,
    with the root-path edges and agent i's leaf edge removed.
    """
    if not 0 <= i < t.n:
        raise InvalidInputError(f"agent {i} out of range")
    path = set(t.path_to_root(i))
    n = t.n
    edges = []
    for x, y, _ in t.graph.edges:
        if x >= n and y >= n and x - n in path and y - n in path:
            continue
        if i in (x, y) and (x - n in path or y - n in path):
            continue
        edges.append((x, y, Fraction(0)))
    for v in path:
        edges.append((i, n + v, Fraction(1)))
    return metric_from_graph(WeightedGraph(n, tuple(edges)))


def unlucky_walk(t: TreeInstance, matching: Matching) -> AdversaryWalkResult:
    """Descend the tree, marking at each level the lowest-index agent matched
    outside the current subtree and moving into the sibling subtree.  The
    chosen agent's adversarial metric charges every unlucky agent distance 2.
    """
    if not matching.is_perfect(t.n):
        raise InvalidInputError("walk needs a perfect matching")
    unlucky = []
    current = t.children[t.root][0]
    while True:
        alo, ahi = t.agent_range[current]
        ilo, ihi = t.item_range[current]
        marked = next(
            a for a in range(alo, ahi) if not ilo <= matching.assign[a] < ihi
        )
        unlucky.append(marked)
        if t.children[current]:
            left, right = t.children[current]
            llo, lhi = t.agent_range[left]
            current = right if llo <= marked < lhi else left
        else:
            chosen = alo + 1 if marked == alo else alo
            break
    return AdversaryWalkResult(chosen_agent=chosen, unlucky=frozenset(unlucky))


def unlucky_walk_fractional(
    t: TreeInstance, p: FractionalMatching
) -> AdversaryWalkResult:
    """Fractional variant: descend away from the child subtree sending the
    larger weight out of the current subtree (ties go left), recording that
    weight per level.  Each recorded weight is at least 1/2.
    """
    if p.n != t.n or not p.is_doubly_stochastic():
        raise InvalidInputError("walk needs a doubly stochastic matching")
    weights = []
    current = t.children[t.root][0]

    def out_weight(agent: int, ilo: int, ihi: int) -> Fraction:
        row = p.p[agent]
        return sum(row[j] for j in range(t.n) if not ilo <= j < ihi)

    while True:
        ilo, ihi = t.item_range[current]
        if t.children[current]:
            left, right = t.children[current]
            w_left = sum(
                out_weight(a, ilo, ihi) for a in range(*t.agent_range[left])
            )
            w_right = sum(
                out_weight(a, ilo, ihi) for a in range(*t.agent_range[right])
            )
            if w_left > w_right:
                weights.append(w_left)
                current = right
            else:
                weights.append(w_right)
                current = left
        else:
            alo, _ = t.agent_range[current]
            w_left = out_weight(alo, ilo, ihi)
            w_right = out_weight(alo + 1, ilo, ihi)
            if w_left > w_right:
                weights.append(w_left)
                chosen = alo + 1
            else:
                weights.append(w_right)
                chosen = alo
            break
    return AdversaryWalkResult(chosen_agent=chosen, crossing_weights=tuple(weights))


def _line_points(
    positions_agents: Sequence[Fraction], positions_items: Sequence[Fraction]
) -> Metric:
    pos = list(positions_agents) + list(positions_items)
    n = len(positions_agents)
    rows = tuple(tuple(abs(a - b) for b in pos) for a in pos)
    return Metric(n, rows)


def _line_prefs(
    positions_agents: Sequence[Fraction],
    positions_items: Sequence[Fraction],
    far_item: int,
) -> Instance:
    """Rank items by distance; on exact ties the far item goes last, other
    ties break by ascending index.
    """
    n = len(positions_agents)
    prefs = []
    for a in positions_agents:
        prefs.append(
            tuple(
                sorted(
                    range(n),
                    key=lambda j: (abs(a - positions_items[j]), j == far_item, j),
                )
            )
        )
    return Instance(n, tuple(prefs))


def line_sd_instance(
    n: int,
    pi: Optional[Sequence[int]] = None,
    sigma: Optional[Sequence[int]] = None,
    eps: Fraction | int | str = 0,
) -> tuple[Instance, Metric]:
    """The line instance punishing serialized mechanisms: agent pi[r] sits at
    2^r, item sigma[r] at 2^(r+1) for r < n-1, and the far item sigma[n-1] at
    -eps.  With eps = 0 the far item is tie-broken last, so the serialized
    matching costs 2^n - 1 against an optimum of 1.
    """
    if n < 1:
        raise InvalidInputError("need n >= 1")
    pi = check_perm(pi if pi is not None else range(n), n, "pi")
    sigma = check_perm(sigma if sigma is not None else range(n), n, "sigma")
    eps = as_fraction(eps)
    agent_pos = [Fraction(0)] * n
    item_pos = [Fraction(0)] * n
    for r in range(n):
        agent_pos[pi[r]] = Fraction(2 ** r)
    for r in range(n - 1):
        item_pos[sigma[r]] = Fraction(2 ** (r + 1))
    item_pos[sigma[n - 1]] = -eps
    inst = _line_prefs(agent_pos, item_pos, far_item=sigma[n - 1])
    metric = _line_points(agent_pos, item_pos)
    return inst, metric


def boston_instance(
    k: int, eps: Fraction | int | str = 0
) -> tuple[Instance, Metric, tuple[int, ...]]:
    """The Boston cascade line instance: one agent at 1 and one item at -eps,
    plus t co-located agent/item pairs at 2^t for t = 1..k-1.  Priority is by
    distance to 0, ascending index on ties.
    """
    if k < 2:
        raise InvalidInputError("need k >= 2")
    eps = as_fraction(eps)
    agent_pos = [Fraction(1)]
    item_pos = [-eps]
    for t in range(1, k):
        agent_pos.extend([Fraction(2 ** t)] * t)
        item_pos.extend([Fraction(2 ** t)] * t)
    inst = _line_prefs(agent_pos, item_pos, far_item=0)
    metric = _line_points(agent_pos, item_pos)
    return inst, metric, tuple(range(len(agent_pos)))


def euclidean_random(n: int, dim: int, seed: int) -> tuple[Instance, Metric]:
    """2n points with coordinates on the grid Z/4 in [0, 16), L1 distances.

    Everything is determined by (n, dim, seed); the instance is consistent
    with the metric by construction.
    """
    if n < 1 or dim < 1:
        raise InvalidInputError("need n >= 1 and dim >= 1")
    rng = random.Random(f"euclid:{n}:{dim}:{seed}")
    points = [
        tuple(Fraction(rng.randrange(64), 4) for _ in range(dim))
        for _ in range(2 * n)
    ]
    rows = tuple(
        tuple(sum(abs(x - y) for x, y in zip(p, q)) for q in points) for p in points
    )
    metric = Metric(n, rows)
    return prefs_from_metric(metric), metric
