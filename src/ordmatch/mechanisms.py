"""Matching mechanisms: serial dictatorships (fixed, random, truncated),
exact and Monte-Carlo match probabilities, the representative-merging
mechanism, deferred acceptance with item priorities, the Boston mechanism,
and the serializability test that links them to the exponential lower bound.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .core import FractionalMatching, Instance, InvalidInputError, Matching, check_perm

PriorityOrder = Sequence[int]


@dataclass(frozen=True)
class RepMatchState:
    """Snapshot of the representative-merging loop: a partition of the agents
    with one representative and one level per set.  Every set of level L has
    size at least 2^L.
    """

    partition: tuple[tuple[int, ...], ...]
    reps: tuple[int, ...]
    levels: tuple[int, ...]

    def check(self) -> None:
        seen = sorted(a for s in self.partition for a in s)
        if seen != list(range(len(seen))):
            raise RuntimeError("partition does not cover the agents")
        for s, level in zip(self.partition, self.levels):
            if level < 0 or len(s) < 2 ** level:
                raise RuntimeError("set size fell below 2^level")


def _picks(prefs: Sequence[Sequence[int]], agents: Sequence[int]) -> list[int]:
    """The items that `agents` take in turn, each its favorite free one."""
    taken = [False] * len(prefs)
    picks = []
    for a in agents:
        for j in prefs[a]:
            if not taken[j]:
                taken[j] = True
                picks.append(j)
                break
    return picks


def _shuffled(n: int, key: str) -> list[int]:
    order = list(range(n))
    random.Random(key).shuffle(order)
    return order


def serial_dictatorship(inst: Instance, order: PriorityOrder) -> Matching:
    """Agents pick their favorite remaining item in the given order."""
    order = check_perm(order, inst.n, "order")
    return Matching(zip(order, _picks(inst.prefs, order)))


def rsd(inst: Instance, seed: int) -> Matching:
    """Serial dictatorship in a uniformly random order drawn from the seed."""
    return serial_dictatorship(inst, _shuffled(inst.n, f"rsd:{seed}"))


def truncated_rsd(inst: Instance, m: int, seed: int) -> Matching:
    """Random serial dictatorship stopped once m agents are matched."""
    if not 0 <= m <= inst.n:
        raise InvalidInputError(f"need 0 <= m <= n, got m={m}")
    agents = _shuffled(inst.n, f"trsd:{seed}")[:m]
    return Matching(zip(agents, _picks(inst.prefs, agents)))


def _pick_marginals(inst: Instance, m: int, orders, total: int) -> FractionalMatching:
    """How often each agent takes each item when the first m agents of every
    order pick, divided by `total`.
    """
    n = inst.n
    counts = [[0] * n for _ in range(n)]
    for order in orders:
        agents = order[:m]
        for a, j in zip(agents, _picks(inst.prefs, agents)):
            counts[a][j] += 1
    return FractionalMatching(
        n, tuple(tuple(Fraction(c, total) for c in row) for row in counts)
    )


def exact_rsd_marginals(
    inst: Instance, m: Optional[int] = None, cap: int = 8
) -> FractionalMatching:
    """Exact match probabilities of TruncatedRSD by enumerating all n! orders.

    Refuses above the cap; Monte-Carlo marginals cover larger n.
    """
    n = inst.n
    if m is None:
        m = n
    if not 0 <= m <= n:
        raise InvalidInputError(f"need 0 <= m <= n, got m={m}")
    if n > cap:
        raise InvalidInputError(
            f"n={n} exceeds the exhaustive cap {cap}; use monte_carlo_marginals"
        )
    return _pick_marginals(
        inst, m, itertools.permutations(range(n)), math.factorial(n)
    )


def monte_carlo_marginals(
    inst: Instance, m: int, trials: int, seed: int
) -> FractionalMatching:
    """Average of `trials` independent TruncatedRSD runs; each trial derives
    its own sub-stream from the root seed, so the result does not depend on
    evaluation order.
    """
    if trials < 1:
        raise InvalidInputError("need trials >= 1")
    if not 0 <= m <= inst.n:
        raise InvalidInputError(f"need 0 <= m <= n, got m={m}")
    orders = (_shuffled(inst.n, f"mc:{seed}:{t}") for t in range(trials))
    return _pick_marginals(inst, m, orders, trials)


def rep_match_states(inst: Instance):
    """The representative-merging loop, one state snapshot per merge.

    The first yield is the all-singletons start; each later one follows a
    merge of the lowest-index overlapping pair.  The number of sets strictly
    decreases, so at most n states follow the first.
    """
    n = inst.n
    prefs = inst.prefs
    partition = [(i,) for i in range(n)]
    reps = list(range(n))
    levels = [0] * n

    def snapshot() -> RepMatchState:
        state = RepMatchState(tuple(partition), tuple(reps), tuple(levels))
        state.check()
        return state

    def window(t: int) -> frozenset[int]:
        return frozenset(prefs[reps[t]][: len(partition[t])])

    yield snapshot()
    while True:
        hit = next(
            (
                (i, j)
                for i in range(len(partition))
                for j in range(i + 1, len(partition))
                if window(i) & window(j)
            ),
            None,
        )
        if hit is None:
            return
        i, j = hit
        rep = reps[i] if levels[i] >= levels[j] else reps[j]
        level = levels[i] + 1 if levels[i] == levels[j] else max(levels[i], levels[j])
        partition[i] = tuple(sorted(partition[i] + partition[j]))
        reps[i] = rep
        levels[i] = level
        del partition[j], reps[j], levels[j]
        yield snapshot()


def rep_match(inst: Instance) -> Matching:
    """Representative-merging mechanism with O(n^2) distortion.

    Sets of agents carry a representative and a level.  While two sets'
    representatives share an item among their respective top-|S| choices, the
    sets merge (the higher-level representative wins; the level is the max,
    or increments on a tie).  Afterwards each set takes its representative's
    top-|S| items, handed to its agents in ascending index order.
    """
    for state in rep_match_states(inst):
        pass
    assign = {}
    used = set()
    for agents, rep in zip(state.partition, state.reps):
        top = inst.prefs[rep][: len(agents)]
        if used & set(top):
            raise RuntimeError("top windows overlap after the merge loop")
        used |= set(top)
        for agent, item in zip(agents, top):
            assign[agent] = item
    return Matching(assign)


def deferred_acceptance(
    inst: Instance, item_prefs: Sequence[PriorityOrder]
) -> Matching:
    """Agent-proposing deferred acceptance against fixed item preferences.

    All currently unmatched agents propose in the same round; each item keeps
    its favorite proposal so far.  The outcome is the agent-optimal stable
    matching and does not depend on within-round processing order.
    """
    n = inst.n
    if len(item_prefs) != n:
        raise InvalidInputError("need one preference list per item")
    rank = []
    for jp in item_prefs:
        jp = check_perm(jp, n, "item preference")
        r = [0] * n
        for pos, a in enumerate(jp):
            r[a] = pos
        rank.append(r)
    prefs = inst.prefs
    nxt = [0] * n
    held = [-1] * n  # per item: agent currently held
    free = list(range(n))
    while free:
        proposals: dict[int, list[int]] = {}
        for a in free:
            j = prefs[a][nxt[a]]
            nxt[a] += 1
            proposals.setdefault(j, []).append(a)
        free = []
        for j, props in proposals.items():
            if held[j] >= 0:
                props.append(held[j])
            best = min(props, key=lambda a: rank[j][a])
            for a in props:
                if a != best:
                    free.append(a)
            held[j] = best
    return Matching({a: j for j, a in enumerate(held) if a >= 0})


def boston(inst: Instance, priority: PriorityOrder) -> Matching:
    """The Boston mechanism: in rounds, each unmatched agent proposes to its
    favorite item that is still unmatched, and every item with proposers
    irrevocably takes the proposer earliest in the priority order.
    """
    n = inst.n
    priority = check_perm(priority, n, "priority")
    prank = [0] * n
    for pos, a in enumerate(priority):
        prank[a] = pos
    matched_item = [False] * n
    assign = {}
    free = list(range(n))
    while free:
        proposals: dict[int, list[int]] = {}
        for a in free:
            j = next(j for j in inst.prefs[a] if not matched_item[j])
            proposals.setdefault(j, []).append(a)
        free = []
        for j, props in proposals.items():
            winner = min(props, key=lambda a: prank[a])
            matched_item[j] = True
            assign[winner] = j
            free.extend(a for a in props if a != winner)
    return Matching(assign)


def sd_on_items(item_prefs: Sequence[PriorityOrder]) -> tuple[int, ...]:
    """Serial dictatorship run by the items in index order over the agents;
    returns pi with pi[r] = the agent that item r picks.
    """
    return tuple(_picks(item_prefs, range(len(item_prefs))))


def _serial_orders(n: int, sigma: tuple[int, ...], r: int) -> list[tuple[int, ...]]:
    """All item orders in which sigma[r] precedes sigma[s] for every s > r."""
    later = set(sigma[r + 1:])
    out = []
    for perm in itertools.permutations(range(n)):
        pos = perm.index(sigma[r])
        if all(x not in later for x in perm[:pos]):
            out.append(perm)
    return out


def _sample_serial_order(
    n: int, sigma: tuple[int, ...], r: int, rng: random.Random
) -> tuple[int, ...]:
    perm = list(range(n))
    rng.shuffle(perm)
    perm.remove(sigma[r])
    later = set(sigma[r + 1:])
    slot = next((i for i, x in enumerate(perm) if x in later), None)
    if slot is None:
        slot = rng.randrange(len(perm) + 1)
    perm.insert(slot, sigma[r])
    return tuple(perm)


def serializability_check(
    mechanism: Callable[[Instance], Matching],
    pi: PriorityOrder,
    sigma: PriorityOrder,
    n: int,
    samples: int = 10000,
    seed: int = 0,
) -> bool:
    """Test whether a mechanism serializes along (pi, sigma): on every
    instance where agent pi[r] prefers item sigma[r] to every sigma[s], s > r,
    the output must match pi[r] to sigma[r].

    Exhausts the hypothesis-satisfying instances up to n = 4 and samples
    random completions beyond it; True means no counterexample was found.
    """
    pi = check_perm(pi, n, "pi")
    sigma = check_perm(sigma, n, "sigma")
    expected = {pi[r]: sigma[r] for r in range(n)}

    def run(per_agent_orders: Sequence[tuple[int, ...]]) -> bool:
        prefs = [()] * n
        for r in range(n):
            prefs[pi[r]] = per_agent_orders[r]
        return mechanism(Instance(n, tuple(prefs))).assign == expected

    if n <= 4:
        choices = [_serial_orders(n, sigma, r) for r in range(n)]
        return all(run(combo) for combo in itertools.product(*choices))
    rng = random.Random(f"serial:{seed}")
    return all(
        run([_sample_serial_order(n, sigma, r, rng) for r in range(n)])
        for _ in range(samples)
    )
