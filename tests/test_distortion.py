import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_min_cost, random_doubly_stochastic, random_profile
from lp_reference import adversary_lp, metric_from_lp_point
from ordmatch.core import (
    FractionalMatching,
    Instance,
    InvalidInputError,
    Matching,
    Metric,
    consistent,
    cost,
    fractional_cost,
)
from ordmatch.distortion import (
    INFINITE,
    adversarial_distortion,
    adversarial_distortion_fractional,
    expected_distortion_known_metric,
    min_cost_matching,
    sample_consistent_metric,
)
from ordmatch import distortion
from ordmatch._simplex import EQUAL, GREATER, LESS, solve_lp
from ordmatch.distortion import OracleStats, _BipartiteAdversary
from ordmatch.generators import (
    euclidean_random,
    line_sd_instance,
    tree_adversary_metric,
    tree_instance,
)
from ordmatch.mechanisms import exact_rsd_marginals, serial_dictatorship


class TestLpSolve:
    def test_n2_adversary_lp_value_and_vertex(self):
        inst = Instance(2, ((0, 1), (0, 1)))
        matching = Matching({0: 0, 1: 1})
        m_star = Matching({0: 1, 1: 0})
        lp = adversary_lp(inst, FractionalMatching.indicator(matching, 2), m_star)
        sol = solve_lp(*lp, pivot_rule="bland")
        assert sol.status == "optimal" and sol.value == 3
        witness = metric_from_lp_point(2, sol.x)  # validates the triangle rows
        assert consistent(inst, witness)
        assert cost(m_star, witness) == 1
        assert cost(matching, witness) == 3


class TestMinCostMatching:
    def test_zero_diagonal_picks_identity(self):
        t = tree_instance(1)
        adv = tree_adversary_metric(t, 0)
        matching, value = min_cost_matching(adv)
        assert value == 1

    def test_all_zero_metric_breaks_ties_to_identity(self):
        n = 4
        rows = tuple(tuple(Fraction(0) for _ in range(2 * n)) for _ in range(2 * n))
        matching, value = min_cost_matching(Metric(n, rows))
        assert value == 0
        assert matching == Matching.from_permutation(range(n))

    def test_matches_brute_force_with_ties(self):
        for seed in range(8):
            n = 2 + seed % 4
            _, metric = euclidean_random(n, 1, seed)  # 1-d: plenty of ties
            fast = min_cost_matching(metric)
            slow = brute_force_min_cost(metric)
            assert fast == slow


class TestAdversarialDistortion:
    def test_n1_is_one(self):
        rep = adversarial_distortion(Instance(1, ((0,),)), Matching({0: 0}))
        assert rep.value == 1

    def test_line_n2_is_three(self):
        inst, _ = line_sd_instance(2)
        sd = serial_dictatorship(inst, (0, 1))
        assert adversarial_distortion(inst, sd).value == 3

    def test_shared_top_choice_witness(self):
        inst = Instance(2, ((0, 1), (0, 1)))
        rep = adversarial_distortion(inst, Matching({0: 0, 1: 1}))
        assert rep.value == 3
        w = rep.witness_metric
        w.check_triangle()
        assert consistent(inst, w)
        assert rep.mechanism_cost == cost(Matching({0: 0, 1: 1}), w)
        assert rep.opt_cost == min_cost_matching(w)[1] == 1

    def test_report_reevaluates_exactly(self):
        rng = random.Random(0)
        for _ in range(6):
            n = rng.randint(1, 4)
            inst = random_profile(n, rng)
            perm = list(range(n))
            rng.shuffle(perm)
            matching = Matching.from_permutation(perm)
            rep = adversarial_distortion(inst, matching)
            if rep.value == INFINITE:
                assert rep.opt_cost == 0 and rep.mechanism_cost > 0
                assert consistent(inst, rep.witness_metric)
                assert cost(rep.witness_opt, rep.witness_metric) == 0
            else:
                again = cost(matching, rep.witness_metric)
                opt = min_cost_matching(rep.witness_metric)[1]
                assert rep.value == again / opt

    def test_matches_full_lp_enumeration(self):
        rng = random.Random(1)
        for _ in range(4):
            n = rng.randint(2, 3)
            inst = random_profile(n, rng)
            perm = list(range(n))
            rng.shuffle(perm)
            matching = Matching.from_permutation(perm)
            rep = adversarial_distortion(inst, matching)
            if rep.value == INFINITE:
                continue
            p = FractionalMatching.indicator(matching, n)
            best = max(
                solve_lp(
                    *adversary_lp(inst, p, Matching.from_permutation(ms)), pivot_rule="bland"
                ).value
                for ms in itertools.permutations(range(n))
            )
            assert rep.value == best

    def test_infinite_probe_matches_lp_feasibility(self):
        rng = random.Random(2)
        for _ in range(8):
            n = rng.randint(2, 3)
            inst = random_profile(n, rng)
            perm = list(range(n))
            rng.shuffle(perm)
            matching = Matching.from_permutation(perm)
            rep = adversarial_distortion(inst, matching)
            p = FractionalMatching.indicator(matching, n)
            feasible = False
            for ms in itertools.permutations(range(n)):
                objective, rows, senses, rhs = adversary_lp(
                    inst, p, Matching.from_permutation(ms)
                )
                # cost(M*) = 1 becomes cost(M*) = 0, and the target must cost >= 1
                rows = rows + [objective]
                senses = senses + [GREATER]
                rhs = rhs[:-1] + [0, 1]
                probe = solve_lp([0] * len(objective), rows, senses, rhs, pivot_rule="bland")
                if probe.status != "infeasible":
                    feasible = True
                    break
            assert feasible == (rep.value == INFINITE)

    def test_cap_refused(self):
        inst = random_profile(7, random.Random(3))
        with pytest.raises(InvalidInputError):
            adversarial_distortion(inst, Matching.from_permutation(range(7)))

    def test_partial_matching_rejected(self):
        inst = random_profile(3, random.Random(4))
        with pytest.raises(InvalidInputError):
            adversarial_distortion(inst, Matching({0: 0}))

    def test_strict_mode_needs_tie_at_the_shared_top_supremum(self):
        inst = Instance(2, ((0, 1), (0, 1)))
        rep = adversarial_distortion(inst, Matching({0: 0, 1: 1}), strict=True)
        assert rep.value == 3
        assert rep.strict_margin == 0  # value 3 forces a preference tie

    def test_strict_mode_positive_margin_when_tops_differ(self):
        inst = Instance(2, ((0, 1), (1, 0)))
        rep = adversarial_distortion(inst, Matching({0: 0, 1: 1}), strict=True)
        assert rep.value == 1
        assert rep.strict_margin == 1  # capped
        w = rep.witness_metric
        for i in range(2):
            ranked = [w.agent_item(i, j) for j in inst.prefs[i]]
            assert all(a < b for a, b in zip(ranked, ranked[1:]))

    def test_strict_mode_keeps_value_and_witness_contract(self):
        rng = random.Random(11)
        for _ in range(5):
            n = rng.randint(2, 4)
            inst = random_profile(n, rng)
            perm = list(range(n))
            rng.shuffle(perm)
            matching = Matching.from_permutation(perm)
            weak = adversarial_distortion(inst, matching)
            strict = adversarial_distortion(inst, matching, strict=True)
            assert weak.value == strict.value
            if strict.value == INFINITE:
                continue
            assert consistent(inst, strict.witness_metric)
            assert cost(matching, strict.witness_metric) == strict.value
            assert min_cost_matching(strict.witness_metric)[1] == 1
            if strict.strict_margin > 0:
                for i in range(n):
                    ranked = [
                        strict.witness_metric.agent_item(i, j) for j in inst.prefs[i]
                    ]
                    gaps = [b - a for a, b in zip(ranked, ranked[1:])]
                    assert min(gaps) >= strict.strict_margin

    def test_infinite_detection_against_cut_metric_combos(self):
        """Conic combinations of consistent cut metrics often give the
        adversary a free optimum; whenever such a metric charges the matching
        but not the optimum, the oracle must report infinity.
        """
        from ordmatch.thin import cut_metric

        rng = random.Random(7)
        checked_infinite = 0
        for trial in range(60):
            n = rng.randint(2, 3)
            inst = random_profile(n, rng)
            perm = list(range(n))
            rng.shuffle(perm)
            matching = Matching.from_permutation(perm)
            cuts = []
            for _ in range(8):
                cut = frozenset(
                    x for x in range(2 * n) if rng.random() < 0.5
                )
                d = cut_metric(n, cut)
                if consistent(inst, d):
                    cuts.append(d)
            if not cuts:
                continue
            value = adversarial_distortion(inst, matching).value
            weights = [Fraction(rng.randint(1, 3)) for _ in cuts]
            rows = [
                [
                    sum(w * d.dist[x][y] for w, d in zip(weights, cuts))
                    for y in range(2 * n)
                ]
                for x in range(2 * n)
            ]
            combo = Metric(n, tuple(tuple(r) for r in rows))
            assert consistent(inst, combo)  # consistency is linear
            combo.check_triangle()
            for metric in cuts + [combo]:
                opt = min_cost_matching(metric)[1]
                mech = cost(matching, metric)
                if opt == 0 and mech > 0:
                    checked_infinite += 1
                    assert value == INFINITE
                elif opt > 0:
                    assert mech <= value * opt
        assert checked_infinite > 0  # the stress case actually occurred

    def test_candidate_pruning_preserves_the_max(self):
        rng = random.Random(6)
        for _ in range(5):
            n = rng.randint(2, 4)
            inst = random_profile(n, rng)
            perm = list(range(n))
            rng.shuffle(perm)
            matching = Matching.from_permutation(perm)
            rep = adversarial_distortion(inst, matching)
            if rep.value == INFINITE:
                continue
            solver = _BipartiteAdversary(inst, FractionalMatching.indicator(matching, n))
            unpruned = max(
                solver.maximize(ms)[0] for ms in itertools.permutations(range(n))
            )
            assert rep.value == unpruned

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=10**6),
        st.sampled_from(["matching", "rsd", "doubly-stochastic"]),
    )
    @settings(max_examples=45, deadline=None)
    def test_dual_pruning_never_changes_a_value(self, n, seed, kind):
        rng = random.Random(seed)
        inst = random_profile(n, rng)
        if kind == "matching":
            matching = Matching.from_permutation(rng.sample(range(n), n))
            rep = adversarial_distortion(inst, matching)
            target = FractionalMatching.indicator(matching, n)
        else:
            if kind == "rsd":
                target = exact_rsd_marginals(inst)
            else:
                target = random_doubly_stochastic(n, rng)
            rep = adversarial_distortion_fractional(inst, target)
        if rep.value == INFINITE:
            return
        solver = _BipartiteAdversary(inst, target)
        unpruned = max(
            solver.maximize(ms, prune_below=None)[0]
            for ms in itertools.permutations(range(n))
        )
        assert rep.value == unpruned
        stats = rep.stats
        assert stats.candidates == math.factorial(n)
        assert stats.lp_pruned + stats.dual_pruned < stats.candidates

    def test_mutated_dual_does_not_prune(self):
        """A dual whose certificate is broken (a negated z_i, or a raised
        residual entry) must never prune."""
        inst, _ = line_sd_instance(4)
        sd = serial_dictatorship(inst, range(4))
        solver = _BipartiteAdversary(inst, FractionalMatching.indicator(sd, 4))
        best = max(solver.maximize(ms)[0] for ms in itertools.permutations(range(4)))
        k = len(solver.detour_rows)
        for ms in itertools.permutations(range(4)):
            norm = solver._norm_row(ms)
            res = solve_lp(
                solver.objective, solver.detour_rows + [norm], [LESS] * k + [EQUAL], [0] * k + [1]
            )
            z, den = res.dual[:k], res.dual_den
            if any(z):
                break
        r = solver.residual(z, den)
        assert solver.bounded_by(r, den, norm, best)
        assert not solver.bounded_by(r, den, norm, res.value / solver.scale - Fraction(1, 10**6))

        i = next(i for i, zi in enumerate(z) if zi)
        negated = list(z)
        negated[i] = -negated[i]
        assert solver.residual(negated, den) is None

        kz = next(k for k, nk in enumerate(norm) if nk == 0)
        raised = list(r)
        raised[kz] = max(raised[kz], 0) + 1
        assert not solver.bounded_by(raised, den, norm, best)
        kn = next(k for k, nk in enumerate(norm) if nk)
        raised = list(r)
        raised[kn] = best.numerator * solver.scale * den + 1
        assert not solver.bounded_by(raised, den, norm, best)

    @pytest.mark.parametrize(
        "n, stats",
        [
            (4, OracleStats(24, lps=12, lp_pruned=4, dual_pruned=16, detour_rows=29, pivots=78)),
            (5, OracleStats(120, lps=22, lp_pruned=11, dual_pruned=104, detour_rows=79, pivots=271)),
        ],
    )
    def test_counters_pinned_on_the_sd_line(self, n, stats):
        inst, _ = line_sd_instance(n)
        rep = adversarial_distortion(inst, serial_dictatorship(inst, range(n)))
        assert rep.value == 2**n - 1
        assert rep.stats == stats

    def test_witness_contract_is_an_explicit_check(self, monkeypatch):
        """The re-evaluation guard is a named error, not an `assert` that
        vanishes under `python -O`."""
        real = distortion._complete_bipartite

        def perturbed(n, d):
            return real(n, [[2 * v for v in row] for row in d])

        monkeypatch.setattr(distortion, "_complete_bipartite", perturbed)
        inst, _ = line_sd_instance(3)
        with pytest.raises(distortion.WitnessError):
            adversarial_distortion(inst, serial_dictatorship(inst, range(3)))

    def test_infinite_witness_is_rechecked(self, monkeypatch):
        """An infinite report whose witness does not charge the target is
        refused like a finite one."""
        n = 2
        free = Metric(n, tuple(tuple(Fraction(0) for _ in range(2 * n)) for _ in range(2 * n)))
        monkeypatch.setattr(
            distortion,
            "_infinite_witness",
            lambda inst, p: (free, Matching.from_permutation(range(n))),
        )
        with pytest.raises(distortion.WitnessError):
            adversarial_distortion(Instance(n, ((0, 1), (1, 0))), Matching({0: 1, 1: 0}))

    def test_oracle_dominates_consistent_samples(self):
        rng = random.Random(4)
        for _ in range(3):
            n = rng.randint(2, 3)
            inst = random_profile(n, rng)
            perm = list(range(n))
            rng.shuffle(perm)
            matching = Matching.from_permutation(perm)
            rep = adversarial_distortion(inst, matching)
            for _ in range(200):
                metric = sample_consistent_metric(inst, rng)
                assert consistent(inst, metric)
                opt = min_cost_matching(metric)[1]
                assert cost(matching, metric) <= rep.value * opt


def _oracle_target(inst, kind, rng):
    """A perfect matching or exact RSD marginals, as (target, report)."""
    n = inst.n
    if kind == "matching":
        target = Matching.from_permutation(rng.sample(range(n), n))
        return target, adversarial_distortion(inst, target)
    target = exact_rsd_marginals(inst)
    return target, adversarial_distortion_fractional(inst, target)


class TestOracleProperties:
    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=10**6),
        st.sampled_from(["matching", "rsd"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_value_invariant_under_relabeling(self, n, seed, kind):
        rng = random.Random(seed)
        inst = random_profile(n, rng)
        target, rep = _oracle_target(inst, kind, rng)
        agents, items = rng.sample(range(n), n), rng.sample(range(n), n)
        prefs = [()] * n
        for i, p in enumerate(inst.prefs):
            prefs[agents[i]] = tuple(items[j] for j in p)
        renamed = Instance(n, tuple(prefs))
        if kind == "matching":
            moved = Matching({agents[i]: items[j] for i, j in target.assign.items()})
            again = adversarial_distortion(renamed, moved)
        else:
            rows = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    rows[agents[i]][items[j]] = target.p[i][j]
            moved = FractionalMatching(n, tuple(tuple(r) for r in rows))
            again = adversarial_distortion_fractional(renamed, moved)
        assert again.value == rep.value

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=10**6),
        st.sampled_from(["matching", "rsd"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_report_rechecks(self, n, seed, kind):
        rng = random.Random(seed)
        inst = random_profile(n, rng)
        target, rep = _oracle_target(inst, kind, rng)
        w = rep.witness_metric
        w.check_triangle()
        assert consistent(inst, w)
        mech = cost(target, w) if kind == "matching" else fractional_cost(target, w)
        opt = min_cost_matching(w)[1]
        assert (mech, opt) == (rep.mechanism_cost, rep.opt_cost)
        if rep.value == INFINITE:
            assert opt == 0 and mech > 0
        else:
            assert opt > 0 and mech / opt == rep.value


class TestAdversarialFractional:
    def test_indicator_equals_integral(self):
        inst = Instance(2, ((0, 1), (0, 1)))
        matching = Matching({0: 0, 1: 1})
        p = FractionalMatching.indicator(matching, 2)
        assert (
            adversarial_distortion_fractional(inst, p).value
            == adversarial_distortion(inst, matching).value
        )

    def test_hedging_beats_worst_pure(self):
        inst = Instance(2, ((0, 1), (0, 1)))
        uniform = FractionalMatching.uniform(2)
        hedged = adversarial_distortion_fractional(inst, uniform).value
        worst_pure = max(
            adversarial_distortion(inst, Matching.from_permutation(p)).value
            for p in itertools.permutations(range(2))
        )
        assert hedged < worst_pure

    def test_tree_k2_rsd_marginals_lower_bound(self):
        t = tree_instance(2)
        p = exact_rsd_marginals(t.instance, 4)
        rep = adversarial_distortion_fractional(t.instance, p)
        assert rep.value >= 3

    def test_rejects_substochastic(self):
        inst = Instance(2, ((0, 1), (0, 1)))
        p = FractionalMatching(2, ((Fraction(1, 2), Fraction(0)),) * 2)
        with pytest.raises(InvalidInputError):
            adversarial_distortion_fractional(inst, p)


class TestExpectedDistortion:
    def test_truncated_rsd_bound_small(self):
        rng = random.Random(5)
        for _ in range(4):
            n = rng.randint(1, 4)
            inst = random_profile(n, rng)
            metric = sample_consistent_metric(inst, rng)
            opt = min_cost_matching(metric)[1]
            assert opt > 0
            for m in range(n + 1):
                def handle(i, order, m=m):
                    taken = [False] * i.n
                    assign = {}
                    for a in order[:m]:
                        for j in i.prefs[a]:
                            if not taken[j]:
                                taken[j] = True
                                assign[a] = j
                                break
                    return Matching(assign)

                value = expected_distortion_known_metric(handle, inst, metric).value
                assert value <= Fraction(m, n + 1 - m)
                marginals = exact_rsd_marginals(inst, m)
                assert value == fractional_cost(marginals, metric) / opt

    def test_rsd_distortion_at_most_n(self):
        inst, metric = euclidean_random(5, 2, 1)
        handle = lambda i, order: serial_dictatorship(i, order)
        value = expected_distortion_known_metric(handle, inst, metric).value
        assert value <= 5

    def test_mc_mode_reports_halfwidth(self):
        inst, metric = euclidean_random(4, 2, 2)
        handle = lambda i, order: serial_dictatorship(i, order)
        exact = expected_distortion_known_metric(handle, inst, metric).value
        est = expected_distortion_known_metric(
            handle, inst, metric, mode="mc", trials=800, seed=5
        )
        assert est.halfwidth is not None
        assert abs(float(est.value) - float(exact)) <= 4 * est.halfwidth + 1e-9

    def test_mc_mode_deterministic_given_seed(self):
        inst, metric = euclidean_random(4, 2, 3)
        handle = lambda i, order: serial_dictatorship(i, order)
        a = expected_distortion_known_metric(handle, inst, metric, mode="mc", trials=100, seed=8)
        b = expected_distortion_known_metric(handle, inst, metric, mode="mc", trials=100, seed=8)
        assert a == b

    def test_inconsistent_rejected(self):
        inst = Instance(2, ((0, 1), (0, 1)))
        _, metric = line_sd_instance(2)
        bad = Instance(2, ((1, 0), (1, 0)))
        with pytest.raises(InvalidInputError):
            expected_distortion_known_metric(
                lambda i, o: serial_dictatorship(i, o), bad, metric
            )
