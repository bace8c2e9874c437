import itertools
import random
from fractions import Fraction

import pytest

from conftest import random_profile
from ordmatch.core import FractionalMatching, Instance, InvalidInputError, Matching
from ordmatch.generators import line_sd_instance
from ordmatch.mechanisms import (
    RepMatchState,
    boston,
    deferred_acceptance,
    exact_rsd_marginals,
    monte_carlo_marginals,
    rep_match,
    rsd,
    sd_on_items,
    serial_dictatorship,
    serializability_check,
    truncated_rsd,
)


class TestSerialDictatorship:
    def test_single_agent(self):
        inst = Instance(1, ((0,),))
        assert serial_dictatorship(inst, (0,)).assign == {0: 0}

    def test_line_instance_serializes(self):
        inst, _ = line_sd_instance(3)
        out = serial_dictatorship(inst, (0, 1, 2))
        assert out.assign == {0: 0, 1: 1, 2: 2}

    def test_identical_lists_follow_processing_order(self):
        inst = Instance(3, ((2, 0, 1),) * 3)
        out = serial_dictatorship(inst, (1, 2, 0))
        assert out.assign == {1: 2, 2: 0, 0: 1}

    def test_rejects_bad_order(self):
        inst = Instance(2, ((0, 1), (0, 1)))
        with pytest.raises(InvalidInputError):
            serial_dictatorship(inst, (0, 0))

    @pytest.mark.parametrize("n", range(2, 11))
    def test_line_serialization_up_to_n10(self, n):
        rng = random.Random(n)
        pi = list(range(n))
        sigma = list(range(n))
        rng.shuffle(pi)
        rng.shuffle(sigma)
        inst, _ = line_sd_instance(n, pi, sigma)
        out = serial_dictatorship(inst, pi)
        assert out.assign == {pi[r]: sigma[r] for r in range(n)}


class TestRsd:
    def test_deterministic_given_seed(self):
        inst = random_profile(5, random.Random(3))
        assert rsd(inst, 42) == rsd(inst, 42)

    def test_distribution_matches_exact_marginals(self):
        inst = random_profile(3, random.Random(9))
        counts = [[0] * 3 for _ in range(3)]
        for order in itertools.permutations(range(3)):
            for i, j in serial_dictatorship(inst, order).assign.items():
                counts[i][j] += 1
        expected = exact_rsd_marginals(inst, 3)
        assert all(
            Fraction(counts[i][j], 6) == expected.p[i][j]
            for i in range(3)
            for j in range(3)
        )


class TestTruncatedRsd:
    def test_m_zero_empty(self):
        inst = random_profile(4, random.Random(0))
        assert len(truncated_rsd(inst, 0, 7)) == 0

    def test_m_n_is_full_rsd(self):
        inst = random_profile(4, random.Random(1))
        full = exact_rsd_marginals(inst, 4)
        assert full.is_doubly_stochastic()

    def test_size_is_m(self):
        inst = random_profile(5, random.Random(2))
        for m in range(6):
            assert len(truncated_rsd(inst, m, 11)) == m

    def test_m_above_n_rejected(self):
        inst = random_profile(2, random.Random(3))
        with pytest.raises(InvalidInputError):
            truncated_rsd(inst, 3, 0)


class TestExactMarginals:
    def test_n1(self):
        inst = Instance(1, ((0,),))
        assert exact_rsd_marginals(inst, 1).p == ((Fraction(1),),)

    def test_symmetric_contest(self):
        inst = Instance(2, ((0, 1), (0, 1)))
        p = exact_rsd_marginals(inst, 2)
        assert p.p == ((Fraction(1, 2), Fraction(1, 2)),) * 2

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_total_mass_is_m(self, m):
        inst = random_profile(3, random.Random(4))
        p = exact_rsd_marginals(inst, m)
        assert sum(sum(row) for row in p.p) == m

    def test_cap_refuses(self):
        inst = random_profile(4, random.Random(5))
        with pytest.raises(InvalidInputError):
            exact_rsd_marginals(inst, 4, cap=3)


class TestMonteCarloMarginals:
    def test_single_trial_is_indicator(self):
        inst = random_profile(4, random.Random(6))
        p = monte_carlo_marginals(inst, 4, 1, 123)
        assert sorted(v for row in p.p for v in row if v) == [1, 1, 1, 1]

    def test_reproducible(self):
        inst = random_profile(4, random.Random(7))
        assert monte_carlo_marginals(inst, 3, 50, 9) == monte_carlo_marginals(inst, 3, 50, 9)

    def test_close_to_exact_at_10k_trials(self):
        inst = random_profile(4, random.Random(8))
        exact = exact_rsd_marginals(inst, 4)
        approx = monte_carlo_marginals(inst, 4, 10**4, 2024)
        worst = max(
            abs(exact.p[i][j] - approx.p[i][j]) for i in range(4) for j in range(4)
        )
        assert worst <= Fraction(5, 100)


class TestRepMatch:
    def test_distinct_tops_no_merge(self):
        inst = Instance(3, ((0, 1, 2), (1, 0, 2), (2, 1, 0)))
        assert rep_match(inst).assign == {0: 0, 1: 1, 2: 2}

    def test_two_agents_merge_on_shared_top(self):
        inst = Instance(2, ((0, 1), (0, 1)))
        out = rep_match(inst)
        # merged set keeps agent 0 as representative; its top-2 items are handed
        # to agents 0 and 1 in list order
        assert out.assign == {0: 0, 1: 1}

    def test_output_is_perfect(self):
        for seed in range(30):
            inst = random_profile(1 + seed % 6, random.Random(seed))
            assert rep_match(inst).is_perfect(inst.n)

    def test_state_invariants_and_level_rule(self):
        from ordmatch.mechanisms import rep_match_states

        for seed in range(20):
            inst = random_profile(1 + seed % 6, random.Random(100 + seed))
            states = list(rep_match_states(inst))
            for prev, cur in zip(states, states[1:]):
                assert len(cur.partition) == len(prev.partition) - 1
                merged = [s for s in cur.partition if s not in prev.partition]
                if not merged:
                    continue  # merged set equals a previous one only by content
                (new_set,) = merged
                parents = [
                    (s, lam)
                    for s, lam in zip(prev.partition, prev.levels)
                    if set(s) < set(new_set)
                ]
                assert len(parents) == 2
                (s1, l1), (s2, l2) = parents
                idx = cur.partition.index(new_set)
                expected = l1 + 1 if l1 == l2 else max(l1, l2)
                assert cur.levels[idx] == expected
            for s in states:
                s.check()  # size >= 2^level throughout

    def test_check_raises_on_level_above_size(self):
        # an explicit check, so it still fires under python -O
        with pytest.raises(RuntimeError):
            RepMatchState(((0,),), (0,), (3,)).check()


class TestDeferredAcceptance:
    def test_single(self):
        inst = Instance(1, ((0,),))
        assert deferred_acceptance(inst, ((0,),)).assign == {0: 0}

    def test_two_round_trace(self):
        inst = Instance(2, ((0, 1), (0, 1)))
        item_prefs = ((1, 0), (0, 1))  # item 0 prefers agent 1
        out = deferred_acceptance(inst, item_prefs)
        assert out.assign == {1: 0, 0: 1}

    def test_no_blocking_pair(self):
        rng = random.Random(10)
        for _ in range(40):
            n = rng.randint(1, 6)
            inst = random_profile(n, rng)
            item_prefs = []
            for _ in range(n):
                p = list(range(n))
                rng.shuffle(p)
                item_prefs.append(tuple(p))
            out = deferred_acceptance(inst, item_prefs)
            assert out.is_perfect(n)
            item_of = out.assign
            agent_of = {j: i for i, j in item_of.items()}
            for i in range(n):
                for j in range(n):
                    if item_of[i] == j:
                        continue
                    agent_prefers = inst.ranks[i][j] < inst.ranks[i][item_of[i]]
                    item_prefers = item_prefs[j].index(i) < item_prefs[j].index(agent_of[j])
                    assert not (agent_prefers and item_prefers)

    def test_da_serializes_on_def_51_instances(self):
        rng = random.Random(11)
        for n in (2, 3):
            item_prefs = []
            for _ in range(n):
                p = list(range(n))
                rng.shuffle(p)
                item_prefs.append(tuple(p))
            pi = sd_on_items(item_prefs)
            handle = lambda inst: deferred_acceptance(inst, item_prefs)
            assert serializability_check(handle, pi, tuple(range(n)), n)


class TestBoston:
    def test_distinct_tops_single_round(self):
        inst = Instance(3, ((0, 1, 2), (1, 0, 2), (2, 1, 0)))
        assert boston(inst, (0, 1, 2)).assign == {0: 0, 1: 1, 2: 2}

    def test_one_rejection(self):
        inst = Instance(2, ((0, 1), (0, 1)))
        out = boston(inst, (0, 1))
        assert out.assign == {0: 0, 1: 1}

    def test_priority_decides_contests(self):
        inst = Instance(2, ((0, 1), (0, 1)))
        out = boston(inst, (1, 0))
        assert out.assign == {1: 0, 0: 1}

    def test_perfect_output(self):
        rng = random.Random(12)
        for _ in range(30):
            n = rng.randint(1, 6)
            inst = random_profile(n, rng)
            priority = list(range(n))
            rng.shuffle(priority)
            assert boston(inst, priority).is_perfect(n)

    def test_round_one_matches_are_irrevocable(self):
        from ordmatch.generators import boston_instance

        inst, _, priority = boston_instance(4)
        out = boston(inst, priority)
        # round 1: the agent at 1 wins the item at 2, and the first co-located
        # agent at each level keeps the first co-located item
        assert out.assign[0] == 1
        assert out.assign[2] == 2
        assert out.assign[4] == 4


class TestSerializability:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_sd_is_serializable_for_any_sigma(self, n):
        rng = random.Random(n)
        pi = list(range(n))
        sigma = list(range(n))
        rng.shuffle(pi)
        rng.shuffle(sigma)
        handle = lambda inst: serial_dictatorship(inst, pi)
        assert serializability_check(handle, pi, sigma, n)

    def test_sd_is_serializable_at_n5_sampled(self):
        rng = random.Random(55)
        n = 5
        pi = list(range(n))
        sigma = list(range(n))
        rng.shuffle(pi)
        rng.shuffle(sigma)
        handle = lambda inst: serial_dictatorship(inst, pi)
        assert serializability_check(handle, pi, sigma, n, samples=2000)

    def test_reverse_mechanism_fails(self):
        n = 3
        pi = (0, 1, 2)
        sigma = (0, 1, 2)

        def reverse(inst):
            return Matching({pi[r]: sigma[n - 1 - r] for r in range(n)})

        assert not serializability_check(reverse, pi, sigma, n)

    def test_sampling_path_runs(self):
        n = 5
        pi = tuple(range(n))
        sigma = tuple(range(n))
        handle = lambda inst: serial_dictatorship(inst, pi)
        assert serializability_check(handle, pi, sigma, n, samples=50)


class TestSdOnItems:
    def test_items_pick_in_order(self):
        item_prefs = ((1, 0), (1, 0))
        assert sd_on_items(item_prefs) == (1, 0)
