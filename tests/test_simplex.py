import random
from fractions import Fraction

import pytest

from ordmatch._simplex import EQUAL, GREATER, LESS, solve_lp


def random_lp(rng):
    nv = rng.randint(1, 5)
    m = rng.randint(1, 6)
    rows = [[Fraction(rng.randint(-4, 4)) for _ in range(nv)] for _ in range(m)]
    senses = [rng.choice([LESS, EQUAL, GREATER]) for _ in range(m)]
    rhs = [Fraction(rng.randint(-6, 6)) for _ in range(m)]
    obj = [Fraction(rng.randint(-5, 5)) for _ in range(nv)]
    return obj, rows, senses, rhs


class TestEngine:
    def test_pivot_rules_agree(self):
        rng = random.Random(7)
        for _ in range(200):
            obj, rows, senses, rhs = random_lp(rng)
            a = solve_lp(obj, rows, senses, rhs)
            b = solve_lp(obj, rows, senses, rhs, pivot_rule="bland")
            assert a.status == b.status
            if a.status == "optimal":
                assert a.value == b.value

    def test_solutions_exactly_feasible(self):
        rng = random.Random(8)
        for _ in range(200):
            obj, rows, senses, rhs = random_lp(rng)
            res = solve_lp(obj, rows, senses, rhs)
            if res.status != "optimal":
                continue
            for row, s, b in zip(rows, senses, rhs):
                lhs = sum(c * v for c, v in zip(row, res.x))
                assert (
                    lhs <= b if s == LESS else lhs >= b if s == GREATER else lhs == b
                )
            assert sum(c * v for c, v in zip(obj, res.x)) == res.value

    def test_dual_certifies_the_value(self):
        """Weak duality made exact: the dual read off the final reduced-cost
        row is sign-feasible, dominates c on every column, and prices the
        right-hand side at the optimal value."""
        rng = random.Random(10)
        solved = 0
        for _ in range(300):
            obj, rows, senses, rhs = random_lp(rng)
            res = solve_lp(obj, rows, senses, rhs)
            if res.status != "optimal":
                continue
            solved += 1
            y = [Fraction(v, res.dual_den) for v in res.dual]
            for yi, s in zip(y, senses):
                assert yi >= 0 if s == LESS else yi <= 0 if s == GREATER else True
            for j, cj in enumerate(obj):
                assert cj - sum(yi * row[j] for yi, row in zip(y, rows)) <= 0
            assert sum(yi * b for yi, b in zip(y, rhs)) == res.value
        assert solved >= 50

    def test_integer_rows_match_fraction_rows(self):
        rng = random.Random(12)
        for _ in range(100):
            obj, rows, senses, rhs = random_lp(rng)
            a = solve_lp(obj, rows, senses, rhs)
            b = solve_lp(
                [int(c) for c in obj],
                [[int(c) for c in row] for row in rows],
                senses,
                [int(v) for v in rhs],
            )
            assert (a.status, a.value, a.x, a.pivots) == (b.status, b.value, b.x, b.pivots)

    @pytest.mark.parametrize("rule", ["bland", "dantzig-bland"])
    def test_beale_cycling_example(self, rule):
        """Beale (1955): the largest-coefficient rule cycles on this LP
        unless ties in the ratio test are broken with care."""
        obj = [Fraction(3, 4), Fraction(-20), Fraction(1, 2), Fraction(-6)]
        rows = [
            [Fraction(1, 4), Fraction(-8), Fraction(-1), Fraction(9)],
            [Fraction(1, 2), Fraction(-12), Fraction(-1, 2), Fraction(3)],
            [Fraction(0), Fraction(0), Fraction(1), Fraction(0)],
        ]
        res = solve_lp(obj, rows, [LESS] * 3, [0, 0, 1], pivot_rule=rule)
        assert res.status == "optimal" and res.value == Fraction(5, 4)
        assert res.x == [1, 0, 1, 0]
        y = [Fraction(v, res.dual_den) for v in res.dual]
        assert all(yi >= 0 for yi in y) and y[2] == res.value

    def test_klee_minty_cube(self):
        n = 6
        rows, senses, rhs = [], [], []
        for i in range(n):
            row = [Fraction(0)] * n
            for j in range(i):
                row[j] = Fraction(2 ** (i - j + 1))
            row[i] = Fraction(1)
            rows.append(row)
            senses.append(LESS)
            rhs.append(Fraction(5 ** (i + 1)))
        obj = [Fraction(2 ** (n - 1 - i)) for i in range(n)]
        res = solve_lp(obj, rows, senses, rhs, pivot_rule="bland")
        assert res.status == "optimal" and res.value == 5 ** n

    def test_box(self):
        res = solve_lp([Fraction(1)], [[Fraction(1)]], [LESS], [Fraction(1)], pivot_rule="bland")
        assert res.status == "optimal" and res.value == 1

    def test_infeasible(self):
        res = solve_lp(
            [Fraction(0)],
            [[Fraction(1)], [Fraction(1)]],
            [LESS, GREATER],
            [Fraction(1), Fraction(2)],
            pivot_rule="bland",
        )
        assert res.status == "infeasible"

    def test_unbounded_reports_ray(self):
        res = solve_lp(
            [Fraction(1), Fraction(0)],
            [[Fraction(0), Fraction(1)]],
            [LESS],
            [Fraction(1)],
            pivot_rule="bland",
        )
        assert res.status == "unbounded"
        assert res.ray[0] > 0

    def test_minimization(self):
        res = solve_lp(
            [Fraction(1)],
            [[Fraction(1)]],
            [GREATER],
            [Fraction(3)],
            maximize=False,
        )
        assert res.status == "optimal" and res.value == 3

    def test_agrees_with_scipy(self):
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = random.Random(9)
        for _ in range(150):
            obj, rows, senses, rhs = random_lp(rng)
            res = solve_lp(obj, rows, senses, rhs)
            a_ub, b_ub, a_eq, b_eq = [], [], [], []
            for row, s, b in zip(rows, senses, rhs):
                fr = [float(v) for v in row]
                if s == LESS:
                    a_ub.append(fr)
                    b_ub.append(float(b))
                elif s == GREATER:
                    a_ub.append([-v for v in fr])
                    b_ub.append(-float(b))
                else:
                    a_eq.append(fr)
                    b_eq.append(float(b))
            ref = linprog(
                [-float(v) for v in obj],
                A_ub=a_ub or None,
                b_ub=b_ub or None,
                A_eq=a_eq or None,
                b_eq=b_eq or None,
                bounds=[(0, None)] * len(obj),
                method="highs",
            )
            refstat = {2: "infeasible", 3: "unbounded"}.get(ref.status, "optimal")
            assert res.status == refstat
            if res.status == "optimal":
                assert abs(float(res.value) + ref.fun) <= 1e-7 * (1 + abs(ref.fun))
