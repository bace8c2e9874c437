"""Exact rational simplex on a fraction-free integer tableau.

The tableau T stores determinant-scaled values (true value = T/det with
det > 0), so every pivot is integer arithmetic with an exact division --
no Fraction objects in the hot loop.  Row r is kept at the determinant
rdet[r] of the pivot that last touched it (true value = T[r]/rdet[r]): the
Bareiss step only rescales a row with a zero in the pivot column, so that
rescaling is deferred until the row is next touched.

Bland's rule provides anti-cycling: by default the entering column is chosen
by steepest reduced cost, but a run of degenerate pivots switches to Bland's
smallest-index rule until the objective strictly improves, which guarantees
termination on the highly degenerate metric polytopes this package feeds in.
`pivot_rule="bland"` forces the pure rule.

Rows whose entries are all `int` enter the tableau as they are; any other row
is scaled once by its least common denominator.  The optimal dual is read off
the final reduced-cost row, in integers over `det * c_den`.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

LESS, EQUAL, GREATER = "<=", "==", ">="

_DEGENERATE_STREAK = 16


@dataclass
class SimplexResult:
    """`dual[i] / dual_den` is the optimal dual of row i for the maximization
    form (the objective negated when minimizing): >= 0 on `<=` rows, <= 0 on
    `>=` rows, and 0 on equality rows that phase 1 found redundant.
    """

    status: str  # "optimal" | "unbounded" | "infeasible"
    value: Optional[Fraction] = None
    x: Optional[list[Fraction]] = None
    ray: Optional[list[Fraction]] = None
    dual: Optional[list[int]] = None
    dual_den: Optional[int] = None
    pivots: int = 0


def _scale_to_int(vals: Sequence[Fraction | int]) -> tuple[list[int], int]:
    """`vals` times their least common denominator, and that denominator."""
    if set(map(type, vals)) <= {int}:
        return list(vals), 1
    fracs = [Fraction(v) for v in vals]
    denom = lcm(*(v.denominator for v in fracs))
    return [int(v * denom) for v in fracs], denom


class _Tableau:
    def __init__(self, n_vars: int, rows, senses, rhs):
        self.nv = n_vars
        m = len(rows)
        irows = []
        # row i's dual is dual_sign[i] times the reduced cost of its slack
        # (or, for an equality row, its artificial) column
        self.dual_sign = []
        for coeffs, sense, b in zip(rows, senses, rhs):
            ints, _ = _scale_to_int([*coeffs, b])
            coeffs, b = ints[:-1], ints[-1]
            sign = -1 if sense == GREATER else 1
            if b < 0:
                coeffs = [-c for c in coeffs]
                b = -b
                sense = {LESS: GREATER, GREATER: LESS, EQUAL: EQUAL}[sense]
                if sense == EQUAL:
                    sign = -1
            self.dual_sign.append(sign)
            irows.append((coeffs, sense, b))

        n_slack = sum(1 for _, s, _ in irows if s != EQUAL)
        n_art = sum(1 for _, s, _ in irows if s != LESS)
        self.ncols = self.nv + n_slack + n_art
        self.art_start = self.nv + n_slack
        self.T: list[list[int]] = []
        self.rdet: list[int] = [1] * m
        self.basis: list[int] = []
        self.det = 1
        self.pivots = 0
        self.dual_col: list[int] = []
        slack_at = self.nv
        art_at = self.art_start
        for coeffs, sense, b in irows:
            row = [*coeffs, *[0] * (self.ncols - self.nv), b]
            if sense != EQUAL:
                self.dual_col.append(slack_at)
                row[slack_at] = 1 if sense == LESS else -1
                slack_at += 1
            else:
                self.dual_col.append(art_at)
            if sense == LESS:
                self.basis.append(slack_at - 1)
            else:
                row[art_at] = 1
                self.basis.append(art_at)
                art_at += 1
            self.T.append(row)
        self.allowed = [True] * self.ncols
        self.zrow: list[int] = []

    # -- pivoting ---------------------------------------------------------

    def pivot(self, p: int, q: int) -> None:
        T, rdet, det = self.T, self.rdet, self.det
        prow = T[p]
        if rdet[p] != det:
            prow = [a * det // rdet[p] for a in prow]
        piv = prow[q]
        sign = 1 if piv > 0 else -1
        new_det = sign * piv
        # Bareiss: row <- sign*(piv*row - row[q]*prow)/d, exact entry by entry,
        # for a row kept at determinant d.  Off the pivot row's support that is
        # new_det*row/d, which leaves the row as it is when new_det == d;
        # pivot rows here are mostly zeros.
        support = [(j, b) for j, b in enumerate(prow) if b]

        def eliminate(row: list[int], d: int) -> list[int]:
            f = sign * row[q]
            if new_det == d:
                for j, b in support if f else ():
                    row[j] -= f * b // d
                return row
            out = [new_det * a // d if a else 0 for a in row]
            for j, b in support if f else ():
                out[j] = (new_det * row[j] - f * b) // d
            return out

        for r, row in enumerate(T):
            if r != p and row[q]:
                T[r] = eliminate(row, rdet[r])
                rdet[r] = new_det
        T[p] = prow if sign > 0 else [-a for a in prow]
        rdet[p] = new_det
        self.zrow = eliminate(self.zrow, det)
        self.det = new_det
        self.basis[p] = q
        self.pivots += 1

    def keep_rows(self, keep: list[int]) -> None:
        self.T = [self.T[i] for i in keep]
        self.rdet = [self.rdet[i] for i in keep]
        self.basis = [self.basis[i] for i in keep]

    def set_objective(self, c_int: list[int]) -> None:
        """Reduced-cost row for integer objective c (len ncols), det-scaled."""
        for i, d in enumerate(self.rdet):
            if d != self.det:
                self.T[i] = [a * self.det // d for a in self.T[i]]
                self.rdet[i] = self.det
        z = [0] * (self.ncols + 1)
        for i, row in enumerate(self.T):
            cb = c_int[self.basis[i]]
            if cb:
                for j in range(self.ncols + 1):
                    z[j] += cb * row[j]
        for j in range(self.ncols):
            z[j] -= self.det * c_int[j]
        self.zrow = z

    def _entering(self, bland: bool) -> int:
        z = self.zrow
        if bland:
            for j in range(self.ncols):
                if self.allowed[j] and z[j] < 0:
                    return j
            return -1
        best, best_j = 0, -1
        for j in range(self.ncols):
            if self.allowed[j] and z[j] < best:
                best, best_j = z[j], j
        return best_j

    def _leaving(self, q: int) -> int:
        """Min-ratio row; Bland tie-break on the smallest basic index."""
        best = -1
        for i, row in enumerate(self.T):
            t = row[q]
            if t > 0:
                if best < 0:
                    best = i
                else:
                    lhs = row[-1] * self.T[best][q]
                    rhs = self.T[best][-1] * t
                    if lhs < rhs or (lhs == rhs and self.basis[i] < self.basis[best]):
                        best = i
        return best

    def optimize(self, pivot_rule: str) -> str:
        """Run primal simplex to optimality; returns 'optimal' or 'unbounded'."""
        force_bland = pivot_rule == "bland"
        streak = 0
        bland = force_bland
        while True:
            q = self._entering(bland)
            if q < 0:
                return "optimal"
            p = self._leaving(q)
            if p < 0:
                self._ray_col = q
                return "unbounded"
            degenerate = self.T[p][-1] == 0
            self.pivot(p, q)
            if force_bland:
                continue
            if degenerate:
                streak += 1
                if streak >= _DEGENERATE_STREAK:
                    bland = True
            else:
                streak = 0
                bland = False

    # -- extraction -------------------------------------------------------

    def solution(self) -> list[Fraction]:
        x = [Fraction(0)] * self.nv
        for i, b in enumerate(self.basis):
            if b < self.nv:
                x[b] = Fraction(self.T[i][-1], self.rdet[i])
        return x

    def ray(self) -> list[Fraction]:
        q = self._ray_col
        r = [Fraction(0)] * self.nv
        if q < self.nv:
            r[q] = Fraction(1)
        for i, b in enumerate(self.basis):
            if b < self.nv:
                r[b] = Fraction(-self.T[i][q], self.rdet[i])
        return r

    def objective_value(self) -> Fraction:
        return Fraction(self.zrow[-1], self.det)

    def dual(self) -> list[int]:
        """Row duals of the current objective, det-scaled (a row dropped as
        redundant keeps its artificial's zero reduced cost, so gets 0)."""
        return [s * self.zrow[q] for s, q in zip(self.dual_sign, self.dual_col)]


def solve_lp(
    objective: Sequence[Fraction | int],
    rows: Sequence[Sequence[Fraction | int]],
    senses: Sequence[str],
    rhs: Sequence[Fraction | int],
    maximize: bool = True,
    pivot_rule: str = "dantzig-bland",
) -> SimplexResult:
    """Solve max/min c.x subject to rows (senses, rhs) and x >= 0."""
    nv = len(objective)
    tab = _Tableau(nv, rows, senses, rhs)

    if tab.art_start < tab.ncols:
        phase1 = [0] * tab.ncols
        for j in range(tab.art_start, tab.ncols):
            phase1[j] = -1
        tab.set_objective(phase1)
        tab.optimize(pivot_rule)
        if tab.zrow[-1] != 0:
            return SimplexResult(status="infeasible", pivots=tab.pivots)
        for i in range(len(tab.T)):
            if tab.basis[i] >= tab.art_start:
                q = next(
                    (
                        j
                        for j in range(tab.art_start)
                        if tab.T[i][j] != 0
                    ),
                    -1,
                )
                if q >= 0:
                    tab.pivot(i, q)
        tab.keep_rows([i for i in range(len(tab.T)) if tab.basis[i] < tab.art_start])
        for j in range(tab.art_start, tab.ncols):
            tab.allowed[j] = False

    sign = 1 if maximize else -1
    c_int, c_den = _scale_to_int([sign * c for c in objective])
    c_full = c_int + [0] * (tab.ncols - nv)
    tab.set_objective(c_full)
    status = tab.optimize(pivot_rule)
    if status == "unbounded":
        return SimplexResult(
            status="unbounded", x=tab.solution(), ray=tab.ray(), pivots=tab.pivots
        )
    value = sign * tab.objective_value() / c_den
    return SimplexResult(
        status="optimal",
        value=value,
        x=tab.solution(),
        dual=tab.dual(),
        dual_den=tab.det * c_den,
        pivots=tab.pivots,
    )
