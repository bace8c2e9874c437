"""The benchmark's three workloads.

Each workload makes its inputs from the seed in `setup`, hands out its ops in
rounds, and checks every op's output.  An op's `run` does only the timed work
and reaches ordmatch through a `Layers` object; its `check` runs untimed and
untraced, raises `CheckFailed` on a wrong output, and returns the record that
is compared with the pinned reference.  `counts` turns a checked output into
per-layer counters for a traced run.
"""
from __future__ import annotations

import io
import itertools
import json
import math
import random
from contextlib import redirect_stderr
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from ordmatch import cli, core, distortion, generators, mechanisms, thin
from ordmatch.core import FractionalMatching, Instance, Matching

INF = math.inf
OUT = Path(__file__).resolve().parent.parent / ".perfbench_out"  # all the benchmark writes


class CheckFailed(Exception):
    """An op's output failed a self-check or differs from the reference."""


@dataclass
class Op:
    key: str  # reference key: identifies the op's input, not its position
    run: Callable[[Any], Any]  # Layers -> output (timed)
    check: Callable[[Any], dict]  # output -> record (untimed)
    counts: Callable[[Any], dict] = lambda out: {}


def _fmt(x) -> str:
    return "inf" if x == INF else str(Fraction(x))


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _random_profile(n: int, rng: random.Random) -> Instance:
    return Instance(n, tuple(tuple(rng.sample(range(n), n)) for _ in range(n)))


# ---------------------------------------------------------------------------
# oracle: exact adversarial distortion at n = 5
# ---------------------------------------------------------------------------


def _check_report(inst: Instance, target, rep) -> dict:
    """Re-evaluate an oracle witness exactly, independently of the oracle."""
    w = rep.witness_metric
    _require(w is not None and rep.witness_opt is not None, "report has no witness")
    _require(core.consistent(inst, w), "witness metric is inconsistent with the profile")
    try:
        w.check_triangle()
    except core.InvalidInputError as exc:
        raise CheckFailed(f"witness metric: {exc}") from None
    mech_cost = (
        core.cost(target, w)
        if isinstance(target, Matching)
        else core.fractional_cost(target, w)
    )
    _require(mech_cost == rep.mechanism_cost, "witness does not reproduce mechanism_cost")
    _require(core.cost(rep.witness_opt, w) == rep.opt_cost, "witness_opt does not cost opt_cost")
    _, opt = distortion.min_cost_matching(w)
    _require(opt == rep.opt_cost, "min_cost_matching disagrees with opt_cost")
    if rep.value == INF:
        _require(opt == 0 and mech_cost > 0, "infinite value without a free optimum")
    else:
        _require(opt > 0 and rep.value == mech_cost / opt, "value != mechanism_cost / opt_cost")
    return {
        "value": _fmt(rep.value),
        "mechanism_cost": _fmt(rep.mechanism_cost),
        "opt_cost": _fmt(rep.opt_cost),
    }


def _oracle_op(key: str, inst: Instance, targets: dict) -> Op:
    def run(L):
        return {
            name: (
                L.distortion.adversarial_distortion_fractional(inst, target)
                if isinstance(target, FractionalMatching)
                else L.distortion.adversarial_distortion(inst, target)
            )
            for name, target in targets.items()
        }

    return Op(
        key=key,
        run=run,
        check=lambda reps: {k: _check_report(inst, targets[k], rep) for k, rep in reps.items()},
    )


def _relabel(inst: Instance, agents: list, items: list) -> Instance:
    """The profile with agent i renamed agents[i] and item j renamed items[j]."""
    prefs = [()] * inst.n
    for i, p in enumerate(inst.prefs):
        prefs[agents[i]] = tuple(items[j] for j in p)
    return Instance(inst.n, tuple(prefs))


@dataclass
class Oracle:
    """One op is one profile's oracle calls; one round is the whole corpus.

    The corpus is pinned: the line instance that forces SD to 2^n - 1 (one
    call, target SD), and `profiles` random n = 5 profiles, each under three
    targets (SD, rep_match, exact RSD marginals), so three calls per op.  The
    seed relabels the agents and items of every instance and its targets.
    The oracle's value does not change under relabeling, so every op is
    compared with the reference whatever the seed, while the seed still moves
    the oracle's enumeration order, and every run measures the same instances.

    A single call takes 0.02-1.4 s and relabeling alone moves it by about 16%,
    so the median of single calls moved 18% between seeds; the sum of a
    profile's three calls is steadier.
    """

    n: int = 5
    profiles: int = 24  # one pass takes longer than a 30 s run at this commit
    corpus: list = field(default_factory=list)

    def setup(self, seed: int) -> None:
        n, M = self.n, mechanisms
        base_rng = random.Random(f"oracle-corpus:{n}")
        label_rng = random.Random(f"oracle:{seed}")
        line, _ = generators.line_sd_instance(n)
        self.corpus = []
        for r in range(-1, self.profiles):
            base = line if r < 0 else _random_profile(n, base_rng)
            agents, items = label_rng.sample(range(n), n), label_rng.sample(range(n), n)
            inst = _relabel(base, agents, items)
            targets = {"sd": M.serial_dictatorship(inst, agents)}  # renamed order 0, 1, ...
            if r < 0:
                self.corpus.append(_oracle_op("line-sd", inst, targets))
                continue
            rep = M.rep_match(base)
            targets["rep"] = Matching({agents[i]: items[j] for i, j in rep.assign.items()})
            targets["rsd"] = M.exact_rsd_marginals(inst)
            self.corpus.append(_oracle_op(f"profile:{r}", inst, targets))

    def rounds(self):
        return itertools.repeat(self.corpus)


# ---------------------------------------------------------------------------
# known-metric: evaluation on seeded Euclidean instances, n = 8 ... 64
# ---------------------------------------------------------------------------


BVN_MAX_N = 16  # BvN costs 27 s at n = 64
THIN_N = 8  # the size whose op adds the thinness report and thin_search
THIN_SEARCH_BETA = Fraction(2)


def _item_prefs(metric) -> list[tuple[int, ...]]:
    """Items rank agents by distance (ties by index): the DA side's lists."""
    n = metric.n
    return [
        tuple(sorted(range(n), key=lambda a: (metric.dist[a][n + j], a)))
        for j in range(n)
    ]


@dataclass
class KnownMetric:
    """One op evaluates one `euclidean_random` instance with every
    known-metric tool; a round is one pass over `sizes`.
    """

    sizes: tuple = (8, 16, 24, 32, 40, 48, 56, 64)
    trials: int = 2000  # Monte-Carlo orders, for the expectation and marginals
    thin_search_n: int = 5

    def setup(self, seed: int) -> None:
        self.seed = seed

    def rounds(self):
        for c in itertools.count():
            yield [self._op(n, self.seed * 1000 + c) for n in self.sizes]

    def _op(self, n: int, s: int) -> Op:
        def run(L):
            inst, metric = L.generators.euclidean_random(n, 2, s)
            L.check_triangle(metric)
            _, opt = L.distortion.min_cost_matching(metric)
            order = tuple(range(n))
            M = L.mechanisms
            outcomes = {
                "sd": M.serial_dictatorship(inst, order),
                "rep": M.rep_match(inst),
                "boston": M.boston(inst, order),
                "da": M.deferred_acceptance(inst, _item_prefs(metric)),
                "trsd": M.truncated_rsd(inst, n // 2, s),
            }
            out = {"inst": inst, "metric": metric, "opt": opt, "outcomes": outcomes}
            out["costs"] = {k: L.core.cost(m, metric) for k, m in outcomes.items()}
            out["expected"] = L.distortion.expected_distortion_known_metric(
                mechanisms.serial_dictatorship, inst, metric,
                mode="mc", trials=self.trials, seed=s,
            ).value
            p = M.monte_carlo_marginals(inst, n, self.trials, s)
            rounded = L.thin.hall_round(p)
            out.update(
                p=p,
                rounded=rounded,
                frac=L.core.fractional_cost(p, metric),
                hall=L.core.cost(rounded, metric),
            )
            if n <= BVN_MAX_N:
                out["bvn"] = L.thin.bvn_decompose(p)
            if n == THIN_N:
                out["thinness"] = L.thin.thinness(p, rounded).beta
                small, _ = L.generators.euclidean_random(self.thin_search_n, 2, s)
                p_small = M.exact_rsd_marginals(small)
                out["thin_search"] = (
                    p_small, L.thin.thin_search(p_small, THIN_SEARCH_BETA)
                )
            return out

        return Op(key=f"{n}:{s}", run=run, check=self._check)

    def _check(self, out) -> dict:
        n, opt, costs = out["inst"].n, out["opt"], out["costs"]
        _require(opt > 0, "euclidean instance has a free optimum")
        for name, m in out["outcomes"].items():
            if name == "trsd":
                _require(len(m) == n // 2, "truncated RSD matched the wrong number of agents")
            else:
                _require(m.is_perfect(n), f"{name} is not a perfect matching")
                _require(opt <= costs[name], f"OPT exceeds the {name} cost")
        _require(out["expected"] >= 1, "expected distortion below 1")
        _require(out["rounded"].is_perfect(n), "hall_round is not perfect")
        _require(opt <= out["hall"], "OPT exceeds the rounded cost")
        _require(out["hall"] <= n * n * out["frac"], "Hall bound cost <= n^2 * fractional_cost fails")
        rec = {k: _fmt(v) for k, v in costs.items()}
        rec.update(
            opt=_fmt(opt), expected=_fmt(out["expected"]),
            frac=_fmt(out["frac"]), hall=_fmt(out["hall"]),
        )
        if "bvn" in out:
            bvn = out["bvn"]
            _require(bvn.reassemble() == out["p"], "BvN terms do not reassemble p")
            _require(len(bvn.terms) <= n * n, "BvN used more than n^2 terms")
            rec["bvn_terms"] = str(len(bvn.terms))
        if "thinness" in out:
            rec["thinness"] = _fmt(out["thinness"])
            p_small, found = out["thin_search"]
            if found is not None:
                beta = thin.thinness(p_small, found).beta
                _require(beta <= THIN_SEARCH_BETA, "thin_search result is not beta-thin")
            rec["thin_search"] = "none" if found is None else json.dumps(found.pairs())
        return rec


# ---------------------------------------------------------------------------
# reproduce: the CLI's `reproduce --experiment all`, in process
# ---------------------------------------------------------------------------


@dataclass
class Reproduce:
    """One op is one `ordmatch reproduce --experiment all` pass with its own
    seed s = workload seed + op index.  Exit code 1 (a bound check failed) is
    a scientific verdict, not a failed op; the records' `passed: false` are
    counted in `cli.records_failed` only.
    """

    workdir: Path = OUT / "reproduce"  # where each pass writes its records
    config: Path | None = None  # a smaller ReproduceConfig, for the self-test

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.workdir.mkdir(parents=True, exist_ok=True)

    def rounds(self):
        for i in itertools.count():
            yield [self._op(self.seed + i)]

    def _op(self, s: int) -> Op:
        out = self.workdir / f"reproduce-{s}.json"
        argv = ["reproduce", "--experiment", "all", "--seed", str(s), "--out", str(out)]
        if self.config is not None:
            argv += ["--config", str(self.config)]

        def run(L):
            err = io.StringIO()
            with redirect_stderr(err):
                try:
                    rc = L.cli_main(argv)
                except SystemExit as exc:  # argparse exits on a bad command line
                    rc = exc.code
            return {"rc": rc, "stderr": err.getvalue()}

        return Op(key=str(s), run=run, check=lambda res: self._check(res, out), counts=self._counts)

    @staticmethod
    def _check(res: dict, out: Path) -> dict:
        rc = res["rc"]
        _require(rc in (0, 1), f"reproduce exited with {rc!r}: {res['stderr'][-300:]}")
        records = res["records"] = json.loads(out.read_text())
        out.unlink()
        _require(
            [r["experiment"] for r in records] == list(cli.EXPERIMENTS),
            "reproduce did not write one record per experiment",
        )
        _require(rc == (0 if all(r["passed"] for r in records) else 1), "exit code disagrees with the records")
        return {r["experiment"]: r["measured"] for r in records}

    @staticmethod
    def _counts(res: dict) -> dict:
        records = res["records"]
        c = {f"cli.experiment.{r['experiment']}.wall_s": r["wall_clock_s"] for r in records}
        c["cli.records_failed"] = sum(not r["passed"] for r in records)
        return c


WORKLOADS = {"oracle": Oracle, "known-metric": KnownMetric, "reproduce": Reproduce}


def records(workload, rounds: int, skip=frozenset()) -> dict:
    """Run and check the first `rounds` rounds of a set-up workload untraced;
    map each op's key (unless in `skip`) to its record.  The pinned reference
    is made of these.
    """
    from spans import Layers

    plain = Layers()
    out = {}
    for rnd in itertools.islice(workload.rounds(), rounds):
        for op in rnd:
            if op.key not in out and op.key not in skip:
                out[op.key] = op.check(op.run(plain))
    return out
