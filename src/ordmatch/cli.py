"""Command-line front end.

Subcommands: gen, run, distortion, thin, thin-search, counterexample,
reproduce, export.  All file I/O uses the JSON formats of the core types,
with rationals serialized as "num/den" strings.  Output files are written
atomically.  `reproduce` exits nonzero iff a bound check fails.
"""
from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import random
import sys
import time
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from typing import Optional

from . import generators, mechanisms, thin
from .core import (
    FractionalMatching,
    Instance,
    InvalidInputError,
    Matching,
    cost,
    fractional_cost,
)
from .distortion import (
    DistortionReport,
    adversarial_distortion,
    adversarial_distortion_fractional,
    min_cost_matching,
    sample_consistent_metric,
)

@dataclass
class ReproduceConfig:
    """Experiment caps; the defaults keep `reproduce all` under a minute."""

    sd_line_n: int = 5
    sd_line_oracle_cap: int = 4
    tree_det_k: int = 2
    tree_det_samples: int = 200
    tree_frac_k: int = 2
    tree_frac_mixes: int = 20
    repmatch_instances: int = 40
    repmatch_max_n: int = 4
    trsd_pairs: int = 20
    trsd_max_n: int = 5
    boston_ks: tuple[int, ...] = (2, 3, 4, 5, 6)
    thin_cycle_ks: tuple[int, ...] = (1, 2, 3)
    hall_matrices: int = 100
    hall_metrics_each: int = 10
    hall_max_n: int = 8
    da_profiles: int = 5
    da_max_n: int = 4
    seed: int = 0

    @classmethod
    def load(cls, path: Optional[str]) -> "ReproduceConfig":
        """The defaults, overridden by a JSON object that gives an integer
        (not a bool) per int field and a list of integers per tuple field."""
        cfg = cls()
        obj = _load(path, json.loads) if path else {}
        if not isinstance(obj, dict):
            raise InvalidInputError(f"config {path} must be a JSON object")
        names = {f.name for f in fields(cls)}
        for key, value in obj.items():
            if key not in names:
                raise InvalidInputError(f"unknown config key {key!r}")
            if isinstance(getattr(cfg, key), tuple):
                if not isinstance(value, list) or any(type(v) is not int for v in value):
                    raise InvalidInputError(f"config key {key!r} must be a list of integers")
                value = tuple(value)
            elif type(value) is not int:
                raise InvalidInputError(f"config key {key!r} must be an integer")
            setattr(cfg, key, value)
        return cfg


@dataclass
class ReproductionRecord:
    experiment: str
    params: dict
    measured: dict  # rationals serialized as "num/den" strings
    passed: bool
    wall_clock_s: float

    def to_dict(self) -> dict:
        return asdict(self)


def _fmt(x) -> str:
    if x == math.inf:
        return "inf"
    return str(Fraction(x))


def _atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_json(path: Optional[str], text: str) -> None:
    if path:
        _atomic_write(path, text)
    else:
        print(text)


# ---------------------------------------------------------------------------
# experiment pipelines
# ---------------------------------------------------------------------------


def _random_profile(n: int, rng: random.Random) -> Instance:
    prefs = []
    for _ in range(n):
        p = list(range(n))
        rng.shuffle(p)
        prefs.append(tuple(p))
    return Instance(n, tuple(prefs))


def _random_doubly_stochastic(n: int, rng: random.Random) -> FractionalMatching:
    terms = rng.randint(1, 2 * n)
    perms = []
    for _ in range(terms):
        p = list(range(n))
        rng.shuffle(p)
        perms.append(p)
    weights = [rng.randint(1, 8) for _ in perms]
    total = sum(weights)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for w, perm in zip(weights, perms):
        for i, j in enumerate(perm):
            rows[i][j] += Fraction(w, total)
    return FractionalMatching(n, tuple(tuple(r) for r in rows))


def _run_sd_line(cfg: ReproduceConfig, n: int) -> ReproductionRecord:
    inst, metric = generators.line_sd_instance(n)
    sd = mechanisms.serial_dictatorship(inst, tuple(range(n)))
    sd_cost = cost(sd, metric)
    _, opt = min_cost_matching(metric)
    bound = 2 ** n - 1
    measured = {"sd_cost": _fmt(sd_cost), "opt_cost": _fmt(opt), "bound": str(bound)}
    passed = sd_cost == bound and opt == 1
    if n <= cfg.sd_line_oracle_cap:
        oracle = adversarial_distortion(inst, sd).value
        measured["oracle"] = _fmt(oracle)
        passed = passed and oracle == bound
    return ReproductionRecord("sd-line", {"n": n}, measured, passed, 0.0)


def _run_tree_det(cfg: ReproduceConfig, k: int) -> ReproductionRecord:
    t = generators.tree_instance(k)
    rng = random.Random(f"tree-det:{cfg.seed}")
    if k <= 2:
        matchings = [
            Matching.from_permutation(p)
            for p in itertools.permutations(range(t.n))
        ]
    else:
        matchings = []
        for _ in range(cfg.tree_det_samples):
            p = list(range(t.n))
            rng.shuffle(p)
            matchings.append(Matching.from_permutation(p))
    metrics = {}
    worst = None
    opt_ok = True
    for m in matchings:
        chosen = generators.unlucky_walk(t, m).chosen_agent
        if chosen not in metrics:
            adv = generators.tree_adversary_metric(t, chosen)
            metrics[chosen] = adv
            opt_ok = opt_ok and min_cost_matching(adv)[1] == 1
        c = cost(m, metrics[chosen])
        worst = c if worst is None else min(worst, c)
    passed = opt_ok and worst >= 2 * k + 1
    return ReproductionRecord(
        "tree-det",
        {"k": k, "matchings": len(matchings)},
        {"min_cost_seen": _fmt(worst), "bound": str(2 * k + 1)},
        passed,
        0.0,
    )


def _run_tree_frac(cfg: ReproduceConfig, k: int) -> ReproductionRecord:
    t = generators.tree_instance(k)
    rng = random.Random(f"tree-frac:{cfg.seed}")
    candidates = [mechanisms.exact_rsd_marginals(t.instance, t.n)]
    for _ in range(cfg.tree_frac_mixes):
        candidates.append(_random_doubly_stochastic(t.n, rng))
    worst = None
    for p in candidates:
        chosen = generators.unlucky_walk_fractional(t, p).chosen_agent
        adv = generators.tree_adversary_metric(t, chosen)
        c = fractional_cost(p, adv)
        worst = c if worst is None else min(worst, c)
    passed = worst >= k + 1
    return ReproductionRecord(
        "tree-frac",
        {"k": k, "mixes": cfg.tree_frac_mixes},
        {"min_cost_seen": _fmt(worst), "bound": str(k + 1)},
        passed,
        0.0,
    )


def _run_repmatch_bound(cfg: ReproduceConfig) -> ReproductionRecord:
    rng = random.Random(f"repmatch:{cfg.seed}")
    corpus = []
    for idx in range(cfg.repmatch_instances):
        n = 1 + idx % cfg.repmatch_max_n
        corpus.append(_random_profile(n, rng))
    for k in (1, 2):
        if 2 ** k <= cfg.repmatch_max_n:
            corpus.append(generators.tree_instance(k).instance)
    for n in range(1, cfg.repmatch_max_n + 1):
        corpus.append(generators.line_sd_instance(n)[0])
    worst_margin = None
    passed = True
    for inst in corpus:
        rep = adversarial_distortion(inst, mechanisms.rep_match(inst))
        bound = 2 * inst.n ** 2
        passed = passed and rep.value <= bound
        margin = Fraction(rep.value) / bound
        worst_margin = margin if worst_margin is None else max(worst_margin, margin)
    return ReproductionRecord(
        "repmatch-bound",
        {"instances": len(corpus), "max_n": cfg.repmatch_max_n},
        {"max_value_over_bound": _fmt(worst_margin)},
        passed,
        0.0,
    )


def _run_trsd_bound(cfg: ReproduceConfig) -> ReproductionRecord:
    rng = random.Random(f"trsd:{cfg.seed}")
    passed = True
    worst = None
    for idx in range(cfg.trsd_pairs):
        n = 1 + idx % cfg.trsd_max_n
        inst = _random_profile(n, rng)
        metric = sample_consistent_metric(inst, rng)
        _, opt = min_cost_matching(metric)
        for m in range(n + 1):
            p = mechanisms.exact_rsd_marginals(inst, m)
            value = fractional_cost(p, metric) / opt
            bound = Fraction(m, n + 1 - m)
            passed = passed and value <= bound
            if m:
                margin = value / bound
                worst = margin if worst is None else max(worst, margin)
    return ReproductionRecord(
        "trsd-bound",
        {"pairs": cfg.trsd_pairs, "max_n": cfg.trsd_max_n},
        {"max_value_over_bound": _fmt(worst)},
        passed,
        0.0,
    )


def _run_boston(cfg: ReproduceConfig) -> ReproductionRecord:
    costs = {}
    passed = True
    for k in cfg.boston_ks:
        inst, metric, priority = generators.boston_instance(k)
        outcome = mechanisms.boston(inst, priority)
        c = cost(outcome, metric)
        _, opt = min_cost_matching(metric)
        costs[k] = c
        passed = passed and opt == 1 and c >= 2 ** (k - 1)
    ks = sorted(costs)
    ratios = [costs[b] / costs[a] for a, b in zip(ks, ks[1:])]
    measured = {f"cost_k{k}": _fmt(costs[k]) for k in ks}
    measured["growth_ratios"] = ",".join(_fmt(r) for r in ratios)
    return ReproductionRecord(
        "boston", {"ks": list(cfg.boston_ks)}, measured, passed, 0.0
    )


def _run_thin_cycle(cfg: ReproduceConfig) -> ReproductionRecord:
    passed = True
    measured = {}
    for k in cfg.thin_cycle_ks:
        for q in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)):
            cx = thin.cycle_counterexample(k, q)
            ratio = thin.cut_ratio(cx.p, cx.q_matching, cx.cuts[0])
            measured[f"k{k}_q{q.denominator}"] = _fmt(ratio)
            passed = passed and ratio == 1 / q
    dec = thin.bvn_decompose(thin.cycle_counterexample(1, Fraction(1, 2)).p)
    weights = sorted(str(w) for w, _ in dec.terms)
    passed = passed and weights == ["1/2", "1/2"]
    measured["bvn_4cycle_weights"] = ",".join(weights)
    return ReproductionRecord(
        "thin-cycle", {"ks": list(cfg.thin_cycle_ks)}, measured, passed, 0.0
    )


def _run_hall_round(cfg: ReproduceConfig) -> ReproductionRecord:
    rng = random.Random(f"hall:{cfg.seed}")
    passed = True
    worst = None
    for idx in range(cfg.hall_matrices):
        n = 1 + idx % cfg.hall_max_n
        p = _random_doubly_stochastic(n, rng)
        matching = thin.hall_round(p)
        for _ in range(cfg.hall_metrics_each):
            _, metric = generators.euclidean_random(n, 2, rng.randrange(1 << 30))
            lhs = cost(matching, metric)
            rhs = n * n * fractional_cost(p, metric)
            passed = passed and lhs <= rhs
            if rhs:
                margin = lhs / rhs
                worst = margin if worst is None else max(worst, margin)
    return ReproductionRecord(
        "hall-round",
        {"matrices": cfg.hall_matrices, "metrics_each": cfg.hall_metrics_each},
        {"max_cost_over_bound": _fmt(worst)},
        passed,
        0.0,
    )


def _run_da_serializable(cfg: ReproduceConfig) -> ReproductionRecord:
    rng = random.Random(f"da:{cfg.seed}")
    passed = True
    checked = 0
    for n in range(1, cfg.da_max_n + 1):
        for _ in range(cfg.da_profiles):
            item_prefs = _random_profile(n, rng).prefs
            pi = mechanisms.sd_on_items(item_prefs)
            sigma = tuple(range(n))
            mech = lambda inst: mechanisms.deferred_acceptance(inst, item_prefs)
            passed = passed and mechanisms.serializability_check(mech, pi, sigma, n)
            inst, metric = generators.line_sd_instance(n, pi, sigma)
            da_cost = cost(mech(inst), metric)
            passed = passed and da_cost == 2 ** n - 1
            checked += 1
    return ReproductionRecord(
        "da-serializable",
        {"max_n": cfg.da_max_n, "profiles": cfg.da_profiles},
        {"profiles_checked": str(checked)},
        passed,
        0.0,
    )


_PIPELINES = {
    "sd-line": lambda cfg, o: _run_sd_line(cfg, o.get("n") or cfg.sd_line_n),
    "tree-det": lambda cfg, o: _run_tree_det(cfg, o.get("k") or cfg.tree_det_k),
    "tree-frac": lambda cfg, o: _run_tree_frac(cfg, o.get("k") or cfg.tree_frac_k),
    "repmatch-bound": lambda cfg, o: _run_repmatch_bound(cfg),
    "trsd-bound": lambda cfg, o: _run_trsd_bound(cfg),
    "boston": lambda cfg, o: _run_boston(cfg),
    "thin-cycle": lambda cfg, o: _run_thin_cycle(cfg),
    "hall-round": lambda cfg, o: _run_hall_round(cfg),
    "da-serializable": lambda cfg, o: _run_da_serializable(cfg),
}
EXPERIMENTS = tuple(_PIPELINES)


def run_experiment(name: str, cfg: ReproduceConfig, **overrides) -> ReproductionRecord:
    if name not in _PIPELINES:
        raise InvalidInputError(f"unknown experiment {name!r}")
    start = time.perf_counter()
    rec = _PIPELINES[name](cfg, overrides)
    rec.wall_clock_s = round(time.perf_counter() - start, 6)
    return rec


# ---------------------------------------------------------------------------
# serialization of reports and records
# ---------------------------------------------------------------------------


def records_to_csv(records: list[ReproductionRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["experiment", "passed", "wall_clock_s", "params", "measured"])
    for rec in records:
        writer.writerow(
            [
                rec.experiment,
                str(rec.passed).lower(),
                rec.wall_clock_s,
                json.dumps(rec.params, sort_keys=True),
                json.dumps(rec.measured, sort_keys=True),
            ]
        )
    return buf.getvalue()


def distortion_report_json(rep: DistortionReport) -> str:
    obj = {
        "value": _fmt(rep.value),
        "mechanism_cost": _fmt(rep.mechanism_cost),
        "opt_cost": _fmt(rep.opt_cost),
    }
    if rep.strict_margin is not None:
        obj["strict_margin"] = _fmt(rep.strict_margin)
    if rep.witness_metric is not None:
        obj["witness_metric"] = json.loads(rep.witness_metric.to_json())
    if rep.witness_opt is not None:
        obj["witness_opt"] = json.loads(rep.witness_opt.to_json())
    return json.dumps(obj)


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------


def _perm_arg(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _load(path: str, parse):
    """Parse a file's text; a missing file or malformed content is bad input."""
    try:
        with open(path) as fh:
            return parse(fh.read())
    except (OSError, ValueError, KeyError, TypeError) as exc:
        detail = f"{type(exc).__name__}: {exc}"
        raise InvalidInputError(f"cannot read {path}: {detail}") from exc


# `gen` builds at most 512 agents (n = 256 takes 1-3 s and tens of MB, growing
# about as n^2); tree instances have 2^k agents, Boston ones 1 + k(k-1)/2.
_GEN_LIMITS = {"tree": ("k", 9), "boston": ("k", 32), "line": ("n", 512), "euclid": ("n", 512)}
_GEN_MAX_DIM = 16


def _cmd_gen(args) -> int:
    name, limit = _GEN_LIMITS[args.family]
    if getattr(args, name) > limit:
        raise InvalidInputError(
            f"gen --family {args.family} allows --{name} up to {limit} (at most 512 agents)"
        )
    if args.family == "euclid" and args.dim > _GEN_MAX_DIM:
        raise InvalidInputError(f"gen --family euclid allows --dim up to {_GEN_MAX_DIM}")
    if args.family == "tree":
        t = generators.tree_instance(args.k)
        inst, metric = t.instance, t.metric
    elif args.family == "line":
        inst, metric = generators.line_sd_instance(
            args.n, args.pi, args.sigma, args.eps
        )
    elif args.family == "boston":
        inst, metric, _ = generators.boston_instance(args.k, args.eps)
    else:
        if args.seed is None:
            raise InvalidInputError("--seed is mandatory for the euclid family")
        inst, metric = generators.euclidean_random(args.n, args.dim, args.seed)
    _write_json(args.out, inst.to_json())
    if args.metric_out:
        _write_json(args.metric_out, metric.to_json())
    return 0


def _cmd_run(args) -> int:
    inst = _load(args.inst, Instance.from_json)
    n = inst.n
    if args.mech == "sd":
        order = args.order or tuple(range(n))
        matching = mechanisms.serial_dictatorship(inst, order)
    elif args.mech == "rsd":
        if args.seed is None:
            raise InvalidInputError("--seed is mandatory for rsd")
        matching = mechanisms.rsd(inst, args.seed)
    elif args.mech == "trsd":
        if args.seed is None:
            raise InvalidInputError("--seed is mandatory for trsd")
        m = n if args.m is None else args.m
        matching = mechanisms.truncated_rsd(inst, m, args.seed)
    elif args.mech == "repmatch":
        matching = mechanisms.rep_match(inst)
    elif args.mech == "da":
        if args.item_prefs:
            item_prefs = _load(args.item_prefs, lambda t: json.loads(t)["prefs"])
        else:
            item_prefs = [tuple(range(n))] * n
        matching = mechanisms.deferred_acceptance(inst, item_prefs)
    else:  # boston
        priority = args.order or tuple(range(n))
        matching = mechanisms.boston(inst, priority)
    _write_json(args.out, matching.to_json())
    return 0


def _cmd_distortion(args) -> int:
    inst = _load(args.inst, Instance.from_json)
    if args.fractional:
        p = _load(args.fractional, FractionalMatching.from_json)
        rep = adversarial_distortion_fractional(inst, p, cap=args.cap, strict=args.strict)
    else:
        matching = _load(args.match, Matching.from_json)
        rep = adversarial_distortion(inst, matching, cap=args.cap, strict=args.strict)
    _write_json(args.out, distortion_report_json(rep))
    return 0


def _cmd_thin(args) -> int:
    p = _load(args.p, FractionalMatching.from_json)
    matching = _load(args.match, Matching.from_json)
    rep = thin.thinness(p, matching)
    _write_json(
        args.out,
        json.dumps({"beta": _fmt(rep.beta), "witness_cut": sorted(rep.witness_cut)}),
    )
    return 0


def _cmd_thin_search(args) -> int:
    p = _load(args.p, FractionalMatching.from_json)
    result = thin.thin_search(p, args.beta)
    if result is None:
        _write_json(args.out, json.dumps({"found": False}))
    else:
        _write_json(
            args.out,
            json.dumps({"found": True, "assign": json.loads(result.to_json())["assign"]}),
        )
    return 0


def _cmd_counterexample(args) -> int:
    cx = thin.cycle_counterexample(args.k, args.q, args.copies)
    obj = {
        "n": cx.p.n,
        "p": json.loads(cx.p.to_json())["p"],
        "cuts": [sorted(c) for c in cx.cuts],
        "q_matching": json.loads(cx.q_matching.to_json())["assign"],
        "alt_matching": json.loads(cx.alt_matching.to_json())["assign"],
    }
    _write_json(args.out, json.dumps(obj))
    return 0


def _cmd_reproduce(args) -> int:
    cfg = ReproduceConfig.load(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    names = EXPERIMENTS if args.experiment == "all" else (args.experiment,)
    records = []
    for name in names:
        rec = run_experiment(name, cfg, n=args.n, k=args.k)
        records.append(rec)
        status = "pass" if rec.passed else "FAIL"
        print(f"{rec.experiment}: {status} ({rec.wall_clock_s}s)", file=sys.stderr)
    payload = json.dumps([r.to_dict() for r in records])
    if args.out:
        _atomic_write(args.out, payload)
    else:
        print(payload)
    if args.csv_out:
        _atomic_write(args.csv_out, records_to_csv(records))
    return 0 if all(r.passed for r in records) else 1


def _cmd_export(args) -> int:
    records = _load(
        args.records, lambda t: [ReproductionRecord(**o) for o in json.loads(t)]
    )
    if args.format == "json":
        _write_json(args.out, json.dumps([r.to_dict() for r in records]))
    else:
        _write_json(args.out, records_to_csv(records))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordmatch",
        description="Ordinal metric matching mechanisms and distortion oracles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance family")
    p.add_argument("--family", required=True, choices=["tree", "line", "boston", "euclid"])
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--seed", type=int)
    p.add_argument("--pi", type=_perm_arg)
    p.add_argument("--sigma", type=_perm_arg)
    p.add_argument("--eps", type=Fraction, default=Fraction(0))
    p.add_argument("--out")
    p.add_argument("--metric-out")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("run", help="run a mechanism on an instance")
    p.add_argument("--mech", required=True, choices=["sd", "rsd", "trsd", "repmatch", "da", "boston"])
    p.add_argument("--inst", required=True)
    p.add_argument("--order", type=_perm_arg)
    p.add_argument("--m", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--item-prefs")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("distortion", help="adversarial distortion of a matching")
    p.add_argument("--inst", required=True)
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--match")
    target.add_argument("--fractional")
    p.add_argument("--cap", type=int, default=6)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_distortion)

    p = sub.add_parser("thin", help="thinness report for a matching")
    p.add_argument("--p", required=True)
    p.add_argument("--match", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_thin)

    p = sub.add_parser("thin-search", help="search for a beta-thin matching")
    p.add_argument("--p", required=True)
    p.add_argument("--beta", type=Fraction, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_thin_search)

    p = sub.add_parser("counterexample", help="alternating-cycle counterexample")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", type=Fraction, required=True)
    p.add_argument("--copies", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_counterexample)

    p = sub.add_parser("reproduce", help="re-run a named bound experiment")
    p.add_argument("--experiment", required=True, choices=EXPERIMENTS + ("all",))
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--config")
    p.add_argument("--out")
    p.add_argument("--csv-out")
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser("export", help="convert reproduction records")
    p.add_argument("--records", required=True)
    p.add_argument("--format", required=True, choices=["json", "csv"])
    p.add_argument("--out")
    p.set_defaults(func=_cmd_export)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
