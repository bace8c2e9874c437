import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from ordmatch.cli import (
    ReproduceConfig,
    ReproductionRecord,
    main,
    records_to_csv,
    run_experiment,
)
from ordmatch.core import FractionalMatching, Instance, Matching, Metric


def run(argv):
    return main(argv)


def run_bad(argv, capsys):
    """Exit code and stderr of a run that should be refused."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return code, err


class TestGenRunDistortion:
    def test_round_trip(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        metric_path = tmp_path / "metric.json"
        match_path = tmp_path / "match.json"
        report_path = tmp_path / "report.json"
        assert run(
            [
                "gen", "--family", "line", "--n", "3",
                "--out", str(inst_path), "--metric-out", str(metric_path),
            ]
        ) == 0
        inst = Instance.from_json(inst_path.read_text())
        assert inst.n == 3
        Metric.from_json(metric_path.read_text()).check_triangle()
        assert run(
            ["run", "--mech", "sd", "--inst", str(inst_path), "--out", str(match_path)]
        ) == 0
        matching = Matching.from_json(match_path.read_text())
        assert matching.assign == {0: 0, 1: 1, 2: 2}
        assert run(
            [
                "distortion", "--inst", str(inst_path),
                "--match", str(match_path), "--out", str(report_path),
            ]
        ) == 0
        report = json.loads(report_path.read_text())
        assert report["value"] == "7"
        assert report["opt_cost"] == "1"

    def test_tree_and_euclid_families(self, tmp_path):
        out = tmp_path / "t.json"
        assert run(["gen", "--family", "tree", "--k", "2", "--out", str(out)]) == 0
        assert Instance.from_json(out.read_text()).n == 4
        assert run(
            ["gen", "--family", "euclid", "--n", "3", "--seed", "5", "--out", str(out)]
        ) == 0
        assert Instance.from_json(out.read_text()).n == 3

    def test_euclid_requires_seed(self, tmp_path):
        out = tmp_path / "x.json"
        assert run(["gen", "--family", "euclid", "--n", "3", "--out", str(out)]) == 2

    @pytest.mark.parametrize("threads", ["abc", "0", ""])
    def test_threads_environment_is_not_read(self, tmp_path, monkeypatch, threads):
        monkeypatch.setenv("ORDMATCH_THREADS", threads)
        out = tmp_path / "x.json"
        assert run(["gen", "--family", "line", "--n", "3", "--out", str(out)]) == 0

    def test_rsd_requires_seed(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        run(["gen", "--family", "line", "--n", "3", "--out", str(inst_path)])
        out = tmp_path / "m.json"
        assert run(
            ["run", "--mech", "rsd", "--inst", str(inst_path), "--out", str(out)]
        ) == 2
        assert run(
            [
                "run", "--mech", "rsd", "--inst", str(inst_path),
                "--seed", "3", "--out", str(out),
            ]
        ) == 0

    def test_da_with_item_prefs_file(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(Instance(2, ((0, 1), (0, 1))).to_json())
        prefs_path = tmp_path / "itemprefs.json"
        prefs_path.write_text(json.dumps({"prefs": [[1, 0], [0, 1]]}))
        out = tmp_path / "m.json"
        assert run(
            [
                "run", "--mech", "da", "--inst", str(inst_path),
                "--item-prefs", str(prefs_path), "--out", str(out),
            ]
        ) == 0
        assert Matching.from_json(out.read_text()).assign == {1: 0, 0: 1}

    @pytest.mark.parametrize(
        "mech, extra, assign",
        [
            ("trsd", ["--seed", "4", "--m", "2"], {1: 0, 2: 1}),
            ("repmatch", [], {0: 0, 1: 2, 2: 1}),
            ("boston", [], {0: 0, 1: 2, 2: 1}),
            ("boston", ["--order", "2,1,0"], {0: 2, 1: 0, 2: 1}),
            ("da", [], {0: 0, 1: 1, 2: 2}),  # every item ranks agents 0, 1, 2
        ],
    )
    def test_run_mechanisms(self, tmp_path, mech, extra, assign):
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(Instance(3, ((0, 2, 1), (0, 1, 2), (1, 0, 2))).to_json())
        out = tmp_path / "m.json"
        argv = ["run", "--mech", mech, "--inst", str(inst_path), "--out", str(out)]
        assert run(argv + extra) == 0
        assert Matching.from_json(out.read_text()).assign == assign

    def test_rsd_deterministic_given_argv(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        run(["gen", "--family", "euclid", "--n", "5", "--seed", "1", "--out", str(inst_path)])
        out1 = tmp_path / "m1.json"
        out2 = tmp_path / "m2.json"
        argv = ["run", "--mech", "rsd", "--inst", str(inst_path), "--seed", "9"]
        run(argv + ["--out", str(out1)])
        run(argv + ["--out", str(out2)])
        assert out1.read_text() == out2.read_text()


class TestDistortionCommand:
    @staticmethod
    def report(tmp_path, prefs, target_flag, target, *extra):
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(Instance(len(prefs), prefs).to_json())
        target_path = tmp_path / "target.json"
        target_path.write_text(target.to_json())
        out = tmp_path / "report.json"
        argv = ["distortion", "--inst", str(inst_path), target_flag, str(target_path)]
        assert run(argv + list(extra) + ["--out", str(out)]) == 0
        return json.loads(out.read_text())

    def test_fractional_uniform_hedges(self, tmp_path):
        rep = self.report(
            tmp_path, ((0, 1), (0, 1)), "--fractional", FractionalMatching.uniform(2)
        )
        assert (rep["value"], rep["mechanism_cost"], rep["opt_cost"]) == ("2", "2", "1")

    def test_strict_margin(self, tmp_path):
        target = Matching.from_permutation((0, 1))
        rep = self.report(tmp_path, ((0, 1), (1, 0)), "--match", target, "--strict")
        assert (rep["value"], rep["strict_margin"]) == ("1", "1")

    def test_infinite_report(self, tmp_path):
        target = Matching({0: 1, 1: 0})
        rep = self.report(tmp_path, ((0, 1), (1, 0)), "--match", target)
        assert (rep["value"], rep["mechanism_cost"], rep["opt_cost"]) == ("inf", "2", "0")
        assert "witness_metric" in rep and "witness_opt" in rep


class TestBadInput:
    def test_instance_without_prefs(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(json.dumps({"n": 2}))
        match_path = tmp_path / "m.json"
        match_path.write_text(Matching.from_permutation((0, 1)).to_json())
        argv = ["distortion", "--inst", str(inst_path), "--match", str(match_path)]
        code, err = run_bad(argv, capsys)
        assert code == 2 and "error:" in err and "prefs" in err

    def test_instance_not_json(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        inst_path.write_text("not json")
        code, err = run_bad(["run", "--mech", "sd", "--inst", str(inst_path)], capsys)
        assert code == 2 and "error:" in err

    def test_missing_instance_file(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.json")
        code, err = run_bad(["run", "--mech", "sd", "--inst", missing], capsys)
        assert code == 2 and "error:" in err

    def test_distortion_needs_a_target(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(Instance(2, ((0, 1), (0, 1))).to_json())
        code, err = run_bad(["distortion", "--inst", str(inst_path)], capsys)
        assert code == 2 and "--match" in err

    def test_missing_config_file(self, tmp_path, capsys):
        argv = ["reproduce", "--experiment", "boston", "--config", str(tmp_path / "no")]
        code, err = run_bad(argv, capsys)
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize(
        "config, experiment",
        [
            ([1, 2], "trsd-bound"),
            ({"trsd_max_n": "5"}, "trsd-bound"),
            ({"boston_ks": 3}, "boston"),
            ({"seed": True}, "trsd-bound"),
        ],
    )
    def test_bad_config(self, tmp_path, capsys, config, experiment):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = ["reproduce", "--experiment", experiment, "--config", str(path)]
        code, err = run_bad(argv, capsys)
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--family", "tree", "--k", "40"],
            ["--family", "line", "--n", "100000"],
            ["--family", "euclid", "--n", "100000", "--seed", "1"],
            ["--family", "euclid", "--dim", "17", "--seed", "1"],
        ],
    )
    def test_oversized_gen_refused(self, argv, capsys):
        start = time.perf_counter()
        code, err = run_bad(["gen"] + argv, capsys)
        assert code == 2 and "error:" in err
        assert time.perf_counter() - start < 5

    @pytest.mark.parametrize("family", ["line", "tree"])
    def test_bad_eps(self, family, capsys):
        code, err = run_bad(["gen", "--family", family, "--eps", "x"], capsys)
        assert code == 2 and "--eps" in err

    def test_bad_q(self, capsys):
        code, err = run_bad(["counterexample", "--k", "1", "--q", "x"], capsys)
        assert code == 2 and "--q" in err

    def test_bad_beta(self, tmp_path, capsys):
        p_path = tmp_path / "p.json"
        p_path.write_text(FractionalMatching.uniform(2).to_json())
        argv = ["thin-search", "--p", str(p_path), "--beta", "x"]
        code, err = run_bad(argv, capsys)
        assert code == 2 and "--beta" in err


class TestThinCommands:
    def test_thinness_and_search(self, tmp_path):
        cx_path = tmp_path / "cx.json"
        assert run(
            ["counterexample", "--k", "1", "--q", "1/2", "--out", str(cx_path)]
        ) == 0
        cx = json.loads(cx_path.read_text())
        p_path = tmp_path / "p.json"
        p_path.write_text(json.dumps({"n": cx["n"], "p": cx["p"]}))
        match_path = tmp_path / "m.json"
        match_path.write_text(json.dumps({"assign": cx["alt_matching"]}))
        rep_path = tmp_path / "rep.json"
        assert run(
            ["thin", "--p", str(p_path), "--match", str(match_path), "--out", str(rep_path)]
        ) == 0
        assert json.loads(rep_path.read_text())["beta"] == "2"
        found_path = tmp_path / "found.json"
        assert run(
            ["thin-search", "--p", str(p_path), "--beta", "2", "--out", str(found_path)]
        ) == 0
        assert json.loads(found_path.read_text())["found"] is True
        assert run(
            ["thin-search", "--p", str(p_path), "--beta", "3/2", "--out", str(found_path)]
        ) == 0
        assert json.loads(found_path.read_text())["found"] is False


class TestReproduce:
    def test_single_experiment(self, tmp_path):
        out = tmp_path / "rec.json"
        csv_out = tmp_path / "rec.csv"
        code = run(
            [
                "reproduce", "--experiment", "thin-cycle",
                "--out", str(out), "--csv-out", str(csv_out),
            ]
        )
        assert code == 0
        recs = json.loads(out.read_text())
        assert len(recs) == 1 and recs[0]["passed"] is True
        assert csv_out.read_text().startswith("experiment,passed,wall_clock_s")

    def test_sd_line_record_values(self):
        rec = run_experiment("sd-line", ReproduceConfig(), n=4)
        assert rec.passed
        assert rec.measured["sd_cost"] == "15"
        assert rec.measured["oracle"] == "15"

    def test_tree_det_sampled_at_k3(self):
        rec = run_experiment("tree-det", ReproduceConfig(tree_det_samples=100), k=3)
        assert rec.passed
        assert rec.measured["bound"] == "7"
        assert Fraction(rec.measured["min_cost_seen"]) >= 7

    def test_all_seed0_matches_golden(self, tmp_path):
        out = tmp_path / "recs.json"
        argv = ["reproduce", "--experiment", "all", "--seed", "0", "--out", str(out)]
        assert run(argv) == 0
        got = [
            {k: rec[k] for k in ("experiment", "measured", "passed")}
            for rec in json.loads(out.read_text())
        ]
        golden = Path(__file__).parent / "data" / "reproduce_seed0.json"
        assert json.dumps(got) == json.dumps(json.loads(golden.read_text()))

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        with pytest.raises(Exception):
            ReproduceConfig.load(str(cfg))


class TestExport:
    def test_empty_records_header_only(self):
        assert records_to_csv([]) == "experiment,passed,wall_clock_s,params,measured\r\n"

    def test_json_round_trip(self, tmp_path):
        rec = ReproductionRecord(
            experiment="sd-line",
            params={"n": 3},
            measured={"sd_cost": "7", "ratio": str(Fraction(1, 3))},
            passed=True,
            wall_clock_s=0.5,
        )
        path = tmp_path / "recs.json"
        path.write_text(json.dumps([rec.to_dict()]))
        out = tmp_path / "out.json"
        assert run(["export", "--records", str(path), "--format", "json", "--out", str(out)]) == 0
        round_tripped = [ReproductionRecord(**o) for o in json.loads(out.read_text())]
        assert round_tripped == [rec]

    def test_csv_format(self, tmp_path):
        rec = ReproductionRecord("sd-line", {"n": 3}, {"sd_cost": "7"}, True, 0.5)
        path = tmp_path / "recs.json"
        path.write_text(json.dumps([rec.to_dict()]))
        out = tmp_path / "out.csv"
        assert run(["export", "--records", str(path), "--format", "csv", "--out", str(out)]) == 0
        assert out.read_bytes().decode() == (
            "experiment,passed,wall_clock_s,params,measured\r\n"
            'sd-line,true,0.5,"{""n"": 3}","{""sd_cost"": ""7""}"\r\n'
        )

    def test_rationals_stay_fractional(self):
        rec = ReproductionRecord("x", {}, {"v": str(Fraction(1, 3))}, True, 0.0)
        assert '""v"": ""1/3""' in records_to_csv([rec])
