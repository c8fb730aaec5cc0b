from dataclasses import fields

import numpy as np
import pytest

from paretofair import cli
from paretofair.adaptive import PFHyperparams
from paretofair.data import GroupedDataset, load_csv
from paretofair.model import MLPClassifier, TrainConfig, load_checkpoint
from paretofair.oracle import ScenarioParams, sample_dataset, save_scenario
from paretofair.report import (
    combine_reports,
    compute_metrics,
    format_table,
    load_metrics_csv,
    metrics_from_decisions,
    save_metrics_csv,
)
from paretofair.risk import InputError
from conftest import THREE_GROUP_PARAMS


@pytest.fixture(scope="module")
def scenario_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("scenario") / "scenario.txt"
    save_scenario(ScenarioParams(), path)
    return str(path)


@pytest.fixture(scope="module")
def small_test_set(acceptance_spec):
    return sample_dataset(acceptance_spec, 600, seed=0)


class TestMetricsCsv:
    def test_round_trip(self, small_test_set, tmp_path):
        model = MLPClassifier([1, 8, 2], seed=0)
        metrics = compute_metrics(model, small_test_set, "naive")
        path = tmp_path / "m.csv"
        save_metrics_csv(metrics, path)
        method, groups, summary = load_metrics_csv(path)
        assert method == "naive"
        assert set(groups) == {"g0", "g1"}
        for a, name in enumerate(("g0", "g1")):
            ratio, acc, brier = groups[name]
            assert ratio == metrics.ratios[a]
            assert acc == metrics.accuracy[a]
            assert brier == metrics.brier[a]
        assert set(summary) == {"__sample_mean", "__group_mean", "__discrepancy"}

    def test_discrepancy_row_matches_groups(self, small_test_set, tmp_path):
        model = MLPClassifier([1, 8, 2], seed=1)
        metrics = compute_metrics(model, small_test_set, "m")
        path = tmp_path / "m.csv"
        save_metrics_csv(metrics, path)
        _, groups, summary = load_metrics_csv(path)
        accs = [groups[name][1] for name in groups]
        assert summary["__discrepancy"][0] == pytest.approx(max(accs) - min(accs))

    def test_decisions_variant(self, small_test_set):
        decisions = np.zeros(small_test_set.n, dtype=int)
        m = metrics_from_decisions(decisions, small_test_set, [0.1, 0.2], "rule")
        for a in range(2):
            mask = small_test_set.groups == a
            assert m.accuracy[a] == pytest.approx((small_test_set.targets[mask] == 0).mean())

    def test_three_group_decisions_by_hand(self):
        test = GroupedDataset(features=np.zeros((6, 1)), targets=[0, 1, 1, 1, 0, 0], groups=[0, 0, 1, 2, 2, 2])
        m = metrics_from_decisions([0, 0, 1, 0, 0, 1], test, [0.1, 0.2, 0.3], "rule")
        assert np.allclose(m.accuracy, [0.5, 1.0, 1 / 3])
        assert list(m.counts) == [2, 1, 3]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("method,group,ratio,accuracy,brier,n\n")
        with pytest.raises(InputError):
            load_metrics_csv(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", r"m\.csv: empty file"),
            ("method,group,ratio,accuracy,brier,n\nx,g0,0.5,0.9\n", r"m\.csv:2: expected 6 fields, got 4"),
            ("method,group,ratio,accuracy,brier,n\nx,g0,0.5,high,0.1,10\n", r"m\.csv:2: "),
            ("method,group,ratio,accuracy,brier,n\nx,g0,1.0,0.9,0.1,10\n", r"m\.csv: missing summary row"),
        ],
    )
    def test_malformed_files_name_the_path(self, tmp_path, text, message):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(InputError, match=message):
            load_metrics_csv(path)


class TestCombineAndFormat:
    def _write_two(self, small_test_set, tmp_path):
        paths = []
        for i, name in enumerate(("naive", "rebalanced")):
            model = MLPClassifier([1, 8, 2], seed=i)
            p = tmp_path / f"{name}.csv"
            save_metrics_csv(compute_metrics(model, small_test_set, name), p)
            paths.append(str(p))
        return paths

    def test_combine(self, small_test_set, tmp_path):
        paths = self._write_two(small_test_set, tmp_path)
        out = tmp_path / "combined.csv"
        header, rows = combine_reports(paths, out_csv=out)
        assert header == ["group", "ratio", "naive_acc", "naive_brier", "rebalanced_acc", "rebalanced_brier"]
        assert len(rows) == 2 + 3  # groups + summary rows
        assert out.exists()

    def test_mismatched_groups_rejected(self, small_test_set, tmp_path):
        paths = self._write_two(small_test_set, tmp_path)
        other = tmp_path / "other.csv"
        other.write_text(
            "method,group,ratio,accuracy,brier,n\n"
            "x,only,1.0,0.5,0.5,10\n"
            "x,__sample_mean,,0.5,0.5,\n"
            "x,__group_mean,,0.5,0.5,\n"
            "x,__discrepancy,,0.0,0.0,\n"
        )
        with pytest.raises(InputError):
            combine_reports([paths[0], str(other)])

    def test_no_paths_rejected(self):
        with pytest.raises(InputError):
            combine_reports([])

    def test_format_table_aligned(self):
        text = format_table(["group", "x_acc"], [["0", "0.123456"], ["__discrepancy", "0.5"]])
        lines = text.splitlines()
        assert lines[0].startswith("group")
        assert "0.1235" in text
        assert len({line.index("0.") for line in lines[2:]}) == 1


class TestConfig:
    def test_file_plus_overrides(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("lr = 0.05  # inner step\nhidden = 16,16\nmethod = naive\n")
        cfg = cli.build_config(path, {"seed": 3, "method": None})
        assert cfg.lr == 0.05
        assert cfg.hidden == (16, 16)
        assert cfg.method == "naive"
        assert cfg.seed == 3

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("nonsense = 1\n")
        with pytest.raises(ValueError, match="nonsense"):
            cli.build_config(path, {})

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("lr = 0.1\njust words\n")
        with pytest.raises(ValueError, match=":2"):
            cli.build_config(path, {})

    def test_values_coerced_by_field_default(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("hidden =\nsplit = 0.5, 0.25, 0.25\nn = 300\ndata = d.csv\nmu_init = 2\n")
        cfg = cli.build_config(path, {})
        assert cfg.hidden == ()
        assert cfg.split == (0.5, 0.25, 0.25)
        assert cfg.n == 300 and cfg.data == "d.csv"
        assert cfg.mu_init == 2.0 and isinstance(cfg.mu_init, float)

    def test_no_file_gives_trainer_defaults(self):
        cfg = cli.build_config(None, {"method": "naive"})
        assert cfg.method == "naive"
        for defaults in (TrainConfig(), PFHyperparams()):
            for f in fields(defaults):
                if hasattr(cfg, f.name):
                    assert getattr(cfg, f.name) == getattr(defaults, f.name), f.name


class TestCliCommands:
    def test_synth_round_trip(self, scenario_file, tmp_path):
        out = tmp_path / "data.csv"
        rc = cli.main(["synth", "--scenario", scenario_file, "--n", "300", "--seed", "1", "--out", str(out)])
        assert rc == 0
        ds = load_csv(out)
        assert ds.n == 300
        assert ds.num_groups == 2

    def test_oracle_outputs(self, scenario_file, tmp_path):
        out = tmp_path / "oracle"
        rc = cli.main(["oracle", "--scenario", scenario_file, "--num-lambda", "51", "--out", str(out)])
        assert rc == 0
        assert (out / "front.csv").exists()
        assert (out / "reference_points.csv").exists()

    def test_train_naive_small(self, scenario_file, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n = 800\nhidden = 8\nmax_epochs = 5\npatience = 2\n")
        out = tmp_path / "run"
        rc = cli.main([
            "train", "--config", str(cfg), "--scenario", scenario_file,
            "--method", "naive", "--seed", "0", "--out", str(out),
        ])
        assert rc == 0
        model = load_checkpoint(out / "model.ckpt")
        assert list(model.layer_dims) == [1, 8, 2]
        method, groups, _ = load_metrics_csv(out / "metrics.csv")
        assert method == "naive"
        assert set(groups) == {"g0", "g1"}
        assert not (out / "trace.csv").exists()

    def test_train_paretofair_writes_trace(self, scenario_file, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n = 800\nhidden = 8\nmax_epochs = 4\npatience = 1\nmax_outer_iters = 3\n")
        out = tmp_path / "run"
        rc = cli.main([
            "train", "--config", str(cfg), "--scenario", scenario_file,
            "--method", "paretofair", "--seed", "0", "--out", str(out),
        ])
        assert rc == 0
        assert (out / "trace.csv").exists()

    def test_postproc_outputs(self, scenario_file, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n = 1500\nhidden = 8\nmax_epochs = 6\npatience = 2\n")
        run = tmp_path / "run"
        assert cli.main([
            "train", "--config", str(cfg), "--scenario", scenario_file,
            "--method", "naive", "--seed", "0", "--out", str(run),
        ]) == 0
        data = tmp_path / "holdout.csv"
        assert cli.main(["synth", "--scenario", scenario_file, "--n", "1000", "--seed", "9", "--out", str(data)]) == 0
        out = tmp_path / "pp"
        rc = cli.main([
            "postproc", "--checkpoint", str(run / "model.ckpt"),
            "--data", str(data), "--seed", "0", "--out", str(out),
        ])
        assert rc == 0
        for name in ("rule.csv", "metrics_pre.csv", "metrics_post.csv"):
            assert (out / name).exists()

    def test_report_combines(self, scenario_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n = 800\nhidden = 8\nmax_epochs = 4\npatience = 1\n")
        paths = []
        for method in ("naive", "rebalanced"):
            out = tmp_path / method
            assert cli.main([
                "train", "--config", str(cfg), "--scenario", scenario_file,
                "--method", method, "--seed", "0", "--out", str(out),
            ]) == 0
            paths.append(str(out / "metrics.csv"))
        combined = tmp_path / "combined.csv"
        rc = cli.main(["report", *paths, "--out", str(combined)])
        assert rc == 0
        assert combined.exists()
        text = capsys.readouterr().out
        assert "naive_acc" in text and "rebalanced_acc" in text

    def test_report_names_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert cli.main(["report", str(path)]) == 1
        assert f"error: {path}: empty file" in capsys.readouterr().err

    def test_report_names_missing_summary_row(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text("method,group,ratio,accuracy,brier,n\nx,g0,1.0,0.9,0.1,10\n")
        assert cli.main(["report", str(path)]) == 1
        assert f"error: {path}: missing summary row __sample_mean" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("0.1,0,0\n0.2,1,2\n", "group 1 has no samples"),
            ("0.1,0,0\nnan,1,0\n", "features contain non-finite values"),
            # targets 0 and 40 only: no model with 41 output units gets built
            pytest.param(
                "".join(f"{i / 60},{40 * (i % 2)},{i % 3 % 2}\n" for i in range(60)),
                "class 1 has no samples",
                id="60 rows of classes 0 and 40",
            ),
        ],
    )
    def test_train_data_errors_name_the_file(self, tmp_path, capsys, rows, message):
        path = tmp_path / "d.csv"
        path.write_text("f0,target,group\n" + rows)
        assert cli.main(["train", "--data", str(path), "--out", str(tmp_path / "run")]) == 1
        assert f"error: {path}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "run" / "model.ckpt").exists()

    @pytest.mark.parametrize("line, message", [
        ("lr = nan", "lr must be finite and positive, got nan"),
        ("max_outer_iters = 0", "max_outer_iters must be an integer >= 1, got 0"),
    ])
    def test_train_bad_setting_names_the_field(self, scenario_file, tmp_path, capsys, line, message):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"n = 300\nhidden = 4\nmax_epochs = 2\npatience = 1\n{line}\n")
        out = tmp_path / "run"
        argv = ["train", "--config", str(cfg), "--scenario", scenario_file, "--method", "paretofair", "--out", str(out)]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.strip() == f"paretofair train: error: {message}"
        assert not (out / "model.ckpt").exists()

    def test_three_groups_end_to_end(self, tmp_path):
        scenario = tmp_path / "scenario.txt"
        save_scenario(THREE_GROUP_PARAMS, scenario)
        oracle_out = tmp_path / "oracle"
        assert cli.main(["oracle", "--scenario", str(scenario), "--num-lambda", "101", "--out", str(oracle_out)]) == 0
        front_header = (oracle_out / "front.csv").read_text().splitlines()[0]
        assert front_header == "lambda_0,lambda_1,lambda_2,r_0,r_1,r_2,max_gap,mean_risk"
        refs_header = (oracle_out / "reference_points.csv").read_text().splitlines()[0]
        assert refs_header == "name,r_0,r_1,r_2,max_gap"

        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n = 900\nhidden = 4\nmax_epochs = 2\npatience = 1\nmax_outer_iters = 3\n")
        out = tmp_path / "run"
        assert cli.main([
            "train", "--config", str(cfg), "--scenario", str(scenario),
            "--method", "paretofair", "--seed", "0", "--out", str(out),
        ]) == 0
        trace_header = (out / "trace.csv").read_text().splitlines()[0]
        assert trace_header == "iter,accepted,lr,gamma,c,mu_0,mu_1,mu_2,r_0,r_1,r_2,max_gap"
        method, groups, _ = load_metrics_csv(out / "metrics.csv")
        assert method == "paretofair"
        assert list(groups) == ["g0", "g1", "g2"]

    def test_report_no_inputs_fails(self, capsys):
        assert cli.main(["report"]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_scenario_file_fails(self, tmp_path):
        assert cli.main(["synth", "--scenario", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "x.csv")]) == 1
