import csv
import re
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from paretofair import cli, oracle
from paretofair.adaptive import PFHyperparams, pareto_fair_optimize
from paretofair.baselines import train_naive, train_rebalanced
from paretofair.data import GroupedDataset, load_csv, save_csv, split_dataset
from paretofair.model import MLPClassifier, TrainConfig, load_checkpoint, save_checkpoint
from paretofair.oracle import ScenarioParams, sample_dataset, save_scenario
from paretofair.report import (
    SUMMARY_ROWS,
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


METRICS_HEAD = "method,group,ratio,accuracy,brier,n\n"
SUMMARY = "x,__sample_mean,,0.5,0.5,\nx,__group_mean,,0.5,0.5,\nx,__discrepancy,,0.0,0.0,\n"


class TestMetricsCsv:
    def test_round_trip(self, small_test_set, tmp_path):
        model = MLPClassifier([1, 8, 2], seed=0)
        metrics = compute_metrics(model.forward(small_test_set.features), small_test_set, "naive")
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
        metrics = compute_metrics(model.forward(small_test_set.features), small_test_set, "m")
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
            pytest.param("", r"m\.csv: empty file", id="empty"),
            pytest.param("method,group,ratio,accuracy,brier,n\nx,g0,0.5,0.9\n", r"m\.csv:2: expected 6 fields, got 4",
                         id="a short row"),
            pytest.param("method,group,ratio,accuracy,brier,n\nx,g0,0.5,high,0.1,10\n", r"m\.csv:2: ",
                         id="a bad cell"),
            pytest.param("method,group,ratio,accuracy,brier,n\nx,g0,1.0,0.9,0.1,10\n", r"m\.csv: missing summary row",
                         id="no summary rows"),
            pytest.param(METRICS_HEAD + "x,g0,0.5,0.9,0.1,10\nx,g1,0.5,0.8,0.2,10\nx,g0,0.5,0.7,0.3,10\n" + SUMMARY,
                         r"m\.csv: repeated row g0$", id="a repeated group row"),
            pytest.param(METRICS_HEAD + "x,g0,0.5,0.9,0.1,10\n" + SUMMARY + "x,__discrepancy,,0.1,0.1,\n",
                         r"m\.csv: repeated row __discrepancy$", id="a repeated summary row"),
            # the combined table would label every column with the last row's method
            pytest.param(METRICS_HEAD + "x,g0,0.5,0.9,0.1,10\nx,g1,0.5,0.8,0.2,10\npf,g2,0.5,0.8,0.2,10\n" + SUMMARY,
                         r"m\.csv:4: method 'pf' differs from the first row's 'x'$", id="a second method"),
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
            save_metrics_csv(compute_metrics(model.forward(small_test_set.features), small_test_set, name), p)
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


# every key a --config file may set: TrainConfig's, then PFHyperparams', then ExperimentConfig's own
CONFIG_KEYS = {
    "lr", "batch_size", "max_epochs", "patience", "seed", "loss",
    "mu_init", "k", "gamma0", "xi", "zeta", "max_outer_iters", "max_consecutive_rejects",
    "scenario", "data", "method", "hidden", "activation", "n", "split", "out",
}


class TestConfig:
    def test_keys_are_the_fields_of_the_settings_chain(self):
        assert {f.name for f in fields(cli.ExperimentConfig)} == CONFIG_KEYS
        assert issubclass(cli.ExperimentConfig, PFHyperparams) and issubclass(PFHyperparams, TrainConfig)

    def test_readme_table_lists_every_key(self):
        lines = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
        start = next(i for i, line in enumerate(lines) if line.startswith("Config keys"))
        table = []
        for line in lines[start:]:
            if line.startswith("|"):
                table.append(line)
            elif table:
                break
        # the header row and the separator row name no key
        keys = [key for row in table[2:] for key in re.findall(r"`(\w+)`", row.split("|")[1])]
        assert len(keys) == len(set(keys)) and set(keys) == CONFIG_KEYS

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
        # lr_min, a deleted outer-loop stop, is unknown too
        for key, value in [("nonsense", "1"), ("lr_min", "1e-6")]:
            path.write_text(f"{key} = {value}\n")
            with pytest.raises(ValueError, match=re.escape(f"{path}:1: unknown key '{key}'")):
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

    def test_oracle_outputs(self, scenario_file, tmp_path, monkeypatch, capsys):
        # one traced front feeds front.csv, reference_points.csv and the summary
        calls = {"trace_front": 0, "pareto_fair_point": 0}

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        for name in calls:
            monkeypatch.setattr(oracle, name, counting(name, getattr(oracle, name)))
        out = tmp_path / "oracle"
        rc = cli.main(["oracle", "--scenario", scenario_file, "--num-lambda", "51", "--out", str(out)])
        assert rc == 0
        assert (out / "front.csv").exists()
        assert calls == {"trace_front": 1, "pareto_fair_point": 1}
        printed_gap = re.search(r"gap (\S+)$", capsys.readouterr().out.strip()).group(1)
        with open(out / "reference_points.csv", newline="") as fh:
            refs = {row["name"]: row for row in csv.DictReader(fh)}
        assert printed_gap == f"{float(refs['pareto_fair']['max_gap']):.4f}"

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

    @pytest.mark.parametrize("method", cli.METHODS)
    def test_train_honours_the_config_loss(self, method, scenario_file, tmp_path):
        small = "n = 600\nhidden = 4\nmax_epochs = 3\npatience = 1\nmax_outer_iters = 3\n"
        ckpt = {}
        for loss in ("brier", "cross_entropy"):
            cfg = tmp_path / f"{loss}.txt"
            cfg.write_text(f"{small}loss = {loss}\n")
            out = tmp_path / loss
            argv = ["train", "--config", str(cfg), "--scenario", scenario_file, "--method", method, "--out", str(out)]
            assert cli.main(argv) == 0
            ckpt[loss] = (out / "model.ckpt").read_bytes()
        assert ckpt["cross_entropy"] != ckpt["brier"]
        # the library trainer on the same split, told the loss by its config alone
        ds = sample_dataset(oracle.make_scenario(oracle.load_scenario(scenario_file)), 600, seed=0)
        train, val, _test = split_dataset(ds, (0.6, 0.2, 0.2), seed=0)
        model = MLPClassifier([ds.dim, 4, ds.num_classes], seed=0)
        hp = PFHyperparams(max_epochs=3, patience=1, max_outer_iters=3, loss="cross_entropy")
        if method == "naive":
            train_naive(model, train, val, hp)
        elif method == "rebalanced":
            train_rebalanced(model, train, val, hp)
        else:
            pareto_fair_optimize(train, val, model, hp)
        save_checkpoint(model, tmp_path / "library.ckpt")
        assert (tmp_path / "library.ckpt").read_bytes() == ckpt["cross_entropy"]

    def test_train_paretofair_top_seed(self, scenario_file, tmp_path):
        # outer step i trains at seed + i, past the 2**63 bound of the seed key
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n = 600\nhidden = 4\nmax_epochs = 2\npatience = 1\nmax_outer_iters = 3\n")
        out = tmp_path / "run"
        rc = cli.main([
            "train", "--config", str(cfg), "--scenario", scenario_file,
            "--method", "paretofair", "--seed", str(2**63 - 1), "--out", str(out),
        ])
        assert rc == 0
        assert len((out / "trace.csv").read_text().splitlines()) == 1 + 3
        assert load_checkpoint(out / "model.ckpt").seed == 2**63 - 1

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
            pytest.param(
                "0.1,0,0\n0.2,1,0\n0.3,0,1\n0.4,1,1\n0.5,0,0\n",
                "split 0 is missing a group; dataset too small for fractions",
                id="5 rows, too few to split",
            ),
            pytest.param(
                "".join(f"{i / 300},0,{i % 2}\n" for i in range(300)),
                "needs at least two classes",
                id="300 rows of class 0",
            ),
        ],
    )
    def test_train_data_errors_name_the_file(self, tmp_path, capsys, rows, message):
        path = tmp_path / "d.csv"
        path.write_text("f0,target,group\n" + rows)
        assert cli.main(["train", "--data", str(path), "--out", str(tmp_path / "run")]) == 1
        assert f"error: {path}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "run" / "model.ckpt").exists()

    def test_train_data_without_a_feature_column_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("target,group\n" + "".join(f"{i % 2},{i // 2 % 2}\n" for i in range(40)))
        assert cli.main(["train", "--data", str(path), "--out", str(tmp_path / "run")]) == 1
        assert f"error: {path}: features must be a nonempty n x d matrix" in capsys.readouterr().err
        assert not (tmp_path / "run" / "model.ckpt").exists()

    @pytest.mark.parametrize("inputs", ["both", "neither"])
    def test_train_needs_exactly_one_of_data_and_scenario(
        self, inputs, scenario_file, small_test_set, tmp_path, capsys
    ):
        data = tmp_path / "d.csv"
        save_csv(small_test_set, data)
        flags = ["--data", str(data), "--scenario", scenario_file] if inputs == "both" else []
        out = tmp_path / "run"
        assert cli.main(["train", *flags, "--method", "naive", "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip()
        assert err == "paretofair train: error: set exactly one of 'data' (CSV path) and 'scenario' (scenario file)"
        assert not (out / "model.ckpt").exists()

    @pytest.mark.parametrize("line, flags, message", [
        pytest.param("", ["--seed", "-1"], "seed must be an integer in [0, 2**63), got -1", id="flag seed -1"),
        pytest.param("seed = -1", [], "seed must be an integer in [0, 2**63), got -1", id="seed -1"),
        # at the parent this trained and then failed writing the checkpoint
        pytest.param("", ["--seed", str(2**63)], f"seed must be an integer in [0, 2**63), got {2**63}",
                     id="flag seed 2**63"),
        pytest.param("split = 0.5, 0.5", [], "split must be three fractions (train, validation, test), got (0.5, 0.5)",
                     id="split of two"),
        pytest.param("split = 0.5, 0.5, 0.5", [],
                     "split must be positive fractions that sum to 1, got (0.5, 0.5, 0.5)", id="split summing to 1.5"),
        pytest.param("loss = hinge", [], "loss must be one of ('brier', 'cross_entropy'), got 'hinge'",
                     id="loss hinge"),
        pytest.param("hidden = 0", [], "hidden must be integer widths >= 1, got (0,)", id="hidden 0"),
        pytest.param("hidden = 8, -2", [], "hidden must be integer widths >= 1, got (8, -2)", id="hidden 8, -2"),
        pytest.param("activation = sigmoid", [], "activation must be one of ('relu', 'tanh'), got 'sigmoid'",
                     id="activation sigmoid"),
        pytest.param("method = fancy", [], "method must be one of ('naive', 'rebalanced', 'paretofair'), got 'fancy'",
                     id="method fancy"),
        pytest.param("n = 0", [], "n must be an integer >= 1, got 0", id="n 0"),
        # trainer settings, checked by TrainConfig and PFHyperparams
        pytest.param("lr = nan", [], "lr must be finite and positive, got nan", id="lr nan"),
        pytest.param("max_outer_iters = 0", [], "max_outer_iters must be an integer >= 1, got 0",
                     id="max_outer_iters 0"),
        # a key set twice names its second line
        pytest.param("lr = 0.1\nlr = 0.5", [], "6: repeated key 'lr'", id="repeated lr"),
    ])
    def test_train_bad_key_fails_before_any_work(self, scenario_file, tmp_path, capsys, line, flags, message):
        cfg = tmp_path / "cfg.txt"
        # the small-run settings, less the key the row sets: a key may appear once
        small = {"n": "300", "hidden": "4", "max_epochs": "2", "patience": "1"}
        key = line.partition("=")[0].strip()
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in small.items() if k != key) + f"{line}\n")
        out = tmp_path / "run"
        argv = ["train", "--config", str(cfg), "--scenario", scenario_file, "--out", str(out), *flags]
        assert cli.main(argv) == 1
        # a bad value in the file names the file, a bad line the file and the line
        where = "" if flags else f"{cfg}:" if message[0].isdigit() else f"{cfg}: "
        assert capsys.readouterr().err.strip() == f"paretofair train: error: {where}{message}"
        assert not out.exists()

    @pytest.mark.parametrize("priors, missing", [("1.0, 0.0", 1), ("0.0, 1.0", 0)])
    def test_scenario_draw_missing_a_group_names_the_file(self, priors, missing, tmp_path, capsys):
        scenario = tmp_path / "scenario.txt"
        scenario.write_text(f"priors = {priors}\n")
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n = 300\n")
        message = f"{scenario}: group {missing} has no samples in a draw of 300"
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(cfg), "--scenario", str(scenario), "--out", str(out)]) == 1
        assert capsys.readouterr().err.strip() == f"paretofair train: error: {message}"
        assert not (out / "model.ckpt").exists()
        data = tmp_path / "data.csv"
        assert cli.main(["synth", "--scenario", str(scenario), "--n", "300", "--out", str(data)]) == 1
        assert capsys.readouterr().err.strip() == f"paretofair synth: error: {message}"
        assert not data.exists()

    @pytest.mark.parametrize("command, priors, message", [
        *(pytest.param(c, "1.0", "rho_low has 2 entries, but priors has 1", id=c) for c in ("oracle", "synth", "train")),
        *(pytest.param(c, "0.5, 0.6", "priors must be nonnegative and sum to 1", id=f"{c}-priors")
          for c in ("oracle", "synth", "train")),
    ])
    def test_scenario_that_does_not_build_names_the_file(self, command, priors, message, tmp_path, capsys):
        scenario = tmp_path / "one.txt"
        scenario.write_text(f"priors = {priors}\n")
        out = tmp_path / "out"
        argv = {
            "oracle": ["oracle", "--scenario", str(scenario), "--out", str(out)],
            "synth": ["synth", "--scenario", str(scenario), "--out", str(out / "data.csv")],
            "train": ["train", "--scenario", str(scenario), "--out", str(out)],
        }[command]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.strip() == f"paretofair {command}: error: {scenario}: {message}"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["synth", "postproc"])
    def test_bad_seed_names_the_key(self, command, scenario_file, small_test_set, tmp_path, capsys):
        data = tmp_path / "data.csv"
        save_csv(small_test_set, data)
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(MLPClassifier([1, 4, 2]), ckpt)
        inputs = {"synth": ["--scenario", scenario_file], "postproc": ["--checkpoint", str(ckpt), "--data", str(data)]}
        out = tmp_path / "out"
        assert cli.main([command, *inputs[command], "--seed", "-1", "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip()
        assert err == f"paretofair {command}: error: seed must be an integer in [0, 2**63), got -1"
        assert not out.exists()

    @pytest.mark.parametrize("dims, mismatch", [
        ([2, 3, 2], "takes 2 feature(s), 2 class(es)"),
        ([1, 3, 1], "takes 1 feature(s), 1 class(es)"),  # caught before rule.csv is written
    ])
    def test_postproc_checkpoint_must_fit_the_data(self, dims, mismatch, small_test_set, tmp_path, capsys):
        data, ckpt, out = tmp_path / "data.csv", tmp_path / "model.ckpt", tmp_path / "out"
        save_csv(small_test_set, data)
        save_checkpoint(MLPClassifier(dims), ckpt)
        assert cli.main(["postproc", "--checkpoint", str(ckpt), "--data", str(data), "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip()
        assert err == f"paretofair postproc: error: {data} has 1 feature(s) and labels 0..1, but {ckpt} {mismatch}"
        assert not out.exists()

    def test_postproc_split_of_a_small_csv_names_the_file(self, tmp_path, capsys):
        data, ckpt, out = tmp_path / "tiny.csv", tmp_path / "model.ckpt", tmp_path / "out"
        data.write_text("f0,target,group\n0.1,0,0\n0.2,1,0\n0.3,0,1\n0.4,1,1\n0.5,0,0\n")
        save_checkpoint(MLPClassifier([1, 4, 2]), ckpt)
        assert cli.main(["postproc", "--checkpoint", str(ckpt), "--data", str(data), "--out", str(out)]) == 1
        message = f"{data}: split 0 is missing a group; dataset too small for fractions"
        assert capsys.readouterr().err.strip() == f"paretofair postproc: error: {message}"
        assert not out.exists()

    def test_split_of_a_small_draw_names_the_scenario(self, scenario_file, tmp_path, capsys):
        cfg, out = tmp_path / "cfg.txt", tmp_path / "run"
        cfg.write_text("n = 4\n")
        # seed 2 draws both groups, so the draw passes and the split fails
        argv = ["train", "--config", str(cfg), "--scenario", scenario_file, "--seed", "2", "--out", str(out)]
        assert cli.main(argv) == 1
        message = f"{scenario_file}: split 0 is missing a group; dataset too small for fractions"
        assert capsys.readouterr().err.strip() == f"paretofair train: error: {message}"
        assert not out.exists()

    @pytest.mark.parametrize("method", ["naive", "paretofair"])
    def test_synth_then_train_data_matches_train_scenario(self, method, scenario_file, tmp_path):
        # synth draws through train's data step, so its CSV holds the rows train --scenario draws
        cfg, data = tmp_path / "cfg.txt", tmp_path / "data.csv"
        cfg.write_text("n = 700\nhidden = 4\nmax_epochs = 3\npatience = 1\nmax_outer_iters = 3\n")
        assert cli.main(["synth", "--scenario", scenario_file, "--n", "700", "--seed", "5", "--out", str(data)]) == 0
        runs = {"data": ["--data", str(data)], "scenario": ["--scenario", scenario_file]}
        for name, source in runs.items():
            argv = ["train", "--config", str(cfg), *source, "--method", method, "--seed", "5"]
            assert cli.main([*argv, "--out", str(tmp_path / name)]) == 0
        files = ["model.ckpt", "metrics.csv"] + (["trace.csv"] if method == "paretofair" else [])
        for f in files:
            assert (tmp_path / "data" / f).read_bytes() == (tmp_path / "scenario" / f).read_bytes(), f

    def test_train_and_postproc_peak_memory_on_200k_rows(self, scenario_file, tmp_path):
        # neither command holds the whole dataset past its split, and inference scores
        # blocks of at most 12,287 rows
        cfg, data = tmp_path / "one.cfg", tmp_path / "data.csv"
        cfg.write_text("max_epochs = 1\npatience = 1\n")
        assert cli.main(["synth", "--scenario", scenario_file, "--n", "200000", "--out", str(data)]) == 0
        runs = [
            (["train", "--config", str(cfg), "--data", str(data), "--method", "naive", "--out", str(tmp_path / "run")],
             22e6),  # measured 19.8 MB
            (["postproc", "--checkpoint", str(tmp_path / "run" / "model.ckpt"), "--data", str(data),
              "--out", str(tmp_path / "post")], 18e6),  # measured 15.8 MB
        ]
        for argv, bound in runs:
            tracemalloc.start()
            try:
                assert cli.main(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound, f"{argv[0]} peaked at {peak / 1e6:.1f} MB"

    def test_postproc_needs_a_two_class_model(self, small_test_set, tmp_path, capsys):
        # three output units take the data's labels 0..1, but the rule's coin draws from {0, 1}
        data, ckpt, out = tmp_path / "data.csv", tmp_path / "model.ckpt", tmp_path / "out"
        save_csv(small_test_set, data)
        save_checkpoint(MLPClassifier([1, 4, 3]), ckpt)
        assert cli.main(["postproc", "--checkpoint", str(ckpt), "--data", str(data), "--out", str(out)]) == 1
        message = f"{ckpt}: the rule needs a two-class model, got 3 classes"
        assert capsys.readouterr().err.strip() == f"paretofair postproc: error: {message}"
        assert not out.exists()

    @pytest.mark.parametrize("n", [0, -5])
    def test_synth_bad_n_names_the_key(self, n, scenario_file, tmp_path, capsys):
        out = tmp_path / "data.csv"
        assert cli.main(["synth", "--scenario", scenario_file, "--n", str(n), "--out", str(out)]) == 1
        assert capsys.readouterr().err.strip() == f"paretofair synth: error: n must be an integer >= 1, got {n}"
        assert not out.exists()

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

        # the data, postproc and report paths on three groups
        data = tmp_path / "data.csv"
        assert cli.main(["synth", "--scenario", str(scenario), "--n", "3000", "--seed", "1", "--out", str(data)]) == 0
        naive = tmp_path / "naive"
        assert cli.main([
            "train", "--config", str(cfg), "--data", str(data), "--method", "naive", "--seed", "0", "--out", str(naive),
        ]) == 0
        post = tmp_path / "post"
        assert cli.main([
            "postproc", "--checkpoint", str(naive / "model.ckpt"), "--data", str(data), "--out", str(post),
        ]) == 0
        with open(post / "rule.csv", newline="") as fh:
            assert [row[0] for row in csv.reader(fh)] == ["group", "0", "1", "2"]
        metrics = [out / "metrics.csv", naive / "metrics.csv", post / "metrics_pre.csv", post / "metrics_post.csv"]
        combined = tmp_path / "combined.csv"
        assert cli.main(["report", *map(str, metrics), "--out", str(combined)]) == 0
        rows = ["g0", "g1", "g2", *SUMMARY_ROWS]
        for path, column in [*((p, 1) for p in metrics), (combined, 0)]:
            with open(path, newline="") as fh:
                assert [row[column] for row in csv.reader(fh)][1:] == rows

    def test_report_no_inputs_fails(self, capsys):
        assert cli.main(["report"]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_scenario_file_fails(self, tmp_path):
        assert cli.main(["synth", "--scenario", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "x.csv")]) == 1
