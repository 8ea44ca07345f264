import argparse
import json
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from agst import ExperimentSpec, Report, save_dataset, two_cluster_bundle
from agst import cli
from agst.cli import cli_main
from agst.experiments import PARAMETERS, SWEEP_AXES, apply_axis
from agst.gradcheck import PASS_BAR, GradCheckReport


@pytest.fixture
def dataset_dir(tmp_path, monkeypatch):
    """A toy dataset saved under the name 'cora', with tmp_path as cwd."""
    bundle = two_cluster_bundle(n=160, noise_fraction=0.1, seed=0)
    save_dataset(bundle, tmp_path / "cora")
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestRunCommand:
    def test_happy_path_writes_schema_valid_report(self, dataset_dir, capsys):
        code = cli_main(["run", "--dataset", "cora", "--protocol", "balanced",
                         "--k", "5", "--method", "agst", "--runs", "2"])
        assert code == 0
        report = json.loads((dataset_dir / "report.json").read_text())
        assert set(report) >= {"config", "runs", "mean", "ci95", "wall_ms"}
        assert len(report["runs"]) == 2
        assert {"seed", "accuracy", "iterations"} <= set(report["runs"][0])
        out = capsys.readouterr().out
        assert "accuracy" in out

    @pytest.mark.parametrize("flags, protocol", [
        (["--k", "2", "--val-per-class", "2"], "balanced"),
        (["--protocol", "imbalanced", "--rate", "0.99"], "imbalanced"),
    ])
    def test_split_without_test_nodes_is_runtime_error(self, tmp_path, monkeypatch, capsys,
                                                       flags, protocol):
        # 8 nodes, all held as labeled or validation: no accuracy to report
        save_dataset(two_cluster_bundle(n=8, seed=0), tmp_path / "tiny")
        monkeypatch.chdir(tmp_path)
        code = cli_main(["run", "--dataset", "tiny", "--runs", "2", *flags])
        assert code == 1
        assert capsys.readouterr().err == (f"error: the {protocol} split leaves no test node "
                                           f"[run seed 0]\n")
        assert not (tmp_path / "report.json").exists()

    def test_k_zero_is_usage_error(self, dataset_dir, capsys):
        code = cli_main(["run", "--dataset", "cora", "--k", "0"])
        assert code == 2
        assert "positive" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--lr", "-0.5"], ["--lr", "nan"], ["--tau", "nan"],
                                       ["--lambda2", "nan"], ["--weight-decay", "-1"]])
    def test_invalid_training_value_is_runtime_error(self, dataset_dir, capsys, flags):
        code = cli_main(["run", "--dataset", "cora", "--runs", "1", *flags])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert not (dataset_dir / "report.json").exists()

    # besides a flag that never existed: the options removed from the run
    # configuration, and the config file in two spellings argparse once took
    @pytest.mark.parametrize("argv", [["--frobnicate"], ["--warm-start"],
                                      ["--normalize-features"], ["--loss-reduction", "sum"],
                                      ["--best-iteration"], ["--config", "x.cfg"],
                                      ["--conf=x.cfg"]],
                             ids=["frobnicate", "warm-start", "normalize-features",
                                  "loss-reduction", "best-iteration", "config", "conf"])
    def test_unknown_flag_is_usage_error(self, dataset_dir, capsys, argv):
        assert cli_main(["run", "--dataset", "cora", *argv]) == 2
        assert "unrecognized arguments: " in capsys.readouterr().err

    def test_missing_dataset_is_runtime_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = cli_main(["run", "--dataset", "nowhere", "--runs", "1"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_unwritable_output_fails_with_diagnostic(self, dataset_dir, capsys):
        code = cli_main(["run", "--dataset", "cora", "--runs", "1",
                         "--method", "lp-only", "--output", "no/such/dir/report.json"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_broken_pool_is_one_line_runtime_error(self, dataset_dir, monkeypatch, capsys):
        from concurrent.futures.process import BrokenProcessPool

        from agst import cli

        def broken(spec):
            raise BrokenProcessPool("a worker process terminated abruptly")

        monkeypatch.setattr(cli, "run_experiment", broken)
        code = cli_main(["run", "--dataset", "cora", "--runs", "2", "--workers", "2"])
        assert code == 1
        assert capsys.readouterr().err == "error: a worker process terminated abruptly\n"

    def test_method_and_seed_flags_respected(self, dataset_dir):
        code = cli_main(["run", "--dataset", "cora", "--method", "lp-only",
                         "--runs", "3", "--seed", "5", "--output", "lp.json"])
        assert code == 0
        report = json.loads((dataset_dir / "lp.json").read_text())
        assert [r["seed"] for r in report["runs"]] == [5, 6, 7]
        assert report["config"]["method"] == "lp-only"


class TestSweepCommand:
    def test_degenerate_sweep_writes_csv(self, dataset_dir, capsys):
        code = cli_main(["sweep", "--dataset", "cora", "--method", "lp-only",
                         "--runs", "2", "--axis", "steps", "--values", "10",
                         "--output", "sweep.csv"])
        assert code == 0
        lines = (dataset_dir / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "axis,value,mean,ci95"
        assert len(lines) == 2

    @pytest.mark.parametrize("value", ["2.5", "inf"])
    def test_non_integral_k_is_runtime_error(self, dataset_dir, capsys, value):
        code = cli_main(["sweep", "--dataset", "cora", "--method", "lp-only", "--runs", "1",
                         "--axis", "k", "--values", f"3,{value}"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: sweep axis k takes integer values, got {float(value):g}\n")
        assert not (dataset_dir / "sweep.csv").exists()

    # run's test above holds the other removed options; sweep lost the file too
    @pytest.mark.parametrize("argv", [["--config", "x.cfg"], ["--conf=x.cfg"]],
                             ids=["config", "conf"])
    def test_config_file_is_usage_error(self, dataset_dir, capsys, argv):
        code = cli_main(["sweep", "--dataset", "cora", "--axis", "k", "--values", "1", *argv])
        assert code == 2
        assert "unrecognized arguments: " in capsys.readouterr().err
        assert not (dataset_dir / "sweep.csv").exists()

    def test_best_iteration_is_usage_error(self, dataset_dir, capsys):
        # run's test above holds it too: both commands lost the flag
        code = cli_main(["sweep", "--dataset", "cora", "--axis", "k", "--values", "1",
                         "--best-iteration"])
        assert code == 2
        assert "unrecognized arguments: --best-iteration" in capsys.readouterr().err
        assert not (dataset_dir / "sweep.csv").exists()

    def test_axis_required(self, dataset_dir):
        assert cli_main(["sweep", "--dataset", "cora", "--values", "1"]) == 2

    @pytest.mark.parametrize("values", ["abc", "1,two", "1e"])
    def test_malformed_values_are_usage_error(self, dataset_dir, capsys, values):
        code = cli_main(["sweep", "--dataset", "cora", "--axis", "k", "--values", values])
        assert code == 2
        assert "argument --values" in capsys.readouterr().err
        assert not (dataset_dir / "sweep.csv").exists()

    def test_empty_value_entries_are_skipped(self, monkeypatch, tmp_path):
        calls = []

        def fake_sweep(spec, axis, values):
            calls.append((axis, values))
            return []

        monkeypatch.setattr(cli, "run_sweep", fake_sweep)
        monkeypatch.chdir(tmp_path)
        argv = ["sweep", "--dataset", "d", "--axis", "lambda1", "--values", "0.5,, 1,"]
        assert cli_main(argv) == 0
        assert calls == [("lambda1", [0.5, 1.0])]


def built_spec(argv, monkeypatch, tmp_path):
    """The ExperimentSpec that ``agst run`` or ``agst sweep`` hands on."""
    monkeypatch.chdir(tmp_path)
    seen = {}

    def fake_run(spec):
        seen["spec"] = spec
        return Report(spec.method, spec.protocol, [], 0.0, 0.0, 0.0, {})

    def fake_sweep(spec, axis, values):
        seen["spec"] = spec
        return []

    monkeypatch.setattr(cli, "run_experiment", fake_run)
    monkeypatch.setattr(cli, "run_sweep", fake_sweep)
    assert cli_main(argv) == 0
    return seen["spec"]


def subcommands() -> dict[str, argparse.ArgumentParser]:
    """Each command's parser, by name."""
    parser = cli.build_parser()
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


DEFAULT = ExperimentSpec(dataset="d")


def config(**changes):
    return replace(DEFAULT, config=replace(DEFAULT.config, **changes))


def lp(**changes):
    return config(lp=replace(DEFAULT.config.lp, **changes))


def train(**changes):
    return config(train=replace(DEFAULT.config.train, **changes))


def augment(**changes):
    return config(augment=replace(DEFAULT.config.augment, **changes))


# each flag set alone, with a value other than its default, and the spec it
# must build, written out by hand
FLAG_ALONE = [
    (["--protocol", "imbalanced"], replace(DEFAULT, protocol="imbalanced")),
    (["--k", "7"], replace(DEFAULT, k=7)),
    (["--rate", "0.25"], replace(DEFAULT, rate=0.25)),
    (["--method", "lp-only"], replace(DEFAULT, method="lp-only")),
    (["--runs", "3"], replace(DEFAULT, runs=3)),
    (["--seed", "11"], replace(DEFAULT, seed=11)),
    (["--workers", "2"], replace(DEFAULT, workers=2)),
    (["--val-per-class", "9"], replace(DEFAULT, val_per_class=9)),
    (["--alpha", "0.75"], lp(alpha=0.75)),
    (["--steps", "4"], lp(steps=4)),
    (["--tau", "0.25"], train(tau=0.25)),
    (["--momentum", "0.5"], train(momentum=0.5)),
    (["--lambda1", "2.5"], train(lambda1=2.5)),
    (["--lambda2", "0.75"], train(lambda2=0.75)),
    (["--beta-add", "0.25"], augment(beta_add=0.25)),
    (["--beta-remove", "0.75"], augment(beta_remove=0.75)),
    (["--iterations", "5"], config(iterations=5)),
    (["--lr", "0.125"], train(learning_rate=0.125)),
    (["--weight-decay", "0.0625"], train(weight_decay=0.0625)),
    (["--dropout", "0.25"], train(dropout=0.25)),
    (["--patience", "7"], train(patience=7)),
    (["--max-epochs", "40"], train(max_epochs=40)),
    (["--no-val-epochs", "30"], train(no_val_epochs=30)),
    (["--hidden", "16"], train(hidden=16)),
]
SWEEP = ["--axis", "k", "--values", "1"]


class TestSpecFromFlags:
    @pytest.mark.parametrize("extra", [[], SWEEP], ids=["run", "sweep"])
    def test_no_flags_build_the_default_spec(self, monkeypatch, tmp_path, extra):
        command = "sweep" if extra else "run"
        spec = built_spec([command, "--dataset", "d", *extra], monkeypatch, tmp_path)
        assert spec == ExperimentSpec(dataset="d")

    def test_every_flag_is_listed(self):
        parser = argparse.ArgumentParser(add_help=False)
        cli._add_experiment_flags(parser)
        declared = {action.option_strings[0] for action in parser._actions}
        listed = {flags[0] for flags, _ in FLAG_ALONE}
        assert declared - listed == {"--dataset"}
        assert listed <= declared

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_flags_are_the_parameter_names(self, command):
        # one name registry: every flag is a PARAMETERS key or an
        # ExperimentSpec field, and every such name is a flag
        declared = {action.dest for action in subcommands()[command]._actions}
        own = {"help", "output", "axis", "values"}
        names = set(PARAMETERS) | ({f.name for f in fields(ExperimentSpec)} - {"config"})
        assert declared - own == names

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("flags, expected", FLAG_ALONE, ids=[f[0] for f, _ in FLAG_ALONE])
    def test_flag_alone_sets_its_field(self, monkeypatch, tmp_path, command, flags, expected):
        extra = SWEEP if command == "sweep" else []
        spec = built_spec([command, "--dataset", "d", *flags, *extra], monkeypatch, tmp_path)
        assert spec == expected

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_zero_val_per_class_is_the_no_validation_mode(self, monkeypatch, tmp_path, command):
        extra = SWEEP if command == "sweep" else []
        spec = built_spec([command, "--dataset", "d", "--val-per-class", "0", *extra],
                          monkeypatch, tmp_path)
        assert spec == replace(DEFAULT, val_per_class=0)

    @pytest.mark.parametrize("axis", SWEEP_AXES)
    def test_sweep_axis_sets_the_field_of_its_flag(self, monkeypatch, tmp_path, axis):
        flag = "--" + axis.replace("_", "-")
        value = 3 if axis in ("k", "steps") else 0.25
        spec = built_spec(["run", "--dataset", "d", flag, str(value)], monkeypatch, tmp_path)
        assert spec != DEFAULT
        assert apply_axis(DEFAULT, axis, value) == spec


class TestConvertCommand:
    def test_converts_content_release(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "x.content").write_text("a\t1\t0\tml\nb\t0\t1\tdb\nc\t1\t1\tml\n")
        (raw / "x.cites").write_text("a\tb\nb\tc\n")
        code = cli_main(["convert", "--input", "raw", "--output", "out"])
        assert code == 0
        assert "n=3" in capsys.readouterr().out
        from agst import load_dataset

        assert load_dataset(tmp_path / "out").graph.m == 2

    def test_convert_missing_input(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli_main(["convert", "--input", "nope", "--output", "out"]) == 1

    def test_convert_names_the_line_of_a_non_finite_feature(self, tmp_path, monkeypatch,
                                                             capsys):
        monkeypatch.chdir(tmp_path)
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "d.content").write_text("a 1 0 x\nb nan 0 y\n")
        (raw / "d.cites").write_text("a b\n")
        assert cli_main(["convert", "--input", "raw", "--output", "out"]) == 1
        assert capsys.readouterr().err == "error: d.content:2: non-finite feature\n"
        assert not (tmp_path / "out").exists()


class TestGradcheckCommand:
    def test_prints_error_and_passes(self, capsys):
        code = cli_main(["gradcheck", "--instances", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "max relative error" in out
        assert "PASS" in out

    @pytest.mark.parametrize("flags, expected", [
        ([], {}),
        (["--instances", "3", "--seed", "4"], {"instances": 3, "seed": 4}),
    ])
    def test_only_given_flags_reach_the_suite(self, monkeypatch, capsys, flags, expected):
        calls = []

        def fake_suite(**kwargs):
            calls.append(kwargs)
            return GradCheckReport(max_rel_error=1e-3, instances=1)

        monkeypatch.setattr(cli, "run_gradcheck_suite", fake_suite)
        code = cli_main(["gradcheck", *flags])
        assert calls == [expected]
        assert code == 1   # 1e-3 is above the pass bar
        assert "FAIL" in capsys.readouterr().out

    # the bar is exclusive: an error just under it passes, the bar itself fails
    @pytest.mark.parametrize("error, code, verdict", [
        (0.0, 0, "PASS"),
        (float(np.nextafter(PASS_BAR, 0.0)), 0, "PASS"),
        (PASS_BAR, 1, "FAIL"),
    ], ids=["zero", "under", "at"])
    def test_pass_bar(self, monkeypatch, capsys, error, code, verdict):
        monkeypatch.setattr(cli, "run_gradcheck_suite",
                            lambda **kwargs: GradCheckReport(max_rel_error=error, instances=2))
        assert cli_main(["gradcheck"]) == code
        assert capsys.readouterr().out == (
            f"max relative error over 2 instances: {error:.3e}\ngradcheck: {verdict}\n")

    @pytest.mark.parametrize("flag, value", [("--epsilon", "1e-6"), ("--threshold", "0.5")])
    def test_step_and_bar_are_not_flags(self, capsys, flag, value):
        assert cli_main(["gradcheck", flag, value]) == 2
        assert "unrecognized arguments: " in capsys.readouterr().err


# malformed values for each of cli.py's own argparse types
BAD_VALUES = {
    cli._positive_int: ["abc", "0", "-3", "2.5"],
    cli._non_negative_int: ["abc", "-3", "2.5"],
    cli._unit_open_float: ["abc", "0", "1.5", "nan"],
    cli._float_list: ["abc", "1,two", ",", " "],
}
# what each command needs besides the flag under test
REQUIRED = {"run": ["--dataset", "cora"],
            "sweep": ["--dataset", "cora", "--axis", "k", "--values", "1"],
            "gradcheck": []}


def typed_flags():
    """(command, flag, type) for every flag that parses with one of BAD_VALUES' types."""
    return [(command, action.option_strings[0], action.type)
            for command, sub in subcommands().items() for action in sub._actions
            if action.type in BAD_VALUES]


TYPED_FLAGS = typed_flags()


class TestTypedFlagErrors:
    def test_flags_found(self):
        flags = {(command, flag) for command, flag, _ in TYPED_FLAGS}
        assert {("run", "--k"), ("run", "--rate"), ("sweep", "--values"),
                ("gradcheck", "--instances"),
                ("run", "--seed"), ("sweep", "--seed"), ("gradcheck", "--seed"),
                ("run", "--patience"), ("sweep", "--patience")} <= flags
        assert {command for command, _ in flags} == set(REQUIRED)

    @pytest.mark.parametrize("command, flag, kind", TYPED_FLAGS,
                             ids=[f"{c}{f}" for c, f, _ in TYPED_FLAGS])
    def test_malformed_value_is_plain_usage_error(self, capsys, command, flag, kind):
        for value in BAD_VALUES[kind]:
            code = cli_main([command, *REQUIRED[command], flag, value])
            err = capsys.readouterr().err
            assert code == 2
            assert f"error: argument {flag}: expected " in err
            assert f"got {value!r}" in err
            # no private helper's name (a word starting with "_")
            assert not re.search(r"(?<!\w)_[a-z]", err), err


class TestEntryPoint:
    def test_no_command_is_usage_error(self):
        assert cli_main([]) == 2

    def test_help_exits_zero(self):
        assert cli_main(["--help"]) == 0
