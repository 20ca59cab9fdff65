import argparse
import dataclasses
import json
import math
import subprocess
import sys

import pytest

import isolab
import oracle_constants as oc
from isolab import ConfigError, QuadratureError, stability
from isolab.cli import _FAULTS, RunConfig, build_parser, main


def options(command):
    """The options of ``command``'s parser, as :func:`build_parser` makes
    it, by dest."""
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {a.dest: a for a in commands.choices[command]._actions if a.dest != "help"}


def reads(command):
    """The config fields ``command`` reads: its options' dests but for
    ``--config`` and ``--inject-fault``."""
    return set(options(command)) - {"config", "inject_fault"}


COMMANDS = sorted(isolab.cli._COMMANDS)
FIELDS = [f.name for f in dataclasses.fields(RunConfig) if f.name != "command"]


def run(tmp_path, *argv):
    """Invoke main() in process; returns (exit_code, report dict or None)."""
    code = main([*argv, "--out", str(tmp_path)])
    reports = sorted(tmp_path.glob("*_report.json")) + sorted(
        tmp_path.glob("*_summary.json")
    )
    payload = json.loads(reports[0].read_text()) if reports else None
    return code, payload


# -- RunConfig ----------------------------------------------------------------


def test_runconfig_round_trips():
    cfg = RunConfig(
        command="sweep",
        measure="example23",
        metric="w2",
        alpha_min=0.45,
        p_list=(1.0, 2.0),
        delta_grid=(1e-2, 1e-3),
    )
    assert RunConfig.from_dict(cfg.to_dict()) == cfg
    # the dict form normalizes p order
    unsorted = RunConfig.from_dict({"command": "verify", "p_list": [4.0, 1.0]})
    assert unsorted.p_list == (1.0, 4.0)


def test_runconfig_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"command": "verify", "colour": "blue"})
    # the needles generator's settings are fields of their own, not an object
    with pytest.raises(ConfigError, match=r"unknown config keys: \['ensemble'\]"):
        RunConfig.from_dict({"command": "needles", "ensemble": {"needle_count": 10}})


@pytest.mark.parametrize(
    "kwargs",
    [
        {"command": "teleport"},
        {"command": "verify", "theta": 1.5},
        {"command": "verify", "p_list": (0.5,)},
        {"command": "sweep", "metric": "hausdorff"},
        {"command": "sweep", "delta_grid": (-1e-3,)},
        {"command": "needles", "epsilon": 1.0},
        {"command": "needles", "seed": -2},
        {"command": "needles", "needle_count": 2.5},
        {"command": "needles", "needle_count": float("nan")},
        {"command": "needles", "needle_count": "abc"},
        {"command": "needles", "deficit_scale": "abc"},
        {"command": "needles", "bad_fraction": [0.1]},
        {"command": "verify", "p_list": [10**400]},  # these two were OverflowError tracebacks
        {"command": "needles", "needle_count": 10**400},
    ],
)
def test_runconfig_validation(kwargs):
    with pytest.raises(ConfigError):
        RunConfig(**kwargs)


@pytest.mark.parametrize("count", [2.5, float("nan"), "abc"])
@pytest.mark.parametrize("argv", [["needles"]], ids=["needles"])
def test_config_file_needle_count_must_be_a_whole_number(tmp_path, capsys, monkeypatch, argv, count):
    # was truncated (2.5 ran 2 needles) or a ValueError traceback (NaN, "abc")
    calls = []
    monkeypatch.setattr(isolab.needles, "generate_ensemble", lambda config: calls.append(config))
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"needle_count": count}))
    code = main([*argv, "--config", str(cfg_file), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: ") and "needle_count" in err[0]
    assert calls == []


@pytest.mark.parametrize("setting", [{"deficit_scale": "abc"}, {"bad_fraction": [0.1]}],
                         ids=["deficit_scale", "bad_fraction"])
def test_config_file_ensemble_values_must_be_numbers(tmp_path, capsys, monkeypatch, setting):
    # were a ValueError or TypeError traceback from float() in cmd_needles
    calls = []
    monkeypatch.setattr(isolab.needles, "generate_ensemble", lambda config: calls.append(config))
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"command": "needles", **setting}))
    code = main(["needles", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: ") and next(iter(setting)) in err[0]
    assert "finite number" in err[0]
    assert calls == [] and not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, data",
    [
        ("verify", {"p_list": "12"}),  # ran p = 1 and p = 2
        ("verify", {"delta_grid": "1e-3"}),  # these three were ValueError tracebacks
        ("sweep", {"delta_grid": "1e-3"}),  # verify reads no delta_grid: its key is unknown there
        ("verify", {"p_list": [2, "x"]}),
        ("verify", {"theta": "0.5"}),
        ("verify", {"measure": 5}),  # an AttributeError traceback
        ("sweep", {"alpha_min": "a"}),  # a TypeError after the whole sweep
        ("verify", {"seed": True}),  # these two were accepted
        ("needles", {"c_threshold": True}),
    ],
    ids=lambda v: v if isinstance(v, str) else json.dumps(v),
)
def test_config_file_values_of_a_wrong_type_are_config_errors(tmp_path, capsys, command, data):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps(data))
    code = main([command, "--config", str(cfg_file), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: ") and next(iter(data)) in err[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("source", ["flags", "config"])
@pytest.mark.parametrize(
    "command, key, flag, value",
    [
        ("sweep", "alpha_min", "--alpha-min", "nan"),  # ran the sweep, then [FAIL] exponent_in_band
        ("sweep", "alpha_max", "--alpha-max", "-inf"),
        ("needles", "c_threshold", "--c-threshold", "inf"),  # every needle counted as centered
        ("verify", "theta", "--theta", "nan"),
        ("needles", "epsilon", "--epsilon", "nan"),
        ("verify", "p_list", "--p", "inf"),
        ("sweep", "delta_grid", "--delta-grid", "nan"),
        ("needles", "deficit_scale", "--deficit-scale", "inf"),
    ],
    ids=lambda v: v,
)
def test_config_numbers_must_be_finite(tmp_path, capsys, monkeypatch, command, key, flag, value, source):
    calls = []
    monkeypatch.setitem(isolab.cli._COMMANDS, command, lambda cfg, **extra: calls.append(cfg))
    argv = [command]
    if source == "flags":
        argv.append(f"{flag}={value}")
    else:
        number = float(value)
        data = {key: [number]} if key in ("p_list", "delta_grid") else {key: number}
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps(data))
        argv += ["--config", str(cfg_file)]
    code = main([*argv, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: ") and key in err[0] and "finite" in err[0]
    assert calls == []
    assert not (tmp_path / "out").exists()


def test_config_file_applies_and_flags_win(tmp_path):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"theta": 0.25, "p_list": [1.0]}))

    code, report = run(
        tmp_path / "a", "verify", "--config", str(cfg_file)
    )
    assert code == 0
    assert report["theta"] == 0.25

    code, report = run(
        tmp_path / "b", "verify", "--config", str(cfg_file), "--theta", "0.4"
    )
    assert code == 0
    assert report["theta"] == 0.4  # flag beats file


def test_parser_dests_are_config_fields():
    # every option sets the RunConfig field of its dest, and every field but
    # the command is some option's; --config and --inject-fault are the two
    # that are not configuration
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    dests = {a.dest for sub in commands.choices.values() for a in sub._actions}
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    assert dests - {"help", "config", "inject_fault"} == fields - {"command"}
    assert sorted(commands.choices) == COMMANDS


# a value, not the default, of every field some command reads; measure is
# the one whose values differ by command, and a perturbed measure without a
# seed of its own reads the seed field
SETTINGS = {
    "theta": 0.4, "p_list": [1.0, 4.0], "epsilon": 0.2, "delta_grid": [1e-2, 1e-3, 1e-4],
    "seed": 2, "metric": "lp:1", "alpha_min": 0.8, "alpha_max": 1.2, "c_threshold": 2.0,
    "needle_count": 10, "deficit_scale": 1e-3, "bad_fraction": 0.1,
}
MEASURES = {"verify": "perturbed", "sweep": "perturbed", "example23": "truncated:3"}
UNREAD = [(command, field) for command in COMMANDS if "config" in options(command)
          for field in FIELDS if field not in reads(command)]


def test_every_field_is_read_by_some_command_and_has_a_setting():
    assert len(UNREAD) == 31  # verify 9, sweep 6, needles 5, example23 11
    assert {field for command in COMMANDS for field in reads(command)} == set(FIELDS)
    assert set(SETTINGS) | {"measure", "output_dir"} == set(FIELDS)


@pytest.mark.parametrize("command, field", UNREAD, ids=lambda v: v)
def test_config_file_key_the_command_does_not_read_exits_2(tmp_path, capsys, monkeypatch, command, field):
    # each of these was accepted and changed nothing: {"theta": 0.3} ran
    # example23 at theta 0.5 and reported so
    calls = []
    monkeypatch.setitem(isolab.cli._COMMANDS, command, lambda cfg, **extra: calls.append(cfg))
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({field: SETTINGS.get(field, "gaussian")}))
    code = main([command, "--config", str(cfg_file), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith(f"error: unknown config keys: [{field!r}]")
    assert calls == [] and not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [c for c in COMMANDS if "config" in options(c)])
def test_config_file_of_every_key_a_command_reads_equals_the_flags(tmp_path, capsys, command):
    values = {key: MEASURES[command] if key == "measure" else SETTINGS[key]
              for key in sorted(reads(command) - {"output_dir"})}
    argv = [command]
    for key, value in values.items():
        text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
        argv += [options(command)[key].option_strings[0], text]
    code = main([*argv, "--out", str(tmp_path / "flags")])
    out = capsys.readouterr().out
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({**values, "output_dir": str(tmp_path / "file")}))
    assert main([command, "--config", str(cfg_file)]) == code
    assert capsys.readouterr().out == out
    names = sorted(path.name for path in (tmp_path / "flags").iterdir())
    assert names == sorted(path.name for path in (tmp_path / "file").iterdir()) and names
    for name in names:
        assert (tmp_path / "file" / name).read_bytes() == (tmp_path / "flags" / name).read_bytes()


def test_config_file_ensemble_object_is_unknown(tmp_path, capsys):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"ensemble": {"needle_count": 10}}))
    code = main(["needles", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: unknown config keys: ['ensemble']")
    assert not (tmp_path / "out").exists()


def test_config_file_rejects_tolerance_keys(tmp_path, capsys):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"tol_abs": 1e-4}))
    code = main(["verify", "--config", str(cfg_file), "--out", str(tmp_path)])
    assert code == 2
    assert "unknown config keys: ['tol_abs']" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--tol-abs", "--tol-rel"])
def test_tolerance_flags_are_gone(flag, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", flag, "1e-4", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--epsilon", "0.2"),
        ("verify", "--delta-grid", "1e-3"),
        ("example23", "--theta", "0.3"),  # reported theta = 0.5 all the same
        ("example23", "--epsilon", "0.2"),
        ("example23", "--delta-grid", "1e-3"),
        ("example23", "--seed", "1"),
        ("sweep", "--p", "2"),
        ("sweep", "--epsilon", "0.2"),
        ("needles", "--measure", "perturbed:3"),  # ran the default ensembles
        ("needles", "--p", "2"),
        ("selftest", "--seed", "1"),
    ],
    ids=lambda argv: " ".join(argv),
)
def test_each_command_takes_only_the_flags_it_reads(tmp_path, capsys, argv):
    # each of these flags was accepted and changed nothing
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("measure, metric", [("example23", "mixture_l1"), ("needles", "w1")])
@pytest.mark.parametrize("source", ["flags", "config"])
def test_sweep_rejects_a_metric_its_family_lacks(tmp_path, capsys, monkeypatch, measure, metric, source):
    # the needle-mixture L1 is measured by `isolab needles` alone: neither the
    # family `needles` nor the metric `mixture_l1` is a sweep's, and each is a
    # configuration error before any family is realized
    calls = []
    monkeypatch.setattr(isolab.needles, "generate_ensemble", lambda config: calls.append(config))
    monkeypatch.setattr(isolab.rates, "sweep", lambda *args: calls.append(args))
    if source == "flags":
        argv = ["sweep", "--measure", measure, "--metric", metric]
    else:
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"measure": measure, "metric": metric}))
        argv = ["sweep", "--config", str(cfg_file)]
    code = main([*argv, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: ")
    assert (f"bad metric {metric!r}" if metric == "mixture_l1" else f"unknown sweep family {measure!r}") in err[0]
    assert calls == [] and not (tmp_path / "out").exists()


def test_config_file_command_mismatch(tmp_path, capsys):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"command": "sweep"}))
    code = main(["verify", "--config", str(cfg_file), "--out", str(tmp_path)])
    assert code == 2
    assert "does not match" in capsys.readouterr().err


# -- verify -------------------------------------------------------------------


def test_verify_gaussian_all_checks_pass(tmp_path, capsys):
    code, report = run(tmp_path, "verify", "--measure", "gaussian")
    out = capsys.readouterr().out
    assert code == 0
    assert report["passed"] is True
    assert set(report["checks"]) == {
        "one_convex",
        "deficit_nonnegative",
        "lp_nondecreasing_in_p",
        "talagrand",
        "w1_le_w2",
        "w1_le_dual_bound",
    }
    assert all(report["checks"].values())
    assert abs(report["deficit"]) <= 1e-10
    assert report["w2"] <= 1e-8
    assert out.strip().endswith("PASS")


def test_verify_truncated_matches_closed_forms(tmp_path):
    code, report = run(
        tmp_path, "verify", "--measure", "truncated:2", "--p", "1,2"
    )
    assert code == 0
    # theta = 0.5 on a symmetric measure: centering is a no-op, so the
    # reported distances are the closed-form ones
    assert report["deficit"] == pytest.approx(oc.DEFICIT_D2, abs=1e-8)
    lp = {row["p"]: row["lp"] for row in report["lp"]}
    assert lp[1.0] == pytest.approx(oc.LP1_D2, abs=1e-8)
    assert lp[2.0] == pytest.approx(oc.LP2_D2, abs=1e-8)
    assert report["entropy"] == pytest.approx(oc.ENTROPY_D2, abs=1e-8)
    assert report["shift"] == pytest.approx(0.0, abs=1e-10)


def test_verify_perturbed_seed_spec(tmp_path):
    code, report = run(tmp_path, "verify", "--measure", "perturbed:3")
    assert code == 0
    assert all(report["checks"].values())


def test_verify_potential_file(tmp_path):
    spec = {
        "family": "perturbed_gaussian",
        "breakpoints": [-0.5, 0.5],
        "slopes": [-0.2, 0.0, 0.2],
    }
    path = tmp_path / "potential.json"
    path.write_text(json.dumps(spec))
    code, report = run(tmp_path, "verify", "--measure", str(path))
    assert code == 0
    assert report["checks"]["one_convex"] is True


def test_verify_failure_writes_partial_report(tmp_path, capsys, monkeypatch):
    def broken(m):
        raise QuadratureError("no convergence")

    monkeypatch.setattr(stability, "w2_to_gaussian", broken)
    code, report = run(tmp_path, "verify", "--measure", "truncated:2")
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert report["error"] == "QuadratureError: no convergence"
    assert report["checks"]["completed"] is False
    assert report["passed"] is False
    # what was computed before the failure is reported and printed, W_1
    # included; nothing after it is
    assert len(report["lp"]) == 2 and math.isfinite(report["w1"]) and report["w1"] > 0.0
    assert not {"w2", "entropy", "talagrand", "w1_dual_bound"} & set(report)
    assert "w1_le_w2" not in report["checks"]
    assert out[1].startswith("  a_theta  = ")
    assert out[3] == f"  deficit  = {report['deficit']:.12g}"
    assert out[4].startswith("  lp(p=1) = ") and out[5].startswith("  lp(p=2) = ")
    assert out[6] == f"  w1       = {report['w1']:.12g}"
    assert out[7] == "  error: QuadratureError: no convergence"
    assert "  [FAIL] completed" in out
    assert out[-1] == "FAIL"


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--p", "abc"),
        ("sweep", "--delta-grid", "1e-3,x"),
        ("verify", "--measure", "truncated:x"),
        ("verify", "--measure", "perturbed:x"),
        ("example23", "--measure", "truncated:x"),
    ],
    ids=lambda argv: " ".join(argv),
)
def test_malformed_number_is_a_config_error(tmp_path, capsys, argv):
    code = main([*argv, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: not a valid ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--measure", "truncated:-1"),
        ("verify", "--measure", "truncated:nan"),
        ("verify", "--measure", "perturbed:-3"),
        ("example23", "--measure", "truncated:-1"),
    ],
    ids=lambda argv: " ".join(argv),
)
def test_out_of_range_number_is_a_config_error(tmp_path, capsys, argv):
    code = main([*argv, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: measure spec {argv[-1]!r}: the ")
    assert "Traceback" not in err


def test_verify_rejects_bad_theta(tmp_path, capsys):
    code = main(["verify", "--theta", "1.5", "--out", str(tmp_path)])
    assert code == 2
    assert "theta out of range" in capsys.readouterr().err


def test_verify_rejects_missing_measure_file(tmp_path, capsys):
    code = main(
        ["verify", "--measure", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
    )
    assert code == 2
    assert "no such file" in capsys.readouterr().err


def test_verify_rejects_malformed_potential_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code = main(["verify", "--measure", str(path), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "broken.json" in err

    path.write_text(json.dumps({"family": "perturbed_gaussian"}))
    code = main(["verify", "--measure", str(path), "--out", str(tmp_path)])
    assert code == 2
    assert "missing key" in capsys.readouterr().err


# -- example23 ----------------------------------------------------------------


def test_example23_default_reproduction(tmp_path, capsys):
    code, report = run(tmp_path, "example23", "--p", "1,2")
    assert code == 0
    assert report["D"] == 2.0
    assert set(report["checks"]) == {
        "deficit_matches",
        "lp_matches_p1",
        "lp_matches_p2",
        "entropy_matches",
        "cdf_matches",
    }
    assert all(report["checks"].values())
    assert report["deficit"]["closed"] == pytest.approx(oc.DEFICIT_D2, abs=1e-15)
    assert "PASS" in capsys.readouterr().out


def test_example23_needs_truncated_spec(tmp_path, capsys):
    code = main(
        ["example23", "--measure", "gaussian", "--out", str(tmp_path)]
    )
    assert code == 2
    assert "truncated:D" in capsys.readouterr().err


# -- sweep --------------------------------------------------------------------


def test_sweep_lp2_band_pass_and_artifacts(tmp_path, capsys):
    code = main(
        [
            "sweep",
            "--measure",
            "example23",
            "--metric",
            "lp:2",
            "--delta-grid",
            "1e-2,1e-3,1e-4,1e-5",
            "--alpha-min",
            "0.45",
            "--alpha-max",
            "0.55",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0

    csv_lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert csv_lines[0] == "delta,value"
    assert len(csv_lines) == 5
    first_delta = float(csv_lines[1].split(",")[0])
    assert first_delta == pytest.approx(1e-2)

    plot_lines = (tmp_path / "sweep_plot.dat").read_text().splitlines()
    assert plot_lines[0] == "# log10_delta log10_value"
    assert len(plot_lines) == 5

    summary = json.loads((tmp_path / "sweep_summary.json").read_text())
    assert summary["alpha"] == pytest.approx(0.5, abs=0.05)
    assert summary["checks"] == {
        "exponent_in_band": True,
        "no_points_skipped": True,
    }
    assert summary["passed"] is True
    assert summary["r_squared"] > 0.999
    assert "PASS" in capsys.readouterr().out


def test_sweep_band_failure_exits_1(tmp_path, capsys):
    code = main(
        [
            "sweep",
            "--measure",
            "example23",
            "--metric",
            "lp:2",
            "--delta-grid",
            "1e-2,1e-3,1e-4",
            "--alpha-min",
            "0.9",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 1
    assert "FAIL" in capsys.readouterr().out
    summary = json.loads((tmp_path / "sweep_summary.json").read_text())
    assert summary["checks"]["exponent_in_band"] is False


def test_sweep_gaussian_family_fit_skipped(tmp_path, capsys):
    code = main(
        [
            "sweep",
            "--measure",
            "gaussian",
            "--metric",
            "lp:2",
            "--delta-grid",
            "1e-2,1e-3,1e-4",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0  # no band requested, nothing to fail
    assert "fit skipped" in capsys.readouterr().out
    summary = json.loads((tmp_path / "sweep_summary.json").read_text())
    assert math.isnan(summary["alpha"])
    assert all(v <= 1e-10 for _, v in summary["points"])


def test_sweep_rejects_empty_grid_and_unknown_family(tmp_path, capsys):
    code = main(
        ["sweep", "--delta-grid", " ", "--out", str(tmp_path)]
    )
    assert code == 2
    assert "empty numeric list" in capsys.readouterr().err

    # truncated was an undocumented alias of example23
    for family in ("witch-hat", "truncated", "truncated_gaussian"):
        code = main(
            ["sweep", "--measure", family, "--out", str(tmp_path)]
        )
        assert code == 2
        assert "unknown sweep family" in capsys.readouterr().err


# -- needles ------------------------------------------------------------------


def test_needles_canonical_run(tmp_path, capsys):
    code = main(
        [
            "needles",
            "--needle-count",
            "20",
            "--delta-grid",
            "1e-2,1e-3,1e-4",
            "--seed",
            "1",
            "--out",
            str(tmp_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0

    report = json.loads((tmp_path / "needles_report.json").read_text())
    assert report["passed"] is True
    assert report["fully_bad_ensemble"] is False
    assert report["checks"]["all_rows_ok"] is True
    assert report["checks"]["mixture_l1_nonincreasing"] is True
    assert report["rate_exponent"] == pytest.approx(0.9 / 8.7)
    assert len(report["rows"]) == 3

    csv_lines = (tmp_path / "needles.csv").read_text().splitlines()
    assert csv_lines[0] == "delta,epsilon,mixture_l1,good_mass,centered_mass,fitted_exponent"
    assert len(csv_lines) == 4
    assert "PASS" in out


def test_needles_all_gaussian_pins(tmp_path, capsys):
    code = main(["needles", "--needle-count", "10", "--deficit-scale", "0",
                 "--bad-fraction", "0", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "needles_report.json").read_text())
    assert len(report["rows"]) == 9  # the default grid
    for row in report["rows"]:
        assert row["mixture_l1"] <= 1e-10
        assert row["good_mass"] == pytest.approx(1.0)
    # every mixture_l1 is rounding noise below the fit's floor: the fit is
    # skipped, and the CSV is still written
    assert math.isnan(report["fitted_exponent"])
    assert "exponent fit skipped" in capsys.readouterr().out
    assert len((tmp_path / "needles.csv").read_text().splitlines()) == 10
    # pinned runs skip the rate checks, which only make sense on the
    # calibrated generator
    assert report["checks"] == {"all_rows_ok": True}


def test_needles_fully_bad_flag(tmp_path, capsys):
    code = main(
        [
            "needles",
            "--needle-count",
            "10",
            "--delta-grid",
            "1e-3",
            "--bad-fraction",
            "1.0",
            "--out",
            str(tmp_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads((tmp_path / "needles_report.json").read_text())
    assert report["fully_bad_ensemble"] is True
    assert "fully-bad ensemble" in out


# -- selftest -----------------------------------------------------------------


def test_selftest_battery_passes(tmp_path, capsys):
    code = main(["selftest", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "selftest: 14/14 passed" in out
    report = json.loads((tmp_path / "selftest_report.json").read_text())
    assert report["passed"] is True
    assert len(report["results"]) == 14


@pytest.mark.parametrize("fault", sorted(_FAULTS))
def test_selftest_fault_injection(fault, tmp_path, capsys):
    code = main(["selftest", "--inject-fault", fault, "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL " in out
    if fault == "gaussian_cdf":
        assert "FAIL numerics.gaussian_cdf" in out
    report = json.loads((tmp_path / "selftest_report.json").read_text())
    if fault == "convexity":  # a jump of psi is caught by the convexity check alone
        failed = [r["name"] for r in report["results"] if not r["passed"]]
        assert failed == ["measure1d.check_one_convexity"]
    assert report["passed"] is False
    assert report["injected_fault"] == fault


def test_every_fault_fails_a_check_and_every_check_has_a_fault(tmp_path, capsys):
    caught_by = {}
    for fault in _FAULTS:
        main(["selftest", "--inject-fault", fault, "--out", str(tmp_path / fault)])
        report = json.loads((tmp_path / fault / "selftest_report.json").read_text())
        failed = [r["name"] for r in report["results"] if not r["passed"]]
        assert failed, f"fault {fault} fails no check"
        for name in failed:
            caught_by.setdefault(name, []).append(fault)
    checks = [r["name"] for r in report["results"]]
    assert len(checks) == 14
    assert [name for name in checks if name not in caught_by] == []


def test_selftest_sees_a_truncated_hermite_series(tmp_path, capsys, monkeypatch):
    # its ensemble expands one cluster of translates; with 12 terms the
    # cos(3.5 (x - 6.75)) disintegration check parts by 4e-9
    monkeypatch.setattr(isolab.needles, "_HERMITE_TERMS", 12)
    assert main(["selftest", "--out", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "selftest_report.json").read_text())
    assert [r["name"] for r in report["results"] if not r["passed"]] == [
        "needles.generate_ensemble"]


def test_selftest_sees_a_biased_piece_mass(tmp_path, capsys, monkeypatch):
    # the minimizer's half-lines and boundary_set share one mass rule; a set
    # reported 1e-9 heavier than theta fails the minimizer check alone
    measured = isolab.measure1d._measured

    def biased(m, pieces):
        bset = measured(m, pieces)
        return dataclasses.replace(bset, total_measure=bset.total_measure + 1e-9)

    monkeypatch.setattr(isolab.measure1d, "_measured", biased)
    assert main(["selftest", "--out", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "selftest_report.json").read_text())
    assert [r["name"] for r in report["results"] if not r["passed"]] == [
        "measure1d.brute_force_minimizer"]


def test_needles_sees_a_truncated_hermite_series(tmp_path, capsys, monkeypatch):
    # with 12 terms the mixture of the Q = 1000 ensemble is off by about
    # 1e-8; its mass cannot show it, the cos(3.5 (x + c)) check does
    monkeypatch.setattr(isolab.needles, "_HERMITE_TERMS", 12)
    assert main(["needles", "--needle-count", "1000", "--delta-grid", "1e-3",
                 "--out", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "needles_report.json").read_text())
    [row] = report["rows"]
    assert row["mass_ok"] and not row["wave_ok"] and not row["ok"]
    assert report["checks"] == {"all_rows_ok": False}


def test_selftest_rejects_unknown_fault(tmp_path, capsys):
    code = main(
        ["selftest", "--inject-fault", "unknown_routine", "--out", str(tmp_path)]
    )
    assert code == 2
    assert "unknown fault" in capsys.readouterr().err


def test_selftest_restores_patched_routine(tmp_path):
    # the injected fault must not leak into later runs
    main(["selftest", "--inject-fault", "gaussian_cdf", "--out", str(tmp_path / "x")])
    code = main(["selftest", "--out", str(tmp_path / "y")])
    assert code == 0


# -- report keys --------------------------------------------------------------


def test_report_keys_are_stable(tmp_path):
    """Report keys are only ever added: these are the keys of every report
    and CSV header as of now."""
    def keys(out, name):
        return set(json.loads((tmp_path / out / name).read_text()))

    assert main(["verify", "--out", str(tmp_path / "v")]) == 0
    assert keys("v", "verify_report.json") == {
        "a_theta", "checks", "command", "deficit", "entropy", "gap", "lp", "measure",
        "one_convex", "passed", "perimeter_at_a", "profile_at_theta", "shift",
        "talagrand", "talagrand_pass", "theta", "w1", "w1_dual_bound", "w2",
    }
    verify = json.loads((tmp_path / "v" / "verify_report.json").read_text())
    assert set(verify["gap"]) == {
        "deficit", "equality_case", "fitted_lower_constant", "fitted_upper_constant",
        "slope_gap", "theta", "window",
    }
    assert set(verify["talagrand"]) == {"lhs", "rhs", "talagrand_pass"}
    assert set(verify["one_convex"]) == {"passed", "worst_violation"}
    assert set(verify["lp"][0]) == {"lp", "p"}
    assert main(["example23", "--out", str(tmp_path / "e")]) == 0
    assert keys("e", "example23_report.json") == {
        "D", "cdf_max_error", "checks", "command", "deficit", "delta_E", "entropy",
        "lp", "passed", "theta",
    }
    assert main(["sweep", "--measure", "example23", "--delta-grid", "1e-2,1e-3,1e-4",
                 "--out", str(tmp_path / "s")]) == 0
    assert keys("s", "sweep_summary.json") == {
        "alpha", "alpha_max", "alpha_min", "c", "checks", "command", "family", "metric",
        "passed", "points", "r_squared", "skipped_deltas", "theta",
    }
    assert (tmp_path / "s" / "sweep.csv").read_text().splitlines()[0] == "delta,value"
    assert main(["needles", "--needle-count", "10", "--delta-grid", "1e-2,1e-3",
                 "--out", str(tmp_path / "n")]) == 0
    assert keys("n", "needles_report.json") == {
        "c_threshold", "checks", "command", "epsilon", "fitted_exponent",
        "fully_bad_ensemble", "needle_count", "passed", "rate_exponent", "rows", "seed",
        "theta",
    }
    row = json.loads((tmp_path / "n" / "needles_report.json").read_text())["rows"][0]
    assert set(row) == {
        "bad_fraction", "bad_mass", "bad_mass_within_rate", "centered_mass",
        "decomposition_bound", "deficit_scale", "delta", "epsilon", "fully_bad",
        "good_contribution", "good_mass", "markov_applies", "mass_ok", "mass_total",
        "mixture_l1", "needlewise_sum", "ok", "rate_bound_exponent", "wave_ok", "warnings",
    }
    assert (tmp_path / "n" / "needles.csv").read_text().splitlines()[0] == (
        "delta,epsilon,mixture_l1,good_mass,centered_mass,fitted_exponent"
    )
    assert main(["selftest", "--out", str(tmp_path / "t")]) == 0
    assert keys("t", "selftest_report.json") == {"command", "injected_fault", "passed", "results"}


# -- determinism --------------------------------------------------------------


def test_outputs_are_byte_identical_across_runs(tmp_path, capsys):
    argv = [
        "needles",
        "--needle-count",
        "10",
        "--delta-grid",
        "1e-2,1e-3",
        "--seed",
        "5",
    ]
    assert main([*argv, "--out", str(tmp_path / "run1")]) == 0
    first_out = capsys.readouterr().out
    assert main([*argv, "--out", str(tmp_path / "run2")]) == 0
    second_out = capsys.readouterr().out

    assert first_out == second_out
    for name in ("needles_report.json", "needles.csv"):
        a = (tmp_path / "run1" / name).read_bytes()
        b = (tmp_path / "run2" / name).read_bytes()
        assert a == b


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "isolab.cli",
            "example23",
            "--out",
            str(tmp_path),
        ],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout


def test_two_main_calls_build_the_parser_once(tmp_path, capsys):
    build_parser.cache_clear()
    for _ in range(2):
        assert main(["example23", "--out", str(tmp_path)]) == 0
    assert build_parser.cache_info().misses == 1


def test_import_builds_no_parser():
    code = ("import isolab, isolab.cli; info = isolab.cli.build_parser.cache_info(); "
            "assert info.misses == info.currsize == 0, info")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
