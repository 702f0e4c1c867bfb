import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from disasterbrw import cli, walk
from disasterbrw.walk import SurvivalEstimate


def run_cli(argv, tmp_path, name="out.csv"):
    out = tmp_path / name
    code = cli.main(argv + ["--out", str(out)])
    return code, out.read_bytes()


def test_seed_is_mandatory(capsys):
    assert cli.main(["annealed", "--t", "1"]) == 1


def test_unknown_flag_is_config_error():
    assert cli.main(["annealed", "--seed", "1", "--nope", "3"]) == 1


def test_bad_range_is_config_error(capsys, monkeypatch):
    assert cli.main(["annealed", "--seed", "1", "--n", "0"]) == 1
    assert cli.main(["perc", "--seed", "1", "--p", "1.5"]) == 1
    assert cli.main(["annealed", "--seed", "1", "--alpha", "-1"]) == 1
    assert cli.main(["annealed", "--seed", "1", "--kappa", "-1"]) == 1
    assert cli.main(["annealed", "--seed", "1", "--d", "0"]) == 1
    assert cli.main(["boxes-fkg", "--seed", "1", "--n-batches", "0"]) == 1
    capsys.readouterr()
    # bad times fail a range check, which names the flag, before any estimator runs
    # and so do bad box and copy sizes (perc squares --copies-s, so -2 would run 4 copies)
    for command, flag, value in [("lyapunov", "t", "inf"), ("moment-check", "t", "inf"),
                                 ("phase", "t-lyap", "nan"), ("phase", "t-lyap", "0"),
                                 ("embed", "period", "nan"), ("embed", "period", "-1"),
                                 ("perc --mode brw", "copies-s", "-2"),
                                 ("perc --mode brw", "copies-s", "0"),
                                 ("perc --mode brw", "box-l", "0"), ("boxes-fkg", "box-l", "0"),
                                 ("perc --mode brw", "box-t", "-1"), ("boxes-fkg", "box-t", "0"),
                                 ("boxes-fkg", "box-t", "inf"), ("perc --mode brw", "block-n", "-1"),
                                 ("boxes-fkg", "start-count", "0")]:
        assert cli.main([*command.split(), "--seed", "1", f"--{flag}", value]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {flag.replace('-', '_')}: ")

    # non-finite rates are config errors too; the estimators would hang or print nan
    def run(*_args, **_kwargs):
        raise AssertionError("a non-finite rate reached the estimator")

    for mod, name in [(cli.brw_mod, "survival_frequency"), (cli.gw_embed, "offspring_mean_identity_check"),
                      (cli.gw_embed, "phase_classify"), (cli.walk, "estimate_lyapunov")]:
        monkeypatch.setattr(mod, name, run)
    for command, flag, value in [("brw-survival", "kappa", "inf"), ("embed", "kappa", "inf"),
                                 ("phase", "lam", "nan"), ("lyapunov", "kappa", "nan"),
                                 ("lyapunov", "alpha", "nan"), ("brw-survival", "alpha", "inf")]:
        assert cli.main([command, "--seed", "1", f"--{flag}", value]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {flag}: ")


def _one_config_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("grid", [["--lam-grid", ","], ["--kappa-grid", ","], ["--p-grid", ","],
                                  ["--lam-grid=-1,0.5"], ["--lam-grid=0.5,-1"], ["--kappa-grid=1,-1"],
                                  ["--lam-grid=0.5,nan"], ["--kappa-grid=1,inf"],
                                  ["--lam-grid", "0.5,x"], ["--p-grid=0.5,1.5"]],
                         ids=["lam-empty", "kappa-empty", "p-empty", "lam-negative",
                              "lam-negative-last", "kappa-negative", "lam-nan", "kappa-inf",
                              "lam-unparsable", "p-above-one"])
def test_bad_grid_is_config_error(grid, capsys, monkeypatch):
    def run(*_args, **_kwargs):  # every cell is checked before the first one runs
        raise AssertionError("a sweep cell ran before the whole grid was checked")

    monkeypatch.setattr(cli.brw_mod, "survival_frequency", run)
    monkeypatch.setattr(cli.percolation, "independent_perc", run)
    # a percolation grid reads no model flags, so it is given none
    model = [] if grid[0] == "--p-grid" else ["--q", "2:1", "--horizon", "1"]
    assert cli.main(["sweep", "--seed", "1", *model, "--n-reps", "3", *grid]) == 1
    _one_config_error_line(capsys)


def test_model_flags_only_where_they_are_read(capsys):
    for command in ("annealed", "lyapunov"):
        for flag, value in (("--lam", "2"), ("--q", "2:1")):
            assert cli.main([command, "--seed", "1", flag, value]) == 1
            _one_config_error_line(capsys)


def test_flags_a_mode_does_not_read_are_config_errors(tmp_path, capsys):
    model = [("--kappa", "2"), ("--lam", "5"), ("--q", "2:1"), ("--alpha", "0"), ("--d", "2")]
    dump = tmp_path / "eta.txt"
    modes = [
        (["perc", "--seed", "1", "--rows", "2", "--n-reps", "2"],
         model + [("--box-l", "9"), ("--box-t", "0.5"), ("--block-n", "2"), ("--copies-s", "2"),
                  ("--dump", str(dump))]),
        (["perc", "--seed", "1", "--mode", "brw", "--rows", "1", "--n-reps", "1", "--lam", "0.5",
          "--q", "2:1"],
         [("--p", "0.5")]),
        (["sweep", "--seed", "1", "--p-grid", "0.5", "--rows", "2", "--n-reps", "2"],
         model + [("--horizon", "3"), ("--cap-alive", "5"), ("--cap-events", "5"),
                  ("--kappa-grid", "1,2"), ("--lam-grid", "1,2")]),
        (["sweep", "--seed", "1", "--q", "0:0.0,2:1.0", "--horizon", "1", "--n-reps", "3"],
         [("--rows", "2")]),
    ]
    cfg = tmp_path / "run.cfg"
    for argv, unread in modes:
        assert cli.main(argv) == 0
        capsys.readouterr()
        for flag, value in unread:
            assert cli.main([*argv, flag, value]) == 1
            assert flag in _one_config_error_line(capsys)
            cfg.write_text(f"{flag[2:]} = {value}\n")
            assert cli.main([*argv, "--config", str(cfg)]) == 1
            assert flag in _one_config_error_line(capsys)
    assert not dump.exists()
    # the model flags are read in brw mode, and a mode set from the file counts
    cfg.write_text("mode = indep\n")
    assert cli.main(["perc", "--seed", "1", "--rows", "1", "--n-reps", "1", "--lam", "0.5",
                     "--config", str(cfg)]) == 1


@pytest.mark.parametrize("flags", [["--horizon", "nan"], ["--horizon", "-1"], ["--cap-alive", "0"],
                                   ["--cap-alive", "-5"], ["--cap-events", "0"]])
def test_bad_horizon_or_cap_is_config_error(flags):
    assert cli.main(["brw-survival", "--seed", "1", "--horizon", "1", "--n-reps", "3", *flags]) == 1
    assert cli.main(["sweep", "--seed", "1", "--q", "0:0.0,2:1.0", "--horizon", "1", "--n-reps", "3",
                     *flags]) == 1


def test_infinite_horizon_is_rejected_before_any_run(monkeypatch):
    def run(*_args, **_kwargs):
        raise AssertionError("an infinite horizon reached the estimator")

    monkeypatch.setattr(cli.brw_mod, "survival_frequency", run)
    assert cli.main(["brw-survival", "--seed", "1", "--horizon", "inf"]) == 1
    assert cli.main(["sweep", "--seed", "1", "--q", "0:0.0,2:1.0", "--horizon", "inf"]) == 1


def test_bad_offspring_literal_is_config_error():
    assert cli.main(["brw-survival", "--seed", "1", "--q", "0:0.4,2:0.4"]) == 1


def test_annealed_hits_target_and_exit_zero(tmp_path):
    code, data = run_cli(["annealed", "--seed", "11", "--t", "1", "--n", "40000",
                          "--kappa", "2"], tmp_path)
    assert code == 0
    header, row = data.decode().strip().split("\n")
    rec = dict(zip(header.split(","), row.split(",")))
    assert abs(float(rec["value"]) - math.exp(-1)) < 4 * float(rec["std_err"])
    assert rec["ok"] == "true"


def test_annealed_statistical_failure_exit_three(tmp_path, monkeypatch):
    # force a biased estimate through the seam to exercise the exit code
    def biased(*a, **k):
        return SurvivalEstimate(value=0.5, n_samples=10_000, std_err=0.005)

    monkeypatch.setattr(walk, "annealed_survival", biased)
    code = cli.main(["annealed", "--seed", "1", "--t", "1", "--n", "100",
                     "--out", str(tmp_path / "x.csv")])
    assert code == 3


def test_byte_identical_across_runs_and_threads(tmp_path):
    argvs = {
        "annealed": ["annealed", "--seed", "5", "--n", "20000"],
        "lyapunov": ["lyapunov", "--seed", "5", "--t", "2", "--n-env", "10",
                      "--n-walkers", "400"],
        "moment": ["moment-check", "--seed", "5", "--n-fields", "4", "--n-reps", "60"],
        "sweep": ["sweep", "--seed", "5", "--kappa-grid", "1", "--lam-grid", "0.5,1",
                   "--q", "0:0.0,2:1.0", "--horizon", "3", "--n-reps", "40",
                   "--cap-alive", "400"],
        "verify": ["verify", "--seed", "5"],
    }
    for name, argv in argvs.items():
        _, a = run_cli(argv + ["--threads", "1"], tmp_path, f"{name}-a.csv")
        _, b = run_cli(argv + ["--threads", "1"], tmp_path, f"{name}-b.csv")
        _, c = run_cli(argv + ["--threads", "8"], tmp_path, f"{name}-c.csv")
        assert a == b, name
        assert a == c, name


def test_json_format_is_array_of_records(tmp_path):
    code, data = run_cli(["annealed", "--seed", "7", "--n", "5000", "--format", "json"],
                         tmp_path, "r.json")
    assert code == 0
    arr = json.loads(data)
    assert isinstance(arr, list) and arr
    assert arr[0]["experiment"] == "annealed"
    assert isinstance(arr[0]["value"], float)
    assert isinstance(arr[0]["ok"], bool)


def test_csv_floats_have_seventeen_significant_digits(tmp_path):
    _, data = run_cli(["annealed", "--seed", "7", "--n", "5000"], tmp_path)
    header, row = data.decode().strip().split("\n")
    rec = dict(zip(header.split(","), row.split(",")))
    # a float that is not exactly representable round-trips through 17 digits
    assert float(rec["target"]) == math.exp(-1.0)


def test_config_file_fills_defaults_flags_win(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t = 2.0\nn = 1000\nkappa = 4.0  # comment\n")
    out = tmp_path / "o.csv"
    code = cli.main(["annealed", "--seed", "3", "--config", str(cfg),
                     "--t", "1.0", "--out", str(out)])
    assert code == 0
    header, row = out.read_text().strip().split("\n")
    rec = dict(zip(header.split(","), row.split(",")))
    assert rec["t"] == "1"      # explicit flag beats the file
    assert rec["n"] == "1000"   # file fills the untouched default
    assert rec["kappa"] == "4"


def test_config_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nonsense = 1\n")
    assert cli.main(["annealed", "--seed", "3", "--config", str(cfg)]) == 1


def test_config_seed_is_typed_like_the_flag(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 3\n")
    for argv in (["annealed", "--n", "1000", "--format", "json"],
                 ["brw-survival", "--horizon", "1", "--n-reps", "20"]):
        by_flag = run_cli(argv + ["--seed", "3"], tmp_path, "flag.out")
        by_file = run_cli(argv + ["--config", str(cfg)], tmp_path, "file.out")
        assert by_file == by_flag
        assert by_flag[0] == 0


def test_config_keys_take_the_flag_spelling(tmp_path):
    # `format` is the flag's name, `fmt` its argparse dest: both are keys
    by_flag = run_cli(["annealed", "--seed", "3", "--n", "1000", "--format", "json"], tmp_path,
                      "flag.out")
    assert by_flag[0] == 0
    cfg = tmp_path / "run.cfg"
    for line in ("format = json\n", "fmt = json\n"):
        cfg.write_text(line)
        assert run_cli(["annealed", "--seed", "3", "--n", "1000", "--config", str(cfg)], tmp_path,
                       "file.out") == by_flag, line
    # dashed and underscored long names
    by_flag = run_cli(["brw-survival", "--seed", "3", "--horizon", "1", "--n-reps", "20",
                       "--format", "json"], tmp_path, "flag.out")
    for text in ("n-reps = 20\nformat = json\n", "n_reps = 20\nformat = json\n"):
        cfg.write_text(text)
        assert run_cli(["brw-survival", "--seed", "3", "--horizon", "1", "--config", str(cfg)],
                       tmp_path, "file.out") == by_flag, text


def test_config_flag_spelling_loses_to_explicit_flag(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format = json\n")
    code, data = run_cli(["annealed", "--seed", "3", "--n", "1000", "--format", "csv",
                          "--config", str(cfg)], tmp_path)
    assert code == 0 and data.startswith(b"experiment,")


def test_config_value_outside_choices_rejected(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode = foo\n")  # not "indep", so it would run in brw mode
    assert cli.main(["perc", "--seed", "3", "--rows", "1", "--n-reps", "1",
                     "--config", str(cfg)]) == 1
    cfg.write_text("rows = two\n")
    assert cli.main(["perc", "--seed", "3", "--config", str(cfg)]) == 1


# a value for every option but --config and --help, unlike its default, so a
# file that failed to set it would show; an option added without one fails below
_OPTION_VALUES = {
    "seed": "5", "fmt": "json", "threads": "2", "kappa": "2.5", "alpha": "0.5", "d": "2",
    "lam": "1.5", "q": "2:1", "t": "3", "n": "7", "n_env": "3", "n_walkers": "9", "pin": "1",
    "horizon": "2", "n_reps": "4", "cap_alive": "30", "cap_events": "300", "n_fields": "2",
    "period": "1.5", "t_lyap": "2", "kappa_grid": "1,2", "lam_grid": "0.5,1", "p_grid": "0.5",
    "rows": "3", "box_l": "4", "box_t": "0.5", "start_count": "2", "f": "top-total",
    "g": "face-total", "n_batches": "3", "mode": "brw", "p": "0.3", "block_n": "2",
    "copies_s": "2",
}


def _subparsers() -> dict:
    return cli.build_parser()._subparsers._group_actions[0].choices


def _config_keys():
    """(command, action, key) for every option of every subcommand but --config and
    --help, and each spelling of its key: dashed, underscored, dest."""
    for command, sp in _subparsers().items():
        for act in sp._actions:
            if act.dest not in ("config", "help"):
                name = act.option_strings[-1][2:]
                for key in dict.fromkeys((name, name.replace("-", "_"), act.dest)):
                    yield pytest.param(command, act, key, id=f"{command}-{key}")


def _base_argv(command: str, dest: str) -> list[str]:
    """A command line on which `command` reads the option with dest `dest`."""
    argv = [command] + ([] if dest == "seed" else ["--seed", "1"])
    if command == "perc" and dest not in ("p", "mode", "rows", "n_reps"):
        argv += ["--mode", "brw"]
    if command == "sweep" and dest == "rows":
        argv += ["--p-grid", "0.5"]
    return argv


@pytest.fixture
def resolve(monkeypatch):
    """cli.main in place of which each subcommand hands back the namespace it got."""
    got = []
    for sp in _subparsers().values():
        monkeypatch.setitem(sp._defaults, "fn", lambda ns: (got.append(ns), ([], 0))[1])

    def run(argv):
        got.clear()
        code = cli.main(argv)
        ns = dict(vars(got[0])) if got else {}
        ns.pop("config", None)  # the one value that names the file itself
        return code, ns
    return run


@pytest.mark.parametrize("command, act, key", _config_keys())
def test_config_key_resolves_like_its_flag(command, act, key, resolve, tmp_path, capsys):
    value = str(tmp_path / "file.out") if act.dest in ("out", "dump") else _OPTION_VALUES[act.dest]
    argv = _base_argv(command, act.dest)
    flag = act.option_strings[-1]
    code, by_flag = resolve([*argv, flag] if act.nargs == 0 else [*argv, flag, value])
    assert code == 0, capsys.readouterr().err
    assert by_flag[act.dest] != act.default  # the flag changed something
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    assert resolve([*argv, "--config", str(cfg)]) == (0, by_flag)


def test_config_switch_reads_one_true_or_yes_as_on(resolve, tmp_path):
    argv = ["lyapunov", "--seed", "1"]
    cfg = tmp_path / "run.cfg"
    for value, on in (("1", True), ("true", True), ("yes", True), ("True", True),
                      ("0", False), ("false", False), ("no", False), ("on", False), ("", False)):
        cfg.write_text(f"pin = {value}\n")
        assert resolve([*argv, "--config", str(cfg)])[1]["pin"] is on, value


def test_config_explicit_flag_beats_every_file_value(resolve, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n-reps = 9\nformat = json\nmode = brw\nrows = 7\nseed = 2\n")
    code, ns = resolve(["perc", "--rows", "4", "--config", str(cfg), "--mode", "indep",
                        "--n-reps=5", "--seed", "3", "--format", "csv"])
    assert code == 0
    assert (ns["rows"], ns["mode"], ns["n_reps"], ns["seed"], ns["fmt"]) == (4, "indep", 5, 3, "csv")


@pytest.mark.parametrize("line", ["config = x", "help = 1", "help = 0"])
def test_config_and_help_are_not_keys(line, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    assert cli.main(["annealed", "--seed", "3", "--n", "100", "--config", str(cfg)]) == 1
    _one_config_error_line(capsys)


@pytest.mark.parametrize("flag, value", [("--n-reps", "x"), ("--mode", "foo"), ("--format", "xml"),
                                         ("--p", "")])
def test_config_value_fails_with_its_flags_error(flag, value, tmp_path, capsys):
    argv = ["perc", "--seed", "3", "--rows", "1", "--n-reps", "1"]
    assert cli.main([*argv, f"{flag}={value}"]) == 1
    by_flag = _one_config_error_line(capsys)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{flag[2:]} = {value}\n")
    assert cli.main([*argv, "--config", str(cfg)]) == 1
    assert _one_config_error_line(capsys) == by_flag


def test_verify_suite_exit_zero(tmp_path):
    code, data = run_cli(["verify", "--seed", "2"], tmp_path)
    assert code == 0
    assert b"false" not in data


def _json_records(argv, tmp_path) -> list[dict]:
    code, data = run_cli([*argv, "--format", "json"], tmp_path, "out.json")
    assert code == 0
    return json.loads(data)


@pytest.mark.parametrize("model, kappas, lams", [
    (["--q", "2:1", "--horizon", "10", "--n-reps", "200", "--cap-alive", "300"],
     ["8"], ["0.5", "1", "2"]),
    (["--d", "2", "--alpha", "0.2", "--horizon", "4", "--n-reps", "100", "--cap-alive", "20"],
     ["0.5", "4"], ["1", "4"]),
], ids=["capped", "d2-default-law"])
def test_sweep_cell_equals_brw_survival(model, kappas, lams, tmp_path):
    argv = ["--seed", "3", *model]
    sweep = _json_records(["sweep", *argv, "--kappa-grid", ",".join(kappas),
                           "--lam-grid", ",".join(lams)], tmp_path)
    assert any(rec["cap_fraction"] > 0 for rec in sweep)
    want = []
    for kappa in kappas:
        for lam in lams:
            (rec,) = _json_records(["brw-survival", *argv, "--kappa", kappa, "--lam", lam], tmp_path)
            rec["experiment"], rec["survival"] = "sweep", rec.pop("value")
            want.append(rec)
    assert sweep == want


def test_sweep_lists_one_record_per_grid_value(tmp_path):
    recs = _json_records(["sweep", "--seed", "3", "--lam-grid", "1,1,2", "--q", "2:1",
                          "--horizon", "3", "--n-reps", "50"], tmp_path)
    assert [rec["lam"] for rec in recs] == [1, 1, 2]
    assert recs[0] == recs[1] != recs[2]


def test_sweep_single_cell_is_one_record(tmp_path):
    code, data = run_cli(["sweep", "--seed", "9", "--kappa-grid", "1", "--lam-grid", "1",
                          "--q", "0:0.0,2:1.0", "--horizon", "3", "--n-reps", "40",
                          "--cap-alive", "300"], tmp_path)
    assert code == 0
    assert len(data.decode().strip().split("\n")) == 2  # header + one grid point


def test_sweep_percolation_grid(tmp_path):
    code, data = run_cli(["sweep", "--seed", "9", "--p-grid", "0.5,0.95",
                          "--rows", "30", "--n-reps", "300"], tmp_path)
    assert code == 0
    lines = data.decode().strip().split("\n")
    cols = lines[0].split(",")
    recs = [dict(zip(cols, ln.split(","))) for ln in lines[1:]]
    assert float(recs[0]["survival"]) < float(recs[1]["survival"])


def test_phase_subcommand(tmp_path):
    code, data = run_cli(["phase", "--seed", "13", "--kappa", "8", "--lam", "2",
                          "--q", "0:0.0,2:1.0", "--t-lyap", "2", "--n-env", "30",
                          "--n-walkers", "1000"], tmp_path)
    assert code == 0
    assert b"supercritical" in data


def test_perc_dump_lattice(tmp_path):
    dump = tmp_path / "lat.txt"
    code, _ = run_cli(["perc", "--seed", "4", "--mode", "brw", "--rows", "2",
                       "--n-reps", "2", "--kappa", "2", "--lam", "1.5",
                       "--q", "0:0.0,2:1.0", "--alpha", "0.3", "--box-t", "0.3",
                       "--box-l", "2", "--dump", str(dump)], tmp_path)
    assert code == 0
    lines = dump.read_text().strip().split("\n")
    assert all(len(ln.split()) == 4 for ln in lines)
    for ln in lines:
        k, l, occ, op = map(int, ln.split())
        assert op <= occ or (k, l) == (0, 0)  # open implies occupied


def _no_work(*_args, **_kwargs):
    raise AssertionError("a run started before its file arguments were checked")


@pytest.mark.parametrize("config", ["missing.cfg", "."], ids=["missing", "directory"])
def test_unreadable_config_is_config_error(config, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.walk, "annealed_survival", _no_work)
    assert cli.main(["annealed", "--seed", "1", "--n", "10", "--config", str(tmp_path / config)]) == 1
    assert _one_config_error_line(capsys).startswith(f"config error: config: cannot read '{tmp_path / config}': ")


@pytest.mark.parametrize("name", ["missing/out.csv", "."], ids=["missing-directory", "directory"])
def test_unwritable_out_is_config_error_before_any_work(name, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.walk, "annealed_survival", _no_work)
    out = tmp_path / name
    assert cli.main(["annealed", "--seed", "1", "--n", "10", "--out", str(out)]) == 1
    assert _one_config_error_line(capsys).startswith("config error: out: ")
    assert not (tmp_path / "missing").exists()


def test_dump_into_a_missing_directory_is_config_error_before_any_work(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.percolation, "build_eta_from_brw", _no_work)
    out, dump = tmp_path / "out.csv", tmp_path / "missing" / "lat.txt"
    assert cli.main(["perc", "--seed", "1", "--mode", "brw", "--rows", "2", "--dump", str(dump),
                     "--out", str(out)]) == 1
    assert _one_config_error_line(capsys).startswith("config error: dump: ")
    assert not out.exists() and not dump.parent.exists()


def _assert_cap_trip_exits_three(command, check, tmp_path, monkeypatch, capsys, *, seed=3, n_fields=2,
                                 cap=1, field=0):
    # `check` holds the caps default of the trees the command runs, in one batch for all fields
    from disasterbrw import brw

    monkeypatch.setitem(check.__kwdefaults__, "caps", brw.Caps(max_alive=cap))
    out = tmp_path / "m.csv"
    code = cli.main([command, "--seed", str(seed), "--n-fields", str(n_fields), "--n-reps", "20",
                     "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("cap tripped: ") and err.count("\n") == 1
    assert f"in field {field} tripped" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_cap_trip_is_exit_three_without_traceback(tmp_path, monkeypatch, capsys):
    from disasterbrw import brw

    _assert_cap_trip_exits_three("moment-check", brw.moment_identity_check, tmp_path, monkeypatch,
                                 capsys)


def test_embed_cap_trip_is_exit_three_without_traceback(tmp_path, monkeypatch, capsys):
    from disasterbrw import gw_embed

    _assert_cap_trip_exits_three("embed", gw_embed.sample_offspring, tmp_path, monkeypatch, capsys)


@pytest.mark.parametrize("command, label, cap", [("moment-check", "moment", 4), ("embed", "embed", 3)])
def test_a_cap_trip_in_one_of_three_fields_is_exit_three_without_output(command, label, cap, tmp_path,
                                                                       monkeypatch, capsys):
    from disasterbrw import brw, gw_embed
    from disasterbrw.env import DisasterField
    from disasterbrw.rng import derive_seed

    # the same check, one field at a time: only field 1 trips
    params = brw.BRWParams(1.0, 1.0, brw.offspring_pmf({0: 0.5, 2: 0.5}), 1.0, 1)
    caps = brw.Caps(max_alive=cap)
    tripped = []
    for i in range(3):
        fields = [DisasterField(derive_seed(4, f"{label}-field", i), 1.0, 1)]
        seeds = [derive_seed(4, label, i)]
        try:
            if command == "moment-check":
                brw.moment_identity_check(params, fields, 2.0, 20, seeds, caps=caps)
            else:
                gw_embed.sample_offspring(fields, params, 2.0, 1, 20,
                                          [derive_seed(seeds[0], "ident-trees")], caps=caps)
        except brw.CapTripped:
            tripped.append(i)
    assert tripped == [1]
    check = brw.moment_identity_check if command == "moment-check" else gw_embed.sample_offspring
    _assert_cap_trip_exits_three(command, check, tmp_path, monkeypatch, capsys, seed=4, n_fields=3,
                                 cap=cap, field=1)


def test_survival_records_echo_their_caps(tmp_path):
    code, data = run_cli(["brw-survival", "--seed", "2", "--horizon", "1", "--n-reps", "5",
                          "--cap-alive", "77", "--cap-events", "9999"], tmp_path)
    assert code == 0
    header, row = data.decode().strip().split("\n")
    assert header.endswith(",cap_fraction,cap_alive,cap_events")
    assert row.endswith(",77,9999")
    code, data = run_cli(["sweep", "--seed", "2", "--lam-grid", "0.5,1", "--q", "0:0.0,2:1.0",
                          "--horizon", "1", "--n-reps", "5", "--cap-alive", "77"], tmp_path)
    assert code == 0
    lines = data.decode().strip().split("\n")
    assert lines[0].endswith(",cap_fraction,cap_alive,cap_events")
    assert len(lines) == 3 and all(r.endswith(",77,5000000") for r in lines[1:])


@pytest.mark.parametrize("argv, echoed", [
    (["moment-check", "--n-fields", "2", "--n-reps", "10"], {"n_fields": 2}),
    (["embed", "--n-fields", "2", "--n-reps", "10"], {"n_fields": 2}),
    (["boxes-fkg", "--n-reps", "6", "--n-batches", "2", "--start-count", "3"],
     {"start_count": 3, "n_batches": 2}),
], ids=["moment-check", "embed", "boxes-fkg"])
def test_records_echo_the_counts_that_shape_them(argv, echoed, tmp_path):
    code, data = run_cli([*argv, "--seed", "2", "--format", "json"], tmp_path)
    assert code == 0
    recs = json.loads(data)
    assert len(recs) == 2
    assert all({k: rec[k] for k in echoed} == echoed for rec in recs)


def _fresh_python(code, tmp_path):
    """Run `code` in a new interpreter that imports the package from src/."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)


def test_cold_start_leaves_scipy_unloaded(tmp_path):
    code = """
import sys
import disasterbrw
from disasterbrw import cli
assert cli.main(["brw-survival", "--seed", "1", "--horizon", "1", "--n-reps", "3",
                 "--out", "b.csv"]) == 0
assert cli.main(["lyapunov", "--seed", "1", "--t", "1", "--n-env", "2",
                 "--n-walkers", "50", "--out", "l.csv"]) == 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    proc = _fresh_python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_verify_from_cold_start(tmp_path):
    code = "from disasterbrw import cli; raise SystemExit(cli.main(['verify', '--seed', '3', '--out', 'v.csv']))"
    proc = _fresh_python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "false" not in (tmp_path / "v.csv").read_text()


# Byte-for-byte outputs of the committed code, one file per (argv, format).  A
# change that must keep every output identical runs against these; a change
# that moves an output on purpose re-records the affected files by running the
# argv through cli.main with --out tests/golden/<name>.<format>, and says so.
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_ARGVS = {
    "annealed": ["annealed", "--seed", "3", "--n", "20000"],
    "lyapunov": ["lyapunov", "--seed", "3", "--t", "2", "--n-env", "8", "--n-walkers", "500"],
    "lyapunov-pin": ["lyapunov", "--seed", "3", "--t", "2", "--n-env", "8",
                     "--n-walkers", "500", "--pin"],
    "brw-survival": ["brw-survival", "--seed", "3", "--horizon", "4", "--n-reps", "60",
                     "--kappa", "8", "--lam", "2", "--q", "2:1", "--cap-alive", "50"],
    "moment-check": ["moment-check", "--seed", "3", "--n-fields", "4", "--n-reps", "80"],
    "embed": ["embed", "--seed", "3", "--n-fields", "3", "--n-reps", "120",
              "--kappa", "2", "--lam", "0.5"],
    "phase": ["phase", "--seed", "3", "--t-lyap", "2", "--n-env", "8", "--n-walkers", "400"],
    "sweep": ["sweep", "--seed", "3", "--kappa-grid", "1", "--lam-grid", "0.5,1",
              "--q", "0:0.0,2:1.0", "--horizon", "3", "--n-reps", "30", "--cap-alive", "300"],
    "sweep-perc": ["sweep", "--seed", "3", "--p-grid", "0.5,0.7", "--rows", "10",
                   "--n-reps", "50"],
    "boxes-fkg": ["boxes-fkg", "--seed", "3", "--n-reps", "40", "--n-batches", "2"],
    "perc": ["perc", "--seed", "3", "--rows", "20", "--n-reps", "200"],
    "perc-brw": ["perc", "--seed", "3", "--mode", "brw", "--kappa", "2", "--lam", "2",
                 "--q", "2:1", "--alpha", "0.7", "--box-l", "2", "--box-t", "0.35",
                 "--rows", "1", "--n-reps", "8"],
    "verify": ["verify", "--seed", "3"],
}


def test_outputs_match_golden_corpus(tmp_path):
    differ = []
    for name, argv in GOLDEN_ARGVS.items():
        for fmt_name in ("csv", "json"):
            fname = f"{name}.{fmt_name}"
            out = tmp_path / fname
            assert cli.main(argv + ["--format", fmt_name, "--out", str(out)]) == 0, fname
            if out.read_bytes() != (GOLDEN_DIR / fname).read_bytes():
                differ.append(fname)
    assert not differ, f"outputs differ from tests/golden: {differ}"
