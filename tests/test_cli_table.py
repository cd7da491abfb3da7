"""The CLI's option table: every option of every subcommand resolves to
the same value from its flag and from its config key, and the config
reader rejects wrong types, unknown keys and other commands' keys."""

import json
import shlex
import sys

import pytest

from atdev import SimSpec, generate, save_csv
from atdev import cli
from atdev.cli import main
from conftest import SCORER

VALID = {cli._INT: 7, cli._FLOAT: 0.5, cli._PAIR: [0.5, 2.0],
         cli._FLOATS: [1.0, 2.5], cli._STR: "abc", cli._STRS: ["x1", "x3"],
         cli._TERMS: [[1.5, {"0": 2}]]}
WRONG = {cli._INT: 2.5, cli._FLOAT: "0.5", cli._PAIR: 5, cli._FLOATS: "1",
         cli._BOOL: "yes", cli._STR: 5, cli._STRS: "x1", cli._TERMS: 5}
PAIRS = [(command, opt) for opt in cli._OPTIONS for command in opt.commands]
IDS = [f"{command}-{opt.name}" for command, opt in PAIRS]


# Out-of-range values of every option with a check.
OUT_OF_RANGE = {
    "n": [0, 1], "noise_sd": [-1.0], "rho": [1.0, -1.0],
    "sigma": [[0.0, 1.0], [1.0, -2.0]], "hidden": [0], "max_epochs": [0],
    "patience": [-1], "valid_frac": [0.0, 1.0], "learning_rate": [0.0],
    "batch_size": [0], "fd_step": [0.0], "k_bins": [1],
    "smooth_marginal": [-1], "scatter_cap": [-1], "seed": [-1],
}
CHECKED = [(command, opt, v) for command, opt in PAIRS
           for v in OUT_OF_RANGE.get(opt.name, [])]


def valid_value(opt):
    if opt.kind is cli._BOOL:
        return not opt.default
    return opt.choices[-1] if opt.choices else VALID[opt.kind]


def as_flags(opt, v) -> list[str]:
    if opt.kind is cli._BOOL:
        return [opt.flag if v else "--no-" + opt.flag[2:]]
    if opt.kind is cli._TERMS:
        return [opt.flag, json.dumps(v)]
    if opt.kind.nargs:
        return [opt.flag, *map(str, v)]
    return [opt.flag, str(v)]


def settings(argv):
    return vars(cli._settings(cli.build_parser().parse_args(argv)))


def required_flags(command, skip):
    """Flags for the command's required options other than ``skip``."""
    return [a for opt in cli._OPTIONS
            if opt.required and command in opt.commands and opt.name != skip
            for a in as_flags(opt, valid_value(opt))]


@pytest.mark.parametrize("command, opt", PAIRS, ids=IDS)
def test_flag_and_config_key_resolve_alike(tmp_path, monkeypatch, command,
                                           opt):
    monkeypatch.delenv("ATDEV_OUT_DIR", raising=False)
    v = valid_value(opt)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({opt.name: v}))
    base = [command, *required_flags(command, opt.name)]
    from_flag = settings(base + as_flags(opt, v))
    assert from_flag == settings(base + ["--config", str(cfg)])
    if not opt.required:
        assert from_flag[opt.name] != settings(base)[opt.name]


@pytest.mark.parametrize("command, opt", PAIRS, ids=IDS)
def test_wrong_json_type_names_the_key(tmp_path, capsys, command, opt):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({opt.name: WRONG[opt.kind]}))
    assert main([command, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert f"{opt.name!r} must be" in err


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_unknown_key_is_rejected(tmp_path, capsys, command):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"kbins": 7}))
    assert main([command, "--config", str(cfg)]) == 1
    assert "unknown config key 'kbins'" in capsys.readouterr().err


@pytest.mark.parametrize("command, opt", [
    (command, opt) for command in cli._COMMANDS for opt in cli._OPTIONS
    if command not in opt.commands
    and not any(o.name == opt.name and command in o.commands
                for o in cli._OPTIONS)],
    ids=lambda x: x if isinstance(x, str) else x.name)
def test_another_commands_key_is_rejected(tmp_path, capsys, command, opt):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({opt.name: valid_value(opt)}))
    assert main([command, "--config", str(cfg)]) == 1
    assert f"config key {opt.name!r} is not an option of {command}" in \
        capsys.readouterr().err


def run_options(data):
    scorer = f"{shlex.quote(sys.executable)} {shlex.quote(str(SCORER))} poly3"
    return {
        "simulate": {"case": "bivariate_normal", "n": 300, "seed": 2,
                     "noise_sd": 0.2, "rho": 0.3, "mean": [1, 2],
                     "sigma": [1.5, 0.5], "bn_model": "multiplicative"},
        "fit-mlp": {"data": data, "response": "y", "hidden": 4,
                    "max_epochs": 5, "patience": 2, "valid_frac": 0.2,
                    "learning_rate": 0.05, "batch_size": 32, "seed": 1},
        "effects": {"data": data, "response": "y", "model_id": "case_622",
                    "k_bins": 10, "dependence": "local_linear",
                    "center": False, "smooth_marginal": 1,
                    "columns": ["x1", "x3"], "svg": True},
        "matrix": {"data": data, "response": "y",
                   "model_id": "additive_linear", "coeffs": [1, 0.5, 2],
                   "k_bins": 8, "kind": "LE", "scatter_cap": 30, "seed": 3,
                   "svg": True},
        "heatmap": {"data": data, "response": "y", "external_cmd": scorer,
                    "fd_step": 0.01, "k_bins": 6, "svg": True},
        "importance": {"data": data, "response": "y", "model_id": "custom",
                       "terms": [[1.0, {"0": 2}], [0.8, {"0": 1, "1": 1}]],
                       "k_bins": 12, "dependence": "local_linear"},
    }


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_flags_and_config_file_write_the_same_bytes(tmp_path, command):
    d = generate(SimSpec(case="interaction_622", n=400, seed=9))
    data = tmp_path / "d.csv"
    save_csv(d, data)
    options = run_options(str(data))[command]
    by_name = {opt.name: opt for opt in cli._OPTIONS
               if command in opt.commands}
    flags = [a for name, v in options.items()
             for a in as_flags(by_name[name], v)]
    assert main([command, *flags, "--out-dir", str(tmp_path / "flags")]) == 0
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({**options, "out_dir": str(tmp_path / "cfg")}))
    assert main([command, "--config", str(cfg)]) == 0
    written = sorted(p.name for p in (tmp_path / "flags").iterdir())
    assert written == sorted(p.name for p in (tmp_path / "cfg").iterdir())
    for name in written:
        assert (tmp_path / "flags" / name).read_bytes() == \
            (tmp_path / "cfg" / name).read_bytes(), name


LISTS = [(command, opt) for command, opt in PAIRS if opt.kind.nargs]


@pytest.mark.parametrize("command, opt", LISTS,
                         ids=[f"{c}-{o.name}" for c, o in LISTS])
def test_a_repeated_list_flag_is_a_usage_error(tmp_path, capsys, command,
                                               opt):
    # argparse's own rule would keep the second list and drop the first
    out = tmp_path / "never"
    v = valid_value(opt)
    argv = [command, *required_flags(command, opt.name), "--out-dir",
            str(out), *as_flags(opt, v), *as_flags(opt, v[::-1])]
    assert main(argv) == 1
    assert f"argument {opt.flag}: given more than once" in \
        capsys.readouterr().err
    assert not out.exists()


def test_every_checked_option_has_out_of_range_values():
    assert sorted(OUT_OF_RANGE) == sorted({opt.name for opt in cli._OPTIONS
                                           if opt.check})


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command, opt, v", CHECKED,
                         ids=[f"{c}-{o.name}-{v}" for c, o, v in CHECKED])
def test_out_of_range_values_are_usage_errors(tmp_path, capsys, command,
                                              opt, v, source):
    out = tmp_path / "never"
    argv = [command, *required_flags(command, opt.name), "--out-dir", str(out)]
    if source == "flag":
        argv += as_flags(opt, v)
    else:
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({opt.name: v}))
        argv += ["--config", str(cfg)]
    assert main(argv) == 1
    assert opt.check is not None
    assert f"{opt.flag} must be {opt.check[1]}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("name, v", [("seed", 9), ("scatter_cap", 3)])
def test_le_scatter_options_need_kind_le(tmp_path, capsys, name, v, source):
    # ATDEV draws no scatter, so its seed and cap would change nothing
    out = tmp_path / "never"
    opt = next(o for o in cli._OPTIONS
               if o.name == name and "matrix" in o.commands)
    argv = ["matrix", "--data", str(tmp_path / "d.csv"), "--model-id",
            "additive_linear", "--out-dir", str(out)]
    if source == "flag":
        argv += as_flags(opt, v)
    else:
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({name: v, "kind": "ATDEV"}))
        argv += ["--config", str(cfg)]
    assert main(argv) == 1
    assert f"{opt.flag} needs --kind LE" in capsys.readouterr().err
    assert not out.exists()


def test_le_scatter_defaults_are_seed_0_and_cap_5000(tmp_path):
    # more rows than the cap, so both the cap and the seed's sample show
    d = generate(SimSpec(case="interaction_622", n=5200, seed=9))
    data = tmp_path / "d.csv"
    save_csv(d, data)
    run = ["matrix", "--data", str(data), "--response", "y", "--model-id",
           "case_622", "--k-bins", "8", "--kind", "LE", "--out-dir"]
    assert main([*run, str(tmp_path / "unset")]) == 0
    assert main([*run, str(tmp_path / "set"), "--seed", "0",
                 "--scatter-cap", "5000"]) == 0
    payload = (tmp_path / "unset" / "matrix_le.json").read_bytes()
    assert payload == (tmp_path / "set" / "matrix_le.json").read_bytes()
    assert all(len(cell["x"]) == 5000
               for cell in json.loads(payload)["scatter"])
