"""Exit codes, output shape, and overrides of the command-line front end."""

import argparse
import csv
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from kcompress.cli import _build_parser, dispatch
from kcompress.experiments import (
    BOUND_TABLE_COLUMNS,
    CONCENTRATION_COLUMNS,
    VALIDITY_COLUMNS,
    ExperimentConfig,
)


PARTITE_TEXT = """\
mode = partite
k = 2
epsilon = 0.2
delta = 0.1
m_values = 20, 30
trials = 8
seed = 5
"""


@pytest.fixture
def cfg_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(PARTITE_TEXT)
    return str(p)


def test_missing_subcommand_and_bad_flag_exit_2(capsys):
    assert dispatch([]) == 2
    assert dispatch(["bound-table", "--config", "x", "--frobnicate"]) == 2
    capsys.readouterr()


def test_bad_config_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text("k = 2\nwat = 9\n")
    assert dispatch(["bound-table", "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "'wat'" in err
    assert dispatch(["bound-table", "--config", str(tmp_path / "absent.cfg")]) == 2


@pytest.mark.parametrize(
    "command", ["validate-scheme", "concentration", "pac", "mpac", "bound-table"]
)
def test_config_not_utf8_exits_2(tmp_path, capsys, command):
    # a config file that does not decode is a usage problem, like one that
    # cannot be opened: one line, exit 2
    p = tmp_path / "latin1.cfg"
    p.write_bytes(PARTITE_TEXT.encode() + b"# \xff\n")
    assert dispatch([command, "--config", str(p)]) == 2
    line = one_error_line(capsys)
    assert line.startswith(f"config error: cannot read config {str(p)!r}: 'utf-8' codec")


def test_bound_table_csv_and_json(cfg_file, capsys):
    assert dispatch(["bound-table", "--config", cfg_file, "--scan-limit", "4000"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == ",".join(BOUND_TABLE_COLUMNS)
    assert len(lines) == 3

    assert dispatch([
        "bound-table", "--config", cfg_file, "--scan-limit", "4000",
        "--format", "json",
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["columns"] == BOUND_TABLE_COLUMNS
    assert [row["m"] for row in doc["rows"]] == [20, 30]
    assert doc["rows"][0]["m_pac"] == 3619


@pytest.mark.parametrize("epsilon", ["1e-300", "1e-170"])
def test_bound_table_with_underflowing_epsilon_squared(tmp_path, capsys, epsilon):
    # eps**2 underflows to 0: the leading-order reference is inf, not an error
    p = tmp_path / "tiny.cfg"
    p.write_text(PARTITE_TEXT.replace("epsilon = 0.2", f"epsilon = {epsilon}"))
    assert dispatch(["bound-table", "--config", str(p)]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [row["asymptotic_reference"] for row in rows] == ["inf", "inf"]


def test_readme_quick_start_names_every_subcommand():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quick start", 1)[1].split("```")[1]
    named = [line.split()[1] for line in block.splitlines() if line.startswith("kcompress ")]
    (subparsers,) = [
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    assert sorted(named) == sorted(subparsers.choices)


def test_mpac_prints_size_and_breakdown(cfg_file, capsys):
    assert dispatch(["mpac", "--config", cfg_file, "--scan-limit", "8000"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["m_pac"] == 3619
    bd = doc["breakdown_at_m_pac"]
    assert bd["m"] == 3619 and bd["condition_ok"] is True


@pytest.mark.parametrize("flag", [["--out", "d"], ["--format", "json"]])
def test_mpac_refuses_output_flags(cfg_file, tmp_path, monkeypatch, capsys, flag):
    # mpac prints one JSON document and writes no files, so it takes neither
    monkeypatch.chdir(tmp_path)
    assert dispatch(["mpac", "--config", cfg_file, "--scan-limit", "8000", *flag]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {' '.join(flag)}" in captured.err
    assert not (tmp_path / "d").exists()


def test_mpac_refuses_trials(cfg_file, capsys):
    # mpac runs no trials; bound-table keeps --trials, which its manifest echoes
    assert dispatch(["mpac", "--config", cfg_file, "--scan-limit", "8000", "--trials", "7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --trials 7" in captured.err


def test_mpac_not_found_exits_1(tmp_path, capsys):
    p = tmp_path / "t.cfg"
    p.write_text(PARTITE_TEXT + "scheme_id = trivial\n")
    assert dispatch(["mpac", "--config", str(p), "--scan-limit", "200"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("mpac:")
    assert '"scan_limit": 200' in err


@pytest.mark.parametrize("command", ["mpac", "bound-table", "pac"])
def test_scan_limit_below_minimum_exits_2(cfg_file, command, capsys):
    assert dispatch([command, "--config", cfg_file, "--scan-limit", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"{command}: --scan-limit must be >= 10, got 5"
    ]


def one_error_line(capsys) -> str:
    """The one stderr line of a refused command, which printed nothing else."""
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    (line,) = captured.err.splitlines()
    return line


@pytest.mark.parametrize("command", ["mpac", "bound-table", "pac"])
def test_scan_limit_above_the_cap_exits_2(cfg_file, command, capsys):
    # refused before any scan: the window's arrays would not fit in memory
    assert dispatch([command, "--config", cfg_file, "--scan-limit", str(10**18)]) == 2
    assert one_error_line(capsys) == f"{command}: --scan-limit must be <= 4194304, got {10**18}"


def test_derived_scan_window_above_the_cap_exits_2(tmp_path, capsys):
    # with no --scan-limit the window is 4 * max m = 2**55
    p = tmp_path / "run.cfg"
    p.write_text(PARTITE_TEXT.replace("m_values = 20, 30", f"m_values = 50, {2**53}"))
    assert dispatch(["bound-table", "--config", str(p)]) == 2
    line = one_error_line(capsys)
    assert line.startswith(f"config error: m_pac scan window {2**55} is above 4194304")
    assert "--scan-limit" in line


HUGE_M = "m_values = 1000000000000\n"
HUGE_SAMPLE = "a trial draws 2000000000000 points"


@pytest.mark.parametrize(
    "argv, lines, what",
    [
        (["concentration"], HUGE_M, HUGE_SAMPLE),
        (["pac", "--scan-limit", "20000"], HUGE_M, HUGE_SAMPLE),
        (["validate-scheme"], HUGE_M, HUGE_SAMPLE),
        (
            ["concentration"], "m_values = 50\nestimator = monte-carlo\nn_draws = 1000000000000\n",
            "a Monte Carlo total loss holds 2000000000000 values",
        ),
    ],
    ids=["concentration", "pac", "validate-scheme", "monte-carlo"],
)
def test_draws_above_the_ceiling_exit_2(tmp_path, capsys, argv, lines, what):
    # 2 * 10**12 points: refused before the first draw
    p = tmp_path / "run.cfg"
    p.write_text(PARTITE_TEXT.replace("m_values = 20, 30\n", lines))
    assert dispatch([*argv, "--config", str(p)]) == 2
    assert one_error_line(capsys) == f"config error: {what}, above the ceiling 100000000"


def test_generic_engine_beyond_cell_budget_exits_2(tmp_path, capsys):
    p = tmp_path / "big.cfg"
    p.write_text(PARTITE_TEXT.replace("m_values = 20, 30", "m_values = 12000"))
    code = dispatch([
        "pac", "--config", str(p), "--engine", "generic", "--trials", "1",
        "--scan-limit", "4000",
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and "Traceback" not in captured.err
    assert lines[0].startswith("pac: ")
    assert "m = 12000" in lines[0] and "budget 100000000" in lines[0]


UNCOVERED_EXACT_LOSS = {
    "discrete-measure": (
        PARTITE_TEXT + "measure = discrete:0.25@0.5,0.75@0.5\n",
        "exact rectangle loss requires uniform sides",
    ),
    "nonpartite-k3": (
        PARTITE_TEXT.replace("mode = partite", "mode = nonpartite").replace("k = 2", "k = 3")
        + "scheme_id = sum-threshold\nclass_id = sum-threshold\n",
        "exact sum-threshold loss covers nonpartite k=2 only",
    ),
}


@pytest.mark.parametrize("command", ["concentration", "pac"])
@pytest.mark.parametrize("name", sorted(UNCOVERED_EXACT_LOSS))
def test_exact_loss_beyond_its_cover_exits_2(tmp_path, capsys, name, command):
    text, reason = UNCOVERED_EXACT_LOSS[name]
    p = tmp_path / "run.cfg"
    p.write_text(text)
    # refused before the m_pac scan and before any trial
    assert dispatch([command, "--config", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and "Traceback" not in captured.err
    assert lines[0] == f"config error: {reason}; use estimator = monte-carlo"


@pytest.mark.parametrize(
    "measure, reason",
    [
        ("discrete:0.25@nan,0.75@1.0", "weights must be finite, nonnegative and sum to 1"),
        ("discrete:nan@0.5,0.75@0.5", "atoms must be finite"),
        ("discrete:inf@0.5,0.75@0.5", "atoms must be finite"),
    ],
)
@pytest.mark.parametrize("mode", ["partite", "nonpartite"])
@pytest.mark.parametrize(
    "command", ["validate-scheme", "concentration", "pac", "mpac", "bound-table"]
)
def test_non_finite_discrete_measure_exits_2(tmp_path, capsys, command, mode, measure, reason):
    text = PARTITE_TEXT + f"measure = {measure}\nestimator = monte-carlo\n"
    if mode == "nonpartite":
        text = text.replace("mode = partite", "mode = nonpartite")
        text += "scheme_id = sum-threshold\nclass_id = sum-threshold\n"
    p = tmp_path / "run.cfg"
    p.write_text(text)
    assert dispatch([command, "--config", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {reason}\n"


@pytest.mark.parametrize(
    "command", ["validate-scheme", "concentration", "pac", "mpac", "bound-table"]
)
def test_overflowing_atom_sums_exit_2_in_nonpartite_mode(tmp_path, capsys, command):
    # 1e308 + 1e308 is +inf, so a sum threshold could not label such a pair
    measure = "discrete:1e308@0.5,0.25@0.5"
    text = PARTITE_TEXT + f"measure = {measure}\nestimator = monte-carlo\n"
    nonpartite = text.replace("mode = partite", "mode = nonpartite")
    p = tmp_path / "run.cfg"
    p.write_text(nonpartite + "scheme_id = sum-threshold\nclass_id = sum-threshold\n")
    assert dispatch([command, "--config", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: atom 1e+308 overflows in a sum of k = 2 atoms\n"
    # boxes never add coordinates: the same atoms run in partite mode
    p.write_text(text)
    flags = ["--trials", "2"] if command in ("validate-scheme", "concentration", "pac") else []
    assert dispatch([command, "--config", str(p)] + flags) == 0
    captured = capsys.readouterr()
    assert captured.out and captured.err == ""


@pytest.mark.parametrize("command", ["concentration", "pac"])
def test_trials_beyond_32_bit_trial_indices_exit_2(cfg_file, capsys, command):
    # a re-measured cell would number trials up to 5 * trials - 1 >= 2**32
    assert dispatch([command, "--config", cfg_file, "--trials", "858993460"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and "Traceback" not in captured.err
    assert lines[0].startswith("config error: trials must be <= 858993459, got 858993460")


@pytest.mark.parametrize("command", ["concentration", "pac"])
def test_fast_engine_on_unsupported_config_exits_2(tmp_path, capsys, command):
    # the fast kernels cover the family's own scheme only; the trivial one is refused
    p = tmp_path / "run.cfg"
    p.write_text(PARTITE_TEXT + "scheme_id = trivial\n")
    assert dispatch([command, "--config", str(p), "--engine", "fast"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and "Traceback" not in captured.err
    assert lines[0] == "config error: fast engine does not support this configuration"


def test_validate_scheme_passes(cfg_file, capsys):
    assert dispatch(["validate-scheme", "--config", cfg_file, "--trials", "6"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == ",".join(VALIDITY_COLUMNS)
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[2] == "0" and cells[4] == "true"


def test_concentration_engines_same_stdout(cfg_file, capsys):
    assert dispatch(["concentration", "--config", cfg_file, "--engine", "fast"]) == 0
    fast_out = capsys.readouterr().out
    assert dispatch(["concentration", "--config", cfg_file, "--engine", "generic"]) == 0
    generic_out = capsys.readouterr().out
    assert fast_out == generic_out
    assert fast_out.splitlines()[0] == ",".join(CONCENTRATION_COLUMNS)


def test_out_is_a_flag_not_a_config_key(tmp_path, capsys):
    p = tmp_path / "run.cfg"
    p.write_text(PARTITE_TEXT + "out = somewhere\n")
    assert dispatch(["bound-table", "--config", str(p), "--out", str(tmp_path / "res")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: line 8: unknown config key 'out'\n"
    assert not (tmp_path / "res").exists()


@pytest.mark.parametrize("command", ["validate-scheme", "concentration", "pac", "bound-table"])
def test_out_naming_an_existing_file_exits_2(cfg_file, tmp_path, capsys, command):
    # exit 1 means only that an audit failed; an --out that cannot be
    # written is a usage problem, reported on one line
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    argv = [command, "--config", cfg_file, "--trials", "2", "--out", str(taken)]
    if command in ("pac", "bound-table"):
        argv += ["--scan-limit", "4000"]
    assert dispatch(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == [f"{command}: cannot write --out {taken}: File exists"]
    assert taken.read_text() == "kept\n"


@pytest.mark.parametrize("edit", [
    ("scheme_id = rectangle", "scheme_id = trivial"),  # (m)_m squared overflows
    ("epsilon = 0.1", "epsilon = 1e-300"),  # epsilon squared underflows
])
def test_non_finite_values_are_strict_json(tmp_path, capsys, edit):
    def refuse(token):
        raise ValueError(f"bare non-finite token {token}")

    configs = Path(__file__).resolve().parents[1] / "scripts" / "configs"
    p = tmp_path / "run.cfg"
    p.write_text((configs / "rectangle_concentration.cfg").read_text().replace(*edit))
    out_dir = tmp_path / "res"
    argv = ["bound-table", "--config", str(p), "--scan-limit", "1000", "--format", "json"]
    assert dispatch(argv + ["--out", str(out_dir)]) == 0
    doc = json.loads(capsys.readouterr().out, parse_constant=refuse)
    assert "inf" in [cell for row in doc["rows"] for cell in row.values()]
    assert json.loads((out_dir / "summary.json").read_text(), parse_constant=refuse) == doc
    for line in (out_dir / "trials.jsonl").read_text().splitlines():
        json.loads(line, parse_constant=refuse)


def test_seed_and_trials_overrides_reach_manifest(cfg_file, tmp_path, capsys):
    out_dir = tmp_path / "res"
    code = dispatch([
        "concentration", "--config", cfg_file,
        "--seed", "9", "--trials", "5", "--out", str(out_dir),
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 9
    assert manifest["config"]["trials"] == 5
    assert "out" not in manifest["config"]
    assert (out_dir / "summary.csv").read_text() == stdout


def test_dispatch_twice_keeps_no_state(tmp_path, capsys):
    # the parser is built once per process: one call's flags must not reach the next
    p = tmp_path / "run.cfg"
    p.write_text(PARTITE_TEXT.replace("seed = 5", "seed = 0"))
    table = ["bound-table", "--config", str(p), "--scan-limit", "4000"]
    assert dispatch(table + ["--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["columns"] == BOUND_TABLE_COLUMNS
    assert dispatch(table) == 0
    assert capsys.readouterr().out.splitlines()[0] == ",".join(BOUND_TABLE_COLUMNS)
    seeds = []
    for flags in (["--seed", "5"], []):
        out_dir = tmp_path / f"res{len(seeds)}"
        assert dispatch(table + flags + ["--out", str(out_dir)]) == 0
        seeds.append(json.loads((out_dir / "manifest.json").read_text())["seed"])
    assert seeds == [5, 0]
    capsys.readouterr()


@pytest.mark.parametrize("m", [10**400, 10**19, 2**53 + 1])
@pytest.mark.parametrize("command", ["bound-table", "concentration", "pac"])
def test_m_beyond_float64_integers_exits_2(tmp_path, capsys, command, m):
    # every bound is evaluated on float64 sample sizes
    p = tmp_path / "run.cfg"
    p.write_text(PARTITE_TEXT.replace("m_values = 20, 30", f"m_values = 50, {m}"))
    assert dispatch([command, "--config", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and "Traceback" not in captured.err
    assert lines[0] == f"config error: m={m} is above 2**53: bounds are taken at float64 m"
    ExperimentConfig(m_values=(50, 2**53)).validate()


# sha256 of bound-table stdout at m = 10, 20, .., 50000 (5000 rows),
# epsilon = delta = 0.1, k = 2, as the tables were written row by row
LONG_TABLE_SHA256 = {
    ("partite", "csv"): "e5a2188a44c3594b70a21faf3d52beb0999be8588163676fc3b283a516dc76a9",
    ("partite", "json"): "6c93787cafe1e334d3845d3c546dee153ee07a6b9db8c39ff618cfe006db68fe",
    ("nonpartite", "csv"): "7f4354ea26631b3d1cbec0f2449de3603f80bc526e9f1da7416ee1e76f224ee3",
    ("nonpartite", "json"): "884a30289aabd764c02772be942035685a26a979369e5bb3ff917e32cd62d380",
}


@pytest.mark.parametrize("mode, family", [("partite", "rectangle"), ("nonpartite", "sum-threshold")])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_long_bound_tables_pinned(tmp_path, capsys, mode, family, fmt):
    p = tmp_path / "table.cfg"
    p.write_text(
        f"mode = {mode}\nk = 2\nscheme_id = {family}\nclass_id = {family}\n"
        "epsilon = 0.1\ndelta = 0.1\ntrials = 1\nseed = 0\n"
        f"m_values = {', '.join(map(str, range(10, 50001, 10)))}\n"
    )
    flags = ["--scan-limit", "50000", "--format", fmt]
    assert dispatch(["bound-table", "--config", str(p), *flags]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == LONG_TABLE_SHA256[mode, fmt]


def test_cli_outputs_byte_deterministic(cfg_file, tmp_path, capsys):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        assert dispatch([
            "pac", "--config", cfg_file, "--trials", "5",
            "--scan-limit", "4000", "--out", str(d),
        ]) == 0
        capsys.readouterr()
    for name in ("manifest.json", "trials.jsonl", "summary.csv"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


# sha256 of every file `scripts/run_audits.py --quick` writes.  A change
# that alters these bytes on purpose re-pins them and says why.
QUICK_AUDIT_SHA256 = {
    "bound-table-rectangle_concentration/manifest.json":
        "98d328e421fd7860d5a3abdfd19be027d6cd1b727d5d8e6266d337e425b8d7b9",
    "bound-table-rectangle_concentration/summary.csv":
        "5b42a5fc3e9f1939362adefbb124148724571e09e6e313b50d49b82a435917e1",
    "bound-table-rectangle_concentration/trials.jsonl":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "bound-table-sum_threshold_concentration/manifest.json":
        "29322b317caacd505404dca13ef58252789f218a162c6c8769ac53c8e08f3c11",
    "bound-table-sum_threshold_concentration/summary.csv":
        "3d39668af0e0076d72f7f1f0da7111b214ffc5ef427afd3c7b0f1dcd2006806d",
    "bound-table-sum_threshold_concentration/trials.jsonl":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "concentration-rectangle_concentration/manifest.json":
        "e0fef0702ff8266fa2abdd0389a53192d6d9e5d171b4d892be0c525ed94aac0d",
    "concentration-rectangle_concentration/summary.csv":
        "539b09f763337f57cb6df1d1fcd338cfe8beb6205c370bcea8c03c9e498d4f85",
    "concentration-rectangle_concentration/trials.jsonl":
        "01ba211a3d04703c0f8198f4b81c86211fc87aa006cb1b31f172c07f2fb5dcc9",
    "concentration-sum_threshold_concentration/manifest.json":
        "ef8fd3733774ef343de51e9b672e4bcef4a06e124e41a8e79d7b9566c3d90a72",
    "concentration-sum_threshold_concentration/summary.csv":
        "3350050e29bd2e1f0169c44039d56e179187bac6a7fbfcfbee47dd8661787c3b",
    "concentration-sum_threshold_concentration/trials.jsonl":
        "55f32d6a0209aeb406a02a1f6fe15bda271a273ff96381eeeff5a16e8350bfdc",
    "pac-rectangle_pac/manifest.json":
        "6d50bcca11e02cfa64780299db2f74fe35d90191ddad91b11efd0d416f17d829",
    "pac-rectangle_pac/summary.csv":
        "582a7c4df5a5c7ea63a818fcc2d8d199ff5a0a729ee259328dd7ac981dfb615a",
    "pac-rectangle_pac/trials.jsonl":
        "bb6b3c1415700ad9dfee0c270c27a5ac3adb77fef3478386dc73f34861c62498",
    "pac-sum_threshold_pac/manifest.json":
        "1f4322eb6d06209dbfc93bb69ad4f34b6521734620c0efd0629256c04b81952d",
    "pac-sum_threshold_pac/summary.csv":
        "658074fc6e9157f1234d582448d095854f306684e73379ef7d03120e1cc547d6",
    "pac-sum_threshold_pac/trials.jsonl":
        "9659270aaf1a5c3105a8308e206634698a95e9b5c062b238dfdc379296a0f9d3",
    "validate-scheme-validity_sweep/manifest.json":
        "976cd9a8e5b2cb0b4bb8920cea8c2bf267070a842a8fd05e2ada56842f3fa313",
    "validate-scheme-validity_sweep/summary.csv":
        "2253b210ff8703ae9cd656d0792792e0fdfbeb404719667f4c563eddf37b0aaa",
    "validate-scheme-validity_sweep/trials.jsonl":
        "c28f4594a30b7957d250de7ebc9d39094c18c062820aa4c32a1801e4739241e3",
}


def test_bundled_configs_quick_outputs_pinned(tmp_path, monkeypatch, capsys):
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_audits.py"
    spec = importlib.util.spec_from_file_location("run_audits", script)
    run_audits = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends its src/
    spec.loader.exec_module(run_audits)
    monkeypatch.setattr(sys, "argv", ["run_audits.py", "--quick", "--out", str(tmp_path)])
    assert run_audits.main() == 0
    capsys.readouterr()
    digests = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.rglob("*") if path.is_file()
    }
    assert digests == QUICK_AUDIT_SHA256

