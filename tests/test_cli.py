"""Exit codes, output shape, and overrides of the command-line front end."""

import json

import pytest

from kcompress.cli import dispatch
from kcompress.experiments import (
    BOUND_TABLE_COLUMNS,
    CONCENTRATION_COLUMNS,
    VALIDITY_COLUMNS,
)
from kcompress.indexing import NONPARTITE
from kcompress.samples import (
    Hypothesis,
    ProductMeasure,
    draw_sample,
    label_sample,
    labeled_sample_to_json,
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


def test_mpac_prints_size_and_breakdown(cfg_file, capsys):
    assert dispatch(["mpac", "--config", cfg_file, "--scan-limit", "8000"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["m_pac"] == 3619
    bd = doc["breakdown_at_m_pac"]
    assert bd["m"] == 3619 and bd["condition_ok"] is True


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
    # the fast kernels cover uniform sides only; a discrete measure is refused
    p = tmp_path / "run.cfg"
    p.write_text(
        PARTITE_TEXT + "measure = discrete:0.25@0.5,0.75@0.5\nestimator = monte-carlo\n"
    )
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


def test_inspect_partite_sample(tmp_path, capsys):
    mu = ProductMeasure.uniform("partite", 2)
    x = draw_sample(mu, 3, 42)
    labeled = label_sample(Hypothesis.rectangle([(0.0, 1.0), (0.0, 1.0)]), x)
    p = tmp_path / "sample.json"
    p.write_text(labeled_sample_to_json(labeled))
    assert dispatch(["inspect", "--sample", str(p)]) == 0
    out = capsys.readouterr().out
    assert "mode: partite" in out
    assert "k: 2" in out
    assert "m: 3" in out
    assert "label cells: 9 in shape (3, 3)" in out
    assert "label 1: 9" in out
    assert "non-injective" not in out


def test_inspect_nonpartite_counts_sentinels(tmp_path, capsys):
    mu = ProductMeasure.uniform(NONPARTITE, 2)
    x = draw_sample(mu, 4, 1)
    labeled = label_sample(Hypothesis.constant(2, 0), x)
    p = tmp_path / "sample.json"
    p.write_text(labeled_sample_to_json(labeled))
    assert dispatch(["inspect", "--sample", str(p)]) == 0
    out = capsys.readouterr().out
    assert "mode: nonpartite" in out
    assert "label 0: 12" in out
    assert "non-injective cells: 4" in out


def test_inspect_malformed_exits_2(tmp_path, capsys):
    p = tmp_path / "junk.json"
    p.write_text("{not json")
    assert dispatch(["inspect", "--sample", str(p)]) == 2
    assert "inspect: cannot read sample:" in capsys.readouterr().err
    assert dispatch(["inspect", "--sample", str(tmp_path / "absent.json")]) == 2
    capsys.readouterr()
