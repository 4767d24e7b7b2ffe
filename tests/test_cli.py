"""Exit codes, output shape, and overrides of the command-line front end."""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

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
