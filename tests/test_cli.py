import json
import os
import struct
import subprocess
import sys
import time
from contextlib import ExitStack

import numpy as np
import pytest

from soupstock import engine
from soupstock.cli import build_parser, main
from soupstock.config import (
    ConfigError,
    FileRef,
    enumerate_sweep,
    parse_fed_config,
    parse_merge_config,
    sweep_cell_name,
)
from soupstock.engine import EnsembleConfig, Ingredient, IngredientInit, Projection, ProvidedInit, run_ensemble
from soupstock.optim import GD, Adam, OptimizerSpec
from soupstock.pseudograd import Constant, Harmonic
from soupstock.synthlab import ConvergenceReport, default_estimator_config
from soupstock.weightstore import BLOCK, WeightMap, l2_distance, load_checkpoint, open_checkpoint, save_checkpoint

from conftest import another_thread_running, no_warnings, traced_peak


def write_ingredients(directory, count=4, seed=0, shapes=((2, 3), (3,))):
    rng = np.random.default_rng(seed)
    paths = []
    for i in range(count):
        m = WeightMap(
            {
                "layer.w": rng.uniform(0.5, 1.5, size=shapes[0]).astype(np.float32),
                "bias": rng.uniform(0.5, 1.5, size=shapes[1]).astype(np.float32),
            }
        )
        path = directory / f"ing{i}.safetensors"
        save_checkpoint(m, str(path))
        paths.append(path)
    return paths


def merge_doc(count=4, **ensemble_overrides):
    ensemble = {
        "optimizer": {"kind": "gd", "lr": {"kind": "harmonic", "offset": 0}},
        "pivot_policy": {"kind": "adaptive"},
        "pivot_init": {"kind": "soup"},
        "n_divisor": 1,
        "ordering": "given",
    }
    ensemble.update(ensemble_overrides)
    return {
        "version": 1,
        "ingredients": [{"path": f"ing{i}.safetensors"} for i in range(count)],
        "ensemble": ensemble,
        "output": {"checkpoint": "merged.safetensors", "log": "run.csv"},
    }


# --- soup -------------------------------------------------------------------------


def test_soup_two_toy_checkpoints(tmp_path, capsys):
    a = WeightMap({"t": np.array([1.0, 3.0], dtype=np.float32)})
    b = WeightMap({"t": np.array([3.0, 5.0], dtype=np.float32)})
    save_checkpoint(a, str(tmp_path / "a.safetensors"))
    save_checkpoint(b, str(tmp_path / "b.safetensors"))
    out = tmp_path / "soup.safetensors"
    code = main(["soup", str(tmp_path / "a.safetensors"), str(tmp_path / "b.safetensors"), "-o", str(out)])
    assert code == 0
    np.testing.assert_array_equal(load_checkpoint(str(out)).array("t"), [2.0, 4.0])
    assert "souped 2 ingredients" in capsys.readouterr().out


def test_soup_single_checkpoint_byte_identical(tmp_path):
    paths = write_ingredients(tmp_path, count=1)
    out = tmp_path / "copy.safetensors"
    assert main(["soup", str(paths[0]), "-o", str(out), "--quiet"]) == 0
    assert out.read_bytes() == paths[0].read_bytes()


def test_soup_single_checkpoint_with_scalar_tensor_byte_identical(tmp_path):
    path = tmp_path / "scalar.safetensors"
    save_checkpoint(
        WeightMap({"scale": np.float32(0.25), "w": np.arange(6, dtype=np.float32).reshape(2, 3)}),
        str(path),
    )
    assert '"shape":[]' in path.read_bytes().decode("utf-8", errors="replace")
    out = tmp_path / "copy.safetensors"
    assert main(["soup", str(path), "-o", str(out), "--quiet"]) == 0
    assert out.read_bytes() == path.read_bytes()


def test_soup_incompatible_inputs_exit_2(tmp_path, capsys):
    save_checkpoint(WeightMap({"a": np.zeros(2, dtype=np.float32)}), str(tmp_path / "x.safetensors"))
    save_checkpoint(WeightMap({"a": np.zeros(3, dtype=np.float32)}), str(tmp_path / "y.safetensors"))
    code = main(["soup", str(tmp_path / "x.safetensors"), str(tmp_path / "y.safetensors"),
                 "-o", str(tmp_path / "s.safetensors")])
    assert code == 2
    assert "'a'" in capsys.readouterr().err


def write_renamed(path):
    """A checkpoint shaped like write_ingredients' but with tensor 'v' in place of 'bias'."""
    save_checkpoint(WeightMap({"layer.w": np.zeros((2, 3), np.float32), "v": np.zeros(3, np.float32)}), str(path))


MISMATCH = "tensor name mismatch: first offender 'bias'"


def test_soup_schema_mismatch_names_the_file_and_the_first(tmp_path, capsys):
    paths = write_ingredients(tmp_path, count=2)
    write_renamed(tmp_path / "odd.safetensors")
    inputs = [str(paths[0]), str(paths[1]), str(tmp_path / "odd.safetensors")]
    assert main(["soup", *inputs, "-o", str(tmp_path / "s.safetensors")]) == 2
    assert capsys.readouterr().err == f"error: {inputs[2]} differs from {inputs[0]}: {MISMATCH}\n"


def test_soup_duplicate_tensor_name_names_its_file(tmp_path, capsys):
    good, dup = tmp_path / "good.safetensors", tmp_path / "dup.safetensors"
    save_checkpoint(WeightMap({"a": np.zeros(1, dtype=np.float32)}), str(good))
    header = (b'{"a": {"dtype": "F32", "shape": [1], "data_offsets": [0, 4]},'
              b' "a": {"dtype": "F32", "shape": [1], "data_offsets": [4, 8]}}')
    dup.write_bytes(struct.pack("<Q", len(header)) + header + bytes(8))
    code = main(["soup", str(good), str(dup), "-o", str(tmp_path / "s.safetensors")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {dup}: duplicate tensor name in header: 'a'\n"
    assert not (tmp_path / "s.safetensors").exists()


# --- merge ------------------------------------------------------------------------


def test_merge_soup_equivalence_config_matches_cmd_soup(tmp_path):
    paths = write_ingredients(tmp_path)
    (tmp_path / "merge.json").write_text(json.dumps(merge_doc()))
    assert main(["merge", "--config", str(tmp_path / "merge.json"), "--quiet"]) == 0
    assert main(["soup", *map(str, paths), "-o", str(tmp_path / "soup.safetensors"), "--quiet"]) == 0
    merged = load_checkpoint(str(tmp_path / "merged.safetensors"))
    souped = load_checkpoint(str(tmp_path / "soup.safetensors"))
    for name in merged:
        np.testing.assert_allclose(merged.array(name), souped.array(name), rtol=1e-6)
    assert (tmp_path / "run.csv").read_text().startswith("step,epoch,batch_ids,eta,zeta")


def test_merge_missing_ingredient_exit_2(tmp_path, capsys):
    write_ingredients(tmp_path, count=2)
    doc = merge_doc(count=2)
    doc["ingredients"].append({"path": "missing.safetensors"})
    (tmp_path / "merge.json").write_text(json.dumps(doc))
    code = main(["merge", "--config", str(tmp_path / "merge.json")])
    assert code == 2
    assert "missing.safetensors" in capsys.readouterr().err


@pytest.mark.parametrize("projection", [None, {"center": "soup", "radius": 1.0}], ids=["plain", "soup-centre"])
def test_merge_schema_mismatch_names_the_ingredient(tmp_path, capsys, projection):
    write_ingredients(tmp_path, count=3)
    write_renamed(tmp_path / "ing2.safetensors")
    (tmp_path / "merge.json").write_text(json.dumps(merge_doc(count=3, projection=projection)))
    assert main(["merge", "--config", str(tmp_path / "merge.json")]) == 2
    assert capsys.readouterr().err == f"error: ingredient 'ing2' differs from ingredient 'ing0': {MISMATCH}\n"


@pytest.mark.parametrize("key, value, what", [
    ("projection", {"center": "odd.safetensors", "radius": 1.0}, "projection center"),
    ("greedy", {"enabled": True, "evaluator": {"kind": "neg_distance", "target": "odd.safetensors"}},
     "greedy target"),
    ("pivot_init", {"kind": "provided", "path": "odd.safetensors"}, "provided initialization"),
])
def test_merge_schema_mismatch_names_the_reference(tmp_path, capsys, key, value, what):
    write_ingredients(tmp_path, count=3)
    write_renamed(tmp_path / "odd.safetensors")
    (tmp_path / "merge.json").write_text(json.dumps(merge_doc(count=3, **{key: value})))
    assert main(["merge", "--config", str(tmp_path / "merge.json")]) == 2
    assert capsys.readouterr().err == f"error: {what} differs from ingredient 'ing0': {MISMATCH}\n"


def test_merge_schema_violations_reported_all_at_once(tmp_path, capsys):
    doc = {
        "version": 99,
        "ingredients": [],
        "ensemble": {
            "optimizer": {"kind": "sgd", "lr": 1.0},
            "mystery": True,
            "projection": {"center": "soup", "radius": float("nan")},
        },
        "output": {"checkpoint": "m.safetensors", "log": "run.csv"},
    }
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    code = main(["merge", "--config", str(tmp_path / "bad.json")])
    err = capsys.readouterr().err
    assert code == 1
    assert "$.version" in err
    assert "$.ingredients" in err
    assert "$.ensemble.optimizer.kind" in err
    assert "$.ensemble.mystery" in err and "unknown key" in err
    assert "$.ensemble.projection.radius: must be finite, got nan" in err


def test_merge_metrics_csv_and_ordering(tmp_path, capsys):
    write_ingredients(tmp_path, count=3)
    (tmp_path / "metrics.csv").write_text("id,metric\ning0,0.1\ning1,0.9\ning2,0.5\n")
    doc = merge_doc(count=3, ordering="metric_desc")
    doc["metrics_csv"] = "metrics.csv"
    (tmp_path / "merge.json").write_text(json.dumps(doc))
    assert main(["merge", "--config", str(tmp_path / "merge.json"), "--quiet"]) == 0
    rows = (tmp_path / "run.csv").read_text().strip().splitlines()
    assert rows[1].split(",")[2] == "ing1"  # best metric first
    assert rows[2].split(",")[2] == "ing2"
    # A metric that is not a finite number names the file and the id.
    for bad in ("nan", "-inf", "abc", ""):
        (tmp_path / "metrics.csv").write_text(f"id,metric\ning0,0.1\ning1,{bad}\ning2,0.5\n")
        assert main(["merge", "--config", str(tmp_path / "merge.json"), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert f"{tmp_path / 'metrics.csv'}: metric of 'ing1' must be a finite number, got {bad!r}" in err


@pytest.mark.parametrize(
    "rows, message",
    [
        ("ing0,0.1\ning1,0.9\ning1,0.05\n", "id 'ing1' appears on more than one row"),
        ("ing0,0.1\ning1,0.9,0.05\ning2,0.5\n", "row of 'ing1' has more fields than 'id,metric'"),
    ],
)
def test_merge_metrics_csv_row_faults_fail(tmp_path, capsys, rows, message):
    # A second row for one id would silently win, and an extra field would
    # silently vanish: each names the file and the id, and runs nothing.
    write_ingredients(tmp_path, count=3)
    (tmp_path / "metrics.csv").write_text("id,metric\n" + rows)
    doc = merge_doc(count=3, ordering="metric_desc")
    doc["metrics_csv"] = "metrics.csv"
    (tmp_path / "merge.json").write_text(json.dumps(doc))
    assert main(["merge", "--config", str(tmp_path / "merge.json"), "--quiet"]) == 1
    assert f"{tmp_path / 'metrics.csv'}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "run.csv").exists()


@pytest.mark.parametrize("sweep", [None, {"ensemble.ordering": ["given", "metric_desc"]}], ids=["one", "sweep"])
@pytest.mark.parametrize(
    "rows, code, message",
    [
        ("ing0,0.1\ning1,abc\ning2,0.5\n", 1, "{csv}: metric of 'ing1' must be a finite number, got 'abc'"),
        ("ing0,0.1\ning2,0.5\n", 1, "ordering 'metric_desc' requires metrics; missing for 'ing1'"),
        (None, 2, "[Errno 2] No such file or directory: '{csv}'"),
    ],
    ids=["bad-metric", "missing-metric", "unreadable"],
)
def test_merge_metrics_are_checked_before_any_checkpoint_is_opened(
    tmp_path, capsys, monkeypatch, sweep, rows, code, message
):
    # A malformed CSV or a missing metric is a config fault, in a sweep as in
    # one merge; an unreadable CSV is an I/O failure, recorded per cell.
    import soupstock.cli as cli

    monkeypatch.setattr(cli, "open_checkpoint", lambda path: pytest.fail(f"opened {path}"))
    csv_path = tmp_path / "metrics.csv"
    if rows is not None:
        csv_path.write_text("id,metric\n" + rows)
    doc = merge_doc(count=3, ordering="metric_desc")
    doc["metrics_csv"] = "metrics.csv"
    if sweep is not None:
        doc["sweep"] = sweep
    (tmp_path / "merge.json").write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["merge", "--config", str(tmp_path / "merge.json"), "--out", str(out), "--quiet"]) == code
    message = message.format(csv=csv_path)
    err = capsys.readouterr().err
    if code == 1:
        assert err == f"error: {message}\n"
        assert not out.exists()
    elif sweep is None:
        assert err == f"io error: {message}\n"
    else:
        manifest = json.loads((out / "sweep_manifest.json").read_text())
        assert [(entry["status"], entry["error"]) for entry in manifest] == [("error", message)] * 2


def test_merge_sweep_duplicate_values_are_config_errors(tmp_path, capsys):
    # Equal values would run one cell twice, into one directory; 1 and 1.0 are equal.
    doc = merge_doc(count=3)
    doc["sweep"] = {"ensemble.optimizer.lr": [0.01, 0.02, 0.01], "ensemble.n_divisor": [1, 1.0]}
    doc["mystery"] = 1
    (tmp_path / "sweep.json").write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["merge", "--config", str(tmp_path / "sweep.json"), "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err == (
        "config error: $.mystery: unknown key\n"
        "config error: $.sweep.ensemble.optimizer.lr[2]: duplicate value 0.01\n"
        "config error: $.sweep.ensemble.n_divisor[1]: duplicate value 1.0\n"
    )
    assert not out.exists()


def _write_merge_doc(change):
    def write(tmp_path):
        doc = merge_doc(count=3)
        change(doc)
        (tmp_path / "merge.json").write_text(json.dumps(doc))
    return write


def _write_metrics_with_wrong_header(tmp_path):
    (tmp_path / "metrics.csv").write_text("name,score\ning0,0.1\n")
    _write_merge_doc(lambda doc: doc.update(metrics_csv="metrics.csv"))(tmp_path)


@pytest.mark.parametrize(
    "write, err",
    [
        (lambda tmp_path: None,
         "config error: {config}: cannot read config ([Errno 2] No such file or directory: '{config}')\n"),
        (lambda tmp_path: (tmp_path / "merge.json").write_text("{not json"),
         "config error: {config}: not valid JSON (Expecting property name enclosed in double quotes: "
         "line 1 column 2 (char 1))\n"),
        (_write_merge_doc(lambda doc: doc["ensemble"]["optimizer"].update(lr={"kind": "explicit", "values": []})),
         "config error: $.ensemble.optimizer.lr.values: expected a non-empty list of numbers\n"),
        (_write_merge_doc(lambda doc: doc.update(sweep=[])),
         "config error: $.sweep: expected a non-empty object of field paths to value lists\n"),
        (_write_metrics_with_wrong_header, "error: {dir}/metrics.csv: metrics CSV must have header 'id,metric'\n"),
        (_write_merge_doc(lambda doc: doc.update(output=5)), "config error: $.output: expected an object, got int\n"),
        (lambda tmp_path: (tmp_path / "merge.json").write_text("[1]"),
         "config error: $: expected an object, got list\n"),
        (_write_merge_doc(lambda doc: doc["ensemble"].update(amplification={"kind": "harmonic", "offset": 2})),
         "config error: $.ensemble.amplification.offset: must be 0 or 1, got 2\n"),
        (_write_merge_doc(lambda doc: doc["ensemble"].update(pivot_policy={"kind": "ema", "decay": 2})),
         "config error: $.ensemble.pivot_policy.decay: ema decay must lie in (0, 1], got 2.0\n"),
        (_write_merge_doc(lambda doc: doc.update(sweep={"ensemble.seed": []})),
         "config error: $.sweep.ensemble.seed: expected a non-empty list of values\n"),
        (_write_merge_doc(lambda doc: (doc["ensemble"].update(projection=None),
                                       doc.update(sweep={"ensemble.projection.radius": [1.0, 2.0]}))),
         "config error: cell-670eac3347aa: $.ensemble.projection.center: missing required key\n"
         "config error: cell-b4023a9d7edc: $.ensemble.projection.center: missing required key\n"),
    ],
    ids=["missing-config", "invalid-json", "empty-explicit-lr", "empty-sweep", "metrics-header", "output-not-object",
         "top-level-list", "harmonic-offset", "ema-decay", "empty-sweep-list", "sweep-radius-without-projection"],
)
def test_merge_config_faults_exit_1_before_any_run(tmp_path, capsys, write, err):
    write(tmp_path)
    config, out = tmp_path / "merge.json", tmp_path / "out"
    assert main(["merge", "--config", str(config), "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err == err.format(config=config, dir=tmp_path)
    assert not out.exists()


def test_merge_sweep_grid_runs_all_cells(tmp_path):
    write_ingredients(tmp_path)
    doc = merge_doc()
    doc["ensemble"]["optimizer"] = {"kind": "gd", "lr": 0.5}
    doc["sweep"] = {
        "ensemble.optimizer.weight_decay": [0.0, 0.1],
        "ensemble.optimizer.lr": list(np.linspace(1e-7, 2, 30)),
    }
    (tmp_path / "sweep.json").write_text(json.dumps(doc))
    out_dir = tmp_path / "grid"
    assert main(["merge", "--config", str(tmp_path / "sweep.json"), "--out", str(out_dir), "--quiet"]) == 0
    manifest = json.loads((out_dir / "sweep_manifest.json").read_text())
    assert len(manifest) == 60
    assert all(entry["status"] == "ok" for entry in manifest)
    cells = {entry["cell"] for entry in manifest}
    assert len(cells) == 60
    sample = manifest[0]
    assert (out_dir / sample["checkpoint"]).exists()
    assert (out_dir / sample["log"]).exists()


def test_merge_sweep_cell_failure_does_not_abort_others(tmp_path):
    write_ingredients(tmp_path, count=3)
    doc = merge_doc(count=3)
    # batch_size 5 exceeds the 3-ingredient sweep at runtime (schema-valid).
    doc["sweep"] = {"ensemble.batch_size": [1, 5]}
    (tmp_path / "sweep.json").write_text(json.dumps(doc))
    code = main(["merge", "--config", str(tmp_path / "sweep.json"), "--out", str(tmp_path / "g"), "--quiet"])
    assert code == 2
    manifest = json.loads((tmp_path / "g" / "sweep_manifest.json").read_text())
    statuses = sorted(entry["status"] for entry in manifest)
    assert statuses == ["error", "ok"]


def test_merge_sweep_schema_mismatch_names_the_input_in_every_cell(tmp_path):
    write_ingredients(tmp_path, count=3)
    write_renamed(tmp_path / "ing2.safetensors")
    write_renamed(tmp_path / "odd.safetensors")
    doc = merge_doc(count=2)
    doc["sweep"] = {"ensemble.projection": [None, {"center": "odd.safetensors", "radius": 1.0}]}
    (tmp_path / "sweep.json").write_text(json.dumps(doc))
    assert main(["merge", "--config", str(tmp_path / "sweep.json"), "--out", str(tmp_path / "g"), "--quiet"]) == 2
    manifest = json.loads((tmp_path / "g" / "sweep_manifest.json").read_text())
    assert [entry["status"] for entry in manifest] == ["ok", "error"]
    assert manifest[1]["error"] == f"projection center differs from ingredient 'ing0': {MISMATCH}"
    doc = merge_doc(count=3)
    doc["sweep"] = {"ensemble.n_divisor": [1, 3]}
    (tmp_path / "sweep.json").write_text(json.dumps(doc))
    assert main(["merge", "--config", str(tmp_path / "sweep.json"), "--out", str(tmp_path / "h"), "--quiet"]) == 2
    manifest = json.loads((tmp_path / "h" / "sweep_manifest.json").read_text())
    expected = f"ingredient 'ing2' differs from ingredient 'ing0': {MISMATCH}"
    assert [entry["error"] for entry in manifest] == [expected] * 2


def test_merge_sweep_loads_ingredients_once(tmp_path, monkeypatch):
    import soupstock.cli as cli

    write_ingredients(tmp_path, count=3)
    doc = merge_doc(count=3)
    doc["sweep"] = {"ensemble.optimizer.weight_decay": [0.0, 0.1], "ensemble.n_divisor": [1, 3]}
    (tmp_path / "sweep.json").write_text(json.dumps(doc))
    opened = []
    monkeypatch.setattr(cli, "open_checkpoint", lambda path: opened.append(path) or open_checkpoint(path))
    assert main(["merge", "--config", str(tmp_path / "sweep.json"), "--out", str(tmp_path / "g"), "--quiet"]) == 0
    assert len(opened) == 3


@pytest.mark.parametrize("target", ["target.safetensors", "ing0.safetensors"], ids=["own-file", "an-ingredient"])
def test_merge_sweep_opens_a_shared_greedy_target_once(tmp_path, monkeypatch, target):
    # On one CPU every cell runs in this process, so that an open or a load per cell is counted.
    import soupstock.cli as cli

    paths = write_ingredients(tmp_path, count=4)
    os.replace(paths[3], tmp_path / "target.safetensors")
    doc = merge_doc(count=3)
    doc["ensemble"]["greedy"] = {"enabled": True, "evaluator": {"kind": "neg_distance", "target": target}}
    doc["sweep"] = {"ensemble.optimizer.lr": [0.1, 0.2, 0.3]}
    (tmp_path / "sweep.json").write_text(json.dumps(doc))
    opened = []
    monkeypatch.setattr(cli, "open_checkpoint", lambda path: opened.append(path) or open_checkpoint(path))
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    assert main(["merge", "--config", str(tmp_path / "sweep.json"), "--out", str(tmp_path / "g"), "--quiet"]) == 0
    names = [f"ing{i}.safetensors" for i in range(3)] + [target]
    assert sorted(opened) == sorted({str(tmp_path / name) for name in names})


def test_merge_sweep_cell_whose_centre_is_missing_fails_alone(tmp_path):
    write_ingredients(tmp_path, count=3)
    doc = merge_doc(count=3)
    doc["sweep"] = {"ensemble.projection": [None, {"center": "missing.safetensors", "radius": 1.0}]}
    (tmp_path / "sweep.json").write_text(json.dumps(doc))
    assert main(["merge", "--config", str(tmp_path / "sweep.json"), "--out", str(tmp_path / "g"), "--quiet"]) == 2
    manifest = json.loads((tmp_path / "g" / "sweep_manifest.json").read_text())
    assert [entry["status"] for entry in manifest] == ["ok", "error"]
    assert manifest[1]["error"] == f"[Errno 2] No such file or directory: '{tmp_path / 'missing.safetensors'}'"


def test_merge_sweep_load_failure_fails_every_cell(tmp_path):
    write_ingredients(tmp_path, count=2)
    doc = merge_doc(count=2)
    doc["ingredients"].append({"path": "missing.safetensors"})
    doc["sweep"] = {"ensemble.n_divisor": [1, 2, 3]}
    (tmp_path / "sweep.json").write_text(json.dumps(doc))
    code = main(["merge", "--config", str(tmp_path / "sweep.json"), "--out", str(tmp_path / "g"), "--quiet"])
    assert code == 2
    manifest = json.loads((tmp_path / "g" / "sweep_manifest.json").read_text())
    assert [entry["status"] for entry in manifest] == ["error"] * 3
    assert all("missing.safetensors" in entry["error"] for entry in manifest)


def test_merge_nonfinite_run_exits_2_without_outputs(tmp_path, capsys):
    write_ingredients(tmp_path, count=3)
    doc = merge_doc(count=3)
    doc["ensemble"]["optimizer"] = {"kind": "gd", "lr": 1e30}
    (tmp_path / "merge.json").write_text(json.dumps(doc))
    with no_warnings():
        code = main(["merge", "--config", str(tmp_path / "merge.json"), "--quiet"])
    assert code == 2
    assert "non-finite iterate after step 2 (epoch 1, batch ing1" in capsys.readouterr().err
    assert not (tmp_path / "merged.safetensors").exists()
    assert not (tmp_path / "run.csv").exists()


def test_merge_sweep_nonfinite_cell_is_an_error(tmp_path):
    write_ingredients(tmp_path, count=3)
    doc = merge_doc(count=3)
    doc["ensemble"]["optimizer"] = {"kind": "gd", "lr": 0.5}
    doc["sweep"] = {"ensemble.optimizer.lr": [0.5, 1e30]}
    (tmp_path / "sweep.json").write_text(json.dumps(doc))
    with no_warnings():
        code = main(["merge", "--config", str(tmp_path / "sweep.json"), "--out", str(tmp_path / "g"), "--quiet"])
    assert code == 2
    manifest = {entry["overrides"]["ensemble.optimizer.lr"]: entry
                for entry in json.loads((tmp_path / "g" / "sweep_manifest.json").read_text())}
    assert manifest[0.5]["status"] == "ok"
    assert manifest[1e30]["status"] == "error"
    assert "non-finite iterate" in manifest[1e30]["error"]
    assert not (tmp_path / "g" / manifest[1e30]["cell"] / "merged.safetensors").exists()


def write_overflowing_projection(tmp_path):
    """One ingredient and a projection centre whose difference overflows float32."""
    save_checkpoint(WeightMap({"w": np.array([3e38, 1.0], dtype=np.float32)}), str(tmp_path / "ing0.safetensors"))
    save_checkpoint(WeightMap({"w": np.array([-3e38, 0.0], dtype=np.float32)}), str(tmp_path / "center.safetensors"))
    return merge_doc(count=1, optimizer={"kind": "gd", "lr": 0.5})


def test_merge_overflowing_projection_exits_2_without_outputs(tmp_path, capsys):
    doc = write_overflowing_projection(tmp_path)
    doc["ensemble"]["projection"] = {"center": "center.safetensors", "radius": 1.0}
    (tmp_path / "merge.json").write_text(json.dumps(doc))
    with no_warnings():
        code = main(["merge", "--config", str(tmp_path / "merge.json"), "--quiet"])
    assert code == 2
    assert "error: non-finite iterate after step 1 (epoch 1, batch ing0; first in tensor 'w')" in capsys.readouterr().err
    assert not (tmp_path / "merged.safetensors").exists()
    assert not (tmp_path / "run.csv").exists()


def test_merge_sweep_overflowing_projection_cell_is_an_error(tmp_path):
    doc = write_overflowing_projection(tmp_path)
    doc["sweep"] = {"ensemble.projection": [None, {"center": "center.safetensors", "radius": 1.0}]}
    (tmp_path / "sweep.json").write_text(json.dumps(doc))
    with no_warnings():
        code = main(["merge", "--config", str(tmp_path / "sweep.json"), "--out", str(tmp_path / "g"), "--quiet"])
    assert code == 2
    manifest = json.loads((tmp_path / "g" / "sweep_manifest.json").read_text())
    assert [entry["status"] for entry in manifest] == ["ok", "error"]
    assert "non-finite iterate after step 1" in manifest[1]["error"]
    assert not (tmp_path / "g" / manifest[1]["cell"] / "merged.safetensors").exists()


def diverging_merge(tmp_path, maps, references=(), **ensemble):
    """A merge of one-tensor checkpoints ing0, ing1, ... holding `maps`, beside
    the one-tensor checkpoints `references` (file name -> values)."""
    files = [*((f"ing{i}.safetensors", values) for i, values in enumerate(maps)), *references]
    for name, values in files:
        save_checkpoint(WeightMap({"w": np.asarray(values, dtype=np.float32)}), str(tmp_path / name))
    (tmp_path / "merge.json").write_text(json.dumps(merge_doc(count=len(maps), **ensemble)))
    return ["merge", "--config", str(tmp_path / "merge.json"), "--quiet"]


OPPOSED = ([3e38, -3e38], [-3e38, 3e38])
TWO_BLOCKS = (np.zeros(70000), np.ones(70000))  # two blocks, so two ranges on two CPUs


def diverging_estimators(workers):
    return lambda tmp_path: ["synth", "estimators", "--dist", "cauchy", "--lr", "1e39", "--trials", "4",
                             "--population", "200", "--subsample", "20", "--batch-size", "5", "--epochs", "2",
                             "--workers", str(workers), "-o", str(tmp_path / "est.csv")]


STEP_1 = "non-finite iterate after step 1 (epoch 1, batch ing0; first in tensor 'w')"
ESTIMATOR_STEP_1 = ("non-finite iterate after step 1 (epoch 1, batch p00011|p00013|p00015|p00002|p00003, "
                    "replica 0; first in tensor 'point')")
DIVERGING = {
    "adam": (lambda d: diverging_merge(d, OPPOSED, optimizer={"kind": "adam", "lr": 1e30}), STEP_1),
    "gd-two-blocks": (lambda d: diverging_merge(d, TWO_BLOCKS, optimizer={"kind": "gd", "lr": 1e39}), STEP_1),
    "projection": (lambda d: diverging_merge(
        d, [[3e38, 1.0]], [("init.safetensors", [3e38, 1.0]), ("center.safetensors", [-3e38, 0.0])],
        optimizer={"kind": "gd", "lr": 0.5}, pivot_init={"kind": "provided", "path": "init.safetensors"},
        projection={"center": "center.safetensors", "radius": 1.0}), STEP_1),
    "greedy": (lambda d: diverging_merge(
        d, OPPOSED, optimizer={"kind": "gd", "lr": 1.0},
        greedy={"enabled": True, "evaluator": {"kind": "neg_distance", "target": "ing0.safetensors"}}),
        "non-finite iterate after step 2 (epoch 1, batch ing1; first in tensor 'w')"),
    "estimators-1-worker": (diverging_estimators(1), ESTIMATOR_STEP_1),
    "estimators-2-workers": (diverging_estimators(2), ESTIMATOR_STEP_1),
}


@pytest.mark.parametrize("case", DIVERGING)
def test_a_diverging_run_reports_one_line_and_no_warning(tmp_path, capsys, case):
    # The engine reports the first non-finite step itself, so numpy's overflow
    # warnings would only repeat it. The record sees this process's warnings
    # only; the next test sees a forked range's or worker's.
    write, line = DIVERGING[case]
    argv = write(tmp_path)
    inputs = sorted(os.listdir(tmp_path))
    with no_warnings():
        assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {line}\n")
    assert sorted(os.listdir(tmp_path)) == inputs


def diverging_sweep(tmp_path):
    """A two-cell sweep over TWO_BLOCKS whose second cell, GD at lr 1e39, diverges."""
    argv = diverging_merge(tmp_path, TWO_BLOCKS)
    doc = json.loads((tmp_path / "merge.json").read_text())
    doc["sweep"] = {"ensemble.optimizer.lr": [0.5, 1e39]}
    (tmp_path / "merge.json").write_text(json.dumps(doc))
    return [*argv, "--out", str(tmp_path / "g")]


@pytest.mark.parametrize("case", ["gd-two-blocks", "estimators-2-workers", "sweep"])
def test_a_diverging_run_under_warnings_as_errors_exits_2_with_one_line(tmp_path, case):
    # Each run forks on two or more CPUs, and a child's warning is an error
    # only in the child: under -W error it fails the child's task, so it
    # would show here as another exit code or more lines.
    write, line = DIVERGING.get(case, (diverging_sweep, None))
    argv = write(tmp_path)
    inputs = sorted(os.listdir(tmp_path))
    result = _main_in_subprocess(argv, "-W", "error")
    if line is not None:
        assert (result.returncode, result.stdout, result.stderr) == (2, "", f"error: {line}\n")
        assert sorted(os.listdir(tmp_path)) == inputs
    else:  # a sweep's one line is its failing cell's manifest entry
        assert (result.returncode, result.stdout, result.stderr) == (2, "", "")
        manifest = json.loads((tmp_path / "g" / "sweep_manifest.json").read_text())
        assert [entry["status"] for entry in manifest] == ["ok", "error"]
        assert manifest[1]["error"] == STEP_1


@pytest.fixture
def forked(monkeypatch):
    """Sweeps run in two workers, whatever the CPUs; the pids forked are recorded."""
    import soupstock.cli as cli

    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", fork)
    return pids


def _assert_reaped(pids):
    assert pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def _sweep_outputs(argv, out_dir):
    code = main(argv + ["--out", str(out_dir), "--quiet"])
    return code, {p.relative_to(out_dir).as_posix(): p.read_bytes() for p in out_dir.rglob("*") if p.is_file()}


def test_merge_sweep_in_workers_matches_serial_byte_for_byte(tmp_path, monkeypatch, forked):
    import soupstock.cli as cli

    # 12,000 elements in one tensor, summed for the norms in one piece.
    write_ingredients(tmp_path, count=3, shapes=((120, 100), (3,)))
    doc = merge_doc(count=3, shuffle=True, record_steps=True, epochs=2,
                    optimizer={"kind": "adam", "lr": 0.01, "weight_decay": 0.01})
    # 4 > 3 ingredients fails its cells before any step, and lr 3e37 its
    # cells at a later step; the odd cells, all at lr 3e37, run on the forked worker.
    doc["sweep"] = {"ensemble.batch_size": [2, 1, 4, 3], "ensemble.optimizer.lr": [0.01, 3e37]}
    (tmp_path / "sweep.json").write_text(json.dumps(doc))
    argv = ["merge", "--config", str(tmp_path / "sweep.json")]

    code, parallel = _sweep_outputs(argv, tmp_path / "parallel")
    assert len(forked) == 1
    _assert_reaped(forked)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    assert _sweep_outputs(argv, tmp_path / "serial") == (code, parallel)
    assert len(forked) == 1

    assert code == 2
    manifest = json.loads(parallel["sweep_manifest.json"])
    assert [entry["overrides"]["ensemble.optimizer.lr"] for entry in manifest] == [0.01, 3e37] * 4
    assert [entry["status"] for entry in manifest] == ["ok", "error", "ok", "error", "error", "error", "ok", "error"]
    assert [entry["error"] for entry in manifest[4:6]] == ["batch_size 4 exceeds the 3 ingredients in the sweep"] * 2
    for entry in manifest:
        if entry["status"] == "error" and entry["overrides"]["ensemble.batch_size"] != 4:
            assert entry["error"].startswith("non-finite iterate after step 2 ")
    assert sorted(parallel) == sorted(
        [f"{entry['cell']}/{name}" for entry in manifest if entry["status"] == "ok"
         for name in ("merged.safetensors", "run.csv")] + ["sweep_manifest.json"]
    )


def test_a_single_merge_equals_a_one_cell_sweep(tmp_path, monkeypatch, forked):
    import soupstock.cli as cli

    # 600,003 elements: 10 blocks in 3 tiles, which two CPUs split across a forked worker.
    write_ingredients(tmp_path, count=2, shapes=((600, 1000), (3,)))
    doc = merge_doc(count=2, epochs=3, record_steps=True, optimizer={"kind": "adam", "lr": 0.01},
                    pivot_policy={"kind": "ema", "decay": 0.5})
    (tmp_path / "one.json").write_text(json.dumps(doc))
    doc["sweep"] = {"ensemble.epochs": [3]}
    (tmp_path / "sweep.json").write_text(json.dumps(doc))
    cell = sweep_cell_name({"ensemble.epochs": 3})
    outputs = []
    for cpus in (2, 1):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        for name in ("one", "sweep"):
            out_dir = tmp_path / f"{name}{cpus}"
            assert main(["merge", "--config", str(tmp_path / f"{name}.json"), "--out", str(out_dir), "--quiet"]) == 0
            written = out_dir / cell if name == "sweep" else out_dir
            outputs.append([(written / path).read_bytes() for path in ("merged.safetensors", "run.csv")])
        if cpus == 2:
            assert len(forked) == 2  # one tile worker for each merge
            _assert_reaped(forked)
    assert outputs[1:] == outputs[:1] * 3


def test_merge_sweep_dead_worker_fails_only_its_cells(tmp_path, monkeypatch, forked):
    import soupstock.cli as cli

    write_ingredients(tmp_path, count=3)
    doc = merge_doc(count=3)
    doc["sweep"] = {"ensemble.optimizer.lr": [0.1, 0.2, 0.3, 0.4]}
    (tmp_path / "sweep.json").write_text(json.dumps(doc))
    parent, in_parent = os.getpid(), []
    real_cell = cli._run_merge_cell

    def cell_or_exit(cfg, base_dir, out_dir, *rest):
        if os.getpid() != parent:
            os._exit(3)
        in_parent.append(os.path.basename(out_dir))
        return real_cell(cfg, base_dir, out_dir, *rest)

    monkeypatch.setattr(cli, "_run_merge_cell", cell_or_exit)
    code = main(["merge", "--config", str(tmp_path / "sweep.json"), "--out", str(tmp_path / "g"), "--quiet"])
    assert code == 2
    _assert_reaped(forked)
    manifest = json.loads((tmp_path / "g" / "sweep_manifest.json").read_text())
    assert len(manifest) == 4 and 0 < len(in_parent) < 4
    for entry in manifest:
        if entry["cell"] in in_parent:
            assert entry["status"] == "ok"
        else:
            assert entry["status"] == "error"
            assert entry["error"] == "worker process exited with status 3 before reporting"


def test_merge_sweep_interrupt_kills_and_reaps_workers(tmp_path, monkeypatch, forked):
    import soupstock.cli as cli

    write_ingredients(tmp_path, count=3)
    doc = merge_doc(count=3)
    doc["sweep"] = {"ensemble.optimizer.lr": [0.1, 0.2]}
    (tmp_path / "sweep.json").write_text(json.dumps(doc))
    parent = os.getpid()

    def interrupt_or_hang(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)
        os._exit(4)

    monkeypatch.setattr(cli, "_run_merge_cell", interrupt_or_hang)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        main(["merge", "--config", str(tmp_path / "sweep.json"), "--out", str(tmp_path / "g"), "--quiet"])
    assert time.monotonic() - start < 30
    _assert_reaped(forked)
    assert not (tmp_path / "g" / "sweep_manifest.json").exists()


# (ensemble overrides, greedy acceptance on, the model-size buffers a cell of
# a model of many tiles holds at its peak: a cell that is neither greedy nor
# projected holds its state and pivot over one tile)
CELL_VARIANTS = pytest.mark.parametrize(
    "ensemble, greedy, buffers",
    [
        ({}, False, 1),  # GD with an adaptive pivot: the iterate alone
        ({"optimizer": {"kind": "adagrad", "lr": 0.1}}, False, 1),
        ({"optimizer": {"kind": "adam", "lr": 0.1}, "pivot_policy": {"kind": "ema", "decay": 0.5}}, False, 1),
        ({"optimizer": {"kind": "adadelta", "lr": 0.1}, "projection": {"center": "soup", "radius": 1.0}},
         False, 5),
        ({"optimizer": {"kind": "adadelta", "lr": 0.1}, "projection": {"center": "soup", "radius": 1.0},
          "record_steps": False}, False, 4),
        ({"optimizer": {"kind": "adam", "lr": 0.1}}, True, 7),
        ({"optimizer": {"kind": "adam", "lr": 0.1}, "pivot_policy": {"kind": "fixed"},
          "pivot_init": {"kind": "provided", "path": "ing1.safetensors"},
          "projection": {"center": "ing2.safetensors", "radius": 1.0}}, False, 6),
    ],
    ids=["gd", "adagrad", "adam-ema", "adadelta-projection", "adadelta-projection-nolog", "adam-greedy",
         "adam-fixed-provided-projection"],
)


def cell_doc(ensemble, greedy):
    # The first step moves the iterate toward ing0 and is accepted, so that
    # a greedy run fills its spare state at the second.
    doc = merge_doc(count=3, **ensemble)
    evaluator = {"kind": "neg_distance", "target": "ing0.safetensors"}
    doc["ensemble"]["greedy"] = {"enabled": greedy, "evaluator": evaluator}
    return doc


@CELL_VARIANTS
def test_sweep_workers_fit_their_cells_into_available_memory(monkeypatch, ensemble, greedy, buffers):
    import soupstock.cli as cli

    doc = cell_doc(ensemble, greedy)
    doc["sweep"] = {"ensemble.optimizer.weight_decay": [0.0, 0.1, 0.2, 0.3, 0.4]}
    cells = enumerate_sweep(doc)
    model = WeightMap({"w": np.zeros((10, 25), dtype=np.float32)})
    configs = [cli._replaced(cfg.ensemble, FileRef, lambda ref: model) for _, cfg in cells]
    cell_bytes = engine.cell_bytes(configs[0], 250)
    assert cell_bytes >= 4 * 250 * buffers  # a model smaller than a tile counts its whole state
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 4)
    for available, workers in [(10**12, 4), (3 * cell_bytes, 3), (2 * cell_bytes - 1, 1), (0, 1)]:
        monkeypatch.setattr(cli, "_available_memory", lambda: available)
        assert cli._sweep_workers(configs, 250) == workers
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    assert cli._sweep_workers(configs, 250) == 1


def cell_peak(tmp_path, ensemble, greedy, size):
    """The cell's engine config and its traced peak over one merge of three
    ingredients of ``size`` elements."""
    import soupstock.cli as cli

    rng = np.random.default_rng(0)
    for i in range(3):
        weights = WeightMap({"w": rng.standard_normal(size).astype(np.float32)})
        save_checkpoint(weights, str(tmp_path / f"ing{i}.safetensors"))
    cells = enumerate_sweep(cell_doc(ensemble, greedy))
    [(_, cfg)] = cells
    with ExitStack() as stack:
        def open_map(ref):
            return stack.enter_context(open_checkpoint(str(tmp_path / ref.path)))

        ingredients = cli._open_ingredients(cells, str(tmp_path), open_map)
        engine_cfg = cli._replaced(cfg.ensemble, FileRef, open_map)
        with traced_peak() as peak:
            cli._run_merge_cell(cfg, engine_cfg, str(tmp_path / "out"), ingredients, 1)
    return engine_cfg, peak()


@CELL_VARIANTS
def test_a_cell_peaks_within_one_model_size_of_its_buffer_count(tmp_path, ensemble, greedy, buffers):
    import soupstock.cli as cli

    size = 1 << 22  # 64 blocks, 16 tiles: a tile's state and the block buffers stay well under one model size
    engine_cfg, peak = cell_peak(tmp_path, ensemble, greedy, size)
    assert round(engine.cell_bytes(engine_cfg, size) / (4 * size)) == buffers
    assert engine.cell_bytes(engine_cfg, size) >= peak
    assert abs(peak / (4 * size) - buffers) <= 1


@pytest.mark.parametrize("pivot", [{"kind": "adaptive"}, {"kind": "ema", "decay": 0.5}], ids=["adaptive", "ema"])
def test_a_plain_adam_cell_peaks_near_one_model_size(tmp_path, pivot):
    # The iterate, and the moments and the pivot over one tile at a time.
    size = 1 << 22
    _, peak = cell_peak(tmp_path, {"optimizer": {"kind": "adam", "lr": 0.1}, "pivot_policy": pivot}, False, size)
    assert peak < 1.3 * 4 * size


def _write_cgroup(directory, **files):
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (directory / name.replace("_", ".")).write_text(text + "\n")
    return str(directory)


def test_cgroup_dirs_walk_from_this_cgroup_to_the_v2_mount(tmp_path):
    import soupstock.cli as cli

    proc = tmp_path / "proc"
    proc.mkdir()
    (proc / "cgroup").write_text("4:memory:/v1/elsewhere\n0::/jobs/job7/task\n")
    (proc / "mountinfo").write_text(
        "32 24 0:28 / /sys/fs/cgroup rw,relatime - tmpfs tmpfs rw\n"
        "42 32 0:38 /jobs /sys/fs/cgroup/unified rw,relatime - cgroup2 cgroup2 rw\n"
    )
    assert cli._cgroup_dirs(str(proc)) == [
        "/sys/fs/cgroup/unified/job7/task", "/sys/fs/cgroup/unified/job7", "/sys/fs/cgroup/unified"
    ]
    (proc / "cgroup").write_text("0::/other\n")  # outside the mounted subtree
    assert cli._cgroup_dirs(str(proc)) == []
    (proc / "cgroup").write_text("4:memory:/v1\n")  # no v2 hierarchy
    assert cli._cgroup_dirs(str(proc)) == []
    assert cli._cgroup_dirs(str(tmp_path / "missing")) == []


def test_cgroup_limits_cap_cpus_and_memory(tmp_path, monkeypatch):
    import soupstock.cli as cli

    cpus = len(os.sched_getaffinity(0))
    unlimited = _write_cgroup(tmp_path / "free", cpu_max="max 100000", memory_max="max", memory_current="7")
    monkeypatch.setattr(cli, "_cgroup_dirs", lambda: [unlimited])
    assert cli._usable_cpus() == cpus
    machine = cli._available_memory()
    assert machine > 0

    inner = _write_cgroup(tmp_path / "root" / "job", cpu_max="250000 100000",
                          memory_max=str(10**6), memory_current=str(4 * 10**5))
    outer = _write_cgroup(tmp_path / "root", cpu_max="50000 100000", memory_max=str(2 * 10**6),
                          memory_current=str(19 * 10**5))
    monkeypatch.setattr(cli, "_cgroup_dirs", lambda: [inner, unlimited])
    assert cli._usable_cpus() == min(cpus, 2)  # whole CPUs of a 2.5-CPU quota
    assert cli._available_memory() == 6 * 10**5
    monkeypatch.setattr(cli, "_cgroup_dirs", lambda: [inner, outer])
    assert cli._usable_cpus() == 1  # half a CPU still runs one worker
    assert cli._available_memory() == 10**5  # the ancestor has less left
    _write_cgroup(tmp_path / "root", memory_current=str(3 * 10**6))  # over its limit
    assert cli._available_memory() == 0


def test_unreadable_meminfo_leaves_no_memory_and_one_sweep_worker(monkeypatch):
    import soupstock.cli as cli

    def no_meminfo(path, *args, **kwargs):
        if path == "/proc/meminfo":
            raise PermissionError(13, "Permission denied", path)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", no_meminfo, raising=False)
    assert cli._available_memory() == 0
    doc = merge_doc(count=3)
    doc["sweep"] = {"ensemble.optimizer.lr": [0.1, 0.2]}
    configs = [cli._replaced(cfg.ensemble, FileRef, lambda ref: pytest.fail(f"opened {ref.path}"))
               for _, cfg in enumerate_sweep(doc)]
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 4)
    assert cli._sweep_workers(configs, 250) == 1


def test_sweep_forks_no_workers_beside_other_threads(tmp_path, monkeypatch):
    import soupstock.cli as cli

    write_ingredients(tmp_path, count=3, shapes=((120, 100), (3,)))
    doc = merge_doc(count=3, shuffle=True, record_steps=True, optimizer={"kind": "adam", "lr": 0.01})
    doc["sweep"] = {"ensemble.batch_size": [2, 1]}
    (tmp_path / "sweep.json").write_text(json.dumps(doc))
    argv = ["merge", "--config", str(tmp_path / "sweep.json")]
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    serial = _sweep_outputs(argv, tmp_path / "serial")
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)  # two sweep workers, as on two CPUs
    with another_thread_running():
        assert _sweep_outputs(argv, tmp_path / "threaded") == serial
    assert serial[0] == 0 and len(serial[1]) == 5


def test_merge_sweep_runs_serially_when_memory_is_short(tmp_path, monkeypatch):
    import soupstock.cli as cli

    write_ingredients(tmp_path, count=3)
    doc = merge_doc(count=3)
    doc["sweep"] = {"ensemble.optimizer.lr": [0.1, 0.2, 0.3]}
    (tmp_path / "sweep.json").write_text(json.dumps(doc))
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(cli, "_available_memory", lambda: 2 * 4 * 9 * 1 - 1)  # one GD cell of 9 elements fits
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked a worker"))
    assert main(["merge", "--config", str(tmp_path / "sweep.json"), "--out", str(tmp_path / "g"), "--quiet"]) == 0


def test_sweep_counts_the_tiles_each_cell_steps_at_once(monkeypatch):
    # Two plain Adam cells of two tiles each: on 4 CPUs, two sweep workers
    # would each step both tiles of its cell at once, two tiles' state and
    # block buffers apiece, which memory for two one-tile counts does not hold.
    import soupstock.cli as cli

    doc = merge_doc(count=3, optimizer={"kind": "adam", "lr": 0.1})
    doc["sweep"] = {"ensemble.optimizer.weight_decay": [0.0, 0.1]}
    configs = [cli._replaced(cfg.ensemble, FileRef, lambda ref: pytest.fail(f"opened {ref.path}"))
               for _, cfg in enumerate_sweep(doc)]
    size = 2 * engine.TILE
    one_tile = engine.cell_bytes(configs[0], size)
    assert engine.cell_bytes(configs[0], size, 2) == one_tile + 4 * engine.TILE * 2 + 32 * BLOCK
    assert engine.cell_bytes(configs[0], size, 3) == engine.cell_bytes(configs[0], size, 2)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(cli, "_available_memory", lambda: 2 * one_tile)
    assert cli._sweep_workers(configs, size) == 1


def _rewrite_in_place(path):
    st = path.stat()
    with open(path, "r+b") as fh:  # same inode, same size, new contents
        fh.seek(st.st_size - 4)
        fh.write(np.float32(0.25).tobytes())
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))


def _truncate_in_place(path):
    os.truncate(path, path.stat().st_size - 4)


@pytest.mark.parametrize(
    "changed, change, during_run, message",
    [
        ("ing1", _rewrite_in_place, False, "file changed while it was open"),
        ("ing1", _truncate_in_place, False, "file changed while it was open"),
        ("ing1", _truncate_in_place, True, "truncated buffer"),
        ("init", _rewrite_in_place, False, "file changed while it was open"),
    ],
    ids=["rewritten", "truncated", "truncated-mid-run", "provided-init-rewritten"],
)
def test_merge_ingredient_changed_after_open_exits_2_without_outputs(
    tmp_path, monkeypatch, capsys, changed, change, during_run, message
):
    # The change comes after the files were opened: before the run reads
    # them, or after it has read them and before the outputs are written.
    # A provided initialization stays open through the cell like an ingredient.
    import soupstock.cli as cli

    paths = write_ingredients(tmp_path, count=4)
    os.replace(paths[3], tmp_path / "init.safetensors")
    doc = merge_doc(count=3, pivot_init={"kind": "provided", "path": "init.safetensors"})
    (tmp_path / "merge.json").write_text(json.dumps(doc))
    real_run = engine.run_ensemble

    def run_with_change(cfg, ingredients, **kwargs):
        if during_run:
            change(tmp_path / f"{changed}.safetensors")
        result = real_run(cfg, ingredients, **kwargs)
        change(tmp_path / f"{changed}.safetensors")
        return result

    monkeypatch.setattr(engine, "run_ensemble", run_with_change)
    assert main(["merge", "--config", str(tmp_path / "merge.json"), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    assert f"{changed}.safetensors: {message}" in capsys.readouterr().err
    assert list((tmp_path / "out").rglob("*")) == []  # no outputs, no temporaries


@pytest.mark.parametrize("key", ["greedy", "projection"])
def test_merge_reference_rewritten_during_the_run_exits_2_without_outputs(tmp_path, monkeypatch, capsys, key):
    # A greedy target or a projection centre stays open through the merge and
    # is checked unchanged before the outputs replace their paths.
    import soupstock.cli as cli

    paths = write_ingredients(tmp_path, count=4)
    os.replace(paths[3], tmp_path / "reference.safetensors")
    doc = merge_doc(count=3, projection={"center": "reference.safetensors", "radius": 1.0})
    if key == "greedy":
        doc = merge_doc(count=3)
        doc["ensemble"]["greedy"] = {"enabled": True,
                                     "evaluator": {"kind": "neg_distance", "target": "reference.safetensors"}}
    (tmp_path / "merge.json").write_text(json.dumps(doc))
    real_run = engine.run_ensemble

    def run_then_change(cfg, ingredients, **kwargs):
        result = real_run(cfg, ingredients, **kwargs)
        _rewrite_in_place(tmp_path / "reference.safetensors")
        return result

    monkeypatch.setattr(engine, "run_ensemble", run_then_change)
    assert main(["merge", "--config", str(tmp_path / "merge.json"), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    assert capsys.readouterr().err == f"error: {tmp_path / 'reference.safetensors'}: file changed while it was open\n"
    assert list((tmp_path / "out").rglob("*")) == []  # no outputs, no temporaries


def test_soup_input_changed_before_publishing_exits_2_and_keeps_the_old_output(tmp_path, monkeypatch, capsys):
    import soupstock.cli as cli

    out = tmp_path / "out"
    argv = _soup_argv(tmp_path, out)
    assert main(argv) == 0
    before = _files(out)
    real_soup = cli.soup

    def soup_then_change(maps):
        merged = real_soup(maps)
        _rewrite_in_place(tmp_path / "ing1.safetensors")
        return merged

    monkeypatch.setattr(cli, "soup", soup_then_change)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {tmp_path / 'ing1.safetensors'}: file changed while it was open\n"
    assert _files(out) == before  # the old output, and no temporary beside it


def test_sweep_ingredient_changed_after_the_cells_exits_2_without_a_manifest(tmp_path, monkeypatch, capsys):
    import soupstock.cli as cli

    write_ingredients(tmp_path, count=3)
    doc = merge_doc(count=3)
    doc["sweep"] = {"ensemble.optimizer.lr": [0.5, 0.25]}
    (tmp_path / "merge.json").write_text(json.dumps(doc))

    def run_then_change(tasks, workers):
        outcomes = [task() for task in tasks]
        if tasks[0].func is cli._run_merge_cell:  # the cells, not a cell's tiles
            _rewrite_in_place(tmp_path / "ing2.safetensors")
        return outcomes

    monkeypatch.setattr(engine, "run_in_workers", run_then_change)
    out = tmp_path / "out"
    assert main(["merge", "--config", str(tmp_path / "merge.json"), "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == f"error: {tmp_path / 'ing2.safetensors'}: file changed while it was open\n"
    assert not (out / "sweep_manifest.json").exists()
    assert not [path for path in out.rglob("*") if path.name.endswith(".tmp")]


def _files(directory):
    return {path: path.read_bytes() for path in directory.rglob("*") if path.is_file()}


def _run_clashing(tmp_path, capsys, doc, command="merge"):
    """Exit code and stderr of a run whose outputs clash; it must write nothing."""
    (tmp_path / "run.json").write_text(json.dumps(doc))
    before = _files(tmp_path)
    code = main([command, "--config", str(tmp_path / "run.json"), "--quiet"])
    assert _files(tmp_path) == before
    return code, capsys.readouterr().err


CLASH_SWEEP = {"ensemble.optimizer.weight_decay": [0.0, 0.1]}


@pytest.mark.parametrize("sweep", [False, True], ids=["one-cell", "sweep"])
def test_merge_log_and_checkpoint_at_one_path_exit_1_before_any_run(tmp_path, capsys, sweep):
    write_ingredients(tmp_path, count=3)
    doc = merge_doc(count=3)
    doc["output"] = {"checkpoint": "same.bin", "log": "same.bin"}
    if sweep:
        doc["sweep"] = CLASH_SWEEP
    code, err = _run_clashing(tmp_path, capsys, doc)
    assert code == 1
    for cell in [sweep_cell_name(overrides) for overrides, _ in enumerate_sweep(doc)] if sweep else [""]:
        path = os.path.realpath(tmp_path / cell / "same.bin")
        log, checkpoint = (f"{cell} output.{key}".lstrip() for key in ("log", "checkpoint"))
        assert f"config error: {log} and {checkpoint} share the path {path}\n" in err


@pytest.mark.parametrize("sweep", [False, True], ids=["one-cell", "sweep"])
@pytest.mark.parametrize(
    "key, target, what",
    [
        ("log", "ing1.safetensors", "ingredient 'ing1'"),
        ("checkpoint", "metrics.csv", "metrics_csv"),
        ("checkpoint", "init.safetensors", "ensemble.pivot_init"),
        ("log", "center.safetensors", "ensemble.projection.center"),
        ("checkpoint", "target.safetensors", "ensemble.greedy.evaluator.target"),
    ],
    ids=["ingredient", "metrics", "provided-init", "center", "greedy-target"],
)
def test_merge_output_at_an_input_path_exits_1_before_any_run(tmp_path, capsys, key, target, what, sweep):
    # Only a checkpoint may replace an ingredient (see the test above it).
    paths = write_ingredients(tmp_path, count=6)
    for path, name in zip(paths[3:], ["init", "center", "target"]):
        os.replace(path, tmp_path / f"{name}.safetensors")
    (tmp_path / "metrics.csv").write_text("id,metric\ning0,0.1\ning1,0.9\ning2,0.5\n")
    doc = merge_doc(count=3, pivot_init={"kind": "provided", "path": "init.safetensors"},
                    projection={"center": "center.safetensors", "radius": 1.0},
                    greedy={"enabled": True, "evaluator": {"kind": "neg_distance", "target": "target.safetensors"}})
    doc["metrics_csv"] = "metrics.csv"
    doc["output"][key] = ("../" if sweep else "") + target
    if sweep:
        doc["sweep"] = CLASH_SWEEP
    code, err = _run_clashing(tmp_path, capsys, doc)
    assert code == 1
    path = os.path.realpath(tmp_path / target)
    for cell in [sweep_cell_name(overrides) for overrides, _ in enumerate_sweep(doc)] if sweep else [""]:
        assert f"{cell} output.{key} and {what} share the path {path}\n".lstrip() in err


@pytest.mark.parametrize(
    "key, target, other",
    [("checkpoint", "../escape.safetensors", "output.checkpoint"), ("log", "../sweep_manifest.json", None)],
    ids=["two-cells", "manifest"],
)
def test_sweep_outputs_at_one_path_exit_1_before_any_run(tmp_path, capsys, key, target, other):
    write_ingredients(tmp_path, count=3)
    doc = merge_doc(count=3)
    doc["output"][key] = target
    doc["sweep"] = CLASH_SWEEP
    code, err = _run_clashing(tmp_path, capsys, doc)
    assert code == 1
    first, second = (sweep_cell_name(overrides) for overrides, _ in enumerate_sweep(doc))
    path = os.path.realpath(tmp_path / target[3:])
    if other is None:  # each cell's log lands on the manifest
        assert f"{first} output.log and sweep_manifest.json share the path {path}\n" in err
    assert f"{second} output.{key} and {first} output.{key} share the path {path}\n" in err


@pytest.mark.parametrize(
    "output, centers, whats",
    [({"log": "same.bin", "checkpoint": "same.bin"}, False, ["output.log"]),
     ({"log": "fed.csv", "checkpoint": "init.safetensors"}, False, ["init"]),
     ({"log": "fed.csv", "checkpoint": "init.safetensors"}, True,
      ["init", "client 'c0' center", "client 'c1' center"])],
    ids=["log-and-checkpoint", "checkpoint-at-init", "checkpoint-at-client-center"],
)
def test_fed_clashing_outputs_exit_1_before_the_run(tmp_path, capsys, output, centers, whats):
    save_checkpoint(WeightMap({"w": np.zeros(2, dtype=np.float32)}), str(tmp_path / "init.safetensors"))
    doc = fed_doc("fedopt", server={"kind": "gd", "lr": 1.0}, init={"path": "init.safetensors"}, output=output)
    if centers:  # the inputs are the init, then each centre in config order
        for client in doc["clients"]:
            client["center"] = {"path": "init.safetensors"}
    code, err = _run_clashing(tmp_path, capsys, doc, command="fed")
    assert code == 1
    path = os.path.realpath(tmp_path / output["checkpoint"])
    assert err == "".join(f"config error: output.checkpoint and {what} share the path {path}\n" for what in whats)


def test_merge_may_write_over_an_ingredient(tmp_path):
    # The output replaces the ingredient's path by rename; the open file keeps
    # the old contents, so the merge reads what it would have read from memory.
    paths = write_ingredients(tmp_path, count=3)
    doc = merge_doc(count=3, epochs=2)
    doc["output"]["checkpoint"] = "ing0.safetensors"
    (tmp_path / "merge.json").write_text(json.dumps(doc))
    cfg = EnsembleConfig(
        optimizer=OptimizerSpec(GD(lr=Harmonic(offset=0))), n_divisor=1, ordering="given", epochs=2
    )
    merged, _ = run_ensemble(cfg, [Ingredient(p.stem, load_checkpoint(str(p))) for p in paths])
    save_checkpoint(merged, str(tmp_path / "expected.safetensors"))
    assert main(["merge", "--config", str(tmp_path / "merge.json"), "--quiet"]) == 0
    assert paths[0].read_bytes() == (tmp_path / "expected.safetensors").read_bytes()


def test_merge_peak_memory_does_not_grow_with_ingredients(tmp_path):
    # 8 ingredients are streamed: an Adam merge holds the iterate, both
    # moments, the norm scratch and a few blocks, not the ingredients.
    rng = np.random.default_rng(1)
    for i in range(8):
        m = WeightMap({f"t{j:02d}": rng.standard_normal(40000).astype(np.float32) for j in range(12)})
        save_checkpoint(m, str(tmp_path / f"ing{i}.safetensors"))
    doc = merge_doc(count=8, batch_size=2, shuffle=True, optimizer={"kind": "adam", "lr": 0.01})
    (tmp_path / "merge.json").write_text(json.dumps(doc))
    model = 4 * 12 * 40000
    with traced_peak() as peak:
        assert main(["merge", "--config", str(tmp_path / "merge.json"), "--quiet"]) == 0
    assert peak() < 5 * model


def _fail_mid_write(*args, **kwargs):
    """Stands in for a writer: writes part of its output to its last argument
    (a path or an open file), then fails."""
    target = args[-1]
    if isinstance(target, str):
        with open(target, "w") as fh:
            fh.write("partial")
    else:
        target.write("partial")
        target.flush()
    raise OSError("disk full")


@pytest.mark.parametrize("target", ["checkpoint", "log", "manifest"])
def test_merge_outputs_survive_a_failed_rewrite(tmp_path, monkeypatch, target):
    write_ingredients(tmp_path, count=3)
    doc = merge_doc(count=3)
    if target == "manifest":
        doc["sweep"] = {"ensemble.optimizer.lr": [0.5, 0.25]}
    (tmp_path / "merge.json").write_text(json.dumps(doc))
    argv = ["merge", "--config", str(tmp_path / "merge.json"), "--out", str(tmp_path / "out"), "--quiet"]
    assert main(argv) == 0
    before = {p: p.read_bytes() for p in (tmp_path / "out").rglob("*") if p.is_file()}

    if target == "checkpoint":
        monkeypatch.setattr("soupstock.cli.save_checkpoint", _fail_mid_write)
    elif target == "log":
        monkeypatch.setattr("soupstock.engine.RunRecord.to_csv", _fail_mid_write)
    else:
        monkeypatch.setattr("soupstock.cli.json.dump", _fail_mid_write)
    assert main(argv) == 2

    after = {p: p.read_bytes() for p in (tmp_path / "out").rglob("*") if p.is_file()}
    assert after == before  # old bytes intact, and no temporary file left behind


def _soup_argv(tmp_path, out):
    write_ingredients(tmp_path, count=2)
    return ["soup", str(tmp_path / "ing0.safetensors"), str(tmp_path / "ing1.safetensors"),
            "-o", str(out / "soup.safetensors"), "--quiet"]


def _main_in_subprocess(argv, *python_flags, **env):
    """main(argv) in a fresh interpreter, started with `python_flags`, with
    the extra environment variables `env`."""
    import soupstock

    src = os.path.dirname(os.path.dirname(os.path.abspath(soupstock.__file__)))
    code = "import sys; from soupstock.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run(
        [sys.executable, *python_flags, "-c", code, *argv],
        env={**os.environ, "PYTHONPATH": src, **env},
        capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("command", ["merge", "estimators", "soup"])
def test_a_command_imports_only_its_own_modules(tmp_path, command):
    # Beside what every command needs, a merge loads the engine and config
    # and no lab, the estimator trials load the engine and their lab and no
    # config, and a soup loads nothing more; importing the CLI has frozen
    # what it imported.
    import soupstock

    write_ingredients(tmp_path, count=2)
    (tmp_path / "merge.json").write_text(json.dumps(merge_doc(count=2)))
    argv, modules = {
        "merge": (["merge", "--config", str(tmp_path / "merge.json"), "--quiet"], ["config", "engine", "optim"]),
        "estimators": (["synth", "estimators", "--dist", "gaussian", "--trials", "2", "--population", "200",
                        "--subsample", "20", "--batch-size", "5", "--epochs", "2",
                        "-o", str(tmp_path / "est.csv"), "--quiet"], ["engine", "optim", "synthlab"]),
        "soup": (["soup", str(tmp_path / "ing0.safetensors"), str(tmp_path / "ing1.safetensors"),
                  "-o", str(tmp_path / "soup.safetensors"), "--quiet"], []),
    }[command]
    code = ("import gc, sys; from soupstock.cli import main; frozen = gc.get_freeze_count(); "
            "code = main(sys.argv[1:]); "
            "print(code, frozen > 0, *sorted(m for m in sys.modules if m.startswith('soupstock.')))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(soupstock.__file__)))
    done = subprocess.run([sys.executable, "-c", code, *argv], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=300)
    assert done.stderr == ""
    shared = ["cli", "pseudograd", "rng", "weightstore"]
    assert done.stdout.split() == ["0", "True", *(f"soupstock.{m}" for m in sorted(shared + modules))]


def test_merge_reads_and_writes_its_csvs_as_utf8_under_any_locale(tmp_path):
    write_ingredients(tmp_path, count=2)
    (tmp_path / "metrics.csv").write_text("id,metric\nmodèle0,0.1\nmodèle1,0.9\n", encoding="utf-8")
    doc = merge_doc(count=2, ordering="metric_desc")
    doc["metrics_csv"] = "metrics.csv"
    for i, entry in enumerate(doc["ingredients"]):
        entry["id"] = f"modèle{i}"
    (tmp_path / "merge.json").write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    argv = ["merge", "--config", str(tmp_path / "merge.json"), "--quiet", "--out"]
    assert main([*argv, str(tmp_path / "here")]) == 0
    done = _main_in_subprocess([*argv, str(tmp_path / "ascii")], "-X", "utf8=0",
                               LC_ALL="C", LANG="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    assert (done.returncode, done.stderr) == (0, "")
    for name in ("merged.safetensors", "run.csv"):
        assert (tmp_path / "ascii" / name).read_bytes() == (tmp_path / "here" / name).read_bytes()
    assert ",modèle1,".encode() in (tmp_path / "ascii" / "run.csv").read_bytes()


def test_a_config_and_a_metrics_csv_with_a_utf8_bom_merge_as_without(tmp_path):
    # Excel's "CSV UTF-8" and Windows PowerShell's Export-Csv start a file with one.
    write_ingredients(tmp_path, count=3)
    doc = merge_doc(count=3, ordering="metric_desc")
    doc["metrics_csv"] = "metrics.csv"
    for bom, out in (("", "plain"), ("\ufeff", "bom")):
        (tmp_path / "metrics.csv").write_text(bom + "id,metric\ning0,0.1\ning1,0.9\ning2,0.5\n", encoding="utf-8")
        (tmp_path / "merge.json").write_text(bom + json.dumps(doc), encoding="utf-8")
        assert main(["merge", "--config", str(tmp_path / "merge.json"), "--quiet", "--out", str(tmp_path / out)]) == 0
    for name in ("merged.safetensors", "run.csv"):
        assert (tmp_path / "bom" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
    assert not (tmp_path / "bom" / "run.csv").read_bytes().startswith(b"\xef\xbb\xbf")


def test_merge_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # 30,000 elements in one tensor: OpenBLAS splits a dot product that long
    # across its threads. The projection makes the checkpoint depend on a norm.
    write_ingredients(tmp_path, count=3, shapes=((300, 100), (3,)))
    doc = merge_doc(count=3, epochs=2, shuffle=True, seed=3,
                    optimizer={"kind": "adam", "lr": 0.01, "weight_decay": 0.01},
                    projection={"center": "soup", "radius": 1e-3})
    (tmp_path / "merge.json").write_text(json.dumps(doc))
    outputs = []
    for blas_threads in ("1", "2"):
        out = tmp_path / f"blas{blas_threads}"
        argv = ["merge", "--config", str(tmp_path / "merge.json"), "--out", str(out), "--quiet"]
        done = _main_in_subprocess(argv, OPENBLAS_NUM_THREADS=blas_threads)
        assert done.returncode == 0, done.stderr
        outputs.append([(out / name).read_bytes() for name in ("merged.safetensors", "run.csv")])
    assert outputs[0] == outputs[1]


def test_merge_steps_get_each_workers_share_of_the_cpus(tmp_path, monkeypatch):
    import soupstock.cli as cli

    write_ingredients(tmp_path, count=3)
    doc = merge_doc(count=3)
    (tmp_path / "one.json").write_text(json.dumps(doc))
    doc["sweep"] = {"ensemble.optimizer.lr": [0.1, 0.2]}
    (tmp_path / "sweep.json").write_text(json.dumps(doc))
    workers = []
    real_run = engine.run_ensemble

    def recording_run(cfg, ingredients, **kwargs):
        workers.append(kwargs["workers"])
        return real_run(cfg, ingredients, **kwargs)

    monkeypatch.setattr(engine, "run_ensemble", recording_run)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 5)
    monkeypatch.setattr(cli, "_sweep_workers", lambda configs, size: min(2, len(configs)))  # 1 for one cell
    monkeypatch.setattr(engine, "run_in_workers", lambda tasks, workers: [task() for task in tasks])
    for name in ("one", "sweep"):
        assert main(["merge", "--config", str(tmp_path / f"{name}.json"), "--out", str(tmp_path / name), "--quiet"]) == 0
    assert workers == [5, 2, 2]


def _fed_argv(tmp_path, out):
    (tmp_path / "fed.json").write_text(json.dumps(fed_doc("fedopt", server={"kind": "gd", "lr": 1.0})))
    return ["fed", "--config", str(tmp_path / "fed.json"), "--out", str(out), "--quiet"]


OTHER_OUTPUTS = {
    "soup": (_soup_argv, "soupstock.cli.save_checkpoint"),
    "estimators": (
        lambda tmp_path, out: ["synth", "estimators", "--dist", "gaussian", "--population", "500",
                               "--subsample", "40", "--trials", "3", "--batch-size", "8", "--epochs", "5",
                               "-o", str(out / "est.csv"), "--quiet"],
        "soupstock.synthlab.EstimatorResult.to_csv",
    ),
    "cycle": (
        lambda tmp_path, out: ["synth", "cycle", "--cycles", "5", "-o", str(out / "cycle.csv"), "--quiet"],
        "soupstock.synthlab.CycleResult.to_csv",
    ),
    "convergence": (
        lambda tmp_path, out: ["synth", "convergence", "--steps", "20000", "-o", str(out / "conv.csv"), "--quiet"],
        "soupstock.cli.csv.writer",
    ),
    "wlln": (
        lambda tmp_path, out: ["synth", "wlln", "--sizes", "10", "--trials", "5", "-o", str(out / "w.csv"), "--quiet"],
        "soupstock.synthlab.WllnResult.to_csv",
    ),
    "fed-log": (_fed_argv, "soupstock.fedlab.FedResult.to_csv"),
    "fed-checkpoint": (_fed_argv, "soupstock.cli.save_checkpoint"),
}


@pytest.mark.parametrize("site", OTHER_OUTPUTS)
def test_other_outputs_survive_a_failed_rewrite(tmp_path, monkeypatch, site):
    build_argv, writer = OTHER_OUTPUTS[site]
    out = tmp_path / "out"
    argv = build_argv(tmp_path, out)
    assert main(argv) == 0
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert before

    monkeypatch.setattr(writer, _fail_mid_write)
    assert main(argv) == 2

    after = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert after == before  # old bytes intact, and no temporary file left behind


def test_merge_negative_lr_is_a_config_error(tmp_path, capsys):
    doc = merge_doc()
    doc["version"] = 99
    doc["ensemble"]["optimizer"] = {"kind": "adam", "lr": {"kind": "power", "coeff": -1.0, "exponent": -0.5}}
    # Python's json reads NaN and Infinity; as config numbers they are errors too.
    doc["ingredients"][0]["metric"] = float("nan")
    doc["ingredients"][1]["metric"] = 10**400
    doc["ensemble"]["amplification"] = float("inf")
    (tmp_path / "merge.json").write_text(json.dumps(doc))
    assert main(["merge", "--config", str(tmp_path / "merge.json")]) == 1
    err = capsys.readouterr().err
    assert "$.version" in err
    assert "$.ensemble.optimizer" in err and "Power.coeff must be >= 0" in err
    assert "$.ingredients[0].metric: must be finite, got nan" in err
    assert "$.ingredients[1].metric: must be finite, got inf" in err
    assert "$.ensemble.amplification: must be finite, got inf" in err


def test_sweep_cell_names_deterministic_and_order_independent():
    assert sweep_cell_name({"a": 1, "b": 2}) == sweep_cell_name({"b": 2, "a": 1})
    assert sweep_cell_name({"a": 1}) != sweep_cell_name({"a": 2})


def test_unknown_sweep_path_rejected(tmp_path):
    doc = merge_doc()
    doc["sweep"] = {"output.checkpoint": ["a", "b"]}
    with pytest.raises(ConfigError, match="sweep paths"):
        enumerate_sweep(doc)


# --- greedy -----------------------------------------------------------------------


def test_greedy_cli_forces_greedy_and_needs_evaluator(tmp_path, capsys):
    paths = write_ingredients(tmp_path, count=3)
    doc = merge_doc(count=3)
    (tmp_path / "plain.json").write_text(json.dumps(doc))
    assert main(["greedy", "--config", str(tmp_path / "plain.json")]) == 1
    assert "evaluator" in capsys.readouterr().err

    doc["ensemble"]["greedy"] = {
        "enabled": False,
        "evaluator": {"kind": "neg_distance", "target": "ing0.safetensors"},
    }
    (tmp_path / "greedy.json").write_text(json.dumps(doc))
    assert main(["greedy", "--config", str(tmp_path / "greedy.json"), "--quiet"]) == 0
    rows = (tmp_path / "run.csv").read_text().strip().splitlines()
    assert all(row.split(",")[-1] in ("true", "false") for row in rows[1:])


def test_greedy_sweep_without_evaluator_exits_1_before_any_cell_runs(tmp_path, capsys):
    # No ingredient file exists: the evaluator check comes before any is opened.
    doc = merge_doc(count=3)
    doc["sweep"] = {"ensemble.optimizer.lr": [0.1, 0.2]}
    (tmp_path / "sweep.json").write_text(json.dumps(doc))
    assert main(["greedy", "--config", str(tmp_path / "sweep.json"), "--out", str(tmp_path / "g")]) == 1
    assert capsys.readouterr().err == "error: greedy requested but the config has no greedy evaluator\n"
    assert not (tmp_path / "g").exists()


def test_greedy_sweep_turns_greedy_on_in_every_cell(tmp_path):
    write_ingredients(tmp_path, count=3)
    doc = merge_doc(count=3)
    evaluator = {"kind": "neg_distance", "target": "ing0.safetensors"}
    doc["ensemble"]["greedy"] = {"enabled": False, "evaluator": evaluator}
    doc["sweep"] = {"ensemble.greedy.enabled": [False, True]}
    (tmp_path / "sweep.json").write_text(json.dumps(doc))
    assert main(["greedy", "--config", str(tmp_path / "sweep.json"), "--out", str(tmp_path / "g"), "--quiet"]) == 0
    logs = [(tmp_path / "g" / cell / "run.csv").read_text() for cell in sorted(os.listdir(tmp_path / "g"))
            if cell.startswith("cell-")]
    assert len(logs) == 2 and logs[0] == logs[1]
    assert all(row.split(",")[-1] in ("true", "false") for row in logs[0].strip().splitlines()[1:])


def test_a_disabled_evaluator_is_an_input_of_greedy_alone(tmp_path, capsys):
    # A merge reads no disabled evaluator: its target may be missing, and an
    # output may take its path. `greedy` enables it, so it opens the target,
    # and an output at its path clashes.
    write_ingredients(tmp_path, count=3)
    doc = merge_doc(count=3)
    doc["ensemble"]["greedy"] = {"enabled": False,
                                 "evaluator": {"kind": "neg_distance", "target": "target.safetensors"}}
    (tmp_path / "merge.json").write_text(json.dumps(doc))
    for command, code in (("merge", 0), ("greedy", 2)):
        assert main([command, "--config", str(tmp_path / "merge.json"), "--out", str(tmp_path / command),
                     "--quiet"]) == code
    target = tmp_path / "target.safetensors"
    assert capsys.readouterr().err == f"io error: [Errno 2] No such file or directory: '{target}'\n"
    doc["output"]["log"] = "target.safetensors"
    code, err = _run_clashing(tmp_path, capsys, doc, command="greedy")
    assert code == 1
    assert err == f"config error: output.log and ensemble.greedy.evaluator.target share the path {target}\n"
    (tmp_path / "merge.json").write_text(json.dumps(doc))
    assert main(["merge", "--config", str(tmp_path / "merge.json"), "--quiet"]) == 0
    assert target.read_text().startswith("step,")  # the run's log


# --- synth ------------------------------------------------------------------------


def test_synth_cycle_csv_matches_orbit(tmp_path):
    out = tmp_path / "cycle.csv"
    assert main(["synth", "cycle", "--k", "1", "--omega", "1", "--cycles", "3",
                 "-o", str(out), "--quiet"]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "step,x,y,l1_norm"
    assert len(lines) == 1 + 12  # one row per step taken over 3 cycles
    assert lines[1] == "1,0.0,1.0,1.0"
    assert lines[2] == "2,-1.0,0.0,1.0"
    assert lines[3] == "3,0.0,-1.0,1.0"
    assert lines[4] == "4,1.0,0.0,1.0"
    assert lines[5] == "5,0.0,1.0,1.0"


def test_synth_estimator_defaults_match_reference_config():
    cfg = default_estimator_config("cauchy", seed=7)
    variant: Adam = cfg.optimizer.variant
    assert variant.lr == Constant(0.1)
    assert variant.beta1 == variant.beta2 == 0.2
    assert variant.eps == 1e-8
    assert (cfg.population_size, cfg.subsample_size, cfg.trials) == (60000, 300, 300)
    assert (cfg.batch_size, cfg.ensemble_epochs) == (20, 200)
    assert cfg.init_point == (10.0, 10.0)
    gaussian = default_estimator_config("gaussian")
    assert gaussian.optimizer.variant.lr == Constant(0.01)


def test_synth_estimators_small_run(tmp_path):
    out = tmp_path / "est.csv"
    code = main(["synth", "estimators", "--dist", "cauchy", "--seed", "7",
                 "--population", "1000", "--subsample", "50", "--trials", "4",
                 "--batch-size", "10", "--epochs", "10", "-o", str(out), "--quiet"])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "trial,soup_x,soup_y,ame_x,ame_y,dist_soup,dist_ame"
    assert len(lines) == 5


@pytest.mark.parametrize(
    "flag, value, message",
    [("--beta1", "1.5", "adam betas must lie in [0, 1)"), ("--lr", "-1", "must be >= 0")],
    ids=["beta1", "lr"],
)
def test_synth_estimators_bad_optimizer_flag_exit_1(tmp_path, capsys, flag, value, message):
    code = main(["synth", "estimators", "--dist", "cauchy", flag, value,
                 "-o", str(tmp_path / "est.csv"), "--quiet"])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "est.csv").exists()


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["estimators", "--dist", "cauchy", "--lr", "nan"], "--lr", "nan"),
        (["cycle", "--k", "nan", "--cycles", "3"], "--k", "nan"),
        (["convergence", "--alpha=-inf", "--steps", "10"], "--alpha", "-inf"),
        (["wlln", "--epsilon", "inf"], "--epsilon", "inf"),
    ],
    ids=["estimators", "cycle", "convergence", "wlln"],
)
def test_synth_nonfinite_float_flag_exit_1(tmp_path, capsys, argv, flag, value):
    out = tmp_path / "lab.csv"
    assert main(["synth", *argv, "-o", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err == f"error: {flag} must be a finite number, got {value}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["estimators", "--dist", "cauchy", "--trials", "0"],
        ["estimators", "--dist", "cauchy", "--batch-size", "0"],
        ["estimators", "--dist", "cauchy", "--population", "100", "--subsample", "101"],
        ["estimators", "--dist", "cauchy", "--workers", "0"],
        ["estimators", "--dist", "cauchy", "--workers", "-2"],
        ["cycle", "--cycles", "0"],
        ["cycle", "--omega=-1"],
        ["convergence", "--steps", "0"],
        ["convergence", "--omega", "0", "--steps", "100"],
        ["convergence", "--k", "0", "--steps", "100"],
        ["convergence", "--k=-1", "--steps", "100"],
        ["wlln", "--epsilon=-1"],
        ["wlln", "--epsilon", "0"],
        ["wlln", "--sizes", "0"],
        ["wlln", "--sizes", "10,a"],
        ["wlln", "--trials", "0"],
    ],
    ids=["trials", "batch-size", "subsample", "workers-0", "workers-neg", "cycles", "omega", "steps",
         "conv-omega", "conv-k-0", "conv-k-neg", "epsilon-neg", "epsilon-0", "sizes-0", "sizes-a", "wlln-trials"],
)
def test_synth_bad_flag_value_exit_1(tmp_path, capsys, argv):
    out = tmp_path / "lab.csv"
    assert main(["synth", *argv, "-o", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("lab", [["estimators", "--dist", "cauchy"], ["wlln"]], ids=["estimators", "wlln"])
@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_synth_seed_outside_64_bits_exit_1(tmp_path, capsys, lab, seed):
    out = tmp_path / "lab.csv"
    assert main(["synth", *lab, "--seed", seed, "-o", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err == f"error: --seed must be in [0, {2**64 - 1}], got {seed}\n"
    assert not out.exists()


def test_synth_estimators_workers_capped_at_usable_cpus(tmp_path, monkeypatch):
    import soupstock.cli as cli
    import soupstock.synthlab as synthlab

    counts = []
    real = synthlab.run_in_workers

    def run_in_workers(task, workers):
        counts.append(workers)
        return real(task, workers)

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(synthlab, "run_in_workers", run_in_workers)
    argv = ["synth", "estimators", "--dist", "cauchy", "--population", "200", "--subsample", "20",
            "--trials", "5", "--batch-size", "5", "--epochs", "3", "--quiet"]
    for workers in (1, 2, 20, 64):
        assert main([*argv, "--workers", str(workers), "-o", str(tmp_path / f"{workers}.csv")]) == 0
    assert counts == [1, 2, 2, 2]
    want = (tmp_path / "1.csv").read_bytes()
    assert [(tmp_path / f"{workers}.csv").read_bytes() for workers in (2, 20, 64)] == [want] * 3


@pytest.mark.parametrize("workers", ["1", "2"])
def test_synth_estimators_chunk_failure_exits_2(tmp_path, monkeypatch, capsys, workers):
    import soupstock.cli as cli
    import soupstock.synthlab as synthlab

    real = synthlab._trial_estimates

    def estimates(cfg, pts, trials):
        if 4 in trials:  # the second of two chunks, run by a forked child
            raise ValueError("trial 4 failed")
        return real(cfg, pts, trials)

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(synthlab, "_trial_estimates", estimates)
    out = tmp_path / "trials.csv"
    argv = ["synth", "estimators", "--dist", "cauchy", "--population", "200", "--subsample", "20",
            "--trials", "5", "--batch-size", "5", "--epochs", "3", "--workers", workers, "-o", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: trial 4 failed\n"
    assert not out.exists()


def test_synth_wlln_cauchy_rejected(capsys):
    assert main(["synth", "wlln", "--dist", "cauchy"]) == 1
    assert "first moment undefined" in capsys.readouterr().err


def test_synth_wlln_small_run(tmp_path):
    out = tmp_path / "w.csv"
    assert main(["synth", "wlln", "--sizes", "10,100", "--trials", "20",
                 "--seed", "3", "-o", str(out), "--quiet"]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,fraction"
    assert len(lines) == 3


def test_synth_convergence_run(tmp_path, capsys):
    assert main(["synth", "convergence", "--steps", "20000"]) == 0
    assert "converged" in capsys.readouterr().out


def test_synth_convergence_csv_text(tmp_path, monkeypatch):
    trajectory = np.array([[1.0, 0.0], [0.5, -0.25], [1e-05, 0.1]])
    report = ConvergenceReport(radius=1.0, cap=1.0, tail_start=1, max_tail_displacement=0.0,
                               tail_bound=1.0, converged=True, per_step_factor=1.0)
    monkeypatch.setattr("soupstock.synthlab.convergence_check", lambda **kwargs: (trajectory, report))
    out = tmp_path / "conv.csv"
    assert main(["synth", "convergence", "-o", str(out), "--quiet"]) == 0
    assert out.read_bytes() == b"step,x,y,l1_norm\r\n0,1.0,0.0,1.0\r\n1,0.5,-0.25,0.75\r\n2,1e-05,0.1,0.10001\r\n"


@pytest.mark.parametrize("k, omega, message", [
    ("1e200", "1e200", "ingredients must be finite and within the float32 range"),
    ("1e30", "1e30", "ingredients must be finite and within the float32 range"),
    ("1", "1.5e38", "non-finite iterate after step 2 (epoch 1, batch x1; first in tensor 'point')"),
])
def test_synth_convergence_that_leaves_the_floats_exits_2(tmp_path, capsys, k, omega, message):
    out = tmp_path / "conv.csv"
    argv = ["synth", "convergence", "--k", k, "--omega", omega, "--steps", "10", "-o", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not out.exists()


def test_synth_cycle_that_leaves_the_floats_exits_2(tmp_path, capsys):
    out = tmp_path / "cycle.csv"
    argv = ["synth", "cycle", "--k", "1e200", "--omega", "1e200", "--cycles", "1", "-o", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: the cycle leaves the float64 range at step 1 (k=1e+200, omega=1e+200)\n"
    assert captured.out == ""
    assert not out.exists()


# --- fed -------------------------------------------------------------------------


def fed_doc(algorithm, **kw):
    doc = {
        "version": 1,
        "algorithm": algorithm,
        "rounds": 3,
        "sample_size": 2,
        "seed": 5,
        "init": {"values": [0.0, 0.0]},
        "clients": [
            {"id": "c0", "center": {"values": [0.0, 0.0]},
             "optimizer": {"kind": "gd", "lr": 1.0}},
            {"id": "c1", "center": {"values": [2.0, 0.0]},
             "optimizer": {"kind": "gd", "lr": 1.0}},
        ],
        "output": {"log": f"{algorithm}.csv", "checkpoint": f"{algorithm}.safetensors"},
    }
    doc.update(kw)
    return doc


def test_fed_reduction_logs_identical(tmp_path):
    opt = fed_doc("fedopt", server={"kind": "gd", "lr": 1.0})
    soup_ = fed_doc("fedsoup", server_stew={"kind": "gd", "lr": 1.0}, client_soup="linear")
    (tmp_path / "opt.json").write_text(json.dumps(opt))
    (tmp_path / "soup.json").write_text(json.dumps(soup_))
    assert main(["fed", "--config", str(tmp_path / "opt.json"), "--quiet"]) == 0
    assert main(["fed", "--config", str(tmp_path / "soup.json"), "--quiet"]) == 0
    log_opt = (tmp_path / "fedopt.csv").read_text()
    log_soup = (tmp_path / "fedsoup.csv").read_text()
    assert log_opt == log_soup
    final_opt = load_checkpoint(str(tmp_path / "fedopt.safetensors"))
    final_soup = load_checkpoint(str(tmp_path / "fedsoup.safetensors"))
    assert l2_distance(final_opt, final_soup) < 1e-7


def test_fed_two_client_hand_example(tmp_path):
    doc = fed_doc("fedopt", rounds=1, server={"kind": "gd", "lr": 1.0})
    (tmp_path / "fed.json").write_text(json.dumps(doc))
    assert main(["fed", "--config", str(tmp_path / "fed.json"), "--quiet"]) == 0
    final = load_checkpoint(str(tmp_path / "fedopt.safetensors"))
    np.testing.assert_array_equal(final.array("w"), [1.0, 0.0])
    rows = (tmp_path / "fedopt.csv").read_text().strip().splitlines()
    assert rows[1].startswith("1,c0|c1,1.0,")


def test_fed_points_from_files_match_the_same_values(tmp_path):
    doc = fed_doc("fedsoup", server_stew={"kind": "adagrad", "lr": 0.5})
    (tmp_path / "values.json").write_text(json.dumps(doc))
    assert main(["fed", "--config", str(tmp_path / "values.json"), "--out", str(tmp_path / "a"), "--quiet"]) == 0
    for i, entry in enumerate([doc["init"]] + [client["center"] for client in doc["clients"]]):
        point = WeightMap({"w": np.asarray(entry["values"], np.float32)})
        save_checkpoint(point, str(tmp_path / f"p{i}.safetensors"))
    doc["init"] = {"path": "p0.safetensors"}
    for i, client in enumerate(doc["clients"], 1):
        client["center"] = {"path": f"p{i}.safetensors"}
    (tmp_path / "paths.json").write_text(json.dumps(doc))
    assert main(["fed", "--config", str(tmp_path / "paths.json"), "--out", str(tmp_path / "b"), "--quiet"]) == 0
    for name in ("fedsoup.csv", "fedsoup.safetensors"):
        assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "a" / name).read_bytes()


def test_fed_point_file_rewritten_during_the_run_exits_2_without_outputs(tmp_path, monkeypatch, capsys):
    # A point file stays open through the run and is checked unchanged
    # before the log and the checkpoint replace their paths.
    import soupstock.fedlab as fedlab

    doc = fed_doc("fedsoup", server_stew={"kind": "adagrad", "lr": 0.5})
    save_checkpoint(WeightMap({"w": np.asarray([2.0, 0.0], np.float32)}), str(tmp_path / "c1.safetensors"))
    doc["clients"][1]["center"] = {"path": "c1.safetensors"}
    (tmp_path / "fed.json").write_text(json.dumps(doc))
    real_run = fedlab.simulate_fedsoup

    def run_then_change(cfg):
        result = real_run(cfg)
        _rewrite_in_place(tmp_path / "c1.safetensors")
        return result

    monkeypatch.setattr(fedlab, "simulate_fedsoup", run_then_change)
    assert main(["fed", "--config", str(tmp_path / "fed.json"), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    assert capsys.readouterr().err == f"error: {tmp_path / 'c1.safetensors'}: file changed while it was open\n"
    assert list((tmp_path / "out").rglob("*")) == []  # no outputs, no temporaries


def test_fed_schema_mismatch_names_the_client(tmp_path, capsys):
    doc = fed_doc("fedopt", server={"kind": "gd", "lr": 1.0})
    save_checkpoint(WeightMap({"v": np.zeros(2, np.float32)}), str(tmp_path / "odd.safetensors"))
    doc["clients"][1]["center"] = {"path": "odd.safetensors"}
    (tmp_path / "fed.json").write_text(json.dumps(doc))
    assert main(["fed", "--config", str(tmp_path / "fed.json")]) == 2
    assert capsys.readouterr().err == (
        "error: client 'c1' center differs from init: tensor name mismatch: first offender 'v'\n"
    )


@pytest.mark.parametrize("party, line", [
    ("client", "round 2, client 'c0': non-finite iterate after step 1 (epoch 1, batch target; first in tensor 'w')"),
    ("server", "round 2, server: non-finite iterate after step 1 (epoch 1, batch target; first in tensor 'w')"),
], ids=["client", "server"])
def test_fed_step_that_leaves_the_floats_names_the_round_and_party_and_exits_2(tmp_path, capsys, party, line):
    doc = fed_doc("fedopt", server={"kind": "gd", "lr": 1e38 if party == "server" else 1.0})
    if party == "client":
        for client in doc["clients"]:
            client["optimizer"]["lr"] = 1e38
    (tmp_path / "fed.json").write_text(json.dumps(doc))
    assert main(["fed", "--config", str(tmp_path / "fed.json")]) == 2
    assert capsys.readouterr() == ("", f"error: {line}\n")
    assert sorted(os.listdir(tmp_path)) == ["fed.json"]


@pytest.mark.parametrize("algorithm, error", [
    ("fedopt", "$.server: fedopt requires a server optimizer"),
    ("fedsoup", "$.server_stew: fedsoup requires a server_stew optimizer"),
])
def test_fed_without_its_server_optimizer_is_a_config_error(tmp_path, capsys, algorithm, error):
    (tmp_path / "fed.json").write_text(json.dumps(fed_doc(algorithm)))
    assert main(["fed", "--config", str(tmp_path / "fed.json")]) == 1
    assert capsys.readouterr().err == f"config error: {error}\n"


def test_fed_zero_rounds_rejected(tmp_path, capsys):
    doc = fed_doc("fedopt", rounds=0, server={"kind": "gd", "lr": 1.0})
    (tmp_path / "fed.json").write_text(json.dumps(doc))
    assert main(["fed", "--config", str(tmp_path / "fed.json")]) == 1
    assert "$.rounds" in capsys.readouterr().err


def test_fed_config_reports_every_error():
    doc = fed_doc("nope", version=2, sample_size=0, clients=[])
    del doc["rounds"]
    with pytest.raises(ConfigError) as info:
        parse_fed_config(doc)
    assert info.value.errors == [
        "$.rounds: missing required key",
        "$.version: expected 1, got 2",
        "$.algorithm: must be one of ['fedopt', 'fedsoup'], got 'nope'",
        "$.clients: expected a non-empty list",
        "$.sample_size: must be >= 1, got 0",
    ]


def test_a_config_error_pickles_with_its_lines():
    import pickle

    back = pickle.loads(pickle.dumps(ConfigError(["a b", "c"])))
    assert back.errors == ["a b", "c"]
    assert str(back) == "invalid config:\n  a b\n  c"


@pytest.mark.parametrize("version", [True, 1.0, "1"])
def test_version_must_be_the_integer_1(version):
    merge = merge_doc()
    merge["version"] = version
    with pytest.raises(ConfigError) as info:
        parse_merge_config(merge)
    assert info.value.errors == [f"$.version: expected 1, got {version!r}"]
    with pytest.raises(ConfigError) as info:
        parse_fed_config(fed_doc("fedopt", version=version, server={"kind": "gd", "lr": 1.0}))
    assert info.value.errors == [f"$.version: expected 1, got {version!r}"]


def test_fed_sample_size_counts_clients_with_faults_too():
    doc = fed_doc("fedopt", server={"kind": "gd", "lr": 1.0})
    doc["clients"][1]["optimizer"]["lr"] = "fast"
    with pytest.raises(ConfigError) as info:
        parse_fed_config(doc)
    assert info.value.errors == ["$.clients[1].optimizer.lr: expected a schedule object or a number"]
    doc = fed_doc("fedopt", sample_size=3, server={"kind": "gd", "lr": 1.0})
    doc["clients"][1]["optimizer"]["lr"] = "fast"
    with pytest.raises(ConfigError) as info:
        parse_fed_config(doc)
    assert info.value.errors[-1] == "$.sample_size: must be <= number of clients (2)"


def test_seed_fields_take_any_64_bit_seed():
    doc = fed_doc("fedopt", seed=2**64 - 1, server={"kind": "gd", "lr": 1.0})
    assert parse_fed_config(doc).fed.seed == 2**64 - 1
    with pytest.raises(ConfigError) as info:
        parse_fed_config({**doc, "seed": 2**64})
    assert info.value.errors == [f"$.seed: must be <= {2**64 - 1}, got {2**64}"]
    assert parse_merge_config(merge_doc(seed=2**64 - 1)).ensemble.seed == 2**64 - 1
    with pytest.raises(ConfigError) as info:
        parse_merge_config(merge_doc(seed=2**64))
    assert info.value.errors == [f"$.ensemble.seed: must be <= {2**64 - 1}, got {2**64}"]


# --- verify ------------------------------------------------------------------------


def test_verify_single_suite(capsys):
    assert main(["verify", "soup-eq"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "soup-eq" in out


def test_verify_all_suites_pass(capsys):
    assert main(["verify", "all"]) == 0
    lines = capsys.readouterr().out.splitlines()
    passed = [line.split()[1] for line in lines if line.startswith("PASS")]
    assert sorted(passed) == ["adagrad-gd", "convergence", "cycle", "fed-reduction", "soup-eq"]
    assert not any(line.startswith("FAIL") for line in lines)


def test_the_parser_offers_every_suite():
    import soupstock.cli as cli
    import soupstock.verify as verify

    assert cli._SUITE_NAMES == sorted(verify.SUITES)


def test_run_suites_rejects_an_unknown_suite():
    from soupstock.verify import run_suites

    with pytest.raises(ValueError) as info:
        run_suites(["nope"])
    assert str(info.value) == (
        "unknown suite 'nope'; choose from ['soup-eq', 'cycle', 'convergence', 'adagrad-gd', 'fed-reduction', 'all']"
    )


def test_verify_exits_1_naming_the_failed_suites(capsys, monkeypatch):
    import soupstock.verify as verify

    monkeypatch.setitem(verify.SUITES, "cycle", lambda: verify.SuiteResult("cycle", False, "drifted"))
    assert main(["verify", "all"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines[:-1]] == [
        ["PASS", "soup-eq"], ["FAIL", "cycle"], ["PASS", "convergence"], ["PASS", "adagrad-gd"],
        ["PASS", "fed-reduction"],
    ]
    assert lines[1].endswith("drifted")
    assert lines[-1] == "1/5 suites failed"


# --- flags ---------------------------------------------------------------------------


def test_every_command_and_no_group_takes_quiet():
    parser = build_parser()
    commands = [["soup", "a", "-o", "b"], ["merge", "--config", "c"], ["greedy", "--config", "c"],
                ["fed", "--config", "c"], ["verify", "all"], ["synth", "estimators", "--dist", "cauchy"],
                ["synth", "cycle"], ["synth", "convergence"], ["synth", "wlln"]]
    for argv in commands:
        assert (parser.parse_args(argv).quiet, parser.parse_args([*argv, "--quiet"]).quiet) == (False, True)
    with pytest.raises(SystemExit):
        parser.parse_args(["synth", "--quiet", "cycle"])


# --- determinism ---------------------------------------------------------------------


def run_twice_and_compare(tmp_path, build_argv, outputs):
    contents = []
    for run in ("one", "two"):
        run_dir = tmp_path / run
        run_dir.mkdir()
        assert main(build_argv(run_dir)) == 0
        contents.append([(run_dir / o).read_bytes() for o in outputs])
    assert contents[0] == contents[1]


def test_merge_command_byte_deterministic(tmp_path):
    write_ingredients(tmp_path)
    doc = merge_doc(shuffle=True, seed=77, epochs=3)

    def argv(run_dir):
        cfg = tmp_path / "m.json"
        cfg.write_text(json.dumps(doc))
        return ["merge", "--config", str(cfg), "--out", str(run_dir), "--quiet"]

    run_twice_and_compare(tmp_path, argv, ["merged.safetensors", "run.csv"])


def test_synth_commands_byte_deterministic(tmp_path):
    def argv_est(run_dir):
        return ["synth", "estimators", "--dist", "gaussian", "--seed", "9",
                "--population", "500", "--subsample", "40", "--trials", "3",
                "--batch-size", "8", "--epochs", "5",
                "-o", str(run_dir / "est.csv"), "--quiet"]

    run_twice_and_compare(tmp_path, argv_est, ["est.csv"])

    def argv_wlln(run_dir):
        return ["synth", "wlln", "--sizes", "10,100", "--trials", "10", "--seed", "4",
                "-o", str(run_dir / "w.csv"), "--quiet"]

    wlln_dir = tmp_path / "w"
    wlln_dir.mkdir()
    run_twice_and_compare(wlln_dir, argv_wlln, ["w.csv"])


def test_fed_command_byte_deterministic(tmp_path):
    doc = fed_doc("fedsoup", sample_size=1, server_stew={"kind": "adam", "lr": 0.5, "beta1": 0.5, "beta2": 0.9})

    def argv(run_dir):
        cfg = tmp_path / "fed.json"
        cfg.write_text(json.dumps(doc))
        return ["fed", "--config", str(cfg), "--out", str(run_dir), "--quiet"]

    run_twice_and_compare(tmp_path, argv, ["fedsoup.csv", "fedsoup.safetensors"])


# --- config parsing details -------------------------------------------------------------


def test_parse_merge_defaults():
    cfg = parse_merge_config(merge_doc())
    assert cfg.ensemble.epochs == 1 and cfg.ensemble.batch_size == 1
    assert cfg.ensemble.ordering == "given"
    assert cfg.ensemble.n_divisor == 1
    assert (cfg.ensemble.greedy, cfg.evaluator) == (None, None)
    assert cfg.ensemble.amplification == Constant(1.0)
    assert isinstance(cfg.ensemble.optimizer.variant.lr, Harmonic)


def test_parse_merge_leaves_absent_keys_at_the_engine_defaults():
    doc = merge_doc()
    doc["ensemble"] = {"optimizer": {"kind": "gd", "lr": 0.5}}
    cfg = parse_merge_config(doc)
    assert cfg.ensemble == EnsembleConfig(optimizer=OptimizerSpec(GD(lr=Constant(0.5))))
    assert (cfg.ensemble.projection, cfg.ensemble.greedy, cfg.evaluator) == (None, None, None)
    doc["ensemble"].update(pivot_init={"kind": "provided", "path": "init.safetensors"}, n_divisor="auto")
    cfg = parse_merge_config(doc)
    assert cfg.ensemble == EnsembleConfig(optimizer=OptimizerSpec(GD(lr=Constant(0.5))),
                                          pivot_init=ProvidedInit(FileRef("init.safetensors", "ensemble.pivot_init")))
    doc["ensemble"]["pivot_init"] = {"kind": "ingredient", "id": "ing1"}
    cfg = parse_merge_config(doc)
    assert cfg.ensemble.pivot_init == IngredientInit("ing1")


def test_parse_number_shorthand_schedule():
    doc = merge_doc()
    doc["ensemble"]["optimizer"] = {"kind": "gd", "lr": 0.25}
    cfg = parse_merge_config(doc)
    assert cfg.ensemble.optimizer.variant.lr == Constant(0.25)


def test_parse_rejects_duplicate_ingredient_ids():
    doc = merge_doc(count=2)
    doc["ingredients"] = [{"path": "a/x.safetensors"}, {"path": "b/x.safetensors"}]
    with pytest.raises(ConfigError, match="duplicate ingredient id"):
        parse_merge_config(doc)


def test_parse_projection_and_ema():
    doc = merge_doc()
    doc["ensemble"]["pivot_policy"] = {"kind": "ema", "decay": 0.9}
    doc["ensemble"]["projection"] = {"center": "soup", "radius": 2.0}
    cfg = parse_merge_config(doc)
    assert cfg.ensemble.projection == Projection(center=None, radius=2.0)
    doc["ensemble"]["pivot_policy"] = {"kind": "fixed", "decay": 0.9}
    with pytest.raises(ConfigError, match="ema"):
        parse_merge_config(doc)


def test_merge_config_errors_do_not_depend_on_the_string_hash_seed(tmp_path):
    (tmp_path / "empty.json").write_text("{}")
    argv = ["merge", "--config", str(tmp_path / "empty.json")]
    runs = [_main_in_subprocess(argv, PYTHONHASHSEED=seed) for seed in ("1", "2")]
    assert [run.returncode for run in runs] == [1, 1]
    assert runs[0].stderr == runs[1].stderr == "".join(
        f"config error: $.{key}: missing required key\n"
        for key in ("ensemble", "ingredients", "output", "version")
    )


def test_parse_merge_reports_every_bad_ensemble_key_in_order():
    doc = merge_doc(count=2)
    doc["ensemble"] = {
        "optimizer": {"kind": "sgd", "lr": 1.0},
        "pivot_policy": {"kind": "ema"},
        "pivot_init": {"kind": "provided"},
        "amplification": "fast",
        "n_divisor": 0,
        "epochs": 1.5,
        "batch_size": 0,
        "shuffle": "yes",
        "seed": -1,
        "ordering": "random",
        "epoch_lr_reset": 1,
        "record_steps": None,
        "projection": {"center": 3, "radius": 0},
        "greedy": {"enabled": True},
        "mystery": True,
    }
    with pytest.raises(ConfigError) as info:
        parse_merge_config(doc)
    assert info.value.errors == [
        "$.ensemble.mystery: unknown key",
        "$.ensemble.optimizer.kind: must be one of ['adadelta', 'adagrad', 'adam', 'gd'], got 'sgd'",
        "$.ensemble.pivot_policy.decay: missing required key for ema policy",
        "$.ensemble.pivot_init.path: missing required key",
        "$.ensemble.amplification: expected a schedule object or a number",
        "$.ensemble.n_divisor: must be >= 1, got 0",
        "$.ensemble.epochs: expected an integer, got float",
        "$.ensemble.batch_size: must be >= 1, got 0",
        "$.ensemble.shuffle: expected a boolean, got str",
        "$.ensemble.seed: must be >= 0, got -1",
        "$.ensemble.ordering: must be one of ['given', 'metric_asc', 'metric_desc'], got 'random'",
        "$.ensemble.epoch_lr_reset: expected a boolean, got int",
        "$.ensemble.record_steps: expected a boolean, got NoneType",
        "$.ensemble.projection.center: expected 'soup' or a checkpoint path",
        "$.ensemble.projection.radius: must be > 0.0, got 0",
        "$.ensemble.greedy: enabled greedy runs need a neg_distance evaluator",
    ]


def test_sweep_reports_the_errors_of_every_bad_cell_in_order():
    doc = merge_doc(count=2)
    doc["ensemble"] = {"optimizer": {"kind": "gd", "lr": 1.0}}
    doc["sweep"] = {
        "ensemble.pivot_init": [
            {"kind": "soup"},
            {"kind": "ingredient", "id": 3, "path": "x"},
            {"kind": "provided"},
        ],
        "ensemble.epochs": [2],
    }
    with pytest.raises(ConfigError) as info:
        enumerate_sweep(doc)
    assert info.value.errors == [
        "cell-98fee16dd767: $.ensemble.pivot_init.path: unknown key",
        "cell-98fee16dd767: $.ensemble.pivot_init.id: expected a string, got int",
        "cell-c341d82d0a08: $.ensemble.pivot_init.path: missing required key",
    ]


def _merge_errors(**ensemble):
    doc = merge_doc()
    doc["ensemble"] = ensemble
    with pytest.raises(ConfigError) as info:
        parse_merge_config(doc)
    return info.value.errors


def test_an_optimizer_reports_every_bad_key():
    assert _merge_errors(optimizer={"kind": "adam", "lr": "x", "beta1": -1, "eps": 0}) == [
        "$.ensemble.optimizer.lr: expected a schedule object or a number",
        "$.ensemble.optimizer.beta1: must be >= 0.0, got -1",
        "$.ensemble.optimizer.eps: must be > 0.0, got 0",
    ]


def test_a_negative_weight_decay_hides_no_other_optimizer_key():
    optimizer = {"kind": "adam", "lr": 0.1, "weight_decay": -1, "beta2": "y", "m0": None, "standard_form": 1}
    assert _merge_errors(optimizer=optimizer) == [
        "$.ensemble.optimizer.weight_decay: must be >= 0.0, got -1",
        "$.ensemble.optimizer.beta2: expected a number, got str",
        "$.ensemble.optimizer.m0: expected a number, got NoneType",
        "$.ensemble.optimizer.standard_form: expected a boolean",
    ]


def test_an_ensemble_without_an_optimizer_reports_its_other_keys():
    assert _merge_errors(epochs=0, schedule=1, amplification={"kind": "power", "coeff": "a", "exponent": []}) == [
        "$.ensemble.schedule: unknown key",
        "$.ensemble.optimizer: missing required key",
        "$.ensemble.amplification.coeff: expected a number, got str",
        "$.ensemble.amplification.exponent: expected a number, got list",
        "$.ensemble.epochs: must be >= 1, got 0",
    ]


def test_a_fed_client_reports_every_bad_key():
    doc = fed_doc("fedopt", sample_size=1, server={"kind": "gd", "lr": 1.0})
    doc["clients"][0].update(
        center={"values": [1.0, "x", None]},
        optimizer={"kind": "adagrad", "lr": "fast", "eps": -1},
        local_steps=0,
    )
    with pytest.raises(ConfigError) as info:
        parse_fed_config(doc)
    assert info.value.errors == [
        "$.clients[0].center.values[1]: expected a number, got str",
        "$.clients[0].center.values[2]: expected a number, got NoneType",
        "$.clients[0].optimizer.lr: expected a schedule object or a number",
        "$.clients[0].optimizer.eps: must be > 0.0, got -1",
        "$.clients[0].local_steps: must be >= 1, got 0",
    ]


def test_fed_point_values_beyond_float32_are_a_config_error(tmp_path, capsys):
    largest = float(np.finfo(np.float32).max)
    doc = fed_doc("fedopt", server={"kind": "gd", "lr": 1.0}, init={"values": [1e39, largest]})
    doc["clients"][1]["center"] = {"values": [-1e39, -largest]}
    (tmp_path / "fed.json").write_text(json.dumps(doc))
    with no_warnings():
        assert main(["fed", "--config", str(tmp_path / "fed.json"), "--quiet"]) == 1
    assert capsys.readouterr().err == (
        "config error: $.init.values[0]: overflows float32, got 1e+39\n"
        "config error: $.clients[1].center.values[0]: overflows float32, got -1e+39\n"
    )
    assert not (tmp_path / "fedopt.csv").exists()
    doc["init"]["values"][0] = 0.0
    doc["clients"][1]["center"]["values"][0] = 0.0
    assert parse_fed_config(doc).fed.init == WeightMap({"w": np.array([0.0, largest], dtype=np.float32)})


def test_fed_duplicate_client_ids_are_a_config_error(tmp_path, capsys):
    doc = fed_doc("fedopt", server={"kind": "gd", "lr": 1.0})
    doc["clients"][1]["id"] = "c0"
    (tmp_path / "fed.json").write_text(json.dumps(doc))
    assert main(["fed", "--config", str(tmp_path / "fed.json"), "--quiet"]) == 1
    assert capsys.readouterr().err == "config error: $.clients[1].id: duplicate client id 'c0'\n"
    assert not (tmp_path / "fedopt.csv").exists()


def test_every_json_example_in_the_readme_parses():
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    blocks = [block.split("```", 1)[0] for block in text.split("```json\n")[1:]]
    kinds = []
    for block in blocks:
        doc = json.loads(block)
        if "algorithm" in doc:
            parse_fed_config(doc)
            kinds.append("fed")
        else:
            enumerate_sweep(doc)
            kinds.append("merge")
    assert sorted(kinds) == ["fed", "merge"]
