import json
import os
import struct
import subprocess
import sys
import time
import tracemalloc
from contextlib import ExitStack

import numpy as np
import pytest

from soupstock.cli import main
from soupstock.config import (
    ConfigError,
    GreedySpec,
    enumerate_sweep,
    parse_fed_config,
    parse_merge_config,
    sweep_cell_name,
)
from soupstock.engine import EnsembleConfig, Ingredient, IngredientInit, run_ensemble
from soupstock.optim import GD, Adam, OptimizerSpec
from soupstock.pseudograd import Constant, Harmonic
from soupstock.synthlab import default_estimator_config
from soupstock.weightstore import WeightMap, l2_distance, load_checkpoint, open_checkpoint, save_checkpoint

from conftest import another_thread_running


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


def test_merge_sweep_loads_ingredients_once(tmp_path, monkeypatch):
    import soupstock.cli as cli

    write_ingredients(tmp_path, count=3)
    doc = merge_doc(count=3)
    doc["sweep"] = {"ensemble.optimizer.weight_decay": [0.0, 0.1], "ensemble.n_divisor": [1, 3]}
    (tmp_path / "sweep.json").write_text(json.dumps(doc))
    opened, loaded = [], []
    monkeypatch.setattr(cli, "open_checkpoint", lambda path: opened.append(path) or open_checkpoint(path))
    monkeypatch.setattr(cli, "load_checkpoint", lambda path: loaded.append(path) or load_checkpoint(path))
    assert main(["merge", "--config", str(tmp_path / "sweep.json"), "--out", str(tmp_path / "g"), "--quiet"]) == 0
    assert len(opened) == 3 and loaded == []


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
    with pytest.warns(RuntimeWarning):
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
    with pytest.warns(RuntimeWarning):
        code = main(["merge", "--config", str(tmp_path / "sweep.json"), "--out", str(tmp_path / "g"), "--quiet"])
    assert code == 2
    manifest = {entry["overrides"]["ensemble.optimizer.lr"]: entry
                for entry in json.loads((tmp_path / "g" / "sweep_manifest.json").read_text())}
    assert manifest[0.5]["status"] == "ok"
    assert manifest[1e30]["status"] == "error"
    assert "non-finite iterate" in manifest[1e30]["error"]
    assert not (tmp_path / "g" / manifest[1e30]["cell"] / "merged.safetensors").exists()


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
    doc = merge_doc(count=3, shuffle=True, record_steps=True,
                    optimizer={"kind": "adam", "lr": 0.01, "weight_decay": 0.01})
    doc["sweep"] = {"ensemble.batch_size": [2, 1, 4, 3]}  # 4 > 3 ingredients fails its cell
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
    assert [entry["status"] for entry in manifest] == ["ok", "ok", "error", "ok"]
    assert manifest[2]["error"] == "batch_size 4 exceeds the 3 ingredients in the sweep"
    assert sorted(parallel) == sorted(
        [f"{entry['cell']}/{name}" for entry in manifest if entry["status"] == "ok"
         for name in ("merged.safetensors", "run.csv")] + ["sweep_manifest.json"]
    )


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


# (ensemble overrides, greedy acceptance on, the model-size buffers a cell holds at its peak)
CELL_VARIANTS = pytest.mark.parametrize(
    "ensemble, greedy, buffers",
    [
        ({}, False, 1),  # GD with an adaptive pivot: the iterate alone
        ({"optimizer": {"kind": "adagrad", "lr": 0.1}}, False, 2),
        ({"optimizer": {"kind": "adam", "lr": 0.1}, "pivot_policy": {"kind": "ema", "decay": 0.5}}, False, 4),
        ({"optimizer": {"kind": "adadelta", "lr": 0.1}, "projection": {"center": "soup", "radius": 1.0}},
         False, 5),
        ({"optimizer": {"kind": "adam", "lr": 0.1}}, True, 7),
        ({"optimizer": {"kind": "adam", "lr": 0.1}, "pivot_policy": {"kind": "fixed"},
          "pivot_init": {"kind": "provided", "path": "ing1.safetensors"},
          "projection": {"center": "ing2.safetensors", "radius": 1.0}}, False, 7),
    ],
    ids=["gd", "adagrad", "adam-ema", "adadelta-projection", "adam-greedy", "adam-fixed-provided-projection"],
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
    ingredients = [Ingredient(f"ing{i}", model) for i in range(3)]
    cell_bytes = 4 * 250 * buffers
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 4)
    for available, workers in [(10**12, 4), (3 * cell_bytes, 3), (2 * cell_bytes - 1, 1), (0, 1)]:
        monkeypatch.setattr(cli, "_available_memory", lambda: available)
        assert cli._sweep_workers(cells, ingredients) == workers
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    assert cli._sweep_workers(cells, ingredients) == 1


@CELL_VARIANTS
def test_a_cell_peaks_within_one_model_size_of_its_buffer_count(tmp_path, ensemble, greedy, buffers):
    import soupstock.cli as cli

    size = 1 << 20  # 16 blocks: the per-block temporaries stay well under one model size
    rng = np.random.default_rng(0)
    for i in range(3):
        weights = WeightMap({"w": rng.standard_normal(size).astype(np.float32)})
        save_checkpoint(weights, str(tmp_path / f"ing{i}.safetensors"))
    cells = enumerate_sweep(cell_doc(ensemble, greedy))
    [(_, cfg)] = cells
    assert cli._cell_buffers(cfg) == buffers
    with ExitStack() as stack:
        ingredients = cli._open_ingredients(cells, str(tmp_path), stack)
        tracemalloc.start()
        try:
            cli._run_merge_cell(cfg, str(tmp_path), str(tmp_path / "out"), ingredients, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert abs(peak / (4 * size) - buffers) <= 1


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


def _rewrite_in_place(path):
    st = path.stat()
    with open(path, "r+b") as fh:  # same inode, same size, new contents
        fh.seek(st.st_size - 4)
        fh.write(np.float32(0.25).tobytes())
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))


def _truncate_in_place(path):
    os.truncate(path, path.stat().st_size - 4)


@pytest.mark.parametrize(
    "change, during_run, message",
    [
        (_rewrite_in_place, False, "file changed while it was open"),
        (_truncate_in_place, False, "file changed while it was open"),
        (_truncate_in_place, True, "truncated buffer"),
    ],
    ids=["rewritten", "truncated", "truncated-mid-run"],
)
def test_merge_ingredient_changed_after_open_exits_2_without_outputs(
    tmp_path, monkeypatch, capsys, change, during_run, message
):
    # The change comes after the files were opened: before the run reads
    # them, or after it has read them and before the outputs are written.
    import soupstock.cli as cli

    write_ingredients(tmp_path, count=3)
    (tmp_path / "merge.json").write_text(json.dumps(merge_doc(count=3)))
    real_run = cli.run_ensemble

    def run_with_change(cfg, ingredients, **kwargs):
        if during_run:
            change(tmp_path / "ing1.safetensors")
        result = real_run(cfg, ingredients, **kwargs)
        change(tmp_path / "ing1.safetensors")
        return result

    monkeypatch.setattr(cli, "run_ensemble", run_with_change)
    assert main(["merge", "--config", str(tmp_path / "merge.json"), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    assert f"ing1.safetensors: {message}" in capsys.readouterr().err
    assert list((tmp_path / "out").rglob("*")) == []  # no outputs, no temporaries


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
    tracemalloc.start()
    try:
        assert main(["merge", "--config", str(tmp_path / "merge.json"), "--quiet"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * model


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


def _main_in_subprocess(argv, **env):
    """main(argv) in a fresh interpreter with the extra environment variables `env`."""
    import soupstock

    src = os.path.dirname(os.path.dirname(os.path.abspath(soupstock.__file__)))
    code = "import sys; from soupstock.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        env={**os.environ, "PYTHONPATH": src, **env},
        capture_output=True, text=True, timeout=300,
    )


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
    real_run = cli.run_ensemble

    def recording_run(cfg, ingredients, **kwargs):
        workers.append(kwargs["workers"])
        return real_run(cfg, ingredients, **kwargs)

    monkeypatch.setattr(cli, "run_ensemble", recording_run)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 5)
    monkeypatch.setattr(cli, "_sweep_workers", lambda *args: 2)
    monkeypatch.setattr(cli, "run_in_workers", lambda tasks, workers: [task() for task in tasks])
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

    def estimates(cfg, trials):
        if 4 in trials:  # the second of two chunks, run by a forked child
            raise ValueError("trial 4 failed")
        return real(cfg, trials)

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
    assert parse_fed_config(doc).seed == 2**64 - 1
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
    assert cfg.greedy.enabled is False
    assert cfg.ensemble.amplification == Constant(1.0)
    assert isinstance(cfg.ensemble.optimizer.variant.lr, Harmonic)


def test_parse_merge_leaves_absent_keys_at_the_engine_defaults():
    doc = merge_doc()
    doc["ensemble"] = {"optimizer": {"kind": "gd", "lr": 0.5}}
    cfg = parse_merge_config(doc)
    assert cfg.ensemble == EnsembleConfig(optimizer=OptimizerSpec(GD(lr=Constant(0.5))))
    assert (cfg.pivot_init_path, cfg.projection, cfg.greedy) == (None, None, GreedySpec())
    doc["ensemble"].update(pivot_init={"kind": "provided", "path": "init.safetensors"}, n_divisor="auto")
    cfg = parse_merge_config(doc)
    assert cfg.pivot_init_path == "init.safetensors"
    assert cfg.ensemble == EnsembleConfig(optimizer=OptimizerSpec(GD(lr=Constant(0.5))))
    doc["ensemble"]["pivot_init"] = {"kind": "ingredient", "id": "ing1"}
    cfg = parse_merge_config(doc)
    assert cfg.pivot_init_path is None and cfg.ensemble.pivot_init == IngredientInit("ing1")


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
    assert cfg.projection.radius == 2.0
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
