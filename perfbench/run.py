"""The soupstock benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every invocation of the program is one fresh
`soupstock` process (through launch.py), one worker, closed loop: the next
starts only after the previous one exits. Invocations repeat for S seconds
(at least MIN_INVOCATIONS) and the timings reported are their medians.
Inputs come from --seed alone and are built once per seed, before anything
is timed. Every invocation's outputs are checked (checks.py); a failed check
or a non-zero exit counts as a failed invocation.

Workloads, each putting a different layer in front:

* estimator-cauchy: `soupstock synth estimators` with the criterion-8
  reference config. Two-element tensors and 3,000 steps per trial, so
  engine/optim per-call overhead, schedule evaluation and `rng.stream`
  dominate; there is no codec work.
* merge-many-small: `soupstock merge`, 8 ingredients of 2000 x 500 float32
  tensors, 2x2 sweep over lr and weight decay. Per-tensor Python loops and
  header parsing dominate; each cell reads 8 files and writes 3.
* merge-few-large: `soupstock merge`, one cell, 8 ingredients of 20 x 500k
  float32 tensors. Per-element bandwidth and peak memory dominate.

--trace 0 prints the end-to-end metrics. --trace 1 runs the same loop, then
the import-time breakdown and one more invocation with spans around each
layer's public functions (tracer.py), and prints the per-layer metrics. The
last stdout line is the result object; the line before it is the run record
(machine, versions, seed, commit, sample quartiles, output digests), also
written under .bench_out/records/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checks import check_estimators, check_merge
from fixtures import BATCH_SIZE, N_INGREDIENTS, STEPS_PER_EPOCH, build_merge_fixture, schema
from tracer import summarise

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
LAUNCH = HERE / "launch.py"

MIN_INVOCATIONS = 3
IMPORTTIME_PROBES = 3
DEADLINE_S = 170.0  # a whole run must end within 180 s

# Criterion 8's reference configuration (the CLI defaults for --dist cauchy),
# spelled out so that a change of defaults cannot change the workload.
ESTIMATOR_TRIALS = 20
ESTIMATOR_FLAGS = {
    "--population": 60000, "--subsample": 300, "--batch-size": 20, "--epochs": 200,
    "--lr": 0.1, "--beta1": 0.2, "--beta2": 0.2, "--eps": 1e-8, "--workers": 1,
}
MERGE_ENSEMBLE = {
    "optimizer": {"kind": "adam", "lr": 0.01, "beta1": 0.8, "beta2": 0.99, "eps": 1e-8, "weight_decay": 0.01},
    "pivot_policy": {"kind": "adaptive"},
    "pivot_init": {"kind": "soup"},
    "batch_size": BATCH_SIZE,
    "shuffle": True,
    "ordering": "metric_desc",
    "record_steps": True,
}


@dataclass(frozen=True)
class Workload:
    name: str
    params: int  # parameters each optimizer step updates
    steps: int  # optimizer steps per invocation
    shapes: dict | None = None  # merge ingredient schema
    epochs: int = 0
    sweep: dict | None = None
    cells: int = 1

    def argv(self, fixture: Path, out: Path, seed: int) -> list[str]:
        if self.shapes is None:
            flags = [str(x) for kv in ESTIMATOR_FLAGS.items() for x in kv]
            return ["synth", "estimators", "--dist", "cauchy", "--seed", str(seed),
                    "--trials", str(ESTIMATOR_TRIALS), *flags, "-o", str(out / "trials.csv"), "--quiet"]
        return ["merge", "--config", str(fixture / "merge.json"), "--out", str(out), "--quiet"]

    def build(self, fixture: Path, seed: int) -> None:
        if self.shapes is not None:
            build_merge_fixture(fixture, self.name, seed, self.shapes,
                                {**MERGE_ENSEMBLE, "epochs": self.epochs}, self.sweep)
        else:
            fixture.mkdir(parents=True)

    def check(self, out: Path) -> tuple[list[str], str]:
        if self.shapes is None:
            return check_estimators(out / "trials.csv", ESTIMATOR_TRIALS)
        return check_merge(out, self.shapes, self.epochs * STEPS_PER_EPOCH, self.cells)


def _merge(name: str, tensors: int, shape: tuple[int, ...], epochs: int, sweep: dict | None) -> Workload:
    cells = 1
    for values in (sweep or {}).values():
        cells *= len(values)
    return Workload(name=name, params=tensors * int(np.prod(shape)), steps=cells * epochs * STEPS_PER_EPOCH,
                    shapes=schema(tensors, shape), epochs=epochs, sweep=sweep, cells=cells)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("estimator-cauchy", params=2,
                 steps=ESTIMATOR_TRIALS * ESTIMATOR_FLAGS["--epochs"]
                 * (ESTIMATOR_FLAGS["--subsample"] // ESTIMATOR_FLAGS["--batch-size"])),
        _merge("merge-many-small", 2000, (500,), epochs=2,
               sweep={"ensemble.optimizer.lr": [0.01, 0.02], "ensemble.optimizer.weight_decay": [0.0, 0.1]}),
        _merge("merge-few-large", 20, (1000, 500), epochs=3, sweep=None),
    )
}


@dataclass
class Sample:
    wall_s: float
    setup_s: float
    main_s: float  # launch until main returned
    rss_mb: float
    code: int
    problems: list[str]
    digest: str = ""


def run_child(argv: list[str], trace: Path | None, deadline: float) -> Sample:
    stamp = OUT / "stamp"
    stamp.unlink(missing_ok=True)
    cmd = [sys.executable, str(LAUNCH), str(stamp), str(trace) if trace else "-", *argv]
    with open(OUT / "child.stderr", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err, cwd=ROOT)
        timer = threading.Timer(max(deadline - start, 1.0), proc.kill)
        timer.start()
        status = None
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.monotonic()
        finally:
            timer.cancel()
            if status is None:  # interrupted: do not leave the child behind
                proc.kill()
                proc.wait()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    problems = []
    stamps = [float(t) for t in stamp.read_text().split()] if stamp.exists() else []
    if code != 0:
        tail = (OUT / "child.stderr").read_text(errors="replace").strip().splitlines()[-3:]
        problems.append(f"exit code {code}: " + " | ".join(tail))
    if not stamps:
        problems.append("no set-up timestamp")
    ready = stamps[0] if stamps else end
    main_end = stamps[1] if len(stamps) > 1 else end
    return Sample(wall_s=end - start, setup_s=ready - start, main_s=main_end - start,
                  rss_mb=usage.ru_maxrss * 1024 / 1e6, code=code, problems=problems)


def invoke(wl: Workload, fixture: Path, seed: int, deadline: float, trace: Path | None = None) -> Sample:
    out = OUT / "work" / wl.name
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    sample = run_child(wl.argv(fixture, out, seed), trace, deadline)
    if sample.code == 0:
        try:
            problems, sample.digest = wl.check(out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems = [f"outputs unreadable: {exc!r}"]
        sample.problems += problems
    shutil.rmtree(out)
    return sample


def prepare_fixture(wl: Workload, seed: int) -> Path:
    """Inputs for (workload, seed), reused across runs; other seeds' inputs are removed."""
    fixtures = OUT / "fixtures"
    fixture = fixtures / f"{wl.name}-{seed}"
    if (fixture / "complete").exists():
        return fixture
    for stale in fixtures.glob(f"{wl.name}-*"):
        shutil.rmtree(stale)
    wl.build(fixture, seed)
    (fixture / "complete").write_text("")
    return fixture


def check_determinism(fixture: Path, samples: list[Sample]) -> None:
    """Every invocation of one seed, in this run and earlier ones, writes identical bytes."""
    expected_path = fixture / "expected_digest"
    digests = [s.digest for s in samples if not s.problems]
    if not digests:
        return
    expected = expected_path.read_text() if expected_path.exists() else digests[0]
    expected_path.write_text(expected)
    for s in samples:
        if not s.problems and s.digest != expected:
            s.problems.append(f"outputs differ from an earlier run of this seed ({s.digest[:12]} vs {expected[:12]})")


def import_times(deadline: float) -> dict[str, float]:
    """Cumulative import seconds of soupstock.cli and soupstock.synthlab, median of several probes."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import soupstock.cli"
    found: dict[str, list[float]] = {"soupstock.cli": [], "soupstock.synthlab": []}
    for _ in range(IMPORTTIME_PROBES):
        res = subprocess.run([sys.executable, "-X", "importtime", "-c", code], cwd=ROOT, capture_output=True,
                             text=True, timeout=max(deadline - time.monotonic(), 1.0), check=True)
        for line in res.stderr.splitlines():
            fields = [f.strip() for f in line.removeprefix("import time:").split("|")]
            if len(fields) == 3 and fields[2] in found:
                found[fields[2]].append(int(fields[1]) / 1e6)
    return {name: statistics.median(v) if v else 0.0 for name, v in found.items()}


def layer_metrics(wl: Workload, spans: dict, imports: dict, traced: Sample, untraced_main_s: float) -> dict:
    file_mb = wl.params * 4 / 1e6  # computed from array sizes: every file holds one model

    def rate(calls: int, seconds: float) -> float:
        return calls * file_mb / seconds if seconds > 0 else 0.0

    load, save, step, run = spans["weightstore.load"], spans["weightstore.save"], spans["optim.step"], spans["engine.run"]
    engine_steps = step["calls_in_engine"]
    values = {
        "weightstore.load_s": (load["s"], "s"),
        "weightstore.load_calls": (load["calls"], "count"),
        "weightstore.load_mb_per_s": (rate(load["calls"], load["s"]), "MB/s"),
        "weightstore.save_s": (save["s"], "s"),
        "weightstore.save_mb_per_s": (rate(save["calls"], save["s"]), "MB/s"),
        "weightstore.norm_s": (spans["weightstore.norm"]["s"], "s"),
        "weightstore.norm_calls": (spans["weightstore.norm"]["calls"], "count"),
        "pseudograd.soup_s": (spans["pseudograd.soup"]["s"], "s"),
        "pseudograd.pseudogradient_s": (spans["pseudograd.pseudogradient"]["s"], "s"),
        "pseudograd.schedule_calls": (spans["pseudograd.schedule"]["calls"], "count"),
        "optim.step_s": (step["s"], "s"),
        "optim.step_calls": (step["calls"], "count"),
        "optim.ns_per_param": (step["s"] * 1e9 / (step["calls"] * wl.params) if step["calls"] else 0.0, "ns"),
        "optim.us_per_step": (step["s"] * 1e6 / step["calls"] if step["calls"] else 0.0, "us"),
        "engine.run_s": (run["s"], "s"),
        "engine.self_s": (run["self_s"], "s"),
        "engine.steps": (engine_steps, "count"),
        "engine.self_us_per_step": (run["self_s"] * 1e6 / engine_steps if engine_steps else 0.0, "us"),
        "rng.stream_s": (spans["rng.stream"]["s"], "s"),
        "rng.stream_calls": (spans["rng.stream"]["calls"], "count"),
        "synthlab.self_s": (spans["synthlab.trials"]["self_s"], "s"),
        "synthlab.population_s": (spans["synthlab.population"]["s"], "s"),
        "cli.import_s": (imports["soupstock.cli"], "s"),
        "synthlab.import_s": (imports["soupstock.synthlab"], "s"),
        "config.parse_s": (spans["config.parse"]["s"], "s"),
        "trace.overhead_frac": (traced.main_s / untraced_main_s - 1.0, "fraction"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def _filled(samples: list[Sample], elapsed: float, seconds: float) -> bool:
    """True once another invocation would overshoot `seconds` by more than stopping now falls short."""
    typical = statistics.median(s.wall_s for s in samples)
    return elapsed + typical / 2 >= seconds


def _quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "q1": q[0], "median": statistics.median(values), "q3": q[2]}


def _read_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None  # an exported source tree has no git metadata
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else None


def machine() -> dict:
    llc = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if (index / "level").is_file() and (index / "level").read_text().strip() == "3":
            llc = (index / "size").read_text().strip()
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "llc": llc,
        "ram_gb": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 1e9, 2),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "soupstock" / "cli.py").is_file():
        print(f"error: no soupstock sources at {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    wl = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    fixture = prepare_fixture(wl, args.seed)

    run_child([], None, deadline)  # warm-up: compiles bytecode, fills the page cache; not counted
    samples: list[Sample] = []
    start = time.monotonic()
    while len(samples) < MIN_INVOCATIONS or not _filled(samples, time.monotonic() - start, args.seconds):
        samples.append(invoke(wl, fixture, args.seed, deadline))
    measured_s = time.monotonic() - start
    if args.trace:
        imports = import_times(deadline)
        trace_file = OUT / f"trace-{wl.name}.npz"
        trace_file.unlink(missing_ok=True)
        traced = invoke(wl, fixture, args.seed, deadline, trace=trace_file)
    checked = samples + [traced] if args.trace else samples
    check_determinism(fixture, checked)

    failed = [s for s in checked if s.problems]
    ok = [s for s in samples if not s.problems] or samples
    wall = [s.wall_s for s in ok]
    updates = wl.params * wl.steps
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "commit": _read_commit(), "machine": machine(),
        "input": {"params_per_step": wl.params, "optimizer_steps": wl.steps, "param_updates": updates,
                  "ingredients": N_INGREDIENTS if wl.shapes else None,
                  "tensors": len(wl.shapes) if wl.shapes else None,
                  "estimator_trials": None if wl.shapes else ESTIMATOR_TRIALS},
        "invocations": len(samples), "measured_s": measured_s,
        "wall_s": _quartiles(wall), "setup_s": _quartiles([s.setup_s for s in samples]),
        "peak_rss_mb": _quartiles([s.rss_mb for s in ok]),
        "samples": [{"wall_s": s.wall_s, "setup_s": s.setup_s, "rss_mb": s.rss_mb} for s in samples],
        "output_sha256": sorted({s.digest for s in samples if s.digest}),
    }
    if args.trace:
        record["trace_file"] = str(trace_file.relative_to(ROOT))
        record["computed_byte_rates"] = "MB/s = array bytes of the files moved / span seconds, from the fixture's array sizes"
        metrics = {}
        if not traced.problems:
            untraced_main = statistics.median(s.main_s for s in ok)
            metrics = layer_metrics(wl, summarise(str(trace_file)), imports, traced, untraced_main)
    else:
        metrics = {
            "wall_s": {"value": statistics.median(wall), "unit": "s"},
            "setup_s": {"value": record["setup_s"]["median"], "unit": "s"},
            "param_updates_per_s": {
                "value": statistics.median(updates / (s.wall_s - s.setup_s) for s in ok), "unit": "1/s"},
            "peak_rss_mb": {"value": record["peak_rss_mb"]["median"], "unit": "MB"},
            "ok_rate": {"value": 1.0 - len(failed) / len(checked), "unit": "fraction"},
        }
    for s in failed:
        print(f"failed invocation: {'; '.join(s.problems)}", file=sys.stderr)
    record["failed"] = len(failed)
    record["metrics"] = metrics
    (OUT / "records").mkdir(exist_ok=True)
    (OUT / "records" / f"{wl.name}-{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(record))
    print(json.dumps({"correct": not failed, "attempted": len(checked), "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
