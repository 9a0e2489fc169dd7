"""Spans around the calls into each soupstock layer, recorded from outside.

`install` (run inside the traced child) wraps each target function and binds
the wrapper everywhere the original is bound: a `from .x import f` call site
holds its own reference, so patching only the home module would miss it.
Spans (name, start, end, parent) stay in memory and `dump` writes them once,
after the program's work ends. `summarise` (run by the benchmark) turns a
span file into per-layer totals, counts and self times.
"""

from __future__ import annotations

import sys
import time

import numpy as np

# span name -> functions (home module, attribute) whose calls it covers
TARGETS: dict[str, tuple[tuple[str, str], ...]] = {
    "config.parse": (("soupstock.config", "load_json"), ("soupstock.config", "enumerate_sweep")),
    "weightstore.load": (("soupstock.weightstore", "load_checkpoint"),),
    "weightstore.save": (("soupstock.weightstore", "save_checkpoint"),),
    "weightstore.norm": (("soupstock.weightstore", "global_l2_norm"), ("soupstock.weightstore", "l2_distance")),
    "pseudograd.soup": (("soupstock.pseudograd", "soup"),),
    "pseudograd.pseudogradient": (("soupstock.pseudograd", "pseudogradient"),),
    "pseudograd.schedule": (("soupstock.pseudograd", "schedule_eval"),),
    "optim.step": (("soupstock.optim", "optimizer_step"),),
    "engine.run": (("soupstock.engine", "run_ensemble"), ("soupstock.engine", "greedy_run")),
    "rng.stream": (("soupstock.rng", "stream"),),
    "synthlab.trials": (("soupstock.synthlab", "run_estimator_trials"),),
    "synthlab.population": (("soupstock.synthlab", "sample_population"),),
}
ROOT_SPAN = "cli.main"
NAMES = [ROOT_SPAN, *TARGETS]


class Recorder:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, int] | None] = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn):
        name_id = NAMES.index(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent)

        return traced

    def install(self) -> list[str]:
        """Wrap every target that exists; returns the targets not found."""
        wrappers = {}
        missing = []
        for name, sites in TARGETS.items():
            for module, attr in sites:
                fn = getattr(sys.modules.get(module), attr, None)
                if fn is None:
                    missing.append(f"{module}.{attr}")
                else:
                    wrappers[id(fn)] = (fn, self.wrap(name, fn))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "soupstock" or mod_name.startswith("soupstock.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
        return missing

    def dump(self, path: str, run_id: str) -> None:
        spans = np.array(self.spans, dtype=np.int64).reshape(-1, 4)
        np.savez(path, spans=spans, names=np.array(NAMES), run_id=np.array(run_id))


def summarise(path: str) -> dict[str, dict[str, float]]:
    """Per span name: total seconds, self seconds and calls."""
    with np.load(path) as data:
        spans, names = data["spans"], [str(n) for n in data["names"]]
    name_id, start, end, parent = spans.T
    dur = (end - start).astype(np.float64) / 1e9
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(spans))
    self_time = dur - child
    parent_name = np.where(has_parent, name_id[np.maximum(parent, 0)], -1)
    out = {}
    for i, name in enumerate(names):
        mask = name_id == i
        out[name] = {
            "s": float(dur[mask].sum()),
            "self_s": float(self_time[mask].sum()),
            "calls": int(mask.sum()),
        }
    out["optim.step"]["calls_in_engine"] = int(
        ((name_id == names.index("optim.step")) & (parent_name == names.index("engine.run"))).sum()
    )
    return out
