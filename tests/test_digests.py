"""Every output byte of a fixed matrix of runs, pinned by its SHA-256.

A refactor that promises byte-identical outputs is checked here: each case
runs through ``cli.main`` and its digest covers every file the command
writes (checkpoint, ``run.csv``, a sweep's manifest). Each merge runs with
one and with two usable CPUs, and both must give the digest in the table.

The inputs are drawn from Philox streams: four ingredients, a greedy target
and a projection centre over a schema of a little more than two tiles
(``engine.TILE``), with tensors that straddle blocks and a run of small
equal-sized tensors that share one block. The estimator trials are left out:
their draws go through ``np.log``, ``np.cos`` and ``np.sin``, whose bits may
differ between numpy builds.

Nobody edits the table by hand. ``python tests/test_digests.py`` prints it
(with ``src`` on the path); a change that moves a digest names it and says why.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from soupstock import cli, engine, rng
from soupstock.weightstore import BLOCK, WeightMap, save_checkpoint

SEED = 37
# Sorted names are the buffer order: "a.embed" and "b.proj" straddle blocks,
# the eight "c.norm" tensors share one block, and the map spans 2 tiles and 5 blocks.
SHAPES = {
    "a.embed": (517, 1000),
    "b.proj": (70, 1000),
    **{f"c.norm.{i}": (96,) for i in range(8)},
    "d.bias": (77,),
    "e.scale": (),
}
MAPS = ["m0", "m1", "m2", "m3", "target", "center"]


def _draw(index: int) -> WeightMap:
    """Map ``index``: a base shared by every map, from the stream (SEED,
    DOMAIN_FIXTURE, 0), plus noise of its own from the stream (SEED,
    DOMAIN_FIXTURE, index + 1); uniform doubles and IEEE arithmetic alone."""
    base, own = rng.stream(SEED, rng.DOMAIN_FIXTURE, 0), rng.stream(SEED, rng.DOMAIN_FIXTURE, index + 1)
    return WeightMap({
        name: (base.random(shape) * 2 - 1 + (own.random(shape) - 0.5) / 2).astype(np.float32)
        for name, shape in SHAPES.items()
    })


def write_fixture(directory: Path) -> None:
    """The maps, a fed starting point of three floats and the fed config."""
    for index, name in enumerate(MAPS):
        save_checkpoint(_draw(index), str(directory / f"{name}.safetensors"))
    point = rng.stream(SEED, rng.DOMAIN_FIXTURE, len(MAPS) + 1).random(3) * 4 - 2
    save_checkpoint(WeightMap({"w": point.astype(np.float32)}), str(directory / "point.safetensors"))
    (directory / "fed.json").write_text(json.dumps(FED))


OPTIMIZERS = {
    "gd": {"kind": "gd", "lr": {"kind": "harmonic", "offset": 1}},
    "adagrad": {"kind": "adagrad", "lr": 0.05, "weight_decay": 0.01},
    "adam": {"kind": "adam", "lr": 0.01, "beta1": 0.8, "beta2": 0.99, "weight_decay": 0.1},
    "adadelta": {"kind": "adadelta", "lr": 1.0, "rho": 0.9},
}
PIVOTS = {"adaptive": {"kind": "adaptive"}, "fixed": {"kind": "fixed"}, "ema": {"kind": "ema", "decay": 0.7}}
GREEDY = {"enabled": True, "evaluator": {"kind": "neg_distance", "target": "target.safetensors"}}
ADAM = {"optimizer": OPTIMIZERS["adam"]}
# From one ingredient, at an lr that overshoots: steps 1 and 3 are accepted, 2 and 4 rejected.
GREEDY_GD = {"optimizer": {"kind": "gd", "lr": 4.0}, "pivot_init": {"kind": "ingredient", "id": "m0"}}


def merge_doc(**ensemble) -> dict:
    """A shuffled, logged run of two epochs of two batches over the fixture's ingredients."""
    return {
        "version": 1,
        "ingredients": [{"path": f"m{i}.safetensors", "metric": [0.3, 0.9, 0.1, 0.5][i]} for i in range(4)],
        "ensemble": {"epochs": 2, "batch_size": 2, "shuffle": True, "seed": 11,
                     "amplification": {"kind": "power", "coeff": 1.0, "exponent": -0.5}, **ensemble},
        "output": {"checkpoint": "merged.safetensors", "log": "run.csv"},
    }


MERGES = {
    **{f"{opt}-{pivot}": merge_doc(optimizer=OPTIMIZERS[opt], pivot_policy=PIVOTS[pivot])
       for opt in OPTIMIZERS for pivot in PIVOTS},
    "adam-unlogged": merge_doc(**ADAM, pivot_policy=PIVOTS["ema"], record_steps=False),
    "greedy": merge_doc(**GREEDY_GD, greedy=GREEDY),
    "projected": merge_doc(**ADAM, projection={"center": "soup", "radius": 7.0}),  # binds at step 1 only
    "greedy-projected": merge_doc(**GREEDY_GD, greedy=GREEDY,
                                  projection={"center": "center.safetensors", "radius": 135.0}),
    "sweep": {**merge_doc(**ADAM, pivot_policy=PIVOTS["ema"]), "sweep": {"ensemble.optimizer.lr": [0.01, 0.03]}},
}
FED = {
    "version": 1, "algorithm": "fedsoup", "rounds": 3, "sample_size": 2, "seed": 5,
    "init": {"path": "point.safetensors"},
    "clients": [
        {"id": "c0", "center": {"values": [0.0, 1.0, 3.0]}, "optimizer": {"kind": "adam", "lr": 0.3}},
        {"id": "c1", "center": {"values": [2.0, 0.0, -1.0]}, "optimizer": {"kind": "gd", "lr": 0.5},
         "local_steps": 2},
        {"id": "c2", "center": {"values": [1.0, 5.0, 0.5]}, "optimizer": {"kind": "adagrad", "lr": 0.5}},
    ],
    "server_stew": {"kind": "adam", "lr": 0.5, "beta1": 0.5, "beta2": 0.9},
    "output": {"log": "fed.csv", "checkpoint": "fed.safetensors"},
}
COMMANDS = {
    "soup": lambda inputs, out: ["soup", *(str(inputs / f"m{i}.safetensors") for i in range(4)),
                                 "-o", str(out / "soup.safetensors")],
    "fed": lambda inputs, out: ["fed", "--config", str(inputs / "fed.json"), "--out", str(out)],
    "synth-convergence": lambda inputs, out: ["synth", "convergence", "--steps", "1001", "-o", str(out / "conv.csv")],
    "synth-cycle": lambda inputs, out: ["synth", "cycle", "--cycles", "5", "-o", str(out / "cycle.csv")],
}


def digest(directory: Path) -> str:
    """SHA-256 over every file under ``directory``: its relative path and its bytes, in path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(path.relative_to(directory).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def run_case(case: str, inputs: Path, out: Path, cpus: int = 1) -> list[bool]:
    """Run ``case`` into ``out`` through ``cli.main`` on ``cpus`` usable CPUs;
    returns, per projection made in this process, whether it moved the iterate."""
    real_project, moves = engine.project_to_ball, []

    def project(w, *args, **kwargs):
        projected = real_project(w, *args, **kwargs)
        moves.append(projected is not w)
        return projected

    if case in MERGES:
        (inputs / f"{case}.json").write_text(json.dumps(MERGES[case]))
        argv = ["merge", "--config", str(inputs / f"{case}.json"), "--out", str(out)]
    else:
        argv = COMMANDS[case](inputs, out)
    out.mkdir(parents=True)
    with mock.patch.object(cli, "_usable_cpus", lambda: cpus), mock.patch.object(engine, "project_to_ball", project):
        assert cli.main([*argv, "--quiet"]) == 0
    return moves


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("digest-inputs")
    write_fixture(directory)
    return directory


def test_the_fixture_spans_two_tiles_and_a_few_blocks():
    schema = _draw(0).schema()
    assert 2 * engine.TILE < schema.size < 2 * engine.TILE + 2 * BLOCK
    assert [len(tile) for tile in engine._tiles(schema.blocks)] == [4, 4, 5]
    assert sum(count > 1 for _lo, _hi, count, _piece in schema.blocks) == 1  # the shared "c.norm" block


def test_the_table_names_every_case():
    assert sorted(DIGESTS) == sorted([*MERGES, *COMMANDS])


@pytest.mark.parametrize("case", MERGES)
def test_a_merge_gives_its_digest_on_one_and_two_cpus(inputs, tmp_path, case):
    moves = {cpus: run_case(case, inputs, tmp_path / str(cpus), cpus) for cpus in (1, 2)}
    assert {cpus: digest(tmp_path / str(cpus)) for cpus in (1, 2)} == {1: DIGESTS[case], 2: DIGESTS[case]}
    if "projected" in case:  # the radius binds on some steps only
        assert set(moves[1]) == {True, False}
    if "greedy" in case:  # some steps are accepted, some rejected
        accepted = [row.split(",")[-1] for row in (tmp_path / "1" / "run.csv").read_text().splitlines()[1:]]
        assert set(accepted) == {"true", "false"}


@pytest.mark.parametrize("case", COMMANDS)
def test_a_command_gives_its_digest(inputs, tmp_path, case):
    run_case(case, inputs, tmp_path / "out")
    assert digest(tmp_path / "out") == DIGESTS[case]


DIGESTS = {
    "gd-adaptive": "fffe423e4394416ebeb7ba2fe3f16f22719e1b4561b92b47c5102e2636cf4ca5",
    "gd-fixed": "8dfa828233081c6cba8e9b8678bf31266e3194a7d606accd8e07950581ee9790",
    "gd-ema": "623cd9582122c869973808cab22b9317591ad480843fc99d42408168e5ae1b40",
    "adagrad-adaptive": "123463a6a90bc9a71fcb118979c47f44ebe87fc0f65b0379b89118d9b11f19ec",
    "adagrad-fixed": "d73d32b6ca7cebe246abcd8ccc7a96cd8382af09d8b2739058552bc4d60bd3b2",
    "adagrad-ema": "c82309995dfde294b22eb9cdb811d949664f7e027477bd63a5fefd5623955e46",
    "adam-adaptive": "fe8694180fc4eda090e557dd7f2d4e24c40827d9a1dbf539a86db530fd686809",
    "adam-fixed": "772135c561789fea8ea5395021d000f6fcc0c3483f810faf9c0525ed0d95f733",
    "adam-ema": "1c4efee3e8feaadbf662e26e7c260caff65003e076d40a6334f91aa1666d1558",
    "adadelta-adaptive": "51144fac0983eaa453820e6abf689704dcbcf06e0f9bd30eac0a316e928f6b31",
    "adadelta-fixed": "104f815a0adb0db7a49a366e15d5f958c9c119746c13e9169c808b35a82dcdd8",
    "adadelta-ema": "51639f61dc4a979f5a60236075f28ca8c83835c8851beeae59d788c1415c4d5d",
    "adam-unlogged": "bfe988d619abe19080d128e7cab8d7fa692af89a2e6d6bdac3ca09bb735dd37e",
    "greedy": "8317674f76ece31178085d3f30efdcfe14cff926757a5ea96df8303679b1335d",
    "projected": "4451074b3bf4688c27d08809afd87a7e63d8410e4e31ffb0c2337f9819610b79",
    "greedy-projected": "2515ae22cba26e3a6449f4d444d3a53f840acd7f280ae4311202eb4e98e02818",
    "sweep": "b2deea9e921668e2019aafb4ac8449fbdce0a43ab950c9f6cbeae9663e2cb438",
    "soup": "383d8b2484f749dd2c9967048bf3fa889e7049c118589559987198a1bf7981a5",
    "fed": "4a3f825bf1263d650c0860fe48a6c8c827a50cb5059586ec2166161f72706da9",
    "synth-convergence": "51c91e6a265fc26b4f3255b512cc1ff24d8d64af6e6833991945202977c27f7c",
    "synth-cycle": "4446316d2d7b3ffdf746410db8d7cb9885bccd9d3ace65980a4573461430223e",
}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        fixture = Path(scratch, "inputs")
        fixture.mkdir()
        write_fixture(fixture)
        print("DIGESTS = {")
        for name in [*MERGES, *COMMANDS]:
            run_case(name, fixture, Path(scratch, name))
            print(f'    "{name}": "{digest(Path(scratch, name))}",')
        print("}")
