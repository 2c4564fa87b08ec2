"""The three workloads: fixed command lists built from a seed, and the
checks that every command's output must pass.

A workload is a list of `Command`s run in order as one pass; a run repeats
the pass.  Each command is one `rzero` invocation on generated input files.
"""

from __future__ import annotations

import json
import os
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction

import inputs

# The four acceptance examples with their acceptance modes; `stability`
# fuzzes each of them at both deltas with the same number of trials, in
# several short commands so that the calibration follows the machine.  The
# fuzz seeds are fixed, derived from criterion 5's seed: the cost of a fuzz
# command depends on its perturbations, and with seeds drawn from the
# workload seed the pass time of 96 trials still varied by 11 % between
# workload seeds and the slowest command by 22 %.
STABILITY_CASES = [
    ("edge", "signs"),
    ("rectangle_y", "signs"),
    ("grid_identity", "hopf"),
    ("octagon_winding2", "circle"),
]
STABILITY_DELTAS = ("1/10", "1/2")
STABILITY_TRIALS = 4
STABILITY_ROUNDS = 3
STABILITY_FUZZ_SEED = 987_654

BOTTLENECK_DELTA = Fraction(1, 4)


@dataclass
class Command:
    label: str
    argv: list
    kind: str                      # fuzz | barcode | module | bottleneck
    units: int = 1                 # trials for fuzz, else one command
    delta: Fraction | None = None  # bottleneck bound (input is a delta-perturbation)
    agree: str | None = None       # commands sharing a key must agree on the radius


class CheckFailure(Exception):
    """An output failed one of the benchmark's correctness checks."""


def _write(directory: str, name: str, doc: dict) -> str:
    path = os.path.join(directory, name + ".json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, sort_keys=True)
    return path


# ---------------------------------------------------------------------------
# command lists
# ---------------------------------------------------------------------------

def stability(rng: random.Random, directory: str, root: str) -> list:
    """`fuzz` on the acceptance examples.  The workload seed is not used."""
    fuzz_seeds = random.Random(STABILITY_FUZZ_SEED)
    paths = {}
    for name, _ in STABILITY_CASES:
        paths[name] = os.path.join(directory, name + ".json")
        shutil.copyfile(os.path.join(root, "sample_inputs", name + ".json"), paths[name])
    commands = []
    for round_ in range(STABILITY_ROUNDS):
        for name, mode in STABILITY_CASES:
            for delta in STABILITY_DELTAS:
                seed = fuzz_seeds.randrange(1 << 31)
                commands.append(Command(
                    f"fuzz {name} {mode} delta={delta} round {round_}",
                    ["fuzz", paths[name], "--mode", mode, "--delta", delta,
                     "--trials", str(STABILITY_TRIALS), "--seed", str(seed)],
                    "fuzz", units=STABILITY_TRIALS))
    return commands


def _barcode(label, path, mode, field_name, agree=None, kind="barcode") -> Command:
    verb = "module" if kind == "module" else "barcode"
    return Command(label, [verb, path, "--mode", mode, "--field", field_name],
                   kind, agree=agree)


# The ladders are fixed: their maps are drawn once from this seed, and the
# workload seed only picks a symmetry of each item (`inputs.Symmetry`).
# Random maps of these kinds vary in cost by up to thirty times between
# draws (a circle analysis of a k=1 grid takes from 0.3 s to 12 s), which
# would make the pass time a property of the seed rather than of the program.
BASE_SEED = 101


def _item(rng, directory, name, doc) -> str:
    return _write(directory, name, inputs.Symmetry(rng, doc["n"]).apply(doc))


def ladder(rng: random.Random, directory: str, root: str) -> list:
    """One-shot barcode and module commands on planar and 3-D inputs."""
    def base_grid(k, norm, generic):
        return inputs.grid(random.Random(BASE_SEED), k, 2, norm, generic)

    small = _item(rng, directory, "grid1", base_grid(1, "linf", generic=True))
    coarse2 = _item(rng, directory, "grid2c", base_grid(2, "linf", generic=False))
    generic3 = _item(rng, directory, "grid3g", base_grid(3, "l1", generic=True))
    coarse4 = _item(rng, directory, "grid4c", base_grid(4, "linf", generic=False))
    generic4 = _item(rng, directory, "grid4g", base_grid(4, "linf", generic=True))
    moebius = _item(rng, directory, "moebius", inputs.moebius())
    rp2 = _item(rng, directory, "rp2", inputs.projective_plane())
    solid = _item(rng, directory, "hopf3d", inputs.hopf3d())
    return [
        _barcode("grid k=1 generic hopf q", small, "hopf", "q", agree="grid1"),
        _barcode("grid k=1 generic circle q", small, "circle", "q", agree="grid1"),
        _barcode("grid k=2 coarse module z", coarse2, "hopf", "z", kind="module"),
        _barcode("grid k=3 generic l1 hopf q", generic3, "hopf", "q"),
        _barcode("grid k=3 generic l1 hopf f2", generic3, "hopf", "f2"),
        _barcode("grid k=4 coarse hopf q", coarse4, "hopf", "q"),
        _barcode("grid k=4 generic hopf q", generic4, "hopf", "q"),
        _barcode("moebius hopf f2", moebius, "hopf", "f2"),
        _barcode("rp2 hopf f2", rp2, "hopf", "f2"),
        _barcode("3-d hopf q", solid, "hopf", "q"),
    ]


def signs_ladder(rng: random.Random, directory: str, root: str) -> list:
    """n = 1 barcodes and bottlenecks with many levels; no integer cohomology."""
    base = random.Random(BASE_SEED)
    commands = []
    for norm in inputs.NORMS:
        path = _item(rng, directory, f"line8_{norm}", inputs.grid(base, 8, 1, norm, generic=True))
        commands.append(_barcode(f"grid k=8 {norm} signs f2", path, "signs", "f2"))
    path = _item(rng, directory, "line12", inputs.grid(base, 12, 1, "linf", generic=True))
    commands.append(_barcode("grid k=12 linf signs f2", path, "signs", "f2"))
    path = _item(rng, directory, "complex", inputs.random_two_complex(base, 40, 60, "l1"))
    commands.append(_barcode("2-complex v=40 l1 signs f2", path, "signs", "f2"))
    pairs = [
        ("grid k=10 l2", inputs.grid(base, 10, 1, "l2", generic=True)),
        ("2-complex v=40 linf", inputs.random_two_complex(base, 40, 60, "linf")),
    ]
    for index, (label, doc) in enumerate(pairs):
        # Both maps of a pair get the same symmetry, so the bound scales too.
        symmetry = inputs.Symmetry(rng, 1)
        first = _write(directory, f"pair{index}a", symmetry.apply(doc))
        second = _write(directory, f"pair{index}b", symmetry.apply(
            inputs.perturbed(base, doc, BOTTLENECK_DELTA)))
        commands.append(Command(
            f"{label} bottleneck vs 1/4-perturbation",
            ["bottleneck", first, second, "--mode", "signs", "--field", "f2"],
            "bottleneck", delta=BOTTLENECK_DELTA * symmetry.scale))
    return commands


WORKLOADS = {
    "stability": stability,
    "ladder": ladder,
    "signs-ladder": signs_ladder,
}


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _sqrt_le(a: Fraction, bound: Fraction) -> bool:
    """sqrt(a) <= bound, exactly, for bound >= 0."""
    return a <= bound * bound


def radius_le(encoded: dict, bound: Fraction) -> bool:
    """Whether an encoded exact radius is at most a nonnegative rational."""
    kind, payload = next(iter(encoded.items()))
    if kind == "rat":
        return Fraction(payload) <= bound
    if kind == "sqrt":
        return _sqrt_le(Fraction(payload), bound)
    if kind == "sqrt_diff":
        # sqrt(a) - sqrt(b) <= d  <=>  a - b - d^2 <= 2 d sqrt(b)
        a, b = (Fraction(x) for x in payload)
        lhs = a - b - bound * bound
        return lhs <= 0 or lhs * lhs <= 4 * bound * bound * b
    raise CheckFailure(f"unknown radius encoding {encoded!r}")


def check(command: Command, doc: dict) -> None:
    """Raise CheckFailure when a parsed output is wrong for its command."""
    if command.kind == "fuzz":
        if doc.get("passed") is not True:
            raise CheckFailure("fuzz did not pass")
        if doc.get("trials") != command.units:
            raise CheckFailure(f"fuzz ran {doc.get('trials')} trials, asked {command.units}")
        names = [c.get("name", "") for c in doc.get("checks", [])]
        if not any(f"trials={command.units})" in n for n in names):
            raise CheckFailure(f"fuzz report lacks the stability check: {names}")
    elif command.kind == "barcode":
        radius = doc["robust_radius"]
        if radius != {"rat": "0"} and radius not in doc["criticals"]:
            raise CheckFailure(f"robust radius {radius} is neither 0 nor critical")
        if sum(1 for bar in doc["bars"] if bar["distinguished"]) > 1:
            raise CheckFailure("more than one distinguished bar")
    elif command.kind == "module":
        samples = len(doc["samples"])
        if len(doc["groups"]) != samples or len(doc["transitions"]) != samples - 1:
            raise CheckFailure("module shape does not match its samples")
    elif command.kind == "bottleneck":
        if not radius_le(doc["distance"], command.delta):
            raise CheckFailure(f"bottleneck {doc['distance']} exceeds {command.delta}")
    else:
        raise CheckFailure(f"unknown command kind {command.kind}")


def check_agreement(commands, docs) -> list:
    """Labels of agreement groups whose robust radii differ."""
    radii = {}
    for command, doc in zip(commands, docs):
        if command.agree is not None and doc is not None:
            radii.setdefault(command.agree, set()).add(json.dumps(doc["robust_radius"]))
    return [key for key, values in radii.items() if len(values) > 1]
