"""Command-line surface.

Every command reads JSON documents, writes one deterministic JSON document
to stdout, and reports problems on stderr with exit code 1 (bad input,
or an input too large for the memory at hand), 2 (mode not applicable) or
3 (internal invariant failure).
"""

from __future__ import annotations

import argparse
import functools
import os
import shlex
import sys
from fractions import Fraction

from .errors import InputError, InternalError, ModeError, RZeroError
from .exact import parse_rational
from .harness import PerturbSpec, check_invariances, check_stability, exactness_checks, perturb
from .io import (
    dumps,
    encode_radius,
    looks_like_barcode,
    parse_barcode,
    parse_input,
    serialize_barcode,
    serialize_input,
)
from .matching import bottleneck as compute_bottleneck
from .modes import Mode, auto_mode
from .pipeline import (
    DEFAULT_SEED,
    analyze,
    assemble_pointed_module,
    field_barcode,
)

FIELDS = ("q", "f2", "f3", "f5")


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _resolve_seed(value) -> int:
    if value is not None:
        return value
    env = os.environ.get("RZERO_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise InputError(f"RZERO_SEED must be an integer, got {env!r}") from exc
    return DEFAULT_SEED


def _resolve_mode(name: str, f) -> Mode:
    if name == "auto":
        return auto_mode(f.n, f.complex.dim)
    return Mode(name)


def _seed_meta(analysis) -> dict:
    meta = {"seed": analysis.seed}
    if "ray" in analysis.meta:
        meta["ray"] = [str(x) for x in analysis.meta["ray"]]
    if "probe" in analysis.meta:
        meta["probe"] = [str(x) for x in analysis.meta["probe"]]
    return meta


def _clean_witness(witness: dict) -> dict:
    out = {}
    for key, value in witness.items():
        if key == "at_radius":
            out[key] = encode_radius(value)
        elif isinstance(value, (list, tuple)):
            out[key] = [int(x) if isinstance(x, int) else str(x) for x in value]
        else:
            out[key] = value
    return out


def cmd_criticals(args) -> dict:
    f = parse_input(_read(args.input))
    mode = _resolve_mode(args.mode, f)
    analysis = analyze(f, mode, _resolve_seed(args.seed))
    crit = analysis.filtration.criticals
    return {
        "criticals": [encode_radius(c) for c in crit.values],
        "has_zero_min": crit.has_zero_min,
        "mode": mode.value,
    }


def cmd_robust_radius(args) -> dict:
    f = parse_input(_read(args.input))
    mode = _resolve_mode(args.mode, f)
    analysis = analyze(f, mode, _resolve_seed(args.seed))
    return {
        "robust_radius": encode_radius(analysis.robust.radius),
        "witness": _clean_witness(analysis.robust.witness),
        "mode": mode.value,
        "determinacy": analysis.determinacy,
        "seeds": _seed_meta(analysis),
    }


def cmd_barcode(args) -> dict:
    f = parse_input(_read(args.input))
    mode = _resolve_mode(args.mode, f)
    analysis = analyze(f, mode, _resolve_seed(args.seed))
    result = field_barcode(analysis, args.field)
    return serialize_barcode(
        result,
        mode=mode.value,
        field=args.field,
        criticals=analysis.criticals,
        has_zero_min=analysis.filtration.criticals.has_zero_min,
        robust_radius=analysis.robust.radius,
        seeds=_seed_meta(analysis),
        determinacy=analysis.determinacy,
    )


def cmd_module(args) -> dict:
    f = parse_input(_read(args.input))
    mode = _resolve_mode(args.mode, f)
    analysis = analyze(f, mode, _resolve_seed(args.seed))
    module = assemble_pointed_module(analysis, args.field)
    doc = {
        "mode": mode.value,
        "coefficients": args.field,
        "samples": [encode_radius(r) for r in module.samples],
        "criticals": [encode_radius(r) for r in module.criticals],
        "determinacy": analysis.determinacy,
        "seeds": _seed_meta(analysis),
    }
    if module.char is None:
        doc["groups"] = [
            {"free_rank": free, "torsion": list(torsion)}
            for free, torsion in module.groups
        ]
        doc["transitions"] = [
            [[int(x) for x in row] for row in m]
            for m in module.normalized_transitions()
        ]
        doc["distinguished"] = [
            [int(x) for x in vec] for vec in module.normalized_distinguished()
        ]
    else:
        doc["dims"] = list(module.dims)
        doc["transitions"] = [
            [[str(x) for x in row] for row in m] for m in module.transitions
        ]
        doc["distinguished"] = [
            [str(x) for x in vec] for vec in module.distinguished
        ]
    if module.meta and "sign_vectors" in module.meta:
        doc["sign_vectors"] = module.meta["sign_vectors"]
    return doc


def _barcode_from_path(path: str, args) -> object:
    text = _read(path)
    if looks_like_barcode(text):
        return parse_barcode(text)
    f = parse_input(text)
    mode = _resolve_mode(args.mode, f)
    analysis = analyze(f, mode, _resolve_seed(args.seed))
    return field_barcode(analysis, args.field)


def cmd_bottleneck(args) -> dict:
    left = _barcode_from_path(args.first, args)
    right = _barcode_from_path(args.second, args)
    distance = compute_bottleneck(left, right)
    return {"distance": encode_radius(distance)}


def _delta(args) -> Fraction:
    try:
        delta = parse_rational(args.delta)
    except ValueError as exc:
        raise InputError(f"--delta: {exc}") from exc
    if delta < 0:
        raise InputError("--delta must be nonnegative")
    return delta


def cmd_perturb(args) -> dict:
    f = parse_input(_read(args.input))
    g = perturb(f, PerturbSpec(_delta(args), _resolve_seed(args.seed)))
    return serialize_input(g)


def cmd_check(args) -> dict:
    f = parse_input(_read(args.input))
    mode = _resolve_mode(args.mode, f)
    seed = _resolve_seed(args.seed)
    invariances = check_invariances(f, mode, seed)
    exactness = exactness_checks(f, mode, seed)
    report = {
        "mode": mode.value,
        "seed": seed,
        "invariances": invariances.to_dict(),
        "exactness": exactness.to_dict(),
        "passed": invariances.passed and exactness.passed,
    }
    if not report["passed"]:
        raise InternalError("check found violated invariants:\n" + dumps(report)
                            + _reproduce("check", args.input, "--mode", mode.value,
                                         "--seed", seed))
    return report


def cmd_fuzz(args) -> dict:
    f = parse_input(_read(args.input))
    mode = _resolve_mode(args.mode, f)
    seed = _resolve_seed(args.seed)
    delta = _delta(args)
    if args.trials < 0:
        raise InputError("--trials must be nonnegative")
    report = check_stability(f, mode, delta, args.trials, seed)
    doc = report.to_dict()
    doc["mode"] = mode.value
    doc["delta"] = args.delta
    doc["trials"] = args.trials
    if not report.passed:
        # Trial t runs on child_seed(seed, t + 1) whatever the trial count,
        # so t + 1 trials rerun the first failing one.
        first = min(failure["trial"] for result in report.results
                    for failure in result.details["failures"])
        raise InternalError("stability violations found:\n" + dumps(doc)
                            + _reproduce("fuzz", args.input, "--mode", mode.value,
                                         "--delta", args.delta, "--trials", first + 1,
                                         "--seed", seed))
    return doc


def _reproduce(*argv) -> str:
    """The last line of a failure message: a command that reruns it."""
    return "reproduce: " + shlex.join(["rzero", *map(str, argv)])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as
    it was, and each command's handler is looked up when it runs."""
    parser = argparse.ArgumentParser(
        prog="rzero",
        description="Exact persistence analysis of robust zero sets of "
                    "simplexwise-linear maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, field=False):
        p.add_argument("--mode", choices=("auto", "signs", "circle", "hopf"),
                       default="auto")
        p.add_argument("--seed", type=int, default=None,
                       help="master seed (default: RZERO_SEED or built-in)")
        if field:
            p.add_argument("--field", choices=FIELDS + ("z",), default="q")

    p = sub.add_parser("criticals", help="critical values of |f|")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=cmd_criticals)

    p = sub.add_parser("barcode", help="pointed persistence barcode")
    p.add_argument("input")
    common(p, field=True)
    p.set_defaults(func=cmd_barcode)

    p = sub.add_parser("robust-radius", help="robustness of the zero set")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=cmd_robust_radius)

    p = sub.add_parser("module", help="dump the pointed persistence module")
    p.add_argument("input")
    common(p, field=True)
    p.set_defaults(func=cmd_module)

    p = sub.add_parser("bottleneck",
                       help="pointed bottleneck distance of two barcodes")
    p.add_argument("first")
    p.add_argument("second")
    common(p, field=True)
    p.set_defaults(func=cmd_bottleneck)

    p = sub.add_parser("perturb", help="seeded bounded perturbation of the input")
    p.add_argument("input")
    p.add_argument("--delta", required=True, help="bound, as a rational p/q")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("check", help="invariance and exactness self-checks")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("fuzz", help="seeded stability fuzzing")
    p.add_argument("input")
    p.add_argument("--delta", required=True)
    p.add_argument("--trials", type=int, default=100)
    common(p)
    p.set_defaults(func=cmd_fuzz)

    return parser


def _attached_delta(argv: list[str]) -> list[str]:
    """argv with `--delta X` written `--delta=X` when X is a negative
    number: argparse takes a token that starts with '-' and is no plain
    number, such as -1/10, for an option, so the value would never reach
    the nonnegativity check."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] == "--delta" and token[:1] == "-" and token[1:2].isdigit():
            out[-1] = f"--delta={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attached_delta(sys.argv[1:] if argv is None else list(argv)))
    try:
        text = dumps(args.func(args))
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except ModeError as exc:
        print(f"mode error: {exc}", file=sys.stderr)
        return 2
    except (InternalError, RZeroError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print(f"out of memory: the input is too large for `rzero {args.command}`",
              file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
