"""Document parsing, serialization round-trips, and the CLI surface."""

import hashlib
import json
import os
import random
import shlex
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest

import rzero.cli as cli
import rzero.harness as harness
import rzero.pipeline as pipeline
from rzero.barcode import Interval, PointedBarcode
from rzero.complexes import Complex, PLMap
from rzero.errors import InputError
from rzero.exact import ExactRadius
from rzero.harness import CheckResult, Report
from rzero.io import (
    decode_radius,
    dumps,
    encode_radius,
    parse_barcode,
    parse_input,
    serialize_barcode,
    serialize_input,
)

from inputs import (
    as_document,
    edge_map,
    grid_identity_map,
    octagon_winding2_map,
    seeded_grid_map,
    signs_mixed_map,
)
from test_pipeline_fuzz import moebius_odd_winding_map, planar_inputs, projective_plane_map

CLI = [sys.executable, "-m", "rzero.cli"]


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(CLI + list(args), capture_output=True, text=True, env=env)


def test_radius_encoding_round_trip():
    for r in (ExactRadius.of(0), ExactRadius.of(Fraction(3, 7)),
              ExactRadius.sqrt(2), ExactRadius.of(4)):
        assert decode_radius(encode_radius(r)) == r
    assert encode_radius(ExactRadius.sqrt(25)) == {"rat": "5"}
    assert encode_radius(ExactRadius.sqrt(Fraction(1, 2))) == {"sqrt": "1/2"}
    # A difference of roots is written for bottleneck distances only; it is
    # no bar endpoint, and neither is a negative value.
    assert encode_radius(ExactRadius(5, 2)) == {"sqrt_diff": ["5", "2"]}
    for bad in ({"sqrt_diff": ["5", "2"]}, {"rat": "-1"}, {"rat": "-3/7"}, {"sqrt": "-2"}):
        with pytest.raises(InputError, match="bad bar endpoint"):
            decode_radius(bad)


def test_parse_input_round_trip():
    for f in (edge_map(), grid_identity_map(), octagon_winding2_map()):
        again = parse_input(json.dumps(serialize_input(f)))
        assert again.complex.simplices == f.complex.simplices
        assert again.values == f.values
        assert (again.n, again.norm) == (f.n, f.norm)


def _maximal_by_definition(complex_):
    """The simplices of a complex contained in no other simplex, each
    tested against every simplex."""
    return sorted(s for s in complex_.all_simplices()
                  if not any(s != t and set(s) <= set(t) for t in complex_.simplices))


def test_serialize_input_lists_the_maximal_simplices():
    # A simplex is maximal iff it is no facet of another simplex: the same
    # list as the definition, on random complexes of dimension <= 4 with
    # isolated vertices and nested simplices.
    rng = random.Random(32)
    for _ in range(300):
        names = [f"x{i}" for i in range(rng.randint(1, 8))]
        c = Complex.build([rng.sample(names, rng.randint(1, min(5, len(names))))
                           for _ in range(rng.randint(1, 8))])
        doc = serialize_input(PLMap(c, {v: (Fraction(0),) for v in c.vertices}, 1, "l1"))
        assert doc["simplices"] == [list(s) for s in _maximal_by_definition(c)]


def test_cli_perturb_of_a_32_by_32_grid(tmp_path, capsys):
    # 6,273 simplices: the maximal ones are found in one pass over the
    # facets, not by testing every simplex against every other.
    f = seeded_grid_map(12, 32, 2, "l2")
    path = tmp_path / "grid32.json"
    path.write_text(as_document(f))
    assert cli.main(["perturb", str(path), "--delta", "1/3", "--seed", "7"]) == 0
    doc = json.loads(capsys.readouterr()[0])
    assert len(doc["simplices"]) == 2 * 32 * 32
    g = parse_input(json.dumps(doc))
    assert g.complex.simplices == f.complex.simplices
    assert g.values != f.values


def test_parse_input_errors():
    doc = json.loads(as_document(edge_map()))
    bad = dict(doc)
    bad["simplices"] = [["p", "undeclared"]]
    with pytest.raises(InputError) as err:
        parse_input(json.dumps(bad))
    assert "undeclared" in str(err.value)

    bad = dict(doc)
    bad["values"] = {"p": ["-1"], "q": ["0.5x"]}
    with pytest.raises(InputError):
        parse_input(json.dumps(bad))

    bad = dict(doc)
    bad["values"] = {"p": ["-1", "2"], "q": ["1"]}
    with pytest.raises(InputError):
        parse_input(json.dumps(bad))

    with pytest.raises(InputError):
        parse_input("not json")


def test_barcode_document_round_trip():
    one = Interval(ExactRadius.of(0), ExactRadius.of(1))
    two = Interval(ExactRadius.of(0), ExactRadius.sqrt(2))
    barcode = PointedBarcode.from_multiset(Counter({one: 2, two: 1}), one)
    doc = serialize_barcode(
        barcode, mode="hopf", field="q",
        criticals=[ExactRadius.of(1)], has_zero_min=True,
        robust_radius=ExactRadius.of(1), seeds={"seed": 1}, determinacy=False,
    )
    again = parse_barcode(json.dumps(doc))
    assert again == barcode
    flagged = [row for row in doc["bars"] if row["distinguished"]]
    assert len(flagged) == 1 and flagged[0]["multiplicity"] == 1


def test_output_byte_stable(tmp_path):
    path = tmp_path / "edge.json"
    path.write_text(as_document(edge_map()))
    a = run_cli("barcode", str(path), "--field", "f2")
    b = run_cli("barcode", str(path), "--field", "f2")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_cli_robust_radius_edge(tmp_path):
    path = tmp_path / "edge.json"
    path.write_text(as_document(edge_map()))
    out = run_cli("robust-radius", str(path))
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["robust_radius"] == {"rat": "1"}
    assert doc["mode"] == "signs"


def test_cli_barcode_grid(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(as_document(grid_identity_map()))
    out = run_cli("barcode", str(path), "--mode", "hopf", "--field", "f2")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["bars"] == [{
        "birth": {"rat": "0"}, "death": {"rat": "1"},
        "distinguished": True, "multiplicity": 1,
    }]
    assert doc["robust_radius"] == {"rat": "1"}


def test_cli_bottleneck_same_input(tmp_path):
    path = tmp_path / "edge.json"
    path.write_text(as_document(edge_map()))
    out = run_cli("bottleneck", str(path), str(path))
    assert out.returncode == 0
    assert json.loads(out.stdout) == {"distance": {"rat": "0"}}


def test_cli_bottleneck_on_barcode_documents(tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(as_document(grid_identity_map()))
    bar = run_cli("barcode", str(grid), "--mode", "hopf", "--field", "q")
    doc_path = tmp_path / "bar.json"
    doc_path.write_text(bar.stdout)
    out = run_cli("bottleneck", str(doc_path), str(doc_path))
    assert out.returncode == 0
    assert json.loads(out.stdout) == {"distance": {"rat": "0"}}


def test_cli_bottleneck_rejects_a_negative_bar(tmp_path, capsys):
    doc = tmp_path / "negative.json"
    doc.write_text(json.dumps({"bars": [{"birth": {"rat": "-3"}, "death": {"rat": "-1"}}]}))
    assert cli.main(["bottleneck", str(doc), str(doc)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("input error:") and err.count("\n") == 1
    assert "nonnegative" in err


def test_cli_bottleneck_rejects_a_difference_of_roots_as_an_endpoint(tmp_path, capsys):
    doc = tmp_path / "sqrt_diff.json"
    doc.write_text(json.dumps({"bars": [{"birth": {"sqrt_diff": ["7", "2"]},
                                         "death": {"rat": "3"}}]}))
    assert cli.main(["bottleneck", str(doc), str(doc)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("input error:") and err.count("\n") == 1
    assert '{"rat": "p/q"}' in err and '{"sqrt": "p/q"}' in err


def test_cli_perturb_round_trip(tmp_path):
    path = tmp_path / "edge.json"
    path.write_text(as_document(edge_map()))
    out = run_cli("perturb", str(path), "--delta", "1/10", "--seed", "42")
    assert out.returncode == 0
    g = parse_input(out.stdout)
    assert g.complex.simplices == edge_map().complex.simplices
    assert g.values != edge_map().values


def test_cli_exit_codes(tmp_path):
    # 1: malformed input
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    out = run_cli("criticals", str(bad))
    assert out.returncode == 1
    assert "missing field" in out.stderr

    # 2: no applicable mode (n = 3, dim X = 5)
    high = tmp_path / "high.json"
    vertices = [f"u{i}" for i in range(6)]
    doc = {
        "n": 3, "norm": "linf",
        "vertices": vertices,
        "simplices": [vertices],
        "values": {v: ["1", "1", "1"] for v in vertices},
    }
    high.write_text(json.dumps(doc))
    out = run_cli("criticals", str(high))
    assert out.returncode == 2
    assert "mode" in out.stderr


def test_cli_seed_env(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(as_document(grid_identity_map()))
    a = run_cli("barcode", str(path), "--mode", "hopf", "--field", "q",
                env_extra={"RZERO_SEED": "123"})
    b = run_cli("barcode", str(path), "--mode", "hopf", "--field", "q",
                "--seed", "123")
    assert a.stdout == b.stdout
    assert json.loads(a.stdout)["seeds"]["seed"] == 123


def test_cli_check_and_fuzz(tmp_path):
    path = tmp_path / "edge.json"
    path.write_text(as_document(edge_map()))
    out = run_cli("check", str(path))
    assert out.returncode == 0
    assert json.loads(out.stdout)["passed"] is True
    out = run_cli("fuzz", str(path), "--delta", "1/10", "--trials", "3", "--seed", "5")
    assert out.returncode == 0
    assert json.loads(out.stdout)["passed"] is True


@pytest.mark.parametrize("argv, message", [
    (["fuzz", "--delta", "1/10", "--trials", "-3"], "--trials must be nonnegative"),
    (["fuzz", "--delta=-1/10", "--trials", "3"], "--delta must be nonnegative"),
    (["perturb", "--delta=-1/10"], "--delta must be nonnegative"),
])
def test_cli_rejects_negative_counts_and_bounds(argv, message, tmp_path, capsys):
    path = tmp_path / "edge.json"
    path.write_text(as_document(edge_map()))
    assert cli.main([argv[0], str(path), *argv[1:]]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"input error: {message}\n"


@pytest.mark.parametrize("command", ["perturb", "fuzz"])
@pytest.mark.parametrize("spelling", [["--delta", "-1/10"], ["--delta=-1/10"]])
def test_cli_negative_delta_in_either_spelling(command, spelling, tmp_path, capsys):
    # A separate negative rational must reach the --delta check, as the
    # attached spelling does, not argparse's usage error (exit 2).
    path = tmp_path / "edge.json"
    path.write_text(as_document(edge_map()))
    assert cli.main([command, str(path), *spelling, "--seed", "3"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "input error: --delta must be nonnegative\n"


def test_exhausted_memory_exits_1_with_one_stderr_line(tmp_path, monkeypatch, capsys):
    path = tmp_path / "edge.json"
    path.write_text(as_document(edge_map()))

    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "analyze", exhausted)
    assert cli.main(["criticals", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "out of memory: the input is too large for `rzero criticals`\n"


def test_exhausted_memory_in_a_fuzz_trial_is_no_violation(tmp_path, monkeypatch, capsys):
    # A trial that runs out of memory stops the command like any other
    # exhausted memory; it is not a stability violation (exit 3).
    path = tmp_path / "edge.json"
    path.write_text(as_document(edge_map()))
    calls = []
    pipeline_barcode = harness._pipeline_barcode

    def exhausted_in_trial_2(*args):
        calls.append(args)
        if len(calls) == 3:  # the base analysis, then trials 1 and 2
            raise MemoryError
        return pipeline_barcode(*args)

    monkeypatch.setattr(harness, "_pipeline_barcode", exhausted_in_trial_2)
    assert cli.main(["fuzz", str(path), "--delta", "1/10", "--trials", "4"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "out of memory: the input is too large for `rzero fuzz`\n"
    assert len(calls) == 3


# Each is a number that Python's Fraction reads but the documented grammar,
# an optional "-", digits and an optional "/digits", does not.
OFF_GRAMMAR = ["0.5", "1_0", "1e7", "+1", "٣", "1e9999999"]


@pytest.mark.parametrize("where", ["value", "delta", "barcode"])
@pytest.mark.parametrize("text", OFF_GRAMMAR)
def test_cli_rejects_numbers_off_the_rational_grammar(where, text, tmp_path, capsys):
    good = tmp_path / "edge.json"
    good.write_text(as_document(edge_map()))
    bad = tmp_path / "bad.json"
    if where == "value":
        doc = json.loads(as_document(edge_map()))
        doc["values"]["p"] = [text]
        bad.write_text(json.dumps(doc))
        argv = ["criticals", str(bad)]
    elif where == "delta":
        argv = ["perturb", str(good), f"--delta={text}"]
    else:
        bad.write_text(json.dumps({"bars": [{"birth": {"rat": "0"}, "death": {"rat": text}}]}))
        argv = ["bottleneck", str(bad), str(bad)]
    start = time.perf_counter()
    assert cli.main(argv) == 1
    # No literal is expanded: an exponent is refused before any big integer
    # is built (Fraction takes seconds to build 10**9999999).
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("input error:") and err.count("\n") == 1


def test_cli_rejects_an_id_that_spells_a_subdivision_point(tmp_path, capsys):
    # Every id the subdivider makes begins with "(", so an input id that
    # does could collide with one: here the midpoint of a and b, which the
    # zero split of the edge creates.
    path = tmp_path / "clash.json"
    doc = {"n": 2, "norm": "linf", "vertices": ["a", "b", "(a:1/2,b:1/2)"],
           "simplices": [["a", "b"], ["(a:1/2,b:1/2)"]],
           "values": {"a": ["-1", "1"], "b": ["1", "1"], "(a:1/2,b:1/2)": ["0", "1"]}}
    path.write_text(json.dumps(doc))
    assert cli.main(["barcode", str(path), "--mode", "hopf", "--field", "q"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("input error:") and "'('" in err and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["criticals"], ["barcode", "--field", "q"]])
def test_cli_rejects_an_output_number_too_long_to_print(argv, tmp_path, capsys):
    # |f(q)|^2 has about 6000 digits, more than int() converts to text.
    path = tmp_path / "long.json"
    doc = {"n": 2, "norm": "l2", "simplices": [["p", "q"]], "vertices": ["p", "q"],
           "values": {"p": ["-1", "1"], "q": ["1" + "0" * 3000, "1"]}}
    path.write_text(json.dumps(doc))
    assert cli.main([argv[0], str(path), *argv[1:]]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("input error:") and err.count("\n") == 1


def test_failures_end_with_a_reproduce_line(tmp_path, monkeypatch, capsys):
    path = tmp_path / "edge.json"
    path.write_text(as_document(edge_map()))
    quoted = shlex.quote(str(path))

    def failing_stability(f, mode, delta, trials, seed):
        failures = [{"trial": 2, "seed": 11, "radius_ok": False},
                    {"trial": 4, "seed": 13, "error": "boom"}]
        return Report(seed, [CheckResult(
            f"stability(delta={delta}, trials={trials})", False, {"failures": failures})])

    monkeypatch.setattr(cli, "check_stability", failing_stability)
    assert cli.main(["fuzz", str(path), "--delta", "1/10", "--trials", "6", "--seed", "5"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "stability violations found" in err
    # Trial 2 is the first failure; three trials rerun it.
    assert err.splitlines()[-1] == (
        f"reproduce: rzero fuzz {quoted} --mode signs --delta 1/10 --trials 3 --seed 5")

    # The seed is the resolved one, so the line reproduces without the env.
    monkeypatch.setenv("RZERO_SEED", "9")
    assert cli.main(["fuzz", str(path), "--delta", "1/2", "--mode", "hopf"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == (
        f"reproduce: rzero fuzz {quoted} --mode hopf --delta 1/2 --trials 3 --seed 9")

    monkeypatch.setattr(cli, "check_invariances",
                        lambda f, mode, seed: Report(seed, [CheckResult("scaling", False)]))
    assert cli.main(["check", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "check found violated invariants" in err
    assert err.splitlines()[-1] == f"reproduce: rzero check {quoted} --mode signs --seed 9"


@pytest.mark.parametrize("name", ["moebius", "planar-0"])
def test_cli_check_passes_on_trivial_ambient_hopf(name, tmp_path):
    # Hopf maps whose ambient H^2 is zero, with more than two levels: the
    # functoriality check compares a direct transition with a composite.
    f = moebius_odd_winding_map() if name == "moebius" else dict(planar_inputs())[0]
    path = tmp_path / f"{name}.json"
    path.write_text(as_document(f))
    out = run_cli("check", str(path), "--mode", "hopf")
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["passed"] is True


def _malformed_inputs():
    good = json.loads(as_document(edge_map()))

    def edit(**fields):
        return json.dumps({**good, **fields})

    return {
        "not-json": "not json",
        "not-an-object": "[]",
        "missing-field": "{}",
        "n-boolean": edit(n=True),
        "n-string": edit(n="1"),
        "norm-unknown": edit(norm="l3"),
        "simplex-with-list": edit(simplices=[[["p"], "q"]]),
        "simplex-with-number": edit(simplices=[[1, "q"]]),
        "simplex-undeclared": edit(simplices=[["p", "r"]]),
        "values-not-object": edit(values=[["1"]]),
        "value-not-string": edit(values={"p": [1], "q": ["1"]}),
        "value-not-rational": edit(values={"p": ["1/0"], "q": ["1"]}),
    }


def _malformed_barcodes():
    def bars(rows):
        return json.dumps({"bars": rows})

    zero, one = {"rat": "0"}, {"rat": "1"}
    return {
        "bars-not-list": bars(3),
        "row-not-object": bars([3]),
        "row-without-birth": bars([{"death": one}]),
        "sqrt-diff-one-element": bars([{"birth": zero, "death": {"sqrt_diff": ["2"]}}]),
        "sqrt-diff-string": bars([{"birth": zero, "death": {"sqrt_diff": "2"}}]),
        "payload-not-string": bars([{"birth": {"rat": 0}, "death": one}]),
        "negative-radicand": bars([{"birth": zero, "death": {"sqrt": "-2"}}]),
        "unknown-kind": bars([{"birth": {"cube": "1"}, "death": one}]),
        "radius-not-object": bars([{"birth": [], "death": one}]),
        "multiplicity-boolean": bars([{"birth": zero, "death": one, "multiplicity": True}]),
        "birth-after-death": bars([{"birth": one, "death": zero}]),
        "two-distinguished": bars([{"birth": zero, "death": one, "distinguished": True},
                                   {"birth": zero, "death": {"rat": "2"},
                                    "distinguished": True}]),
    }


@pytest.mark.parametrize("kind, name", [("input", n) for n in _malformed_inputs()]
                         + [("barcode", n) for n in _malformed_barcodes()])
def test_cli_rejects_malformed_documents(kind, name, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    good = tmp_path / "edge.json"
    good.write_text(as_document(edge_map()))
    if kind == "input":
        bad.write_text(_malformed_inputs()[name])
        argv = ["criticals", str(bad)]
    else:
        bad.write_text(_malformed_barcodes()[name])
        argv = ["bottleneck", str(bad), str(good)]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("input error:")
    assert "Traceback" not in err


SAMPLE_INPUTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "sample_inputs")

# sha256 of stdout at seed 7: RP²'s hopf barcodes, the hopf modules
# (integral, and the integral module tensored with the field), the hopf
# robust radii and the self-check reports, byte for byte.  RP²'s ambient H^2
# (Z/2) is nonzero, so its modules read ker j* through its own presentation
# and its barcodes through generators of the ambient coboundary lattice.
# A label is [mode.]command-input[-field]; with no mode it runs in hopf
# mode.  The circle modules and barcodes pin the field quotient coordinates
# and the elder-rule sweep of the tensored module route.
PINNED_STDOUT = {
    "barcode-rp2-q": "42ce99b1df1a9e7743cc5f7335896e9bc6a5d90ed3f975d84974fe187415f945",
    "barcode-rp2-f2": "01ef96c524b528740727e4822e5b071f853aa9390e3a694cfb1f1797bceaf3fa",
    "barcode-rp2-f3": "85e5b9cb54363a3864028425e7cc9f96fe11ae8c3afacbf3a908be100ca857ca",
    "module-grid_identity-q": "4a5182e1143d221791dfa4dc40326960cbb239e701ff846a74dd2260fd1fce0d",
    "module-grid_identity-f2": "09c380fdd2ba3384815b3828e02fc86298789af07737849318feaf0ce5ad9dbd",
    "module-grid_identity-f3": "63bbfdd034ff847f34d8d2f73fed5f58a1c14fab20c6d66bbd02a7fd1e798a41",
    "module-octagon_winding2-q": "d62dcab0170e2a3e53e1d9af3c797570177a3dc5942b64cf32a22f9604ba3e59",
    "module-octagon_winding2-f2": "8771953795096157d409fb8f869b72f2cefc4de7bcf56655cf64d060f8108b4b",
    "module-octagon_winding2-f3": "759e9c86580d50ef074302e03ecafc9a8fd3e7bcec8e1f60ce6b05551eb7eaee",
    "module-moebius-q": "25ad2952f1345c830487cd9257c54eb38e67c55bab2cd5e06f1308bf4374a896",
    "module-moebius-f2": "4734d40755d2c319fa7cb7ef3f0fb49f7101a588c984b3c4b19bf618dee91b44",
    "module-moebius-f3": "0518e771dc14eb05bdadc0456f890d97df4e1ddad961d6587d9e96e96c9c5060",
    "module-moebius-z": "06655bee7a5d0e302fbb98d1077633547398e44586debed01df51a4cdba05318",
    "module-rp2-f2": "3a6415772fbd3a7728029eaf5c64acc1d1f155ea0d1b5d3109e117fcd67a797c",
    "module-rp2-z": "7cbd4d359f857fcfc66e06a534e311a96e92e7b3322f21ef866e05cd817f6b1e",
    "robust_radius-moebius": "54544fd1817bb98b0ecbe0edb14aca59d486df5d0661387bbf429b4138a8b3b5",
    "robust_radius-rp2": "aa9e8aaf2ee94b932b1282cdc9958da880dd100cd50ed6c075c307d21e0387eb",
    "circle.module-octagon_winding2-q": "49ec2c9d117200afe39211a99fc0fb08a3659e22d057903d847043d87d295438",
    "circle.module-octagon_winding2-f2": "e30fd00262c359838ced49ce40ef48eb47bb347d4c4cec992ec852e8f75be937",
    "circle.module-octagon_winding2-z": "4d15c1ac2fb66b5306a2340a7148e99ec3dc5fb5c463b6d579d38752fc194971",
    "circle.module-moebius-q": "d6b008a0b0767774c9742a3a64a61b1ba44b4ca1f309bae1540ecc924103191b",
    "circle.module-moebius-f2": "5d2db2ded2cec3e1f722261ccb717009582d9c02730c63875aff5d68b510ee9a",
    "circle.module-moebius-z": "24658c1dfa60e05e1c9582176dc4587f6c9490f4093093fc41067d8befec4f88",
    "circle.barcode-moebius-f2": "c6958bb333157c1ddc8f049a7960f8108c6d159e8f9c848f976d52004403840d",
    "circle.barcode-moebius-f3": "08abe5d14ae5405373af429d9415f4d6a0588fb488b64371e52253623c22067b",
    "check-edge": "38805d8e12c06c27c3d8e7dadec7955a38ac01ee120d548bf21feec90c617881",
    "check-grid_identity": "3929c484b8ec9abfa825b2b20467e156799e9c6482003665367eed335249253a",
    "check-octagon_winding2": "3929c484b8ec9abfa825b2b20467e156799e9c6482003665367eed335249253a",
    "check-rectangle_y": "1b339d14bbbba909dfb9a44acf403eb70e20ec5e64fa38e652d1a5464e6edf15",
    # Signs mode filters the input complex itself; these were recorded on
    # the route that filtered the zero-split subdivision.
    "signs.barcode-edge-f2": "95a76f7e61d321383e00cc55fbecf55f57633eae44dd940fbab8e8f7558f0d7e",
    "signs.module-edge-q": "a096432302bf6ec15dcfb9bdc8d7f92764fbbb1bac4c5e28ae4ee609f41b0d0f",
    "signs.criticals-edge": "9231da9e688c32f35340de8ff6627f7a9e09ec9b212717baaa6a8419d7e7b17e",
    "signs.robust_radius-edge": "837d8fb1d438579771adbc404fec7cc749041c2b0ec8ee1aa190f48985227d9a",
    "signs.barcode-rectangle_y-f2": "95a76f7e61d321383e00cc55fbecf55f57633eae44dd940fbab8e8f7558f0d7e",
    "signs.module-rectangle_y-q": "a096432302bf6ec15dcfb9bdc8d7f92764fbbb1bac4c5e28ae4ee609f41b0d0f",
    "signs.criticals-rectangle_y": "9231da9e688c32f35340de8ff6627f7a9e09ec9b212717baaa6a8419d7e7b17e",
    "signs.robust_radius-rectangle_y": "533f72950488fb894a1eb3edd7310889c1fe71ae8fe766841009c2166adcac90",
    "signs.barcode-signs_mixed-f2": "46d7d5b40c461d6e810d9c4ecf9f4910a6f06308dadc84e5de91e515dac346e1",
    "signs.module-signs_mixed-q": "22e485eedffb4a7032c16152349c938f3936878617329f9fed908cc794b2f2d8",
    "signs.criticals-signs_mixed": "ae8b3357188eb9e7757965a2b8e7203642fb30cf078c4d119a37cc9d923fbd36",
    "signs.robust_radius-signs_mixed": "0cba36e60e3cffdaf31f8f2c6a44e8439de033e94f10ddbd74e2bfc7eaad90d6",
    # `perturb` at --delta 1/3: linf moves each coordinate by up to delta,
    # l1 and l2 by up to delta/n.
    "perturb-grid_identity": "40118e5c12869f71da3236382c8e4df143a3142d6b5daa917ce32d48ab2ae40e",
    "perturb-grid_l1": "ca6e08e1a698b9b1e0c2f9b3403d17b66c6fec505761bc57b491231b51a2c8b1",
    "perturb-grid_l2": "6d888f71783b8a9731e3bac6d7dd41d0ef7f90c963fa86a7ad2205c0e6b4bfac",
}


FIXTURES = {"moebius": moebius_odd_winding_map, "rp2": projective_plane_map,
            "signs_mixed": signs_mixed_map,
            "grid_l1": lambda: seeded_grid_map(11, 3, 2, "l1"),
            "grid_l2": lambda: seeded_grid_map(12, 3, 3, "l2")}


@pytest.mark.parametrize("label", sorted(PINNED_STDOUT))
def test_pinned_stdout(label, tmp_path, capsys):
    mode, _, command = label.rpartition(".")
    command, name, *field = command.split("-")
    if name in FIXTURES:
        path = tmp_path / f"{name}.json"
        path.write_text(as_document(FIXTURES[name]()))
    else:
        path = os.path.join(SAMPLE_INPUTS, f"{name}.json")
    argv = [command.replace("_", "-"), str(path), "--seed", "7"]
    if command == "perturb":
        argv += ["--delta", "1/3"]
    elif command != "check":
        argv += ["--mode", mode or "hopf"]
    if field:
        argv += ["--field", field[0]]
    assert cli.main(argv) == 0
    out, _ = capsys.readouterr()
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINNED_STDOUT[label]


# `bottleneck` of a sample input against its `perturb --delta 1/4 --seed 7`
# at seed 7, recorded when every mode still filtered the subdivision; it now
# filters the input complex by exact simplex minima.
PINNED_BOTTLENECK = {
    ("grid_identity", "hopf", "q"): "12051/65536",
    ("grid_identity", "hopf", "f2"): "12051/65536",
    ("grid_identity", "circle", "q"): "12051/65536",
    ("grid_identity", "circle", "f2"): "12051/65536",
    ("octagon_winding2", "hopf", "q"): "0",
    ("octagon_winding2", "circle", "q"): "8320335247/69134712832",
}


@pytest.mark.parametrize("name, mode, field", sorted(PINNED_BOTTLENECK))
def test_pinned_bottleneck_against_a_perturbation(name, mode, field, tmp_path, capsys):
    path = os.path.join(SAMPLE_INPUTS, f"{name}.json")
    assert cli.main(["perturb", path, "--delta", "1/4", "--seed", "7"]) == 0
    perturbed = tmp_path / "perturbed.json"
    perturbed.write_text(capsys.readouterr()[0])
    argv = ["bottleneck", path, str(perturbed), "--mode", mode, "--field", field, "--seed", "7"]
    assert cli.main(argv) == 0
    out, _ = capsys.readouterr()
    assert out == '{"distance":{"rat":"%s"}}\n' % PINNED_BOTTLENECK[name, mode, field]


@pytest.mark.parametrize("command", ["fuzz", "bottleneck"])
@pytest.mark.parametrize("name, mode, n, dim", [
    ("grid_identity", "signs", 2, 2), ("edge", "circle", 1, 1), ("octagon_winding2", "signs", 2, 1),
])
def test_fuzz_and_bottleneck_reject_a_mode_that_does_not_apply(command, name, mode, n, dim,
                                                               capsys):
    path = os.path.join(SAMPLE_INPUTS, f"{name}.json")
    argv = [command, path, "--mode", mode]
    argv += ["--delta", "1/10", "--trials", "2"] if command == "fuzz" else [path]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"mode error: mode {mode} does not apply to n={n}, dim X={dim}; "
                   "supported regimes: n=1 (signs), n=2 (circle), dim X <= n (hopf)\n")


def test_cached_parser_prints_what_fresh_parsers_print(tmp_path, capsys, monkeypatch):
    # One parser serves every in-process `main` call; a run of different
    # subcommands, with an error and a repeat among them, prints the same
    # bytes and exit codes as the same run with a fresh parser per call.
    edge = tmp_path / "edge.json"
    edge.write_text(as_document(edge_map()))
    grid = os.path.join(SAMPLE_INPUTS, "grid_identity.json")
    runs = [
        ["criticals", str(edge)],
        ["barcode", grid, "--field", "f2", "--seed", "3"],
        ["robust-radius", str(edge), "--mode", "signs"],
        ["perturb", str(edge), "--delta", "1/10", "--seed", "5"],
        ["bottleneck", grid, grid],
        ["criticals", str(tmp_path / "missing.json")],
        ["module", grid, "--field", "z", "--seed", "3"],
        ["criticals", str(edge)],
    ]

    def outputs():
        printed = []
        for argv in runs:
            code = cli.main(argv)
            printed.append((code, *capsys.readouterr()))
        return printed

    assert cli.build_parser() is cli.build_parser()
    cached = outputs()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert cli.build_parser() is not cli.build_parser()
    assert cached == outputs()
    assert cached[0] == cached[-1] and cached[5][0] == 1


@pytest.mark.parametrize("mode", ["hopf", "signs"])
def test_integral_barcode_fails_before_any_module(mode, tmp_path, capsys, monkeypatch):
    def no_module(*args):
        raise AssertionError("assembled a module for an integral barcode")

    monkeypatch.setattr(pipeline, "assemble_pointed_module", no_module)
    path = tmp_path / "edge.json"
    path.write_text(as_document(edge_map()))
    assert cli.main(["barcode", str(path), "--mode", mode, "--field", "z"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("input error:")

    # Two barcode documents need no analysis, so `--field` is not read.
    assert cli.main(["barcode", str(path), "--mode", mode]) == 0
    doc = tmp_path / "bar.json"
    doc.write_text(capsys.readouterr().out)
    assert cli.main(["bottleneck", str(doc), str(doc), "--field", "z"]) == 0
    assert json.loads(capsys.readouterr().out) == {"distance": {"rat": "0"}}
