import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from corpus import SCALE_KET, feed_forward_circuit, ghz_circuit, h_then_measure_circuit, parity_circuit, random_circuit
from test_deferral import dropped_z_pair
from test_semantics import splitmix64_output, splitmix64_seed_with_output, x_then_measure, zero_draw_seed
from qcirc import cli
from qcirc.circuit import Gate, Measurement, QuantumCircuit, standard_measure_gate, unitary_gate
from qcirc.cli import build_parser, main
from qcirc.deferral import Commensuration, defer_measurements
from qcirc.linalg import H
from qcirc.scheduling import greedy_schedule
from qcirc.semantics import sample
from qcirc.serialize import (
    ParseError,
    circuit_to_json,
    dumps,
    matrix_from_json,
    matrix_to_json,
    parse_circuit,
    poset_from_json,
    schedule_from_json,
    serialize_circuit,
    state_from_json,
)

FIXTURES = Path(__file__).parent / "fixtures"
TELEPORT = str(FIXTURES / "teleport.json")
PSI = str(FIXTURES / "psi.json")


def out_json(capsys):
    return json.loads(capsys.readouterr().out)


# --- serialization ----------------------------------------------------------


def test_matrix_roundtrip():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    assert np.array_equal(matrix_from_json(matrix_to_json(m)), m)


def test_matrix_rejects_malformed():
    with pytest.raises(ParseError):
        matrix_from_json({"rows": 2, "cols": 2, "entries": [[1, 0]]})


def test_circuit_roundtrip_is_identity(teleport):
    text = serialize_circuit(teleport)
    c2 = parse_circuit(text)
    assert serialize_circuit(c2) == text
    assert json.loads(dumps(circuit_to_json(c2))) == json.loads(text)


def test_circuit_roundtrip_random():
    for seed in range(8):
        c = random_circuit(np.random.default_rng(seed))
        text = serialize_circuit(c)
        assert serialize_circuit(parse_circuit(text)) == text


def test_parse_rejects_bad_version(teleport):
    obj = json.loads(serialize_circuit(teleport))
    obj["version"] = "other"
    with pytest.raises(ParseError) as e:
        parse_circuit(json.dumps(obj))
    assert e.value.diagnostics[0].code == "bad-version"


def test_parse_rejects_invalid_circuit():
    with pytest.raises(ParseError) as e:
        parse_circuit((FIXTURES / "bad_circuit.json").read_text())
    assert any(d.code == "non-unitary-op" for d in e.value.diagnostics)


def test_parse_rejects_bad_json():
    with pytest.raises(ParseError) as e:
        parse_circuit("{nope")
    assert e.value.diagnostics[0].code == "bad-json"


def test_state_from_json_ket_and_matrix():
    rho = state_from_json({"ket": [[1, 0], [0, 0]]})
    assert rho.n_qubits == 1 and rho.matrix[0, 0] == 1
    rho2 = state_from_json(matrix_to_json(np.eye(2, dtype=complex) / 2))
    assert rho2.n_qubits == 1
    with pytest.raises(ParseError):
        state_from_json({"ket": [[1, 0], [0, 0], [0, 0]]})


def test_schedule_and_poset_from_json():
    x = schedule_from_json(json.loads((FIXTURES / "schedule.json").read_text()))
    assert x.gate_ids() == {"CNOT", "H", "M", "N", "XN", "ZM"}
    p = poset_from_json(json.loads((FIXTURES / "poset.json").read_text()))
    assert p.lt("a", "b") and not p.lt("b", "a")


# --- CLI --------------------------------------------------------------------


def test_cli_validate_ok(capsys):
    assert main(["validate", TELEPORT]) == 0
    assert out_json(capsys) == {"ok": True}


def test_cli_validate_bad(capsys):
    assert main(["validate", str(FIXTURES / "bad_circuit.json")]) == 1
    err = capsys.readouterr().err
    assert "non-unitary-op" in err


def test_cli_usage_error_exits_2():
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["run", TELEPORT, "--input", PSI])  # missing --seed
    assert e.value.code == 2


def _fresh_parse(argv, capsys):
    """(exit code, stdout, stderr) of a newly built parser on argv; the code
    is None when the arguments parse."""
    try:
        build_parser().parse_args(argv)
        code = None
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_usage_error_leaves_the_shared_parser_as_it_was(capsys):
    """`main` reuses one parser: a usage error prints what a fresh parser
    prints and leaves the next command's output unchanged."""
    valid = ["aggregate", TELEPORT, "--input", PSI]
    assert main(valid) == 0
    alone = capsys.readouterr().out
    bad = ["run", TELEPORT, "--input", PSI, "--seed", "x"]
    with pytest.raises(SystemExit) as e:
        main(bad)
    assert e.value.code == 2
    captured = capsys.readouterr()
    assert (2, captured.out, captured.err) == _fresh_parse(bad, capsys)
    assert main(valid) == 0
    assert capsys.readouterr().out == alone


def test_cli_options_do_not_leak_between_calls(capsys):
    """`run --shots 5` followed by `run` prints the single-shot output."""
    single = ["run", TELEPORT, "--input", PSI, "--seed", "7"]
    args = build_parser().parse_args(single)
    assert args.fn(args) == 0
    expected = capsys.readouterr().out
    assert main([*single, "--shots", "5"]) == 0
    assert "frequencies" in out_json(capsys)
    assert main(single) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"], ["check-faithful", "-h"]])
def test_cli_help_is_that_of_a_fresh_parser(capsys, argv):
    with pytest.raises(SystemExit) as e:
        main(argv)
    captured = capsys.readouterr()
    assert (e.value.code, captured.out, captured.err) == _fresh_parse(argv, capsys)
    assert e.value.code == 0 and captured.out.startswith("usage: qcirc")


@pytest.mark.parametrize(
    "argv",
    [
        ["run", TELEPORT, "--input", PSI, "--seed", "7", "--shots", "0"],
        ["run", TELEPORT, "--input", PSI, "--seed", "7", "--shots", "-1"],
        ["schedules", TELEPORT, "--enumerate", "--limit", "0"],
        ["check-faithful", TELEPORT, TELEPORT, "--zeta", PSI, "--inputs", "random:0"],
        ["check-faithful", TELEPORT, TELEPORT, "--zeta", PSI, "--inputs", "random:-3"],
    ],
    ids=["shots-0", "shots-negative", "limit-0", "random-0", "random-negative"],
)
def test_cli_counts_below_one_are_usage_errors(argv):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["run", TELEPORT, "--input", PSI, "--seed", "-1"],
        ["run", TELEPORT, "--input", PSI, "--seed", "-1", "--shots", "5"],
        ["check-faithful", TELEPORT, TELEPORT, "--zeta", PSI, "--inputs", "random:2", "--seed", "-4"],
    ],
    ids=["run", "run-shots", "check-faithful"],
)
def test_cli_negative_seed_is_usage_error(argv):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["run", TELEPORT, "--input", PSI, "--seed", str(2**64)],
        ["check-faithful", TELEPORT, TELEPORT, "--zeta", PSI, "--inputs", "random:2", "--seed", str(2**64)],
    ],
    ids=["run", "check-faithful"],
)
def test_cli_seed_of_2_to_the_64_is_usage_error(argv):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2


def test_cli_non_finite_operator_is_a_diagnostic(tmp_path, capsys):
    obj = json.loads(Path(TELEPORT).read_text())
    obj["gates"][1]["ops"]["H"]["entries"][0] = [float("nan"), 0.0]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(obj))
    assert main(["aggregate", str(path)]) == 1
    assert "non-finite-entry" in capsys.readouterr().err


@pytest.mark.parametrize(
    "state",
    [{"ket": [[float("nan"), 0.0], [0.0, 0.0]]}, matrix_to_json(np.diag([1.0, np.inf]))],
    ids=["ket", "matrix"],
)
def test_cli_non_finite_state_is_a_diagnostic(tmp_path, capsys, state):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state))
    assert main(["aggregate", TELEPORT, "--input", str(path)]) == 1
    assert json.loads(capsys.readouterr().err)["code"] == "non-finite-entry"


@pytest.mark.parametrize(
    "flags",
    [
        ["--tol", "nan"],
        ["--tol", "inf"],
        ["--tol", "-1e-9"],
        ["--tol", "x"],
        ["--inputs", "random:x"],
        ["--inputs", "corners"],
    ],
    ids=["tol-nan", "tol-inf", "tol-negative", "tol-text", "random-text", "unknown-spec"],
)
def test_cli_check_faithful_bad_flags_are_usage_errors(flags):
    # argparse rejects these before any file (here the stand-in zeta) is read
    with pytest.raises(SystemExit) as e:
        main(["check-faithful", TELEPORT, TELEPORT, "--zeta", PSI, *flags])
    assert e.value.code == 2


def test_cli_linalg_error_is_semantic(tmp_path, capsys):
    not_psd = tmp_path / "not_psd.json"
    not_psd.write_text(json.dumps(matrix_to_json(np.diag([2.0, -1.0]).astype(complex))))
    assert main(["aggregate", TELEPORT, "--input", str(not_psd)]) == 1
    assert json.loads(capsys.readouterr().err)["code"] == "semantic-error"


@pytest.mark.parametrize(
    "rows, cols",
    [(-2, -2), (-1, -4), (2.5, 2), (2.0, 2), (True, 4), ("2", 2)],
    ids=["negative", "negative-one", "fraction", "float", "bool", "string"],
)
def test_cli_bad_matrix_dimensions(tmp_path, capsys, rows, cols):
    """Each case has as many entries as rows * cols, so only the dimensions
    are wrong: negative, or not a JSON integer (which `int()` would truncate)."""
    obj = json.loads(Path(TELEPORT).read_text())
    obj["gates"][1]["ops"]["H"].update(rows=rows, cols=cols)
    path = tmp_path / "dims.json"
    path.write_text(json.dumps(obj))
    assert main(["validate", str(path)]) == 1
    assert json.loads(capsys.readouterr().err)["code"] == "bad-matrix"


def test_cli_bad_state_dimensions(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"rows": -1, "cols": -1, "entries": [[1.0, 0.0]]}))
    assert main(["aggregate", TELEPORT, "--input", str(path)]) == 1
    assert json.loads(capsys.readouterr().err)["code"] == "bad-matrix"


def test_cli_empty_state_matrix_is_bad_state(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"rows": 0, "cols": 0, "entries": []}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["aggregate", TELEPORT, "--input", str(path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "bad-state" and "2^n x 2^n" in err["message"]


def test_cli_missing_file_exits_1(capsys):
    assert main(["validate", str(FIXTURES / "missing.json")]) == 1
    assert "io-error" in capsys.readouterr().err


def test_cli_aggregate(capsys):
    assert main(["aggregate", TELEPORT, "--input", PSI]) == 0
    data = out_json(capsys)
    assert len(data["tracks"]) == 4
    for t in data["tracks"]:
        assert abs(t["probability_on"] - 0.25) <= 1e-9


def test_cli_run_single(capsys):
    assert main(["run", TELEPORT, "--input", PSI, "--seed", "7"]) == 0
    data = out_json(capsys)
    assert set(data["track"]) == {"M", "N"}
    assert data["final_state_raw"]["rows"] == 8
    tr = sum(
        data["final_state_normalized"]["entries"][9 * i][0] for i in range(8)
    )
    assert abs(tr - 1.0) <= 1e-9


@pytest.mark.parametrize("shots", [[], ["--shots", "3"]], ids=["single", "shots"])
def test_cli_run_path_of_probability_below_1e9(tmp_path, capsys, shots):
    """One qubit and 30 pairs H; M: every path has probability 2^-30, and its
    un-normalized final state is that small."""
    gates = [g for i in range(30) for g in (unitary_gate(f"h{i}", [0], H), standard_measure_gate(f"m{i}", 0))]
    circuit, ket = tmp_path / "hm30.json", tmp_path / "zero.json"
    circuit.write_text(serialize_circuit(QuantumCircuit(("q",), tuple(gates))))
    ket.write_text(json.dumps({"ket": [[1.0, 0.0], [0.0, 0.0]]}))
    assert main(["run", str(circuit), "--input", str(ket), "--seed", "1", *shots]) == 0
    data = out_json(capsys)
    if shots:
        assert sum(f["count"] for f in data["frequencies"]) == 3
    else:
        raw = data["final_state_raw"]["entries"]
        assert raw[0][0] + raw[3][0] == pytest.approx(2.0**-30, rel=1e-9)


def test_cli_run_deterministic_output(capsys):
    assert main(["run", TELEPORT, "--input", PSI, "--seed", "7", "--shots", "50"]) == 0
    first = capsys.readouterr().out
    assert main(["run", TELEPORT, "--input", PSI, "--seed", "7", "--shots", "50"]) == 0
    assert capsys.readouterr().out == first
    assert sum(f["count"] for f in json.loads(first)["frequencies"]) == 50


def test_cli_run_shots_golden(capsys):
    """Shot counts are pinned to the digest printed once the shot seeds, too,
    came from SplitMix64 (the counts are 975/1032/982/1011 against 1000 each)."""
    assert main(["run", TELEPORT, "--input", PSI, "--seed", "7", "--shots", "4000"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "9c8e70aacaab1c1e9a89c5c5bdfc6409004881619aeeef91245cab8a27de5354"



def test_cli_run_normalizes_an_input_of_any_scale(tmp_path, capsys):
    """H then a measurement of register 0, on the probe input at scale 1e-160:
    K K^dag is subnormal, yet the normalized final state has register 1's
    probabilities 0.3 and 0.7 on its diagonal, as at scale 1."""
    circuit, ket = tmp_path / "c.json", tmp_path / "ket.json"
    circuit.write_text(serialize_circuit(h_then_measure_circuit([0])))
    diagonals = []
    for scale in (1.0, 1e-160):
        ket.write_text(json.dumps({"ket": [[z.real, z.imag] for z in SCALE_KET * scale]}))
        assert main(["run", str(circuit), "--input", str(ket), "--seed", "1"]) == 0
        data = out_json(capsys)
        b = int(data["track"]["m0"])
        entries = data["final_state_normalized"]["entries"]
        diagonals.append([entries[5 * i][0] for i in range(4)])
        assert diagonals[-1][2 * b : 2 * b + 2] == pytest.approx([0.3, 0.7], abs=1e-12)
    assert diagonals[0] == pytest.approx(diagonals[1], abs=1e-15)


def _x_then_measure_files(tmp_path, amplitude):
    circuit, ket = tmp_path / "x.json", tmp_path / "ket.json"
    circuit.write_text(serialize_circuit(x_then_measure()))
    ket.write_text(json.dumps({"ket": [[amplitude, 0.0], [0.0, 0.0]]}))
    return str(circuit), str(ket)


def test_cli_run_zero_draw_takes_the_outcome_of_probability_one(tmp_path, capsys):
    """X, then a measurement, of |0>: the seed whose draw at the measurement
    is 0 prints the track m = 1, alone and as the first shot seed of
    `run --shots` (the seed whose stream starts with it)."""
    circuit, ket = _x_then_measure_files(tmp_path, 1.0)
    seed = zero_draw_seed(1)
    assert main(["run", circuit, "--input", ket, "--seed", str(seed)]) == 0
    assert out_json(capsys)["track"] == {"m": "1"}
    stream = splitmix64_seed_with_output(seed, 0)
    assert splitmix64_output(stream, 0) == seed
    assert main(["run", circuit, "--input", ket, "--seed", str(stream), "--shots", "3"]) == 0
    assert out_json(capsys)["frequencies"] == [{"outcomes": {"m": "1"}, "count": 3, "frequency": 1.0}]


def test_cli_run_accepts_a_state_that_aggregate_accepts(tmp_path, capsys):
    """The ket (1e-160, 0), of trace 1e-320: `aggregate` gives the outcome 1
    probability 1, and `run` takes that track, alone and with shots; the
    normalized final state is |1><1|."""
    circuit, ket = _x_then_measure_files(tmp_path, 1e-160)
    assert main(["aggregate", circuit, "--input", ket]) == 0
    assert [t["probability_on"] for t in out_json(capsys)["tracks"]] == [0.0, 1.0]
    assert main(["run", circuit, "--input", ket, "--seed", "1"]) == 0
    data = out_json(capsys)
    assert data["track"] == {"m": "1"}
    assert data["final_state_raw"]["entries"][3] == [1e-320, 0.0]
    assert data["final_state_normalized"]["entries"] == [[0.0, 0.0]] * 3 + [[pytest.approx(1.0), 0.0]]
    assert main(["run", circuit, "--input", ket, "--seed", "1", "--shots", "4"]) == 0
    assert out_json(capsys)["frequencies"] == [{"outcomes": {"m": "1"}, "count": 4, "frequency": 1.0}]


def test_cli_probabilities_do_not_depend_on_the_state_scale(tmp_path, capsys):
    """A standard measurement of sqrt(0.3)|0> + sqrt(0.7)|1> times 1e-160,
    whose trace 1e-320 is subnormal: `aggregate --input` prints 0.3 and 0.7,
    and `run` the probability of the outcome it takes, each within 1e-15."""
    circuit, ket = tmp_path / "m.json", tmp_path / "ket.json"
    circuit.write_text(serialize_circuit(QuantumCircuit(("q",), (standard_measure_gate("m", 0),))))
    ket.write_text(json.dumps({"ket": [[np.sqrt(0.3) * 1e-160, 0.0], [np.sqrt(0.7) * 1e-160, 0.0]]}))
    want = {"0": 0.3, "1": 0.7}
    assert main(["aggregate", str(circuit), "--input", str(ket)]) == 0
    got = {t["outcomes"]["m"]: t["probability_on"] for t in out_json(capsys)["tracks"]}
    assert got.keys() == want.keys() and all(abs(got[o] - want[o]) <= 1e-15 for o in want)
    taken = {}
    for seed in range(8):
        assert main(["run", str(circuit), "--input", str(ket), "--seed", str(seed)]) == 0
        [step] = out_json(capsys)["steps"]
        taken[step["outcomes"][0]] = step["probability"]
    assert taken.keys() == want.keys() and all(abs(taken[o] - want[o]) <= 1e-15 for o in want)


def test_cli_ket_whose_trace_underflows(tmp_path, capsys):
    """GHZ-2 on the ket (1e-170, 0, 0, 0), whose trace 1e-340 underflows to
    0 though the ket is not zero: `aggregate --input` prints the
    probabilities it prints at scale 1, and `run`, alone and with shots,
    fails with `final state has zero trace`, since the final trace
    underflows at the input's scale; neither writes stdout."""
    circuit, ket = tmp_path / "ghz2.json", tmp_path / "ket.json"
    circuit.write_text(serialize_circuit(ghz_circuit(2)))
    ket.write_text(json.dumps({"ket": [[1e-170, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}))
    assert main(["aggregate", str(circuit), "--input", str(ket)]) == 0
    half = 0.49999999999999994
    assert [t["probability_on"] for t in out_json(capsys)["tracks"]] == [half, 0.0, 0.0, half]
    for shots in [], ["--shots", "3"]:
        assert main(["run", str(circuit), "--input", str(ket), "--seed", "1", *shots]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "severity": "error", "code": "semantic-error", "message": "final state has zero trace"
        }


def test_cli_aggregate_on_a_ket_builds_no_density_matrix(monkeypatch, capsys):
    """`aggregate --input` reads each probability off the ket itself: the
    loaded state's 2^n x 2^n `matrix` is never built."""
    loaded, load = [], cli._load_state
    monkeypatch.setattr(cli, "_load_state", lambda path: loaded.append(load(path)) or loaded[-1])
    assert main(["aggregate", TELEPORT, "--input", PSI]) == 0
    assert len(out_json(capsys)["tracks"]) == 4
    assert len(loaded) == 1 and loaded[0].factor.shape == (8, 1) and "matrix" not in vars(loaded[0])


@pytest.mark.parametrize("seed", [7, 2**64 - 1])
def test_cli_run_draws_the_documented_shot_seeds(capsys, seed):
    """`run --shots N --seed s` tallies `sample` over the N shot seeds
    `splitmix64_output(s, i)`, i < N: the first N outputs of seed s's
    SplitMix64 stream. Single-shot `run --seed s` prints the shot
    `sample(..., [s])[0]`."""
    c = parse_circuit(Path(TELEPORT).read_text())
    rho = state_from_json(json.loads(Path(PSI).read_text()))
    x = greedy_schedule(c)
    counts: dict = {}
    for r in sample(c, x, rho, [splitmix64_output(seed, i) for i in range(300)]):
        counts[r.track.outcomes] = counts.get(r.track.outcomes, 0) + 1
    assert main(["run", TELEPORT, "--input", PSI, "--seed", str(seed), "--shots", "300"]) == 0
    tallies = {tuple(sorted(f["outcomes"].items())): f["count"] for f in out_json(capsys)["frequencies"]}
    assert tallies == counts
    (shot,) = sample(c, x, rho, [seed])
    assert main(["run", TELEPORT, "--input", PSI, "--seed", str(seed)]) == 0
    data = out_json(capsys)
    assert data["track"] == shot.track.as_dict()
    assert data["final_state_raw"] == matrix_to_json(shot.final_state.matrix)
    assert [(s["bout"], s["outcomes"], s["probability"]) for s in data["steps"]] == [
        (list(b), list(o), p) for b, o, p in shot.step_log
    ]

def _sha256(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["aggregate", TELEPORT, "--input", PSI],
         "d83437002808f95fae21ef3b9502f92836442b1b05af064c2d6f69fcc20618e3"),
        (["run", TELEPORT, "--input", PSI, "--seed", "7"],
         "8d2d08f762c6875ef6d4bc41f315aca1bf18e5ae2e904a58fdf977f2c64b8e2d"),
        (["schedules", TELEPORT, "--enumerate", "--limit", "10"],
         "216d31eee5de3f49c39216e41dea9ce2e1daaffdf1c911ef67358b9378b3214a"),
        (["run", TELEPORT, "--input", PSI, "--seed", str(2**64 - 1), "--shots", "500",
          "--schedule", str(FIXTURES / "schedule.json")],
         "7e6823b5a737f42fb7f9217efe44127919098e1db54a8f7e200994212f79e039"),
    ],
    ids=["aggregate", "run-single", "schedules", "run-shots-schedule-max-seed"],
)
def test_cli_stdout_golden(capsys, argv, digest):
    """Digests of the stdout `json.dumps(..., indent=2)` printed before
    `serialize.dumps` replaced it. The two `run` cases (the second with a
    non-greedy schedule and the largest seed, 2**64 - 1) are the ones printed
    once every bout drew its u from the shot seed's SplitMix64 stream. The
    `aggregate` case is the one printed once `probability_on` read
    ||A K||^2 / ||K||^2 off the state's factor: each track's probability is
    0.24999999999999997, where the dense tr(A rho A^dag) gave 0.24999999999999994."""
    assert main(argv) == 0
    assert _sha256(capsys.readouterr().out) == digest


def test_cli_defer_and_check_faithful_golden(tmp_path, capsys):
    """The deferred circuit, byte for byte as `json.dumps(..., indent=2)`
    wrote it, and its sidecar and exact check report in their gate-to-gate
    form (`zeta`, `labels`, `absorbed`, `ancillas`; `method: exact`)."""
    out, zeta = tmp_path / "deferred.json", tmp_path / "deferred.zeta.json"
    assert main(["defer", TELEPORT, "-o", str(out)]) == 0
    capsys.readouterr()
    assert _sha256(out.read_bytes()) == "d2793ee2426b1f63451855d0108d2736824e1bc86ca3923371209b5d1f992cdc"
    assert _sha256(zeta.read_bytes()) == "ec683d15f7bf212f46609cbc0d10c9585ed10027082c577d37d7f5a94e58aa7d"
    assert main(["check-faithful", TELEPORT, str(out), "--zeta", str(zeta)]) == 0
    assert _sha256(capsys.readouterr().out) == "00c4014eac0c1c972cb6223dd25374e5598e20150c74432c39ce424502857ad0"


def test_cli_run_with_schedule_file(capsys):
    assert (
        main(
            [
                "run",
                TELEPORT,
                "--input",
                PSI,
                "--seed",
                "1",
                "--schedule",
                str(FIXTURES / "schedule.json"),
            ]
        )
        == 0
    )
    out_json(capsys)


def test_cli_schedules(capsys):
    assert main(["schedules", TELEPORT]) == 0
    data = out_json(capsys)
    assert data["schedules"][0]["bouts"][0] == ["CNOT"]
    assert main(["schedules", TELEPORT, "--enumerate", "--limit", "5"]) == 0
    assert len(out_json(capsys)["schedules"]) == 5


def test_cli_defer_and_check_faithful(tmp_path, capsys):
    out = str(tmp_path / "deferred.json")
    assert main(["defer", TELEPORT, "-o", out]) == 0
    data = out_json(capsys)
    assert data["red_gates"] == [] and data["ancillas"] == []
    zeta = data["zeta"]
    assert zeta == str(tmp_path / "deferred.zeta.json")
    assert Path(out).exists() and Path(zeta).exists()

    assert (
        main(
            [
                "check-faithful",
                TELEPORT,
                out,
                "--zeta",
                zeta,
                "--inputs",
                "random:5",
                "--seed",
                "3",
            ]
        )
        == 0
    )
    report = out_json(capsys)
    assert report["ok"] and report["inputs_checked"] == 5


@pytest.mark.parametrize("inputs", [[], ["--inputs", "basis"], ["--inputs", "random:4"]],
                         ids=["exact", "basis", "random"])
def test_cli_check_faithful_of_tracks_with_no_rows(tmp_path, capsys, inputs):
    """A 7-register circuit that measures r0 twice, checked against itself:
    the tracks whose two labels differ hold no rows of the target, and a
    chunk of pairs can hold only such tracks. The check passes."""
    gates = [unitary_gate("h0", [0], H), standard_measure_gate("m1", 0), standard_measure_gate("m2", 0)]
    gates += [unitary_gate(f"h{r}", [r], H) for r in range(1, 7)]
    c = QuantumCircuit(tuple(f"r{r}" for r in range(7)), tuple(gates))
    circuit, zeta = tmp_path / "c.json", tmp_path / "c.zeta.json"
    circuit.write_text(serialize_circuit(c))
    zeta.write_text(json.dumps(Commensuration.identity(c).to_json()))
    assert main(["check-faithful", str(circuit), str(circuit), "--zeta", str(zeta), *inputs]) == 0
    assert out_json(capsys)["ok"]


def test_cli_check_faithful_of_deferred_parity_5_on_basis_inputs(tmp_path, capsys):
    """Parity-5, deferred, checked on its 64 basis inputs."""
    circuit, out = tmp_path / "parity5.json", str(tmp_path / "deferred.json")
    circuit.write_text(serialize_circuit(parity_circuit(5)))
    assert main(["defer", str(circuit), "-o", out]) == 0
    zeta = out_json(capsys)["zeta"]
    assert main(["check-faithful", str(circuit), out, "--zeta", zeta, "--inputs", "basis"]) == 0
    report = out_json(capsys)
    assert report["ok"] and report["inputs_checked"] == 64 and report["tracks_checked"] == 32


@pytest.mark.parametrize("zeta", ["d.json", "./d.json", "sub/../d.json"], ids=["same", "dot", "parent"])
def test_cli_defer_zeta_on_the_output_is_a_usage_error(tmp_path, monkeypatch, capsys, zeta):
    """`--zeta` naming the file `-o` writes would overwrite the circuit with
    its sidecar; it is refused before anything is written."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    with pytest.raises(SystemExit) as e:
        main(["defer", TELEPORT, "-o", "d.json", "--zeta", zeta])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: qcirc defer") and "--zeta names the same file as -o" in err
    assert err.splitlines()[-1] == "qcirc defer: error: --zeta names the same file as -o"
    assert not (tmp_path / "d.json").exists()


@pytest.mark.parametrize(
    "name, flags, message",
    [
        ("t.json", ["-o", "t.json"], "-o names the CIRCUIT file"),
        ("t.json", ["-o", "./sub/../t.json", "--zeta", "z.json"], "-o names the CIRCUIT file"),
        ("t.json", ["-o", "d.json", "--zeta", "t.json"], "the sidecar path names the CIRCUIT file"),
        ("t.zeta.json", ["-o", "t"], "the sidecar path names the CIRCUIT file"),
    ],
    ids=["output", "output-parent", "zeta", "default-zeta"],
)
def test_cli_defer_onto_its_own_circuit_is_a_usage_error(tmp_path, monkeypatch, capsys, name, flags, message):
    """An output or sidecar path naming the source circuit would leave nothing
    to check the deferral against; it is refused before anything is written,
    and the source keeps its bytes."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    source = Path(TELEPORT).read_bytes()
    (tmp_path / name).write_bytes(source)
    with pytest.raises(SystemExit) as e:
        main(["defer", name, *flags])
    assert e.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"qcirc defer: error: {message}"
    assert (tmp_path / name).read_bytes() == source
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["sub", name])


def test_cli_defer_to_a_symlink_loop_is_an_io_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    os.symlink("b", "a")
    os.symlink("a", "b")
    assert main(["defer", TELEPORT, "-o", "a", "--zeta", "z.json"]) == 1
    assert json.loads(capsys.readouterr().err)["code"] == "io-error"


def test_cli_defer_whose_sidecar_cannot_be_written_leaves_no_circuit(tmp_path, capsys):
    out = tmp_path / "out.json"
    assert main(["defer", TELEPORT, "-o", str(out), "--zeta", str(tmp_path / "missing" / "z.json")]) == 1
    assert _first_diag(capsys)["code"] == "io-error"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("failing", ["circuit", "sidecar"])
def test_cli_defer_whose_file_cannot_be_built_truncates_nothing(tmp_path, monkeypatch, capsys, failing):
    """A `MemoryError` while a file's text is made (patched into the
    writer's pieces) comes before that file is opened: an old file at `-o`
    keeps its bytes when the circuit fails, and when the sidecar fails the
    deferred circuit is removed with it. No sidecar is written either way."""
    from qcirc import serialize

    out = tmp_path / "out.json"
    out.write_text("old")
    built, chunks = [], serialize.chunks

    def out_of_memory(obj):
        built.append(obj)
        if len(built) == ["circuit", "sidecar"].index(failing) + 1:
            raise MemoryError()
        return chunks(obj)

    monkeypatch.setattr(serialize, "chunks", out_of_memory)
    assert main(["defer", TELEPORT, "-o", str(out)]) == 1
    assert _first_diag(capsys)["code"] == "too-large"
    if failing == "circuit":
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"] and out.read_text() == "old"
    else:
        assert list(tmp_path.iterdir()) == []


def test_diag_classically_controlled_measurement(tmp_path, capsys):
    """A measurement gate controlled by an earlier outcome cannot be deferred:
    one diagnostic naming the gate, and neither output file is written."""
    pick = Gate(
        "pick", (1,),
        measurements={
            "ma": Measurement("ma", {"a0": np.diag([1.0, 0.0]), "a1": np.diag([0.0, 1.0])}),
            "mb": Measurement("mb", {"b0": np.diag([1.0, 0.0]), "b1": np.diag([0.0, 1.0])}),
        },
        classical_sources=("s",), selector={("0",): "ma", ("1",): "mb"},
    )
    circuit = tmp_path / "cc.json"
    circuit.write_text(serialize_circuit(QuantumCircuit(("q0", "q1"), (standard_measure_gate("s", 0), pick))))
    assert main(["defer", str(circuit), "-o", str(tmp_path / "out.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    diag = json.loads(captured.err)
    assert diag["code"] == "classically-controlled-measurement" and "pick" in diag["message"]
    assert list(tmp_path.iterdir()) == [circuit]


def test_cli_transpose_path(capsys):
    assert (
        main(
            [
                "transpose-path",
                str(FIXTURES / "poset.json"),
                "--from",
                str(FIXTURES / "order_a.json"),
                "--to",
                str(FIXTURES / "order_b.json"),
            ]
        )
        == 0
    )
    data = out_json(capsys)
    assert data["orders"][0] == ["a", "b", "c", "d"]
    assert data["orders"][-1] == ["a", "d", "c", "b"]
    assert data["steps"] == len(data["orders"]) - 1


def _first_diag(capsys) -> dict:
    return json.loads(capsys.readouterr().err.splitlines()[0])


def test_cli_check_faithful_default_rejects_dropped_z(tmp_path, capsys):
    """H q0; M q0; Z on q1 controlled by M, against the target with the Z
    dropped: basis inputs miss the lost phase, the default exact check
    does not."""
    src, tgt = dropped_z_pair()
    paths = [tmp_path / "src.json", tmp_path / "tgt.json", tmp_path / "zeta.json"]
    paths[0].write_text(serialize_circuit(src))
    paths[1].write_text(serialize_circuit(tgt))
    paths[2].write_text(json.dumps({"zeta": {"m": "m"}, "labels": {}, "absorbed": []}))
    argv = ["check-faithful", *map(str, paths[:2]), "--zeta", str(paths[2])]
    assert main(argv) == 1
    report = out_json(capsys)
    assert report["ok"] is False and report["method"] == "exact"
    assert main(argv + ["--inputs", "basis"]) == 0
    assert out_json(capsys)["ok"] is True


def _old_sidecar(targets) -> dict:
    """A sidecar in the bit-level format `defer` wrote before measurements
    stayed one gate, for measurements with labels 0 and 1."""
    return {
        "zeta": targets,
        "absorbed": [],
        "ancillas": [],
        "detail": {
            "assignments": {g: [[g, 0]] for g in targets},
            "label_bits": {g: {"0": ["0"], "1": ["1"]} for g in targets},
            "d_labels": {g: [[["0"], "0"], [["1"], "1"]] for g in targets},
        },
    }


def test_cli_old_sidecar_is_still_read(tmp_path, capsys):
    path = tmp_path / "old.zeta.json"
    path.write_text(json.dumps(_old_sidecar({"M": "M", "N": "N"})))
    assert main(["check-faithful", TELEPORT, TELEPORT, "--zeta", str(path)]) == 0
    assert out_json(capsys)["ok"] is True


@pytest.mark.parametrize(
    "sidecar, message",
    [
        ({"zeta": {}}, "maps to no measurement gate"),
        ([1, 2], "zeta maps gate ids"),
        ({"zeta": {"M": 5, "N": "N"}}, "as strings"),
        ({"zeta": {"M": "M", "N": "N"}, "labels": {"M": ["0"]}}, "as strings"),
        (_old_sidecar({"M": ["M", "N"], "N": "N"}), "as strings"),
        ({"zeta": {"M": "M", "N": "N"}, "absorbed": ["nope"]}, "not a single-outcome measurement"),
        ({"zeta": {"M": "M", "N": "N"}, "absorbed": ["H"]}, "not a single-outcome measurement"),
        ({"zeta": {"M": "M", "N": "N"}, "absorbed": ["M"]}, "not a single-outcome measurement"),
    ],
    ids=["empty-zeta", "list", "int-target", "labels-list", "old-split",
         "absorbed-unknown", "absorbed-unitary", "absorbed-two-outcomes"],
)
def test_cli_bad_sidecar_is_a_diagnostic(tmp_path, capsys, sidecar, message):
    path = tmp_path / "bad.zeta.json"
    path.write_text(json.dumps(sidecar))
    assert main(["check-faithful", TELEPORT, TELEPORT, "--zeta", str(path)]) == 1
    diag = _first_diag(capsys)
    assert diag["code"] == "bad-sidecar" and message in diag["message"]


def test_cli_sidecar_to_a_label_the_target_lacks_is_a_semantic_error(tmp_path, capsys):
    """H q0; M q0 against itself, with M's label 0 sent to x: the translated
    track is not a track of the target."""
    c = QuantumCircuit(("q0",), (unitary_gate("h", [0], H), standard_measure_gate("m", 0)))
    circuit, sidecar = tmp_path / "c.json", tmp_path / "c.zeta.json"
    circuit.write_text(serialize_circuit(c))
    sidecar.write_text(json.dumps({"zeta": {"m": "m"}, "labels": {"m": {"0": "x"}}, "absorbed": []}))
    assert main(["check-faithful", str(circuit), str(circuit), "--zeta", str(sidecar)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    diag = json.loads(captured.err)
    assert diag["code"] == "semantic-error" and "is not a track of the target" in diag["message"]


def test_cli_schedule_naming_an_unknown_gate_is_invalid(tmp_path, capsys):
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps({"bouts": [["nope"]]}))
    assert main(["run", TELEPORT, "--input", PSI, "--seed", "1", "--schedule", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert json.loads(captured.err)["code"] == "invalid-schedule"


def test_cli_aggregate_rejects_a_wrong_size_state_before_the_walk(tmp_path, monkeypatch, capsys):
    """A 1-qubit state against GHZ-7 is a `semantic-error` before any of the
    128 track operators is built: the walk's kernel `linalg.apply` is
    never called."""
    from qcirc import linalg

    circuit, state = tmp_path / "ghz7.json", tmp_path / "ket.json"
    circuit.write_text(serialize_circuit(ghz_circuit(7)))
    state.write_text(json.dumps({"ket": [[1.0, 0.0], [0.0, 0.0]]}))
    calls = []
    apply = linalg.apply
    monkeypatch.setattr(linalg, "apply", lambda *args: calls.append(1) or apply(*args))
    assert main(["aggregate", str(circuit), "--input", str(state)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and calls == []
    assert json.loads(captured.err) == {
        "severity": "error", "code": "semantic-error", "message": "state has 1 qubits, circuit has 7 registers"
    }


@pytest.mark.parametrize("message", ["Unable to allocate 16.0 GiB for an array", ""], ids=["numpy", "bare"])
def test_diag_too_large_on_memory_error(monkeypatch, capsys, message):
    """A `MemoryError` from a command is one `too-large` line, exit 1, not a
    traceback. The semantic function is patched to raise it; nothing large
    is allocated."""
    from qcirc import semantics

    def out_of_memory(*args, **kwargs):
        raise MemoryError(message) if message else MemoryError()

    monkeypatch.setattr(semantics, "aggregate_measurement", out_of_memory)
    assert main(["aggregate", TELEPORT]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    diag = json.loads(captured.err)
    assert diag == {"severity": "error", "code": "too-large", "message": message or "out of memory"}


def test_failing_aggregate_writes_no_stdout(tmp_path, monkeypatch, capsys):
    """A failing `aggregate` writes no byte of its document: a state of the
    wrong qubit count and a circuit past the track cap fail before any is
    built, and a `MemoryError` while the document's text is made (patched
    into the spelling of its floats) comes before its first piece is
    written."""
    from qcirc import semantics, serialize

    circuit, ket = tmp_path / "ghz3.json", tmp_path / "ket.json"
    circuit.write_text(serialize_circuit(ghz_circuit(3)))
    ket.write_text(json.dumps({"ket": [[1.0, 0.0], [0.0, 0.0]]}))
    assert main(["aggregate", str(circuit), "--input", str(ket)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "state has 1 qubits" in captured.err
    with monkeypatch.context() as m:
        m.setattr(semantics, "DEFAULT_TRACK_CAP", 1)
        assert main(["aggregate", str(circuit)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and json.loads(captured.err)["code"] == "semantic-error"

    def out_of_memory(values):
        raise MemoryError()

    monkeypatch.setattr(serialize, "_spellings", out_of_memory)
    assert main(["aggregate", str(circuit)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and json.loads(captured.err)["code"] == "too-large"


def main_in_1gib(*argv):
    """`qcirc` on argv in a child process that first limits its own address
    space to 1 GiB through `resource`, so that building anything large
    would be `too-large` there at once: its exit code, stdout and stderr
    lines as JSON."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    child = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)); "
             "from qcirc.cli import main; sys.exit(main(sys.argv[1:]))")
    proc = subprocess.run([sys.executable, "-c", child, *map(str, argv)],
                          capture_output=True, text=True, env=env, timeout=120)
    return proc.returncode, proc.stdout, [json.loads(line) for line in proc.stderr.splitlines()]


def qcirc_in_ascii_locale(*argv):
    """`qcirc` on argv in a child process under LC_ALL=C with Python's UTF-8
    mode off, where the locale's encoding is ASCII: (exit code, stdout, stderr)."""
    root = Path(__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONIOENCODING", "LANG", "LC_CTYPE")}
    env.update(LC_ALL="C", PYTHONUTF8="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    child = "import sys; from qcirc.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run([sys.executable, "-c", child, *map(str, argv)],
                          capture_output=True, text=True, env=env, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def test_input_files_are_read_as_utf8_whatever_the_locale(tmp_path):
    """A circuit file whose gate id and register name are not ASCII, written
    as UTF-8 (RFC 8259 8.1), validates under an ASCII locale, and
    `schedules` prints the id escaped."""
    c = QuantumCircuit(("\u03c1", "q1"), (unitary_gate("\u03b8", [0], H), standard_measure_gate("m", 1)))
    path = tmp_path / "theta.json"
    path.write_bytes(json.dumps(json.loads(serialize_circuit(c)), ensure_ascii=False).encode("utf-8"))
    assert "\u03b8".encode() in path.read_bytes()
    rc, out, err = qcirc_in_ascii_locale("validate", path)
    assert rc == 0 and err == "" and json.loads(out) == {"ok": True}
    rc, out, err = qcirc_in_ascii_locale("schedules", path)
    assert rc == 0 and err == "" and '"\\u03b8"' in out and json.loads(out)["schedules"] == [{"bouts": [["\u03b8", "m"]]}]


def test_aggregate_past_the_cap_builds_no_identity(tmp_path):
    """GHZ-17 has 2^17 tracks: `aggregate` refuses it at the cap before the
    walk builds its 2^17 x 2^17 identity (256 GiB)."""
    circuit = tmp_path / "ghz17.json"
    circuit.write_text(serialize_circuit(ghz_circuit(17)))
    assert main_in_1gib("aggregate", circuit) == (1, "", [
        {"severity": "error", "code": "semantic-error", "message": "track count exceeds cap 65536"}
    ])


def assert_too_large(rc, out, lines):
    assert rc == 1 and out == "" and [d["code"] for d in lines] == ["too-large"]


@pytest.mark.parametrize("argv", [
    ["run", TELEPORT, "--input", PSI, "--seed", "1", "--shots", str(2**63 - 1)],
    ["run", TELEPORT, "--input", PSI, "--seed", "1", "--shots", str(2**62)],
    ["run", TELEPORT, "--input", PSI, "--seed", "1", "--shots", str(2**64 - 1)],
    ["check-faithful", TELEPORT, TELEPORT, "--zeta", "ZETA", "--inputs", f"random:{2**59}"],
], ids=["shots-2^63-1", "shots-2^62", "shots-2^64-1", "inputs-2^59"])
def test_diag_too_large_count(argv, tmp_path):
    """A count of draws past what an array can hold is `too-large` before
    anything is drawn (ZETA: teleport's identity sidecar). SplitMix64 gave
    0 columns for counts from 2^63 - 2, so 2^63 - 1 shots printed no
    frequencies, and numpy's ValueError for others was an `io-error`."""
    zeta = tmp_path / "zeta.json"
    zeta.write_text(json.dumps(Commensuration.identity(parse_circuit(Path(TELEPORT).read_text())).to_json()))
    assert_too_large(*main_in_1gib(*(zeta if a == "ZETA" else a for a in argv)))


@pytest.mark.parametrize("n", [30, 64])
@pytest.mark.parametrize("command", ["aggregate", "check-faithful"])
def test_diag_too_large_registers(command, n, tmp_path):
    """One standard measurement on n registers: the walk's 2^n x 2^n
    identity is `too-large` past numpy's limit on an array's size, as it
    is at 29 registers where numpy fails to allocate it; past the limit it
    was an `io-error`."""
    c = QuantumCircuit(tuple(f"q{i}" for i in range(n)), (standard_measure_gate("m", 0),))
    circuit, zeta = tmp_path / "c.json", tmp_path / "c.zeta.json"
    circuit.write_text(serialize_circuit(c))
    zeta.write_text(json.dumps(Commensuration.identity(c).to_json()))
    argv = [circuit] if command == "aggregate" else [circuit, circuit, "--zeta", zeta]
    assert_too_large(*main_in_1gib(command, *argv))


class _LongestPiece:
    """A text stream that discards what it is given, keeping the length of
    the longest string and the total."""

    def __init__(self):
        self.longest = self.chars = 0

    def write(self, text):
        self.longest, self.chars = max(self.longest, len(text)), self.chars + len(text)

    def writelines(self, pieces):
        for text in pieces:
            self.write(text)


def test_cli_ghz6_aggregate_is_written_in_small_pieces(tmp_path, monkeypatch):
    """GHZ-6 `aggregate --input` from |0...0>, a 14.5 MiB document, through
    `cli.main` into a stream that discards it: the tracemalloc peak stays
    at most 12 MiB, and no string handed to the stream passes 64 KiB."""
    circuit, ket = tmp_path / "ghz6.json", tmp_path / "ket.json"
    circuit.write_text(serialize_circuit(ghz_circuit(6)))
    ket.write_text(json.dumps({"ket": [[1.0, 0.0]] + [[0.0, 0.0]] * 63}))
    sink = _LongestPiece()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        assert main(["aggregate", str(circuit), "--input", str(ket)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.chars > 14 * 2**20
    assert peak <= 12 * 2**20
    assert sink.longest <= 64 * 2**10


def test_cli_shots_keep_counts_only(tmp_path, capsys):
    """Deferred ff-12 (13 registers, kets of 128 KiB) from |0...0>, `run
    --shots 1000` through `cli.main`: the tally keeps only counts and holds
    one root-to-leaf path of live kets, so the tracemalloc peak stays at
    most 10 MiB, where keeping every distinct final state would take over 100 MiB."""
    d = defer_measurements(feed_forward_circuit(12)).circuit
    circuit, ket = tmp_path / "ff12.json", tmp_path / "ket.json"
    circuit.write_text(serialize_circuit(d))
    ket.write_text(json.dumps({"ket": [[1.0, 0.0]] + [[0.0, 0.0]] * (2**d.n_registers - 1)}))
    tracemalloc.start()
    try:
        assert main(["run", str(circuit), "--input", str(ket), "--seed", "0", "--shots", "1000"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    counts = [f["count"] for f in out_json(capsys)["frequencies"]]
    assert sum(counts) == 1000 and len(counts) > 800
    assert peak <= 10 * 2**20


def test_cli_gate_ids_must_be_strings(tmp_path, capsys):
    """A mixed file (`"id": 5` for M, and ZM's control to match) and an
    all-integer file are both `bad-gate`, before any command runs."""
    obj = json.loads(Path(TELEPORT).read_text())
    for g in obj["gates"]:
        g["id"] = 5 if g["id"] == "M" else g["id"]
        g["controls"] = [5 if s == "M" else s for s in g["controls"]]
    mixed = tmp_path / "mixed.json"
    mixed.write_text(json.dumps(obj))
    assert main(["aggregate", str(mixed)]) == 1
    assert _first_diag(capsys)["code"] == "bad-gate"

    obj = json.loads(Path(TELEPORT).read_text())
    number = {g["id"]: i for i, g in enumerate(obj["gates"])}
    for g in obj["gates"]:
        g["id"] = number[g["id"]]
        g["controls"] = [number[s] for s in g["controls"]]
    ints = tmp_path / "ints.json"
    ints.write_text(json.dumps(obj))
    assert main(["defer", str(ints), "-o", str(tmp_path / "out.json")]) == 1
    assert _first_diag(capsys)["code"] == "bad-gate"
    assert not (tmp_path / "out.json").exists()


def _set(*path_and_value):
    """A mutation of a circuit object: the item at the key path becomes the value."""
    *path, key, value = path_and_value

    def mutate(obj):
        for k in path:
            obj = obj[k]
        obj[key] = value

    return mutate


@pytest.mark.parametrize(
    "mutate, code",
    [
        (_set("gates", 5), "bad-circuit"),
        (_set("gates", {"CNOT": {}}), "bad-circuit"),
        (_set("gates", 0, 5), "bad-gate"),
        (_set("gates", 2, "measurements", []), "bad-gate"),
        (_set("gates", 2, "measurements", "M", 5), "bad-gate"),
        (_set("gates", 2, "measurements", "M", "outcomes", []), "bad-gate"),
        (_set("gates", 0, "ops", []), "bad-gate"),
        (_set("gates", 0, "selector", []), "bad-gate"),
        (_set("gates", 4, "selector", "1", ["X"]), "bad-gate"),
        (_set("gates", 4, "selector", "1", 5), "bad-gate"),
        (_set("gates", 0, "registers", "01"), "bad-gate"),
        (_set("gates", 0, "registers", [0.5, 1]), "bad-gate"),
        (_set("gates", 0, "registers", [True, 1]), "bad-gate"),
        (_set("gates", 0, "registers", [0, "1"]), "bad-gate"),
    ],
    ids=["gates-number", "gates-object", "gate-number", "measurements-list",
         "measurement-number", "outcomes-list", "ops-list", "selector-list",
         "target-list", "target-number", "registers-string", "registers-fraction",
         "registers-bool", "registers-digit-string"],
)
def test_cli_malformed_circuit_object(tmp_path, capsys, mutate, code):
    """Each is a diagnostic with exit 1: not a traceback, a wrong code, or a
    coercion that `int()` would make."""
    obj = json.loads(Path(TELEPORT).read_text())
    mutate(obj)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(obj))
    assert main(["validate", str(path)]) == 1
    assert _first_diag(capsys)["code"] == code


HUGE = 10**400  # a JSON integer too large for a float


def _teleport_with(mutate) -> dict:
    obj = json.loads(Path(TELEPORT).read_text())
    mutate(obj)
    return obj


@pytest.mark.parametrize(
    "command, content, code",
    [
        ("validate", _teleport_with(_set("gates", 1, "ops", "H", "entries", 0, [HUGE, 0])), "bad-matrix"),
        ("aggregate", {"ket": [[HUGE, 0]] + [[0, 0]] * 7}, "bad-state"),
        ("aggregate", {"rows": 1, "cols": 1, "entries": [[0, HUGE]]}, "bad-matrix"),
    ],
    ids=["gate", "ket", "state-matrix"],
)
def test_cli_entry_too_large_for_a_float(tmp_path, capsys, command, content, code):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(content))
    argv = ["validate", str(path)] if command == "validate" else ["aggregate", TELEPORT, "--input", str(path)]
    assert main(argv) == 1
    assert _first_diag(capsys)["code"] == code


def _every_entry(*path, entry):
    """A mutation of a circuit object: every entry of each matrix in the
    object at the key path becomes `entry`."""

    def mutate(obj):
        for k in path:
            obj = obj[k]
        for m in obj.values():
            m["entries"] = [entry] * len(m["entries"])

    return mutate


HUGE_M = _teleport_with(_every_entry("gates", 2, "measurements", "M", "outcomes", entry=[1e200, -1e200]))
HUGE_H = _teleport_with(_every_entry("gates", 1, "ops", entry=[1e200, 1e200]))
HUGE_KET = {"ket": [[1e200, 0]] + [[0, 0]] * 7}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "command, content, code",
    [
        ("validate", HUGE_M, "measurement-incomplete"),
        ("validate", HUGE_H, "non-unitary-op"),
        ("aggregate", HUGE_KET, "non-finite-entry"),
        ("run", HUGE_KET, "non-finite-entry"),
    ],
    ids=["measurement", "unitary", "ket-aggregate", "ket-run"],
)
def test_cli_entries_too_large_to_square(tmp_path, capsys, command, content, code):
    """Finite entries whose products overflow: NaN or inf defects fail their
    check, and no numpy warning reaches stderr."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(content))
    argv = {
        "validate": ["validate", str(path)],
        "aggregate": ["aggregate", TELEPORT, "--input", str(path)],
        "run": ["run", TELEPORT, "--input", str(path), "--seed", "1"],
    }[command]
    assert main(argv) == 1
    diags = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert [d["code"] for d in diags] == [code]
    if content is HUGE_KET:
        assert "overflows" in diags[0]["message"]


DIAG_1E308 = {"rows": 8, "cols": 8, "entries": [[1e308, 0] if i in (0, 9) else [0, 0] for i in range(64)]}
KET_1E154 = {"ket": [[1e154, 0]] * 8}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["aggregate", "run"])
@pytest.mark.parametrize("content", [DIAG_1E308, KET_1E154], ids=["matrix", "ket"])
def test_diag_non_finite_entry_state_trace_overflows(tmp_path, capsys, command, content):
    """Finite input states whose trace overflows, diag(1e308, 1e308, 0, ...)
    and a ket of eight entries 1e154 (each |entry|^2 finite), end in one
    diagnostic and nothing else on stderr."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(content))
    argv = [command, TELEPORT, "--input", str(path)] + (["--seed", "1"] if command == "run" else [])
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert [json.loads(line) for line in err.splitlines()] == [
        {"severity": "error", "code": "non-finite-entry", "where": str(path),
         "message": "state too large: its trace overflows"}
    ]


@pytest.mark.parametrize("flag", ["--from", "--to"])
@pytest.mark.parametrize(
    "order", [None, 5, ["a", 1, "c", "d"], {"a": 0, "b": 1, "c": 2, "d": 3}, "abcd"],
    ids=["null", "number", "non-string-item", "object", "string"],
)
def test_cli_order_file_must_be_a_list_of_strings(tmp_path, capsys, flag, order):
    path = tmp_path / "order.json"
    path.write_text(json.dumps(order))
    files = {"--from": str(FIXTURES / "order_a.json"), "--to": str(FIXTURES / "order_b.json"), flag: str(path)}
    argv = ["transpose-path", str(FIXTURES / "poset.json"), "--from", files["--from"], "--to", files["--to"]]
    assert main(argv) == 1
    assert _first_diag(capsys)["code"] == "bad-order"


@pytest.mark.parametrize("registers", ["abc", {"a": 0, "b": 1, "c": 2}, ["a", 1, "c"]],
                         ids=["string", "object", "non-string-item"])
def test_cli_circuit_registers_must_be_a_list_of_strings(tmp_path, capsys, registers):
    path = tmp_path / "registers.json"
    path.write_text(json.dumps(_teleport_with(_set("registers", registers))))
    assert main(["validate", str(path)]) == 1
    assert _first_diag(capsys)["code"] == "bad-circuit"


@pytest.mark.parametrize("entry", [[True, False], ["1", "0"]], ids=["bools", "strings"])
def test_cli_entries_must_be_pairs_of_numbers(tmp_path, capsys, entry):
    gate = tmp_path / "gate.json"
    gate.write_text(json.dumps(_teleport_with(_set("gates", 1, "ops", "H", "entries", 0, entry))))
    assert main(["validate", str(gate)]) == 1
    assert _first_diag(capsys)["code"] == "bad-matrix"
    ket = tmp_path / "ket.json"
    ket.write_text(json.dumps({"ket": [entry] + [[0.0, 0.0]] * 7}))
    assert main(["aggregate", TELEPORT, "--input", str(ket)]) == 1
    assert _first_diag(capsys)["code"] == "bad-state"


@pytest.mark.parametrize(
    "schedule",
    [{"bouts": "ab"}, {"bouts": [[1]]}, {"bouts": [["CNOT"], "H"]},
     {"bouts": [["CNOT", "CNOT"], ["H", "N"], ["M", "XN"], ["ZM"]]}],
    ids=["string", "number-id", "string-bout", "repeat-in-bout"],
)
def test_cli_schedule_must_be_lists_of_gate_ids(tmp_path, capsys, schedule):
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps(schedule))
    assert main(["run", TELEPORT, "--input", PSI, "--seed", "1", "--schedule", str(path)]) == 1
    assert _first_diag(capsys)["code"] == "bad-schedule"


@pytest.mark.parametrize(
    "poset",
    [
        {"elements": [1, 2], "less_than": []},
        {"elements": {"a": 1}, "less_than": []},
        {"elements": ["1", "2"], "less_than": [[1, 2]]},
    ],
    ids=["number-elements", "object-elements", "number-pair"],
)
def test_cli_poset_must_hold_strings(tmp_path, capsys, poset):
    path = tmp_path / "poset.json"
    path.write_text(json.dumps(poset))
    orders = ["--from", str(FIXTURES / "order_a.json"), "--to", str(FIXTURES / "order_b.json")]
    assert main(["transpose-path", str(path), *orders]) == 1
    assert _first_diag(capsys)["code"] == "bad-poset"


@pytest.mark.parametrize(
    "poset",
    [
        {"elements": ["a", "b", "a"], "less_than": []},
        {"elements": ["a", "b"], "less_than": [["a", "z"]]},
        {"elements": ["a", "b", "c"], "less_than": [["a", "b"], ["b", "c"], ["c", "a"]]},
    ],
    ids=["repeated-element", "unknown-element", "cyclic"],
)
def test_cli_poset_must_be_a_strict_partial_order(tmp_path, capsys, poset):
    """Strings that do not form a strict partial order are `bad-poset` too,
    exit 1, as the README table says."""
    path = tmp_path / "poset.json"
    path.write_text(json.dumps(poset))
    orders = ["--from", str(FIXTURES / "order_a.json"), "--to", str(FIXTURES / "order_b.json")]
    assert main(["transpose-path", str(path), *orders]) == 1
    diag = _first_diag(capsys)
    assert diag["code"] == "bad-poset" and "malformed poset object" in diag["message"]


def test_cli_gate_without_kind_is_bad_gate(tmp_path, capsys):
    obj = json.loads(Path(TELEPORT).read_text())
    del obj["gates"][1]["kind"]
    path = tmp_path / "no_kind.json"
    path.write_text(json.dumps(obj))
    assert main(["validate", str(path)]) == 1
    diag = _first_diag(capsys)
    assert (diag["code"], diag["where"], diag["message"]) == ("bad-gate", "H", "malformed gate object")


def test_cli_uncontrolled_gate_with_a_keyed_selector_is_not_total(tmp_path, capsys):
    """H has no controls, so its one selector key must be the empty string."""
    obj = json.loads(Path(TELEPORT).read_text())
    obj["gates"][1]["selector"] = {"0": "H"}
    path = tmp_path / "keyed.json"
    path.write_text(json.dumps(obj))
    assert main(["validate", str(path)]) == 1
    diag = _first_diag(capsys)
    assert (diag["code"], diag["where"]) == ("selector-not-total", "H")


def _dropped_z_files(tmp_path) -> list:
    """The dropped-Z source, target and identity sidecar as files."""
    src, tgt = dropped_z_pair()
    paths = [tmp_path / "src.json", tmp_path / "tgt.json", tmp_path / "zeta.json"]
    paths[0].write_text(serialize_circuit(src))
    paths[1].write_text(serialize_circuit(tgt))
    paths[2].write_text(json.dumps({"zeta": {"m": "m"}, "labels": {}, "absorbed": []}))
    return [*map(str, paths[:2]), "--zeta", str(paths[2])]


def test_cli_check_faithful_tol_is_applied(tmp_path, capsys):
    """The dropped-Z pair fails at the default tolerance and passes with a
    `--tol` above every value its default report prints."""
    argv = ["check-faithful", *_dropped_z_files(tmp_path)]
    assert main(argv) == 1
    failures = out_json(capsys)["failures"]
    largest = max(v for f in failures for v in f.values() if isinstance(v, float))
    assert largest > 1e-9
    assert main(argv + ["--tol", repr(2 * largest)]) == 0
    report = out_json(capsys)
    assert report["ok"] is True and report["failures"] == []


def test_cli_check_faithful_target_must_extend_the_source_registers(tmp_path, capsys):
    src, tgt, *zeta = _dropped_z_files(tmp_path)
    renamed = json.loads(Path(tgt).read_text())
    renamed["registers"] = ["q1", "q0"]
    Path(tgt).write_text(json.dumps(renamed))
    assert main(["check-faithful", src, tgt, *zeta]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    diag = json.loads(captured.err)
    assert diag["code"] == "semantic-error" and "does not extend the source registers" in diag["message"]


DEEP = "[" * 100_000


def test_cli_deeply_nested_circuit_is_bad_json(tmp_path, capsys):
    """JSON nested too deeply for the parser is `bad-json` in a circuit file
    (and `io-error` in every other file kind, below), exit 1."""
    path = tmp_path / "deep.json"
    path.write_text(DEEP)
    assert main(["validate", str(path)]) == 1
    assert _first_diag(capsys)["code"] == "bad-json"


@pytest.mark.parametrize("kind", ["state", "schedule", "poset", "order", "sidecar"])
def test_cli_deeply_nested_file_is_io_error(tmp_path, capsys, kind):
    deep = str(tmp_path / "deep.json")
    Path(deep).write_text(DEEP)
    orders = ["--from", str(FIXTURES / "order_a.json"), "--to", str(FIXTURES / "order_b.json")]
    argv = {
        "state": ["aggregate", TELEPORT, "--input", deep],
        "schedule": ["run", TELEPORT, "--input", PSI, "--seed", "1", "--schedule", deep],
        "poset": ["transpose-path", deep, *orders],
        "order": ["transpose-path", str(FIXTURES / "poset.json"), "--from", deep, "--to", orders[3]],
        "sidecar": ["check-faithful", TELEPORT, TELEPORT, "--zeta", deep],
    }[kind]
    assert main(argv) == 1
    assert _first_diag(capsys)["code"] == "io-error"


def test_teleport_demo_runs():
    """`scripts/teleport_demo.py` runs end to end and finds the deferred
    circuit faithful."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "teleport_demo.py")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "faithful: True" in proc.stdout


def run_script(name, *args, timeout=120):
    """Run scripts/<name> without PYTHONPATH: each script finds src itself."""
    root = Path(__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, str(root / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


CHECK3 = {"k": 3, "target_registers": 4, "tracks": 8, "ok": True}  # ff-3 and parity-3 alike


def scale_lines(*args):
    """Run `scripts/scale.py` and check what every line gives: one line per
    case, in order, each with `k`, `no_bytecode` and the untraced seconds.
    In process a line also gives the tracemalloc peak (and `walk_seconds`
    for a check); with `--cli` it runs the case's `qcirc` command into
    /dev/null and gives its exit code, the process's peak RSS and the
    call's page faults."""
    proc = run_script("scale.py", *args)
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [r["case"] for r in lines] == [a for a in args if a != "--cli"]
    for r in lines:
        assert r["k"] == 3 and isinstance(r["no_bytecode"], bool) and r["seconds"] >= 0
        if "--cli" in args:
            assert r["rc"] == 0 and r["maxrss_mib"] > 0 and r["minflt"] >= 0
        else:
            assert r["peak_mib"] > 0
            assert ("walk_seconds" in r) == r["case"].startswith("check:") and r.get("walk_seconds", 0) >= 0
    return lines


def test_faithful_scale_runs():
    lines = scale_lines("check:ff-3", "check:ff-3:inputs=2")
    assert [(r["method"], r["inputs"]) for r in lines] == [("exact", 0), ("inputs", 2)]
    assert all(r.items() >= CHECK3.items() for r in lines)


def test_faithful_scale_runs_parity():
    """Deferred parity-3 keeps the source's 4 registers: no ancillas."""
    lines = scale_lines("check:parity-3", "check:parity-3:inputs=2")
    assert [(r["method"], r["inputs"]) for r in lines] == [("exact", 0), ("inputs", 2)]
    assert all(r.items() >= CHECK3.items() for r in lines)


def test_faithful_scale_runs_parityh():
    """Deferred parity-3 plus H copies each measured register to an ancilla
    before its H: 7 registers. No measurement of the source settles."""
    lines = scale_lines("check:parityh-3", "check:parityh-3:inputs=2")
    assert [(r["method"], r["inputs"]) for r in lines] == [("exact", 0), ("inputs", 2)]
    assert all(r.items() >= {**CHECK3, "target_registers": 7}.items() for r in lines)


def test_three_input_check_of_ff_12_takes_under_2_seconds():
    """The deferred target's walk from 3 input columns is padded to 4, on
    which its 12 ancilla measurements settle. Unpadded, nothing settled and
    `check:ff-12:inputs=3` took about 10 s."""
    proc = run_script("scale.py", "check:ff-12:inputs=3", timeout=300)
    assert proc.returncode == 0, proc.stderr
    (line,) = [json.loads(text) for text in proc.stdout.splitlines()]
    assert line["ok"] and line["target_registers"] == 13 and line["seconds"] < 2


def test_check_scale_cli_runs():
    """`--cli` runs `qcirc check-faithful` on parity-3 and its deferred circuit
    on two random inputs."""
    (line,) = scale_lines("check:parity-3:inputs=2", "--cli")
    assert line["inputs"] == 2


def test_aggregate_scale_runs():
    (line,) = scale_lines("aggregate:ghz-3")
    assert line["tracks"] == 8


def test_aggregate_scale_cli_runs():
    """`--cli` runs `qcirc aggregate --input` on GHZ-3."""
    (line,) = scale_lines("aggregate:ghz-3", "--cli")
    assert "shots" not in line and "inputs" not in line


def test_defer_scale_runs():
    """Deferred mcx-3 keeps the source's 4 registers, since each CNOT
    commutes with the measurement of its control; deferred ff-3 copies r0
    twice. The exact check of mcx-3 walks 4 registers."""
    lines = scale_lines("defer:mcx-3", "defer:ff-3", "check:mcx-3")
    assert [(r["registers"], r["gates"], r["ancillas"]) for r in lines[:2]] == [(4, 9, 0), (4, 11, 2)]
    assert lines[2].items() >= CHECK3.items()


def test_defer_scale_cli_runs():
    """`--cli` runs `qcirc defer` on mcx-3, writing into a temporary directory."""
    (line,) = scale_lines("defer:mcx-3", "--cli")
    assert "inputs" not in line and "shots" not in line


def test_shots_scale_runs():
    (line,) = scale_lines("shots:ff-3:10")
    assert line["shots"] == 10 and line["registers"] == 4 and 1 <= line["tracks"] <= 8


def test_shots_scale_cli_runs():
    """`--cli` runs `qcirc run --shots` on deferred ff-3."""
    (line,) = scale_lines("shots:ff-3:10", "--cli")
    assert line["shots"] == 10


ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("args", [["check:ff-x"], ["shots:ff-3"], ["aggregate:ghz-3:7"],
                                  ["aggregate:ghz-3", "shots:ff-3:10", "--cli"], ["parse:nope"], ["dumps:x"],
                                  ["parse:shots", "--cli"], ["aggregate:ghz-3", "--against", str(ROOT)],
                                  ["dumps:dense_pair", "--repeat", "0"]],
                         ids=["bad-k", "no-shot-count", "aggregate-arg", "cli-two-cases", "bad-workload",
                              "bad-document", "cli-parse", "against-aggregate", "no-rounds"])
def test_scale_rejects_malformed_cases(args):
    proc = run_script("scale.py", *args)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("usage: scale.py")


PARSE = [f"parse:{w}" for w in ("shots", "denote", "compile", "structure")]
DUMPS = [f"dumps:{d}" for d in ("ghz6_aggregate", "structure_run", "dense_pair", "ff5_deferred")]


def timing_lines(cases, *options):
    proc = run_script("scale.py", *cases, *options, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [r["case"] for r in lines] == cases
    return lines


@pytest.mark.parametrize(
    "cases, fields",
    [
        (PARSE, {"circuits", "operators", "seconds", "decode_seconds", "gram_seconds", "validate_seconds"}),
        (DUMPS, {"chars", "zeros", "seconds"}),
    ],
    ids=["parse_bench.py-names0", "dumps_bench.py-names1"],  # named for the scripts whose numbers these cases give
)
def test_timing_scripts_run(cases, fields):
    """`scale.py`'s parse and dumps cases print one line each: its counts,
    each timed call's seconds and the tracemalloc peak."""
    for r in timing_lines(cases, "--repeat", "1"):
        assert r.keys() == {"case", "no_bytecode", "peak_mib"} | fields
        assert all(r[f] > 0 for f in fields - {"zeros"}) and 0 <= r.get("zeros", 0) <= 1 and r["peak_mib"] > 0


def test_dumps_bench_against_this_checkout():
    """`--against` loads a checkout's writer as a second package and
    alternates the two; against this repository both write the same text,
    and each line gives both medians and the wins out of its 3 rounds."""
    for r in timing_lines(DUMPS, "--repeat", "3", "--against", str(ROOT)):
        assert r["same"] is True and r["seconds"] > 0 and r["against_seconds"] > 0 and 0 <= r["wins"] <= 3


def test_output_digests_defer_files_row():
    """The `defer-files` digest of the seed-3 compile corpus: the sha256 over
    the circuit and sidecar files that `qcirc defer` writes, as they are
    since a nonstandard measurement that ends its registers unread stays as
    it is (deferrable2's g4 and deferrable3's g2, three sources each)."""
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("output_digests", root / "scripts" / "output_digests.py")
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    got = digests.defer_files_digest(root, 3)
    assert got == "b948b3cc841c6413d634717795e915996253d6c6f91610dfce2797ec4ffaa0ad"
