"""Regenerate the JSON fixtures under tests/fixtures/."""

import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from conftest import make_teleportation
from qcirc import serialize_circuit
from qcirc.scheduling import Poset, greedy_schedule
from qcirc.serialize import schedule_to_json

FIXTURES = ROOT / "tests" / "fixtures"


def write(name, text):
    path = FIXTURES / name
    path.write_text(text)
    print(f"wrote {path}")


def poset_to_json(p):
    """The object that `serialize.poset_from_json` reads back as `p`."""
    return {"elements": list(p.elements), "less_than": sorted([a, b] for a, b in p.less)}


def main():
    FIXTURES.mkdir(parents=True, exist_ok=True)
    c = make_teleportation()
    write("teleport.json", serialize_circuit(c))

    psi = np.array([0.6, 0.8j], dtype=complex)
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    ket = np.kron(psi, bell)
    write(
        "psi.json",
        json.dumps({"ket": [[z.real, z.imag] for z in ket]}, indent=2) + "\n",
    )

    write(
        "schedule.json",
        json.dumps(schedule_to_json(greedy_schedule(c), c), indent=2) + "\n",
    )

    p = Poset.from_pairs(["a", "b", "c", "d"], [("a", "b"), ("a", "c")])
    write("poset.json", json.dumps(poset_to_json(p), indent=2) + "\n")
    write("order_a.json", json.dumps(["a", "b", "c", "d"]) + "\n")
    write("order_b.json", json.dumps(["a", "d", "c", "b"]) + "\n")

    bad = json.loads(serialize_circuit(c))
    bad["gates"][1]["ops"]["H"]["entries"][0] = [2.0, 0.0]  # breaks unitarity
    write("bad_circuit.json", json.dumps(bad, indent=2) + "\n")


if __name__ == "__main__":
    main()
