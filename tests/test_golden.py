"""Golden report pins: the sha256 of every text and JSON report of the sample
germs and the corpus, so any change in the printed bytes fails here.

JSON reports are pinned without their ``timing_ms`` field.  To regenerate
the pins after a deliberate change of report bytes:

    PYTHONPATH=src python tests/test_golden.py > tests/golden_pins.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from frontals.cli import main

ROOT = Path(__file__).resolve().parent.parent
PINS = Path(__file__).resolve().parent / "golden_pins.json"
# one psi a member of few sample ramification modules, one of most
PSIS = ("x^3", "x*(x+y)^2")


def _cases() -> dict[str, list[str]]:
    cases = {}
    for germ in sorted((ROOT / "germs").glob("*.germ")):
        path = f"germs/{germ.name}"
        cases[f"jacobian {germ.name}"] = ["jacobian", path]
        cases[f"frontal {germ.name}"] = ["frontal", path]
        cases[f"multiplicity {germ.name}"] = ["multiplicity", path]
        for mode in ("gradient", "jsq"):
            for psi in PSIS:
                cases[f"ramify {mode} {psi} {germ.name}"] = ["ramify", path, "--psi", psi,
                                                             "--mode", mode]
        cases[f"mesh {germ.name}"] = ["mesh", path, "--range", "1", "--res", "8"]
    cases["corpus"] = ["corpus"]
    cases["corpus four_k 2-4"] = ["corpus", "four_k", "--k", "2-4"]
    return cases


def _digest(argv: list[str], fmt: str) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([str(ROOT / a) if a.startswith("germs/") else a for a in argv]
                    + ["--format", fmt])
    text = out.getvalue()
    if fmt == "json" and text:
        payload = json.loads(text)
        payload.pop("timing_ms")
        text = json.dumps(payload, indent=2)
    return [code, hashlib.sha256(text.encode("utf-8")).hexdigest()]


def _all_digests() -> dict[str, dict[str, list]]:
    return {name: {fmt: _digest(argv, fmt) for fmt in ("text", "json")}
            for name, argv in _cases().items()}


def test_pins_cover_every_case():
    assert sorted(json.loads(PINS.read_text(encoding="utf-8"))) == sorted(_cases())


@pytest.mark.parametrize("name", sorted(_cases()))
def test_report_bytes_match_pin(name):
    pin = json.loads(PINS.read_text(encoding="utf-8"))[name]
    argv = _cases()[name]
    assert {fmt: _digest(argv, fmt) for fmt in ("text", "json")} == pin


if __name__ == "__main__":
    json.dump(_all_digests(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
