#!/usr/bin/env python3
"""Regenerate the golden files under tests/golden from the fixtures and,
for recovery.txt, from the seeded malformed sources of tests/gen.py.

Run from the repository root after an intentional output-format change, then
review the diff by hand before committing: the goldens pin byte-exact
behavior.  Given a directory, writes the files there instead, which is how
the test suite checks that the goldens are current.

Usage: python scripts/regen_goldens.py [DIR]
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from otl import (  # noqa: E402
    ExportOptions,
    extensional_definition,
    intensional_definition,
    lexicon,
    parse,
    to_dot,
    to_json,
    validate_or_raise,
)
from gen import recovery_golden  # noqa: E402

FIXTURES = ROOT / "tests" / "fixtures"
GOLDEN = ROOT / "tests" / "golden"


def build(name: str):
    result = parse((FIXTURES / name).read_text(encoding="utf-8"), name)
    assert result.model is not None, [d.render() for d in result.diagnostics]
    return validate_or_raise(result.model)


def main(directory: Path = GOLDEN) -> None:
    directory.mkdir(exist_ok=True)

    def write(name: str, payload: str) -> None:
        path = directory / name
        path.write_text(payload, encoding="utf-8")
        print(f"wrote {path} ({len(payload)} bytes)")

    mouse = build("mouse.otl")
    write("mouse.otl.json", to_json(mouse))
    write("porphyry.otl.json", to_json(build("porphyry.otl")))  # intensions inherited down a genus chain
    write("mouse.dot", to_dot(mouse))
    write(
        "mouse_tree_full.dot",
        to_dot(mouse, ExportOptions(include_objects=True, include_derived_edges=True)),
    )
    write("define_optical_mouse.txt", intensional_definition(mouse, "OpticalMouse").render() + "\n")
    write(
        "define_pointing_device_ext.txt",
        extensional_definition(mouse, "PointingDevice").render() + "\n",
    )
    write("lexicon_mouse_en.txt", lexicon(mouse, "en"))
    write("recovery.txt", recovery_golden())


if __name__ == "__main__":
    main(*map(Path, sys.argv[1:2]))
