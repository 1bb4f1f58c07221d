"""Byte identity of the CLI's JSON exports.

tests/golden_reports.json holds, for each command below, its exit code and
the SHA-256 of the file its --out option writes.  A change that alters any
byte of these reports fails here; a deliberate change to a report updates
the recorded digest in the same commit.
"""

import hashlib
import json
from pathlib import Path

import pytest

from axia.catalog import DIHEDRAL_TYPES
from axia.cli import run

TARGETS = ["m4a", "m4b"] + [f"dihedral:{name}" for name in DIHEDRAL_TYPES]
COMMANDS = ([f"{verb} {target}" for verb in ("build", "verify")
             for target in TARGETS]
            + ["catalog", "catalog 4A", "gram"]
            + ["certify v4a", "certify grid", "certify quotient --grid=0,1/6",
               "certify majorana --grid=-1/10,1/12,1/5", "norton --symbolic",
               "norton --grid=-1/10,0,1/6,9/50",
               "norton --grid=1/24,1/8,1,2,9/4",
               "norton --grid=-1279/9327841211,7/1000000007",
               "certify majorana --grid=-1/100,1/7,3/5",
               "radical --grid=-1/10,0,1/12,1/6,9/4"])
GOLDEN = json.loads((Path(__file__).parent / "golden_reports.json")
                    .read_text())


def report_digest(command, out):
    code = run(command.split() + ["--out", str(out)])
    return {"exit": code,
            "sha256": hashlib.sha256(out.read_bytes()).hexdigest()}


def test_golden_file_lists_every_command():
    assert sorted(GOLDEN) == sorted(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_report_is_byte_identical(command, tmp_path):
    assert report_digest(command, tmp_path / "report.json") == GOLDEN[command]
