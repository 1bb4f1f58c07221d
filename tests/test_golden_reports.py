"""Byte identity of the CLI's JSON exports.

tests/golden_reports.json holds, for each command below, its exit code and
the SHA-256 of the file its --out option writes.  A change that alters any
byte of these reports fails here; a deliberate change to a report updates
the recorded digest in the same commit.  Each exit code must also be the
CLI's exit rule applied to the report written.
"""

import hashlib
import json
from pathlib import Path

import pytest

from axia.catalog import DIHEDRAL_TYPES

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


def test_golden_file_lists_every_command():
    assert sorted(GOLDEN) == sorted(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_report_is_byte_identical(command, written):
    code, data = written(command)
    assert ({"exit": code, "sha256": hashlib.sha256(data).hexdigest()}
            == GOLDEN[command])


@pytest.mark.parametrize("command", COMMANDS)
def test_exit_code_is_the_rule_on_the_report(command, written):
    # exit 1 exactly when the report, or a dict row of a list report,
    # has "pass": false
    code, data = written(command)
    report = json.loads(data)
    rows = report if isinstance(report, list) else [report]
    failed = any(isinstance(r, dict) and r.get("pass") is False
                 for r in rows)
    assert code == int(failed)
