"""The contract outputs of every fixture equal their pins in perfbench/pins.json.

The digest is the benchmark's own (`worker.contract_digest`): weights,
polygon and diag structured, resolve structured on every diagonal, the
reduce trace and the oracle's item verdicts.  The benchmark files are only
read; the inputs and the reduce trace go under `tmp_path`.
"""
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import worker  # noqa: E402


@pytest.fixture(scope="module")
def mods():
    return worker.import_program()


@pytest.fixture(scope="module")
def pins():
    return worker.load_pins()


@pytest.mark.parametrize("name", worker.FIXTURES)
def test_fixture_contract_outputs_match_their_pin(name, mods, pins, tmp_path):
    doc = json.loads((worker.ROOT / "fixtures" / f"{name}.json").read_text())
    [path] = worker.write_inputs([doc], tmp_path)
    assert worker.contract_digest(mods, path, tmp_path) == pins[worker.quiver_key(doc)]
