"""Same bytes: every default command output and every ``verify`` row against ``golden.json``.

``tools/golden.py`` recorded the digests and rewrites them; a change that
moves bytes on purpose reruns it and says in CHANGES.md what moved.
"""

import importlib.util
import json
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def golden():
    spec = importlib.util.spec_from_file_location("golden", TESTS.parent / "tools" / "golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_default_outputs_and_verify_rows_hold_their_bytes(golden, tmp_path, verify_results):
    """In another environment the digests promise nothing, so that alone fails, named first."""
    recorded = json.loads((TESTS / "golden.json").read_text())
    moved = golden.differences(recorded, golden.collect(tmp_path, verify_results.values()))
    assert not moved, "\n".join(moved)


def test_a_moved_cell_is_named_by_file_column_and_rows(golden, tmp_path):
    """A one-cell change in a CSV names its file, its column and its block of rows; a change
    in a JSON file names each moved key with both values."""
    rows = ["0.5,1", "0.25,2", "0.125,3"]
    path = tmp_path / "t.csv"
    path.write_bytes(b"# comment\nx,n\r\n" + "\r\n".join(rows).encode() + b"\r\n")
    old = golden.file_record(path)
    rows[2] = "0.125,4"
    path.write_bytes(b"# comment\nx,n\r\n" + "\r\n".join(rows).encode() + b"\r\n")
    moved = golden._file_differences("t.csv", old, golden.file_record(path))
    assert moved[1] == "t.csv: first moved block in column 'n', data rows 1-3"
    # a JSON file names every moved key, not only the first
    path = tmp_path / "t.json"
    path.write_text('{"a": 1, "b": {"c": 2.5, "d": 3}, "e": 4}')
    old = golden.file_record(path)
    path.write_text('{"a": 1, "b": {"c": 2.25, "d": 3}, "e": 5}')
    moved = golden._file_differences("t.json", old, golden.file_record(path))
    assert moved[1:] == ["t.json: /b/c = 2.5 recorded, 2.25 now, relative change -1.00e-01",
                         "t.json: /e = 4 recorded, 5 now, relative change +2.50e-01"]


def test_rewriting_prints_what_moved(golden, tmp_path, monkeypatch, capsys):
    """``main`` names each moved value before it rewrites the record, as a plain float
    with its relative change, as the checks' numpy floats are recorded."""
    import numpy as np

    from noisecycle import verify

    record = {"environment": golden.environment(), "commands": {},
              "verify": {"check": {"gap": {"value": 1.0, "pass": True}}}}
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(record))
    moved = json.loads(json.dumps(record))
    moved["verify"]["check"]["gap"]["value"] = np.float64(2.5)
    monkeypatch.setattr(golden, "GOLDEN", path)
    monkeypatch.setattr(golden, "collect", lambda root, results: moved)
    monkeypatch.setattr(verify, "run_checks", lambda: [])
    assert golden.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["moved: verify check/gap: {'pass': True, 'value': 1.0} recorded, "
                     "{'pass': True, 'value': 2.5} now, relative change +1.50e+00",
                     f"wrote {path} (1 moved)"]
    assert json.loads(path.read_text()) == moved
