"""Golden digests of every default command output and every ``verify`` row.

Run ``python tools/golden.py`` from the repository root to rewrite
``tests/golden.json``; it first prints each difference from the record it
replaces (``differences``), for the change log.  It runs ``steady``, ``evolve``, ``wigner``,
``phase-diagram`` and ``sde`` at their defaults in a temporary directory and
every ``verify`` check, and records:

- the environment the digests hold in: the Python, numpy and scipy
  versions, the machine and the BLAS thread count;
- each command's exit code, and the sha256 of each file it wrote;
- for a JSON file, its values, so that a mismatch names every moved key;
- for a CSV file, its header and a short digest of each column over each
  block of ``BLOCK_ROWS`` data rows, so that a mismatch names the column
  and the rows;
- every ``verify`` row except the ``runtime`` rows; durations are not rows.

``tests/test_golden.py`` regenerates the same record and compares it with
the file (``differences``).  Digests promise bytes only in the recorded
environment, so a different environment is itself a mismatch.
"""

from __future__ import annotations

import os

# one BLAS thread unless the caller sets a count, as tests/conftest.py does;
# OpenBLAS reads these when numpy loads it
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden.json"
COMMANDS = ("steady", "evolve", "wigner", "phase-diagram", "sde")
BLOCK_ROWS = 1024
BLOCK_DIGITS = 12  # hex digits kept of each block digest


def environment() -> dict:
    import numpy
    import scipy

    threads = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "blas_threads": int(threads) if threads else os.cpu_count()}


def _flatten(value, key: str = "") -> dict:
    """The leaves of a JSON value, keyed by their path."""
    if isinstance(value, dict):
        return {path: leaf for name, item in value.items()
                for path, leaf in _flatten(item, f"{key}/{name}").items()}
    return {key or "/": value}


def _csv_record(data: bytes) -> dict:
    lines = [line.rstrip(b"\r") for line in data.split(b"\n")[:-1] if not line.startswith(b"# ")]
    header, rows = lines[0].decode(), [line.split(b",") for line in lines[1:]]
    blocks = {}
    for j, name in enumerate(header.split(",")):
        column = [row[j] for row in rows]
        blocks[name] = [hashlib.sha256(b"\n".join(column[start:start + BLOCK_ROWS]))
                        .hexdigest()[:BLOCK_DIGITS] for start in range(0, len(column), BLOCK_ROWS)]
    return {"header": header, "rows": len(rows), "blocks": blocks}


def file_record(path: Path) -> dict:
    data = path.read_bytes()
    record = {"sha256": hashlib.sha256(data).hexdigest()}
    if path.suffix == ".json":
        record["values"] = _flatten(json.loads(data))
    elif path.suffix == ".csv":
        record.update(_csv_record(data))
    return record


def run_commands(root: Path) -> dict:
    """Each command at its defaults, writing under root: its exit code and its files."""
    from noisecycle import cli

    record = {}
    for command in COMMANDS:
        out = root / command
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([command, "--out", str(out)])
        record[command] = {"exit": code, "files": {path.name: file_record(path)
                                                  for path in sorted(out.iterdir())}}
    return record


def verify_rows(results) -> dict:
    """Every ``verify`` row by check, the ``runtime`` rows left out."""
    return {r.name: {key: value for key, value in r.details.items() if key != "runtime"}
            for r in results}


def collect(root: Path, results) -> dict:
    """The record of ``tests/golden.json``: commands run under root, ``results`` the checks."""
    return {"environment": environment(), "commands": run_commands(root),
            "verify": verify_rows(results)}


def _same(a, b) -> bool:
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def _moved(old, new) -> str:
    """``old recorded, new now``, numbers as plain floats, and the relative
    change of a moved number or row value."""
    old, new = (json.loads(json.dumps(v, sort_keys=True)) for v in (old, new))  # plain floats
    a, b = (v.get("value") if isinstance(v, dict) else v for v in (old, new))
    text = f"{old!r} recorded, {new!r} now"
    if all(type(v) in (int, float) for v in (a, b)) and a:
        text += f", relative change {(b - a) / abs(a):+.2e}"
    return text


def _file_differences(where: str, old: dict, new: dict) -> list[str]:
    if old["sha256"] == new["sha256"]:
        return []
    found = [f"{where}: sha256 {old['sha256'][:12]}… recorded, {new['sha256'][:12]}… now"]
    if "values" in old:
        for key in sorted(old["values"].keys() | new["values"].keys()):
            a, b = old["values"].get(key, "<missing>"), new["values"].get(key, "<missing>")
            if not _same(a, b):
                found.append(f"{where}: {key} = {_moved(a, b)}")
    elif (old["header"], old["rows"]) != (new["header"], new["rows"]):
        found.append(f"{where}: header {old['header']!r} and {old['rows']} rows recorded, "
                     f"{new['header']!r} and {new['rows']} rows now")
    else:  # blocks in row order, the columns of each in header order
        names = old["header"].split(",")
        moved = next(((i, name) for i in range(len(old["blocks"][names[0]])) for name in names
                      if old["blocks"][name][i] != new["blocks"][name][i]), None)
        if moved is None:
            found.append(f"{where}: every cell holds; the comment lines or the layout moved")
        else:
            i, name = moved
            found.append(f"{where}: first moved block in column {name!r}, data rows "
                         f"{i * BLOCK_ROWS + 1}-{min((i + 1) * BLOCK_ROWS, old['rows'])}")
    return found


def differences(recorded: dict, current: dict) -> list[str]:
    """Each place where current departs from recorded, first the environment."""
    found = [f"environment {key}: {recorded['environment'].get(key)!r} recorded, "
             f"{current['environment'].get(key)!r} here"
             for key in sorted(recorded["environment"].keys() | current["environment"].keys())
             if recorded["environment"].get(key) != current["environment"].get(key)]
    for command, old in recorded["commands"].items():
        new = current["commands"].get(command, {"exit": None, "files": {}})
        if old["exit"] != new["exit"]:
            found.append(f"{command}: exit {old['exit']} recorded, {new['exit']} now")
        for name in sorted(old["files"].keys() | new["files"].keys()):
            if name not in old["files"] or name not in new["files"]:
                written = "now only" if name in new["files"] else "no more"
                found.append(f"{command}/{name}: written {written}")
            else:
                found.extend(_file_differences(f"{command}/{name}", old["files"][name],
                                               new["files"][name]))
    for check in sorted(recorded["verify"].keys() | current["verify"].keys()):
        old, new = recorded["verify"].get(check, {}), current["verify"].get(check, {})
        for row in sorted(old.keys() | new.keys()):
            if not _same(old.get(row), new.get(row)):
                found.append(f"verify {check}/{row}: {_moved(old.get(row), new.get(row))}")
    return found


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))  # the checkout's sources, installed or not
    from noisecycle import verify

    with tempfile.TemporaryDirectory() as root:
        record = collect(Path(root), verify.run_checks())
    moved = differences(json.loads(GOLDEN.read_text()), record) if GOLDEN.exists() else []
    for line in moved:
        print(f"moved: {line}")
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(moved)} moved)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
