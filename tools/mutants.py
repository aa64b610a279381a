"""Operator mutants of library modules, scored against the ``verify`` verdicts.

Run ``python tools/mutants.py`` from the repository root to rewrite
``tools/mutants.json``: for each module of ``MODULES``, the number of
mutants, the number killed, the score and every survivor.  It takes about a
minute on two cores.

Each mutant swaps one operator of a binary operation, an augmented
assignment or a comparison: + and -, * and /, ** to *, < and <=, > and >=;
operators inside f-strings are left alone.
It runs in a fresh interpreter on a temporary copy of the package, so
``src/`` is never edited.  A mutant is killed when the verdict of any
``verify`` row (pass, fail or skipped; the ``runtime`` rows left out)
differs from the unmutated copy's, or when its run crashes or times out.
A row that already fails, such as the prefactor rows of ``hopf-scaling``,
kills a mutant only by starting to pass.

A first run of the unmutated copy traces which lines of each module every
check executes, and at import; a mutant then runs only the checks that
reach its lines.  The others cannot see it: up to its first execution a
mutated program runs as the original does.  A mutant that no check reaches
survives without a run.
"""

from __future__ import annotations

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import ast
import io
import json
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "noisecycle"
RECORD = ROOT / "tools" / "mutants.json"
MODULES = ("analytic.py", "fock.py")
WORKERS = 2
MEMORY_LIMIT = 2 << 30  # address space of a mutant's interpreter, in bytes
TIMEOUT_FACTOR, TIMEOUT_FLOOR_S = 5.0, 30.0  # a mutant's time limit over its checks' baseline

SWAPS = {ast.Add: "-", ast.Sub: "+", ast.Mult: "/", ast.Div: "*", ast.Pow: "*",
         ast.Lt: "<=", ast.LtE: "<", ast.Gt: ">=", ast.GtE: ">"}
SYMBOLS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "**",
           ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">="}

# the verdict of every verify row of the named checks, as one JSON line
VERDICTS = r"""
import json, sys
from noisecycle import verify

def verdict(row):
    return "skipped" if "skipped" in row else bool(row["pass"])

out = {}
for name in sys.argv[1:]:
    details = verify.run_check(name).details
    out[name] = {key: verdict(row) for key, row in details.items()
                 if isinstance(row, dict) and "pass" in row and key != "runtime"}
print(json.dumps(out))
"""

# the lines of the named files executed at import and by each check, and each check's seconds
COVERAGE = r"""
import json, sys, threading, time
files = set(sys.argv[1:])
hits = {"import": {}}
current = ["import"]

def tracer(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in files:
        return None
    hits[current[0]].setdefault(name, set()).add(frame.f_lineno)

    def local(frame, event, arg):
        if event == "line":
            hits[current[0]].setdefault(name, set()).add(frame.f_lineno)
        return local
    return local

sys.settrace(tracer)
threading.settrace(tracer)
from noisecycle import verify
seconds = {}
for name in verify.CHECKS:
    current[0] = name
    hits[name] = {}
    start = time.perf_counter()
    verify.run_check(name)
    seconds[name] = time.perf_counter() - start
sys.settrace(None)
print(json.dumps({"seconds": seconds,
                  "hits": {k: {f: sorted(v) for f, v in d.items()} for k, d in hits.items()}}))
"""


def mutants(source: str) -> list[dict]:
    """Every operator swap of the source: its position, the operator and its replacement."""
    lines = source.splitlines(keepends=True)
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    ops = {(tok.start, tok.string): tok for tok in tokens if tok.type == tokenize.OP}

    def char_pos(line: int, byte_col: int) -> tuple[int, int]:
        return line, len(lines[line - 1].encode()[:byte_col].decode())

    def operator_between(left: ast.AST, right: ast.AST, symbol: str):
        """The operator token between two operands; None inside an f-string, one token."""
        lo = char_pos(left.end_lineno, left.end_col_offset)
        hi = char_pos(right.lineno, right.col_offset)
        return next((tok for (start, text), tok in ops.items()
                     if text == symbol and lo <= start < hi), None)

    found = []
    for node in ast.walk(ast.parse(source)):
        pairs = []
        if isinstance(node, ast.BinOp):
            pairs = [(node.left, node.right, type(node.op))]
        elif isinstance(node, ast.AugAssign):
            pairs = [(node.target, node.value, type(node.op))]
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            pairs = [(operands[i], operands[i + 1], type(op)) for i, op in enumerate(node.ops)]
        for left, right, op in pairs:
            if op not in SWAPS:
                continue
            suffix = "=" if isinstance(node, ast.AugAssign) else ""
            tok = operator_between(left, right, SYMBOLS[op] + suffix)
            if tok is None:
                continue
            found.append({"line": tok.start[0], "col": tok.start[1], "from": tok.string,
                          "to": SWAPS[op] + suffix, "span": [node.lineno, node.end_lineno],
                          "code": lines[tok.start[0] - 1].strip()})
    return sorted(found, key=lambda m: (m["line"], m["col"]))


def apply(source: str, mutant: dict) -> str:
    lines = source.splitlines(keepends=True)
    text, col = lines[mutant["line"] - 1], mutant["col"]
    assert text[col:col + len(mutant["from"])] == mutant["from"]
    lines[mutant["line"] - 1] = text[:col] + mutant["to"] + text[col + len(mutant["from"]):]
    return "".join(lines)


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run_child(copy: Path, code: str, args: list[str], timeout: float):
    """The JSON a child script prints under the copy, or "crashed" / "timeout"."""
    env = {**os.environ, "PYTHONPATH": str(copy)}
    try:
        done = subprocess.run([sys.executable, "-B", "-c", code, *args], cwd=copy, env=env,
                              capture_output=True, text=True, timeout=timeout,
                              preexec_fn=_limit_memory)
    except subprocess.TimeoutExpired:
        return "timeout"
    if done.returncode != 0 or not done.stdout.strip():
        return "crashed"
    return json.loads(done.stdout.strip().splitlines()[-1])


def fresh_copy(root: Path) -> Path:
    shutil.copytree(PACKAGE, root / "noisecycle", ignore=shutil.ignore_patterns("__pycache__"))
    return root


def score(module: str, copies: list[Path]) -> dict:
    source = (PACKAGE / module).read_text()
    found = mutants(source)
    traced = str(copies[0] / "noisecycle" / module)
    coverage = run_child(copies[0], COVERAGE, [traced], timeout=600.0)
    if not isinstance(coverage, dict):
        raise SystemExit(f"{module}: the traced unmutated copy {coverage}")
    baseline = run_child(copies[0], VERDICTS, list(coverage["seconds"]), timeout=600.0)
    if not isinstance(baseline, dict):
        raise SystemExit(f"{module}: the unmutated copy {baseline}")
    hits = {name: set(files.get(traced, ())) for name, files in coverage["hits"].items()}

    def checks_for(mutant: dict) -> list[str]:
        span = set(range(mutant["span"][0], mutant["span"][1] + 1))
        if hits["import"] & span:
            return list(baseline)
        return [name for name in baseline if hits[name] & span]

    def run(copy: Path, mutant: dict) -> dict:
        checks = checks_for(mutant)
        if not checks:
            return {**mutant, "checks": [], "outcome": "not reached"}
        target = copy / "noisecycle" / module
        target.write_text(apply(source, mutant))
        try:
            limit = TIMEOUT_FLOOR_S + TIMEOUT_FACTOR * sum(coverage["seconds"][c] for c in checks)
            result = run_child(copy, VERDICTS, checks, timeout=limit)
        finally:
            target.write_text(source)
        if isinstance(result, str):
            return {**mutant, "checks": checks, "outcome": result}
        moved = any(baseline[c] != result[c] for c in checks)
        return {**mutant, "checks": checks, "outcome": "killed" if moved else "survived"}

    def run_share(worker: int) -> list[dict]:
        return [run(copies[worker], m) for m in found[worker::len(copies)]]

    with ThreadPoolExecutor(len(copies)) as pool:
        results = [r for share in pool.map(run_share, range(len(copies))) for r in share]
    results.sort(key=lambda r: (r["line"], r["col"]))
    killed = [r for r in results if r["outcome"] in ("killed", "crashed", "timeout")]
    survivors = [{key: r[key] for key in ("line", "col", "from", "to", "code", "outcome", "checks")}
                 for r in results if r["outcome"] in ("survived", "not reached")]
    return {"mutants": len(results), "killed": len(killed),
            "score": round(len(killed) / len(results), 4),
            "crashed": sum(r["outcome"] == "crashed" for r in results),
            "timed_out": sum(r["outcome"] == "timeout" for r in results),
            "not_reached": sum(r["outcome"] == "not reached" for r in results),
            "survivors": survivors}


def main() -> int:
    record = {"modules": {}}
    with tempfile.TemporaryDirectory() as tmp:
        copies = [fresh_copy(Path(tmp) / f"copy{i}") for i in range(WORKERS)]
        for module in MODULES:
            start = time.perf_counter()
            entry = record["modules"][module] = score(module, copies)
            print(f"{module}: {entry['killed']} of {entry['mutants']} killed "
                  f"(score {entry['score']}), {len(entry['survivors'])} survivors, "
                  f"{time.perf_counter() - start:.0f} s")
    RECORD.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {RECORD}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
