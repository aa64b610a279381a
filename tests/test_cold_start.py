"""Start-up cost: commands that never build a generator run without scipy.

They also run without ``fractions`` and ``decimal``: the CSV encoder builds
its tables from plain ints, on first use.  Each case runs in a fresh
interpreter, because this process may already hold these modules.  A case
that loads a module it should not is run again under ``-X importtime``, and
the failure names the import chain that reached it and the line of the
package that made the import.  No command loads ``scipy.sparse``: the
solvers take the model's grids.  A command that builds a generator of the
noise-induced model at k > 0 solves it on its chains, and the conventional
steady states come from the cut recursion, both without ``scipy.linalg``,
which only the dense exponentials load.  The scipy-free starts also leave
``concurrent.futures`` unloaded: the classical ensemble runs its blocks in
one loop; and ``numpy.ma``, which ``np.unique`` without indices loads: the
displaced-parity oracle counts its coherence orders with ``np.bincount``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("scipy.sparse", "scipy.linalg", "scipy.sparse.csgraph", "scipy.stats", "fractions",
         "decimal", "concurrent.futures", "numpy.ma")
# the packages any of whose modules ends an import chain; numpy loads with the package, so
# only its modules in HEAVY do
HEAVY_PACKAGES = {name.split(".")[0] for name in HEAVY} - {"numpy"}

# imports the package and its CLI, runs the command in argv (if any) with its
# output sent to stderr, and prints which of HEAVY are loaded
CHILD = f"""
import contextlib, json, sys
import noisecycle, noisecycle.cli
if len(sys.argv) > 1:
    with contextlib.redirect_stdout(sys.stderr):
        noisecycle.cli.main(sys.argv[1:])
print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))
"""

# prepended to CHILD on a rerun: logs the package's innermost frame at the
# first import of a module of HEAVY
CALL_SITE = f"""
import sys, traceback
class FirstHeavyImport:
    def find_spec(self, name, path=None, target=None):
        if name in {HEAVY!r}:
            sys.meta_path.remove(self)
            frames = [f for f in traceback.extract_stack() if f.filename.startswith({str(SRC)!r})]
            where = "outside the package"
            if frames:
                where = f"{{frames[-1].filename}}:{{frames[-1].lineno}}"
            print(f"first import of {{name}} at {{where}}", file=sys.stderr)
sys.meta_path.insert(0, FirstHeavyImport())
"""


def _run(argv: list[str], cwd: Path, diagnose: bool = False) -> subprocess.CompletedProcess:
    flags, code = (["-X", "importtime"], CALL_SITE + CHILD) if diagnose else ([], CHILD)
    return subprocess.run([sys.executable, *flags, "-c", code, *argv], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120, check=True)


def _is_heavy(name: str) -> bool:
    return any(name == m or name.startswith(m + ".") for m in HEAVY)


def import_chain(importtime_log: str) -> str:
    """Chain of imports, outermost first, that reached the first module of HEAVY.

    ``-X importtime`` logs a module once its import finishes, indented two
    spaces per level of nesting, so the modules that imported it are the
    next lines at each smaller depth.  The chain stops at the first module
    of HEAVY or of a package in ``HEAVY_PACKAGES`` (scipy, fractions,
    decimal, concurrent); one that starts there was imported by a call at
    run time.
    """
    entries = []
    for line in importtime_log.splitlines():
        if line.startswith("import time:") and "imported package" not in line:
            name = line.split("|", 2)[2]
            entries.append(((len(name) - len(name.lstrip()) - 1) // 2, name.strip()))
    first = next((i for i, (_, name) in enumerate(entries) if _is_heavy(name)), None)
    if first is None:
        return "no module of HEAVY in the -X importtime log"
    depth, chain = entries[first][0], [entries[first][1]]
    for level, name in entries[first + 1:]:
        if level < depth:
            depth = level
            chain.insert(0, name)
    top = next(i for i, name in enumerate(chain)
               if _is_heavy(name) or name.split(".")[0] in HEAVY_PACKAGES)
    return " -> ".join(chain[:top + 1])


@pytest.mark.parametrize("argv", [
    pytest.param([], id="import"),
    pytest.param(["wigner", "--h", "0.2", "--out", "run"], id="wigner"),
    pytest.param(["phase-diagram", "--k-count", "3", "--wp-count", "3", "--out", "run"],
                 id="phase-diagram"),
    pytest.param(["verify", "--only", "wigner-oracle", "--out", "run"], id="verify-wigner-oracle"),
])
def test_scipy_free_start_loads_no_scipy(tmp_path, argv):
    loaded = json.loads(_run(argv, tmp_path).stdout)
    if loaded:
        log = _run(argv, tmp_path, diagnose=True).stderr
        site = next(line for line in log.splitlines() if line.startswith("first import of"))
        pytest.fail(f"{' '.join(argv) or 'import noisecycle, noisecycle.cli'} loaded "
                    f"{', '.join(loaded)}; import chain: {import_chain(log)}; {site}")


def test_steady_loads_no_scipy_sparse(tmp_path):
    # the generator is the model's grids, not a scipy.sparse matrix
    argv = ["steady", "--dim", "20", "--out", "run"]
    assert "scipy.sparse" not in json.loads(_run(argv, tmp_path).stdout)


@pytest.mark.parametrize("argv,dense", [
    pytest.param(["evolve", "--out", "run"], False, id="evolve-noise-induced"),
    # one exact phase per chain: a long time stays on the chain path, on
    # every order a coherent state touches
    pytest.param(["evolve", "--k-ratio", "0.8", "--omega0", "-2.7", "--t", "60",
                  "--initial", "coherent:1.5", "--out", "run"], False, id="evolve-long-time"),
    # past the tail dim the m = 0 chains span 7.9e8, but the vacuum weighted
    # by the similarity stays near 1: the dims a user gives stay on the chains
    pytest.param(["evolve", "--k-ratio", "0.95", "--dim", "1600", "--out", "run"], False,
                 id="evolve-past-the-tail-dim"),
    # positive control: at k = 0 the chains cannot be symmetrized, so the
    # evolution takes the dense exponentials
    pytest.param(["evolve", "--k-ratio", "0", "--out", "run"], True, id="evolve-k0"),
    # the conventional model has no chains; its steady states take no eigensolve
    pytest.param(["steady", "--kind", "conventional", "--kappa-up1", "0.3", "--out", "run"],
                 False, id="steady-conventional"),
])
def test_dense_path_modules_load_only_off_the_chain_path(tmp_path, argv, dense):
    loaded = set(json.loads(_run(argv, tmp_path).stdout))
    assert "scipy.sparse" not in loaded, sorted(loaded)
    assert ("scipy.linalg" in loaded) == dense, sorted(loaded)
