"""Command-line driver: parameter sweeps, steady-state reports, ensembles, fields.

Every run takes an optional JSON config (flags override its fields) and
writes one output directory holding the echoed config, CSV data, and a JSON
summary.  CSV numbers carry 17 significant digits.  Flag and file values pass
one check, ``_merge_config`` against ``FIELDS``, ``RULES`` and ``UNUSED``, and
the arrays a run will build one byte budget, ``_require_budget``, before any
output; a bad input exits with ``config error at <field>: …``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import analytic, csvio, sde, verify, wignerflux
from .fock import (FockError, Generator, ModelKind, ModelParams, coherent_state, coherent_tail,
                   default_dim, fock_state)
from .lindblad import edge_population, evolve, parity_expectation, parity_weights, trace_distance

# Each command's fields and their defaults.  The flags, the config-file keys
# and the echoed config all come from this table; a ``dim`` or ``extent`` of
# 0 means "work it out from the other fields".
FIELDS = {
    "phase-diagram": {"k_min": 0.02, "k_max": 0.98, "k_count": 50,
                      "wp_min": 0.0, "wp_max": 1.0, "wp_count": 50},
    "steady": {"k_ratio": 0.5, "wp_plus": 0.55, "omega0": 1.0, "kappa_down": 1.0,
               "kappa_up1": 0.0, "kind": ModelKind.NOISE_INDUCED.value, "dim": 0},
    "evolve": {"k_ratio": 0.5, "omega0": 1.0, "kappa_down": 1.0, "dim": 0,
               "t": 10.0, "initial": "vacuum"},
    "sde": {"kappa": 1.0, "delta": 1.0, "omega0": 10.0, "dt": 0.002, "n_steps": 200,
            "burn_in": 3000, "n_paths": 20000, "seed": 0, "coordinates": "polar",
            "dump_samples": 10000},
    "wigner": {"k_ratio": 0.5, "wp_plus": 0.55, "omega0": 1.0, "kappa_down": 1.0,
               "h": 0.05, "extent": 0.0, "boundary_tol": 1e-2},
}

# The most bytes one run's arrays may take (see ``_require_budget``).
BYTE_BUDGET = 2 ** 31

# The rule of each field that has one: a test of its typed value and the text
# of what it needs, which is also the flag's --help.  NaN fails every
# comparison, so each range rule rejects it.
RULES = {
    "k_count": (lambda v: v >= 1, "an integer >= 1"),
    "wp_count": (lambda v: v >= 1, "an integer >= 1"),
    "wp_plus": (lambda v: 0.0 <= v <= 1.0, "an even-parity weight in [0, 1]"),
    "kind": (lambda v: v in [k.value for k in ModelKind], " | ".join(k.value for k in ModelKind)),
    "coordinates": (lambda v: v in ("polar", "cartesian"), "polar | cartesian"),
    "dump_samples": (lambda v: v >= 0, "an integer >= 0"),
    "dim": (lambda v: v == 0 or v >= 2, "at least 2, or 0 (the default) for the model's tail "
            "rule (< 1e-12 of the steady mass above); refused where the arrays pass "
            f"{BYTE_BUDGET / 2 ** 30:g} GiB"),
    "t": (lambda v: 0.0 <= v < math.inf, "a finite time >= 0"),
    "h": (lambda v: 0.0 < v < math.inf, "a finite grid step > 0"),
    "extent": (lambda v: 0.0 <= v < math.inf, "a finite half-width > 0, or 0 (the default)"),
    "boundary_tol": (lambda v: 0.0 < v < math.inf, "a finite tolerance > 0"),
    "initial": (lambda v: v == "vacuum" or v.startswith(("fock:", "coherent:")),
                "vacuum | fock:n | coherent:alpha"),
}

# The fields a model kind does not read.  Setting one is a config error, and
# the echoed config leaves it out.
UNUSED = {ModelKind.CONVENTIONAL.value: ("k_ratio", "wp_plus")}


def _merge_config(args: argparse.Namespace) -> dict:
    """Flags override JSON config fields; unset fields take the table default.

    Every value must have its default's type (an int serves for a float, a
    bool never does) and pass its rule, and the file may hold no other key.
    """
    fields = FIELDS[args.command]
    try:
        file_cfg = json.loads(Path(args.config).read_text()) if args.config else {}
    except (OSError, ValueError) as exc:  # a missing or unreadable file, or malformed JSON
        raise SystemExit(f"config error at config: {exc}") from None
    if not isinstance(file_cfg, dict):
        raise SystemExit(f"config error at config: need a JSON object, got {file_cfg!r}")
    if file_cfg.get("command", args.command) != args.command:
        raise SystemExit(f"config error at command: need {args.command!r}, "
                         f"got {file_cfg['command']!r}")
    for key in file_cfg:
        if key not in fields and key != "command":
            raise SystemExit(f"config error at {key}: {args.command} has no field {key}")
    merged = {}
    for key, default in fields.items():
        flag_value = getattr(args, key)
        value = merged[key] = flag_value if flag_value is not None else file_cfg.get(key, default)
        types = (int, float) if type(default) is float else (type(default),)
        if type(value) not in types:
            raise SystemExit(f"config error at {key}: need {type(default).__name__}, got {value!r}")
        if key in RULES and not RULES[key][0](value):
            raise SystemExit(f"config error at {key}: need {RULES[key][1]}, got {value!r}")
    for key in UNUSED.get(merged.get("kind"), ()):
        if getattr(args, key) is not None or key in file_cfg:
            raise SystemExit(f"config error at {key}: the {merged['kind']} model has no {key}")
        del merged[key]
    return merged


def _prepare_out(args: argparse.Namespace, cfg: dict) -> Path:
    out = Path(args.out or f"{args.command}-out")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # e.g. a file of that name
        raise SystemExit(f"config error at out: {exc}") from None
    (out / "config.json").write_text(json.dumps({"command": args.command, **cfg}, indent=2) + "\n")
    return out


def _config_comment(args: argparse.Namespace, cfg: dict) -> str:
    return f"config: {json.dumps({'command': args.command, **cfg}, sort_keys=True)}"


def _write_summary(out: Path, summary: dict) -> None:
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")


def _config_error(exc: FockError) -> SystemExit:
    """A model the fields cannot build, reported at the field at fault.

    The noise-induced gain rate kappa_up2 is k_ratio * kappa_down, so it
    reports as k_ratio.
    """
    field = "k_ratio" if exc.field == "kappa_up2" else exc.field
    return SystemExit(f"config error at {field}: {exc}")


def _require_budget(field: str, need: int, at: str, size: int) -> None:
    """A config error at ``field`` where ``need`` bytes, the arrays a command builds at ``size``
    (its place in ``at``, as in "dim {}"), pass ``BYTE_BUDGET``; every command checks once,
    before any output."""
    if need > BYTE_BUDGET:  # exact in ints
        from decimal import Decimal  # prints past float range; kept off the start-up path

        where = at.format(f"{Decimal(size):.6g}")
        raise SystemExit(f"config error at {field}: the arrays at {where} take about "
                         f"{Decimal(need) / 2 ** 30:.3g} GiB, past the "
                         f"{BYTE_BUDGET / 2 ** 30:g} GiB budget")


def _fock_dim(cfg: dict, params: ModelParams, bytes_at) -> int:
    """The ``dim`` field, or where it is 0 the model's default; where ``bytes_at(dim)``, the
    command's arrays, would pass ``BYTE_BUDGET``, a config error at ``dim`` when given, else
    at the field the model's tail rule read."""
    try:
        dim = cfg["dim"] or default_dim(params)
    except FockError as exc:
        raise _config_error(exc) from None
    rule = "k_ratio" if params.kind is ModelKind.NOISE_INDUCED else "kappa_up1"
    _require_budget("dim" if cfg["dim"] else rule, bytes_at(dim), "dim {}", dim)
    return dim


def _model_from_cfg(cfg: dict) -> ModelParams:
    """The model a command's fields describe; without ``kind`` it is noise-induced.

    Fields that build no model are a config error (see ``_config_error``).
    """
    kind = ModelKind(cfg.get("kind", ModelKind.NOISE_INDUCED.value))
    gain2 = cfg["k_ratio"] * cfg["kappa_down"] if kind is ModelKind.NOISE_INDUCED else 0.0
    try:
        return ModelParams(omega0=cfg["omega0"], kappa_down=cfg["kappa_down"], kappa_up2=gain2,
                           kappa_up1=cfg.get("kappa_up1", 0.0), kind=kind)
    except FockError as exc:
        raise _config_error(exc) from None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_phase_diagram(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    if not (0.0 < cfg["k_min"] <= cfg["k_max"] < 1.0):
        raise SystemExit(f"config error at k_min/k_max: need 0 < k_min <= k_max < 1, got {cfg}")
    if not (0.0 <= cfg["wp_min"] <= cfg["wp_max"] <= 1.0):
        raise SystemExit(f"config error at wp_min/wp_max: need range inside [0, 1], got {cfg}")
    n_rows = cfg["k_count"] * cfg["wp_count"]  # the tracemalloc peak is 350-400 bytes a row
    _require_budget("k_count/wp_count", 400 * n_rows, "{} rows", n_rows)
    out = _prepare_out(args, cfg)
    rows = []
    for k in np.linspace(cfg["k_min"], cfg["k_max"], cfg["k_count"]):
        for wp in np.linspace(cfg["wp_min"], cfg["wp_max"], cfg["wp_count"]):
            point = analytic.phase_classify(k, wp)
            rows.append(
                (k, wp, point.r_star, point.w0, point.q_ss,
                 float(analytic.sigmoid(point.q_ss)), point.phase.value)
            )
    *numbers, phases = zip(*rows)
    csvio.write_csv(out / "phase_diagram.csv",
                    ["K", "wp_plus", "r_star", "w0", "q_ss", "s_q", "phase"],
                    [*map(np.array, numbers), np.array(phases, dtype="S")],
                    [_config_comment(args, cfg)])
    _write_summary(out, {"rows": len(rows)})
    print(f"wrote {len(rows)} rows to {out/'phase_diagram.csv'}")
    return 0


def cmd_steady(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    params = _model_from_cfg(cfg)
    # O(dim) arrays: 14 MiB at dim 55236
    cfg["dim"] = _fock_dim(cfg, params, lambda dim: 320 * dim)
    out = _prepare_out(args, cfg)
    summary = verify.steady_report(params, cfg["dim"], cfg.get("wp_plus"))
    _write_summary(out, summary)
    for name, c in summary["checks"].items():
        status = "SKIP" if "skipped" in c else ("PASS" if c.get("pass") else "FAIL")
        print(f"{status}  {name}  {c}")
    return 0 if summary["all_pass"] else 1


def cmd_evolve(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    params = _model_from_cfg(cfg)
    # seven complex dim x dim arrays; the tracemalloc peak per dim^2 at dim 1078 is 96 bytes for
    # a start touching every order (coherent:1), 77 for vacuum at k = 0 (dense), 64 on the chains
    dim = cfg["dim"] = _fock_dim(cfg, params, lambda dim: 112 * dim ** 2)
    spec = cfg["initial"]
    dropped = 0.0  # the mass of the start above the truncation
    try:
        if spec == "vacuum":
            rho0 = fock_state(dim, 0)
        elif spec.startswith("fock:"):
            rho0 = fock_state(dim, int(spec.split(":", 1)[1]))
        else:
            alpha = complex(spec.split(":", 1)[1])
            rho0 = coherent_state(dim, alpha)
            dropped = coherent_tail(dim, alpha)
    except ValueError as exc:  # a malformed number, or a level outside the truncation
        raise SystemExit(f"config error at initial: bad state {spec!r} ({exc})") from None
    out = _prepare_out(args, cfg)

    rho_t = evolve(rho0, Generator(params, dim), cfg["t"])
    wp0, _ = parity_weights(rho0)
    target = analytic.rho_ss_analytic(params.k_ratio, wp0, dim)
    summary = {
        "t": cfg["t"],
        "initial_dropped_mass": dropped,
        "parity_initial": parity_expectation(rho0),
        "parity_final": parity_expectation(rho_t),
        "trace_final": float(np.trace(rho_t).real),
        "edge_population": edge_population(rho_t),
        "distance_to_predicted_steady": trace_distance(rho_t, target),
    }
    _write_summary(out, summary)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def cmd_sde(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    try:
        run_cfg = sde.SdeConfig(**{k: v for k, v in cfg.items() if k != "dump_samples"})
    except sde.SdeError as exc:
        raise SystemExit(f"config error at {exc.field}: {exc}") from None
    # the samples (x, y, r, phi) and their temporaries: a tracemalloc peak of 99 bytes a path
    _require_budget("n_paths", 100 * cfg["n_paths"], "{} paths", cfg["n_paths"])
    out = _prepare_out(args, cfg)
    result = sde.simulate_ensemble(run_cfg)
    summary = verify.ensemble_report(run_cfg, result)
    cap = cfg["dump_samples"]
    if cap > 0:
        csvio.write_csv(out / "samples.csv", ["r", "phi", "x", "y"],
                        [result.r[:cap], result.phi[:cap], result.x[:cap], result.y[:cap]],
                        [_config_comment(args, cfg)])
    _write_summary(out, summary)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def cmd_wigner(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    params = _model_from_cfg(cfg)
    sizing = "extent" if cfg["extent"] > 0 else "h"  # the field that sets the grid count
    cfg["extent"] = cfg["extent"] or wignerflux.default_extent(cfg["k_ratio"], cfg["wp_plus"])
    points = wignerflux.grid_points(cfg["extent"], cfg["h"])  # without building the axis
    if points <= 2 * wignerflux.EDGE_CELLS:  # the stencils would leave no interior cell
        raise SystemExit(f"config error at {sizing}: need more than {2 * wignerflux.EDGE_CELLS} "
                         f"grid points across 2 * extent = {2 * cfg['extent']}, got {points}")
    # twelve float64 grid arrays at the tracemalloc peak: the field, current, residual and flux
    _require_budget(sizing, 96 * points ** 2, "{} grid cells", points ** 2)
    field = wignerflux.sample_steady_field(cfg["k_ratio"], cfg["wp_plus"],
                                           extent=cfg["extent"], h=cfg["h"])
    try:
        jx, jy = wignerflux.wigner_current(field, params, boundary_tol=cfg["boundary_tol"])
    except wignerflux.BoundaryContaminationError as exc:  # the grid cuts off the field
        raise SystemExit(f"config error at extent: {exc}") from None
    out = _prepare_out(args, cfg)

    residual = wignerflux.wigner_generator_apply(field, params, boundary_tol=cfg["boundary_tol"])
    decomp = wignerflux.flux_decompose(field, jx, jy, params)
    wignerflux.field_to_csv(out / "field.csv", field, jx, jy, decomp,
                            header_lines=[_config_comment(args, cfg)])
    summary = verify.wigner_report(field, residual, decomp)
    _write_summary(out, summary)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    only = args.only.split(",") if args.only else None
    mutations = tuple(args.mutate.split(",")) if args.mutate else ()
    for field, given, known in (("only", only or (), verify.CHECKS),
                                ("mutate", mutations, verify.MUTATIONS)):
        if unknown := sorted(set(given) - set(known)):
            raise SystemExit(f"config error at {field}: need names from {', '.join(known)}, "
                             f"got {', '.join(unknown)}")
    out = _prepare_out(args, {"only": only, "mutations": list(mutations)})
    start = time.perf_counter()
    results = verify.run_checks(only=only, mutations=mutations)
    report = {
        "all_pass": all(r.passed for r in results),
        "runtime_s": time.perf_counter() - start,
        "checks": {
            r.name: {"passed": r.passed, "duration_s": r.duration, **r.details}
            for r in results
        },
    }
    (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    for r in results:
        print(r.summary())
    failures = [r.name for r in results if not r.passed]
    if failures:
        print(f"FAILED checks: {', '.join(failures)}")
        return 1
    print("all checks passed")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisecycle",
        description="noise-induced quantum limit cycles and their classical twin",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def subcommand(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = subs.add_parser(name, help=help_text)
        if name in FIELDS:
            p.add_argument("--config", help="JSON config file; flags override its fields")
        p.add_argument("--out", help="output directory (created if missing)")
        for key, default in FIELDS.get(name, {}).items():
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=type(default),
                           help=RULES.get(key, (None, None))[1])
        p.set_defaults(func=func)
        return p

    subcommand("phase-diagram", cmd_phase_diagram, "sweep the (ratio, even-weight) square to CSV")
    subcommand("steady", cmd_steady, "cross-checked steady-state report")
    subcommand("evolve", cmd_evolve, "propagate an initial state and report")
    subcommand("sde", cmd_sde, "classical ensemble with summary statistics")
    subcommand("wigner", cmd_wigner, "steady field, current, and flux decomposition")
    p = subcommand("verify", cmd_verify, "run the acceptance checks")
    p.add_argument("--only", help="comma-separated check names: " + ", ".join(verify.CHECKS))
    p.add_argument("--mutate", help="comma-separated fault injections (self-test): "
                   + ", ".join(verify.MUTATIONS))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
