"""The benchmark's own tests: seeded inputs, metric names, and checks that fail
on corrupted results.

    python -m pytest perfbench
"""

import dataclasses
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from noisecycle import lindblad

import workloads
from tracing import NullTracer, Tracer

ROOT = Path(__file__).resolve().parents[1]
STEADY = workloads.SteadyRequest(k_ratio=0.2, wp_plus=0.3, kappa_up1=None, oracle=False,
                                 probe_seed=5)


def run_steady(tmp_path):
    return workloads.run_steady_report(STEADY, NullTracer(), tmp_path)


def messages(problems):
    return " | ".join(message for _, message in problems)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_repeat_per_seed(name):
    first = workloads.make_requests(name, 3, rounds=2)
    assert first == workloads.make_requests(name, 3, rounds=2)
    assert first != workloads.make_requests(name, 4, rounds=2)
    assert len(first) == 2 * len(workloads.WORKLOADS[name].make_round(np.random.default_rng(0)))
    assert len(first) >= 40


def test_jittered_puts_one_draw_in_each_cell():
    values = workloads.jittered(np.random.default_rng(0), 8, 1.0, 5.0)
    assert list(np.floor((values - 1.0) / 0.5)) == list(range(8))
    central = workloads.jittered(np.random.default_rng(0), 8, 1.0, 5.0, width=0.2)
    assert np.all(np.abs((central - 1.0) / 0.5 - np.arange(8) - 0.5) <= 0.1)


def test_steady_round_mix():
    batch = workloads.steady_round(np.random.default_rng(1))
    conventional = [r.kappa_up1 for r in batch if r.kappa_up1 is not None]
    assert len(conventional) == 6 and min(conventional) >= 0.12
    oracles = [r for r in batch if r.oracle]
    assert len(oracles) == 6 and all(r.k_ratio <= 0.3 and r.kappa_up1 is None for r in oracles)


def test_evolve_round_kinds():
    batch = workloads.evolve_round(np.random.default_rng(1))
    vacuum = sum(r.level == 0 for r in batch)
    coherent = sum(not r.diagonal for r in batch)
    assert (vacuum, coherent, len(batch) - vacuum - coherent) == (6, 9, 9)
    assert len({(r.k_ratio, r.t) for r in batch}) == 3


def test_traced_metrics_are_named_in_benchmark_json(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    named = {m["name"] for m in spec["per_layer"]}
    tracer = Tracer()
    probes = [
        ("steady-report", dataclasses.replace(STEADY, oracle=True)),
        ("evolve-mix", workloads.EvolveRequest(k_ratio=0.1, t=0.5, level=0)),
        ("evolve-mix", workloads.EvolveRequest(k_ratio=0.1, t=0.5, alpha=0.8j)),
    ] + [("classical-ensemble", req) for req in workloads.make_requests("classical-ensemble", 0, 1)[:2]]
    for name, req in probes:
        assert workloads.attempt(workloads.WORKLOADS[name], req, tracer, tmp_path)[1] == []
    produced = set(tracer.self_times()) | set(tracer.counts)
    # run.py derives the divergence fraction from the two path counters
    produced -= {"sde.simulate_ensemble.diverged", "sde.simulate_ensemble.paths"}
    produced |= {"sde.simulate_ensemble.diverged_frac", "tracing_overhead_s"}
    reported = {"fock.liouvillian.calls", "lindblad.evolve.calls", "lindblad.steady_states.calls"}
    assert {m for m in produced if not m.endswith(".calls")} | reported <= named
    errors = {f"{module}.errors" for module in ("fock", "lindblad", "analytic", "wignerflux", "sde")}
    assert named - produced == errors


def test_tracer_self_time_excludes_children():
    tracer = Tracer()
    with tracer.request(0):
        with tracer.span("a.outer"):
            with tracer.span("a.inner", "x"):
                pass
    times = tracer.self_times()
    (_, _, r0, r1, _, _), (_, _, o0, o1, _, _), (_, _, i0, i1, _, _) = tracer.spans
    assert math.isclose(times["a.outer.s"], (o1 - o0) - (i1 - i0), abs_tol=1e-12)
    assert math.isclose(times["a.inner.x_s"], i1 - i0, abs_tol=1e-12)
    assert math.isclose(sum(times.values()), tracer.top_level_time(), rel_tol=1e-9)


def test_steady_check_passes_then_catches_a_sign_flipped_circulation_formula(tmp_path, monkeypatch):
    assert workloads.check_steady_report(STEADY, run_steady(tmp_path)) == []
    real = lindblad.circulation

    def flipped(rho, params):
        result = real(rho, params)
        return dataclasses.replace(result, phi_formula=-result.phi_formula)

    monkeypatch.setattr(lindblad, "circulation", flipped)
    problems = workloads.check_steady_report(STEADY, run_steady(tmp_path))
    assert "circulation relative gap" in messages(problems)


def test_steady_check_catches_a_perturbed_population(tmp_path, monkeypatch):
    real = lindblad.steady_states

    def moved(result, src, dst):
        rho_plus = result.rho_plus.copy()
        rho_plus[src, src] -= 1e-6
        rho_plus[dst, dst] += 1e-6
        return dataclasses.replace(result, rho_plus=rho_plus)

    # within the even ladder: the state is no longer stationary and the request raises
    monkeypatch.setattr(lindblad, "steady_states", lambda gen: moved(real(gen), 0, 2))
    workload = workloads.WORKLOADS["steady-report"]
    _, problems = workloads.attempt(workload, STEADY, NullTracer(), tmp_path)
    assert "raised StationarityError" in messages(problems)

    # from the even to the odd sector: still stationary, off the closed form
    def to_odd(gen):
        result = real(gen)
        return dataclasses.replace(result, rho_plus=(1 - 1e-6) * result.rho_plus
                                   + 1e-6 * result.rho_minus)

    monkeypatch.setattr(lindblad, "steady_states", to_odd)
    _, problems = workloads.attempt(workload, STEADY, NullTracer(), tmp_path)
    assert "trace distance to the closed form" in messages(problems)


def test_evolve_check_catches_a_perturbed_population(tmp_path):
    req = workloads.EvolveRequest(k_ratio=0.1, t=1.0, level=2)
    out = workloads.run_evolve(req, NullTracer(), tmp_path)
    assert workloads.check_evolve(req, out) == []
    out["rho_t"] = out["rho_t"].copy()
    out["rho_t"][1, 1] += 1e-9
    assert "trace off by" in messages(workloads.check_evolve(req, out))


def test_csv_check_catches_a_value_printed_with_16_digits(tmp_path):
    out = run_steady(tmp_path)
    field, jx, jy, decomp = out["field"]
    path = out["csv_path"]
    lines = path.read_text().splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    probes = workloads.csv_probe_rows(STEADY, field.x.size * field.y.size)
    for row in probes:
        cells = lines[header + 1 + row].split(",")
        value = float(cells[2])
        if float(f"{value:.16g}") != value:
            break
    else:
        pytest.fail("no probed w value needs 17 digits")
    cells[2] = f"{value:.16g}"
    lines[header + 1 + row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    assert f"CSV row {row} reads" in messages(workloads.check_steady_report(STEADY, out))


def test_classical_check_catches_a_mean_shifted_by_its_tolerance(tmp_path):
    req = workloads.make_requests("classical-ensemble", 2, 1)[0]
    out = workloads.run_classical(req, NullTracer(), tmp_path)
    assert workloads.check_classical(req, out) == []
    target, tol = workloads.moment_tolerances(req, out["samples"])["mean_r"]
    out["mean_r"] += math.copysign(tol, out["mean_r"] - target)
    assert "mean_r" in messages(workloads.check_classical(req, out))


def test_classical_config_keeps_the_stiffness_guard_silent():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for req in workloads.make_requests("classical-ensemble", 0, 1):
            cfg = req.config()
            assert cfg.burn_in * cfg.dt == pytest.approx(6.0 / cfg.kappa)
