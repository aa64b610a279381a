"""Every CSV the package writes is byte-identical to the csv-module reference.

The reference is the row-by-row path: ``csv.writer`` with each number
formatted by ``f"{v:.17g}"``.  The package writes through ``noisecycle.csvio``
instead, so each file is compared byte for byte with what the reference
writes from the same data.  The encoder itself is held to ``"%.17g" % v``
over raw 64-bit patterns, edge values and exact decimal ties.
"""

import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisecycle import analytic, csvio, sde, wignerflux
from noisecycle.cli import main
from noisecycle.fock import ModelParams
from noisecycle.wignerflux import FluxDecomposition, WignerField, field_to_csv


def assert_same_bytes(got: bytes, want: bytes) -> None:
    """Equal bytes, or a failure that shows the first line that differs, both ways."""
    if got == want:
        return
    got_lines, want_lines = got.splitlines(keepends=True), want.splitlines(keepends=True)
    first = next((i for i, (g, w) in enumerate(zip(got_lines, want_lines)) if g != w),
                 min(len(got_lines), len(want_lines)))
    shown = [lines[first] if first < len(lines) else b"<end of file>"
             for lines in (got_lines, want_lines)]
    pytest.fail(f"first difference at line {first + 1}:\n  got:  {shown[0]!r}\n"
                f"  want: {shown[1]!r}", pytrace=False)


def reference_field_csv(path, field, jx, jy, decomp, header_lines):
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "w", "jx", "jy", "j_irr_x", "j_irr_y"])
        for i, xv in enumerate(field.x):
            for j, yv in enumerate(field.y):
                writer.writerow([
                    f"{v:.17g}"
                    for v in (xv, yv, field.w[i, j], jx[i, j], jy[i, j],
                              decomp.j_irr_x[i, j], decomp.j_irr_y[i, j])
                ])


def reference_table_csv(path, header, rows, cfg):
    with open(path, "w", newline="") as fh:
        fh.write(f"# config: {json.dumps(cfg, sort_keys=True)}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([v if isinstance(v, str) else f"{v:.17g}" for v in row])


def echoed_config(out):
    return json.loads((out / "config.json").read_text())


def test_field_csv_bytes_match_reference(tmp_path):
    out = tmp_path / "w"
    assert main(["wigner", "--out", str(out), "--k-ratio", "0.3", "--wp-plus", "0.6",
                 "--h", "0.25"]) == 0
    cfg = echoed_config(out)
    field = wignerflux.sample_steady_field(cfg["k_ratio"], cfg["wp_plus"],
                                           extent=cfg["extent"], h=cfg["h"])
    params = ModelParams(omega0=cfg["omega0"], kappa_down=cfg["kappa_down"],
                         kappa_up2=cfg["k_ratio"] * cfg["kappa_down"])
    jx, jy = wignerflux.wigner_current(field, params, boundary_tol=cfg["boundary_tol"])
    decomp = wignerflux.flux_decompose(field, jx, jy, params)
    # the zeroed edge ring prints as exact zeros
    assert not jx[0].any() and not decomp.j_irr_y[:, -1].any()
    ref = tmp_path / "ref.csv"
    reference_field_csv(ref, field, jx, jy, decomp,
                        [f"config: {json.dumps(cfg, sort_keys=True)}"])
    assert_same_bytes((out / "field.csv").read_bytes(), ref.read_bytes())


def test_field_csv_extreme_values_match_reference(tmp_path):
    grid = np.linspace(-1.5, 1.5, 4)
    special = np.array([
        -0.0, 0.0, 5e-324, -2.2250738585072014e-308,
        1.7976931348623157e308, -1e308, 9.999999999999999e307, 1e-300,
        0.1, 1.0 / 3.0, -2.5e-17, 123456789.0, np.inf, -np.inf, np.nan, 1.0,
    ])
    w = special.reshape(4, 4)
    jx, jy = w[::-1].copy(), w.T.copy()
    decomp = FluxDecomposition(j_rev_x=jx, j_rev_y=jy, j_irr_x=-w, j_irr_y=w[:, ::-1].copy())
    field = WignerField(x=grid, y=grid, w=w)
    out, ref = tmp_path / "field.csv", tmp_path / "ref.csv"
    field_to_csv(out, field, jx, jy, decomp, header_lines=["edge values", "second line"])
    reference_field_csv(ref, field, jx, jy, decomp, ["edge values", "second line"])
    assert_same_bytes(out.read_bytes(), ref.read_bytes())
    assert b",-0," in out.read_bytes() and b"4.9406564584124654e-324" in out.read_bytes()


def test_phase_diagram_csv_bytes_match_reference(tmp_path):
    out = tmp_path / "pd"
    assert main(["phase-diagram", "--out", str(out), "--k-min", "0.1", "--k-max", "0.9",
                 "--k-count", "4", "--wp-count", "5"]) == 0
    cfg = echoed_config(out)
    rows = []
    for k in np.linspace(cfg["k_min"], cfg["k_max"], cfg["k_count"]):
        for wp in np.linspace(cfg["wp_min"], cfg["wp_max"], cfg["wp_count"]):
            point = analytic.phase_classify(k, wp)
            rows.append((k, wp, point.r_star, point.w0, point.q_ss,
                         float(analytic.sigmoid(point.q_ss)), point.phase.value))
    kinds = {type(v) for row in rows for v in row}
    assert {np.float64, float, str} <= kinds
    assert {row[-1] for row in rows} == {"I", "II", "III"}
    ref = tmp_path / "ref.csv"
    reference_table_csv(ref, ["K", "wp_plus", "r_star", "w0", "q_ss", "s_q", "phase"], rows, cfg)
    assert_same_bytes((out / "phase_diagram.csv").read_bytes(), ref.read_bytes())


def test_samples_csv_bytes_match_reference(tmp_path):
    out = tmp_path / "sde"
    assert main(["sde", "--out", str(out), "--n-paths", "600", "--burn-in", "200",
                 "--n-steps", "20", "--dump-samples", "500", "--seed", "3"]) == 0
    cfg = echoed_config(out)
    run_cfg = sde.SdeConfig(**{k: v for k, v in cfg.items()
                               if k not in ("command", "dump_samples")})
    result = sde.simulate_ensemble(run_cfg)
    cap = cfg["dump_samples"]
    rows = zip(result.r[:cap], result.phi[:cap], result.x[:cap], result.y[:cap])
    ref = tmp_path / "ref.csv"
    reference_table_csv(ref, ["r", "phi", "x", "y"], rows, cfg)
    assert_same_bytes((out / "samples.csv").read_bytes(), ref.read_bytes())



# ---------------------------------------------------------------------------
# the encoder against "%.17g"
# ---------------------------------------------------------------------------

def encoded(values):
    return b"".join(csvio.encode_rows([np.asarray(values, dtype=np.float64)]))


def formatted(values):
    return "".join("%.17g\r\n" % v for v in values).encode()


# raw patterns, and the patterns of hypothesis' floats, which favour round
# decimals, powers of two and the ends of each range
PATTERNS = st.integers(0, 2 ** 64 - 1) | st.floats().map(
    lambda v: int(np.float64(v).view(np.uint64)))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.lists(PATTERNS, min_size=1, max_size=40))
def test_encoder_matches_percent_17g_on_raw_patterns(patterns):
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    assert_same_bytes(encoded(values), formatted(values.tolist()))
    # a 3-column table: an axis column broadcast over a grid, the grid, a row
    grid = np.stack([values, values[::-1]], axis=1)
    table = b"".join(csvio.encode_rows([values[:, None], grid, values[None, -2:]]))
    rows = [(a, b, c) for a, line in zip(values.tolist(), grid.tolist())
            for b, c in zip(line, np.resize(values[-2:], 2).tolist())]
    assert_same_bytes(table, "".join("%.17g,%.17g,%.17g\r\n" % row for row in rows).encode())


def exact_ties():
    """Dyadic j / 2^s whose 18th significant digit is an exact 5.

    Their 18 digits are N = j 5^s, an odd multiple of 5 in [1e17, 1e18), so
    17 digits round half to even.  Each s from 3 to 25 gives the smallest
    and the largest such j below 2^53.
    """
    ties = []
    for s in range(3, 26):
        low, high = -(-10 ** 17 // 5 ** s) | 1, min(10 ** 18 // 5 ** s, 2 ** 53) - 1
        for j in (low, high - (1 - high % 2)):
            assert j % 2 == 1 and 10 ** 17 <= j * 5 ** s < 10 ** 18
            ties.append(j / 2 ** s)
    return ties


def binade_ends():
    """The smallest and the largest double of every normal exponent field, both signs.

    Each pins one half of the encoder's key: the low end lies below the
    binade's decade cut, the high end at or above it, when the binade holds one.
    """
    low = np.arange(1, 0x7FF, dtype=np.uint64) << np.uint64(52)
    ends = np.concatenate([low, low | np.uint64((1 << 52) - 1)]).view(np.float64)
    return [*ends, *-ends]


def test_encoder_matches_percent_17g_on_edge_values():
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    values = [
        0.0, -0.0, np.uint64(0xFFF8000000000001).view(np.float64), np.inf, -np.inf,
        5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
        1e16, 1e17, 99999999999999999.0, 0.0001, 9.9999999999999991e-5,
        # fixed notation whose trailing zeros reach the integer part
        10.0, 120.0, 1e15, 1234.5, 12345678901234568.0, 99999999999999984.0,
        *powers, *np.nextafter(powers, 0.0), *np.nextafter(powers, np.inf), *-powers,
        *exact_ties(), *binade_ends(),
    ]
    assert_same_bytes(encoded(values), formatted(values))
    assert encoded([-np.nan, -0.0]) == b"nan\r\n-0\r\n"
    assert encoded([560639462230231.875]) == b"560639462230231.88\r\n"


def test_zeros_have_their_own_cell_and_the_rare_layouts_go_to_percent_17g(monkeypatch):
    # ±0 is written by the encoder itself; the values whose last 4 digits are
    # zeros (1e15, 0.5, 120.0) or whose point falls among the digits (12.5, 120.0)
    # are formatted by "%.17g", and so are 1e-305 and 1e-243: each double lies
    # just below its power of ten, and its 17 digits carry to D = 10^17
    sent = []
    fallback = csvio._formatted
    monkeypatch.setattr(csvio, "_formatted", lambda values: sent.extend(values) or fallback(values))
    values = [0.0, -0.0, 12.5, 1e15, 0.5, 120.0, 0.1, -0.0, 0.0, 1e-305, -1e-243]
    got = encoded(values)
    monkeypatch.undo()
    assert_same_bytes(got, formatted(values))
    assert sorted(sent) == [-1e-243, 1e-305, 0.5, 12.5, 120.0, 1e15]


def test_tables_longer_than_one_chunk_match_reference(tmp_path):
    rng = np.random.default_rng(5)
    n = 3 * csvio.CHUNK_ROWS + 7
    values = rng.lognormal(0.0, 20.0, size=(n, 3)) * rng.choice([-1.0, 1.0], size=(n, 3))
    values[::5, 1] = values[::5, 0]  # repeats within a chunk
    specials = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1.0, 0.1]
    values[::7, 2] = np.resize(specials, values[::7, 2].shape)
    labels = rng.choice(["I", "II", "III"], size=n)
    rows = [(*map(float, v), label) for v, label in zip(values, labels)]
    cfg = {"command": "test", "rows": n}
    header = ["a", "b", "c", "phase"]
    out, ref = tmp_path / "table.csv", tmp_path / "ref.csv"
    csvio.write_csv(out, header, [*values.T, labels.astype("S")],
                    [f"config: {json.dumps(cfg, sort_keys=True)}"])
    reference_table_csv(ref, header, rows, cfg)
    assert_same_bytes(out.read_bytes(), ref.read_bytes())

    # a grid of several chunks of whole lines, whose lines do not divide a chunk
    grid = np.linspace(-3.0, 3.0, 47)
    w = rng.standard_normal((47, 47))
    decomp = FluxDecomposition(j_rev_x=w, j_rev_y=w, j_irr_x=-w, j_irr_y=w ** 3)
    field = WignerField(x=grid, y=grid + 0.25, w=w)
    assert w.size > 2 * csvio.CHUNK_ROWS and csvio.CHUNK_ROWS % 47
    field_to_csv(out, field, 2 * w, w / 3, decomp, header_lines=["grid"])
    reference_field_csv(ref, field, 2 * w, w / 3, decomp, ["grid"])
    assert_same_bytes(out.read_bytes(), ref.read_bytes())

    # the same grid with a zeroed edge ring, so every chunk holds runs of 0 and -0
    w[[0, 1, -2, -1]] = 0.0
    w[:, [0, 1, -2, -1]] = -0.0
    decomp = FluxDecomposition(j_rev_x=w, j_rev_y=w, j_irr_x=-w, j_irr_y=w * 0.0)
    field_to_csv(out, field, w, -w, decomp, header_lines=["ring"])
    reference_field_csv(ref, field, w, -w, decomp, ["ring"])
    assert_same_bytes(out.read_bytes(), ref.read_bytes())
    assert out.read_bytes().count(b"-0,") > 4 * 47

    # a text column wider than a number cell, between two number columns
    wide = np.array([f"label-{i:05d}-" + "x" * (i % 40) for i in range(n)], dtype="S")
    assert wide.itemsize > 32
    csvio.write_csv(out, ["a", "label", "b"], [values[:, 0], wide, values[:, 1]],
                    [f"config: {json.dumps(cfg, sort_keys=True)}"])
    reference_table_csv(ref, ["a", "label", "b"],
                        [(a, label.decode(), b) for a, label, b in
                         zip(values[:, 0].tolist(), wide, values[:, 1].tolist())], cfg)
    assert_same_bytes(out.read_bytes(), ref.read_bytes())


def test_field_encoding_sorts_nothing_and_formats_few_values_itself(tmp_path, monkeypatch):
    # x and y are encoded once per axis and gathered, not deduplicated per
    # chunk; 0 and -0 have a cell of their own; few values reach "%.17g"
    k, wp = 0.3, 0.5
    field = wignerflux.sample_steady_field(k, wp, h=0.1)
    assert field.w.shape == (137, 137)
    params = ModelParams(omega0=1.0, kappa_down=1.0, kappa_up2=k)
    jx, jy = wignerflux.wigner_current(field, params, boundary_tol=1e-2)
    decomp = wignerflux.flux_decompose(field, jx, jy, params)
    assert not jx[0].any()  # the zeroed edge ring

    def no_unique(*args, **kwargs):
        raise AssertionError("numpy.unique called while writing a CSV")

    sent = []
    fallback = csvio._formatted
    monkeypatch.setattr(np, "unique", no_unique)
    monkeypatch.setattr(csvio, "_formatted", lambda values: sent.extend(values) or fallback(values))
    out, ref = tmp_path / "field.csv", tmp_path / "ref.csv"
    field_to_csv(out, field, jx, jy, decomp, header_lines=["guard"])
    monkeypatch.undo()
    assert 0.0 not in sent
    assert len(sent) <= 3, sent
    reference_field_csv(ref, field, jx, jy, decomp, ["guard"])
    assert_same_bytes(out.read_bytes(), ref.read_bytes())
