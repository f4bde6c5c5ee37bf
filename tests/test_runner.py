import concurrent.futures
import dataclasses
import json
import math
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hmflow.cli import main as cli_main
from hmflow.energy import energy
from hmflow.errors import ConfigurationError, FitUnreliableError
from hmflow.evolve import evolve, step_floor
from hmflow.grid import build_grid
from hmflow.modulation import fit_blowup_rate
from hmflow.runner import (CSV_COLUMNS, IC_FAMILIES, SCENARIOS, _FLOAT_KEYS,
                           _INT_KEYS, _KNOWN_KEYS, _STR_KEYS, RunConfig,
                           _collapse_start, _setup, build_initial_condition,
                           build_run_config, concentration_scale_track,
                           execute, parse_config_text, parse_grid_file, run,
                           sweep)

# a fast, fully-resolved configuration for interface tests
FAST = dict(m="2", r_min="1e-3", r_max="1e2", n="512", dt="2e-3",
            t_end="0.5", sample_every="0.1", ic_family="e0_bump",
            ic_A="0.5", ic_sigma="1", label="fast")


# a degree with 401 digits, and a node count whose arrays numpy refuses to
# size before it allocates anything
_HUGE_M = "1" + "0" * 400
# degrees a float holds whose m^2, or (m/r_min)^2 at r_min = 1e-60,
# overflows
_M_SQUARE_OVERFLOW = "1" + "0" * 300
_M_OVER_R_MIN_OVERFLOW = "1" + "0" * 100
_HUGE_N = "1" + "0" * 30


def _cfg(tmp_path, **over):
    # an override of None drops the key
    raw = {k: str(v) for k, v in dict(FAST, **over).items() if v is not None}
    return build_run_config(raw, out_dir=str(tmp_path))


# ---- config parsing ------------------------------------------------------

def test_parse_config_text():
    raw = parse_config_text(
        "# comment\n m = 2 \n\nlabel = decay_a  # trailing note\n")
    assert raw == {"m": "2", "label": "decay_a"}


def test_parse_config_rejects_duplicates_and_noise():
    with pytest.raises(ConfigurationError):
        parse_config_text("m = 2\nm = 3\n")
    with pytest.raises(ConfigurationError):
        parse_config_text("definitely not a key value line\n")
    for line in ("m =\n", "= 2\n"):
        with pytest.raises(ConfigurationError, match="empty key or value"):
            parse_config_text(line)


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigurationError, match="unknown"):
        build_run_config({"mm": "2"}, out_dir=str(tmp_path))


def test_config_keys_are_the_run_config_fields():
    # every RunConfig field but out_dir is a config key, of exactly one type
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    assert _KNOWN_KEYS == fields - {"out_dir"}
    assert len(_FLOAT_KEYS) + len(_INT_KEYS) + len(_STR_KEYS) == len(
        _KNOWN_KEYS)


@pytest.mark.parametrize("key,val,fragment", [
    ("m", "0", "m"),
    ("m", "2.5", "m"),
    ("r_min", "-1", "r_min"),
    ("r_max", "1e-5", "r_"),
    ("n", "8", "n"),
    ("dt", "0", "dt"),
    ("dt_floor", "2e-3", "dt_floor"),  # not a key: derived from r_min
    ("dt_floor", "nan", "dt_floor"),
    ("r_max", "inf", "r_max"),
    ("t_end", "nan", "t_end"),
    ("t_end", "-1", "t_end"),
    ("sample_every", "0", "sample_every"),
    ("scheme", "RK4", "scheme"),
    ("scenario", "nope", "scenario"),
    ("ic_family", "nope", "ic_family"),
    # not a key: the scale floor is 10 r_min
    ("scale_floor", "0", "scale_floor"),
    ("ic_sigma", "0", "ic_sigma"),
    ("ic_family", "e1_excited", "ic_s0"),
    ("ic_family", "q_exact", "ic_s0"),
    ("ic_family", "custom_samples", "ic_file"),
    ("dt", "abc", "dt"),
    pytest.param("label", "sub/run", "label", id="label-separator"),
    pytest.param("ic_A", None, "e0_bump requires ic_A or ic_target_energy",
                 id="e0_bump-no_amplitude"),
    # rows that set several keys give them as a dict of overrides
    pytest.param("ic_sigma", dict(ic_family="e1_excited", ic_s0="1",
                                  ic_sigma="0"),
                 "e1_excited requires ic_sigma > 0", id="e1_excited-sigma_0"),
    pytest.param("ic_A", dict(ic_family="e1_excited", ic_s0="1", ic_A=None),
                 "e1_excited requires ic_A", id="e1_excited-no_amplitude"),
])
def test_validation_messages(tmp_path, key, val, fragment):
    over = val if isinstance(val, dict) else {key: val}
    with pytest.raises(ConfigurationError, match=fragment):
        _cfg(tmp_path, **over)


def test_scenario_presets_known(tmp_path):
    assert set(SCENARIOS) == {"free", "q_stationarity",
                              "below_threshold_decay",
                              "above_threshold_stability", "m1_blowup"}
    cfg = build_run_config({"scenario": "q_stationarity"},
                           out_dir=str(tmp_path))
    assert cfg.m == 2 and cfg.ic_family == "q_exact"
    # explicit keys override the preset
    cfg = build_run_config({"scenario": "q_stationarity", "t_end": "0.25"},
                           out_dir=str(tmp_path))
    assert cfg.t_end == 0.25


# ---- initial conditions --------------------------------------------------

def test_ic_families_cover(tmp_path):
    assert set(IC_FAMILIES) == {"e0_bump", "e1_excited", "q_exact",
                                "custom_samples"}


def test_e0_bump_target_energy(tmp_path):
    cfg = _cfg(tmp_path, ic_A="", ic_target_energy="6.0") \
        if False else _cfg(tmp_path, ic_target_energy="6.0")
    g = build_grid(cfg.r_min, cfg.r_max, cfg.n)
    u0 = build_initial_condition(cfg, g)
    assert energy(u0, cfg.m).total == pytest.approx(6.0, rel=1e-6)
    assert u0.inner_limit == 0.0


def test_e0_bump_energy_window(tmp_path):
    cfg = _cfg(tmp_path, ic_target_energy="9.0")  # >= 4m = 8 for m = 2
    g = build_grid(cfg.r_min, cfg.r_max, cfg.n)
    with pytest.raises(ConfigurationError):
        build_initial_condition(cfg, g)


def test_e1_excited_window(tmp_path):
    cfg = _cfg(tmp_path, ic_family="e1_excited", ic_s0="1",
               ic_sigma="3", ic_target_energy="8.0")
    g = build_grid(cfg.r_min, cfg.r_max, cfg.n)
    u0 = build_initial_condition(cfg, g)
    assert u0.inner_limit == np.pi
    assert energy(u0, cfg.m).total == pytest.approx(8.0, rel=1e-6)
    bad = _cfg(tmp_path, ic_family="e1_excited", ic_s0="1",
               ic_sigma="3", ic_target_energy="30.0")  # > 6m = 12
    with pytest.raises(ConfigurationError):
        build_initial_condition(bad, g)


def test_custom_samples_roundtrip(tmp_path):
    g = build_grid(1e-3, 1e2, 512)
    r = np.geomspace(1e-3, 1e2, 300)
    u = 0.5 * (r / (1 + r**2))  # decays at both ends, zero-degree
    path = tmp_path / "ic.txt"
    np.savetxt(path, np.column_stack([r, u]))
    cfg = _cfg(tmp_path, ic_family="custom_samples", ic_file=str(path))
    u0 = build_initial_condition(cfg, g)
    assert u0.inner_limit == 0.0
    mid = np.abs(np.log(g.nodes)).argmin()
    assert u0.values[mid] == pytest.approx(0.5 * g.nodes[mid]
                                           / (1 + g.nodes[mid] ** 2), rel=1e-3)
    # degree-m samples are stored as their offset from pi
    np.savetxt(path, np.column_stack([r, np.pi - 2.0 * np.arctan(r**2)]))
    q0 = build_initial_condition(cfg, g)
    assert q0.inner_limit == np.pi
    assert q0.offset[mid] == pytest.approx(-2.0 * np.arctan(g.nodes[mid] ** 2),
                                           rel=1e-3)


def test_custom_samples_with_one_row_names_the_rows(tmp_path):
    # one (r, u) row used to be told it "must have two columns"
    path = tmp_path / "one_row.txt"
    path.write_text("1.0 0.5\n")
    cfg = _cfg(tmp_path, ic_family="custom_samples", ic_file=str(path))
    with pytest.raises(ConfigurationError, match="at least two rows, got 1 x 2"):
        build_initial_condition(cfg, build_grid(1e-3, 1e2, 512))


def _decreasing_samples(tmp_path):
    """A custom_samples file whose radii fall."""
    path = tmp_path / "decreasing_ic.txt"
    path.write_text("1.0 0.1\n0.5 0.2\n2.0 0.05\n")
    return str(path)


@pytest.mark.parametrize("over,message", [
    (dict(ic_family="e1_excited", ic_s0="1", ic_sigma="3", ic_A="1",
          ic_target_energy="1"), "target energy 1 below the A=0 energy 3.99"),
    (dict(ic_target_energy="1e30"),
     r"target energy 1e\+30 unreachable by amplitude growth"),
    (dict(ic_family="custom_samples", ic_file=_decreasing_samples),
     "radii must be positive and strictly increasing"),
], ids=["target_below_base", "target_unreachable", "radii_decreasing"])
def test_initial_condition_rejections(tmp_path, over, message):
    over = {k: v(tmp_path) if callable(v) else v for k, v in over.items()}
    cfg = _cfg(tmp_path, **over)
    with pytest.raises(ConfigurationError, match=message):
        build_initial_condition(cfg, build_grid(1e-3, 1e2, 512))


def test_custom_samples_missing_file(tmp_path):
    cfg = _cfg(tmp_path, ic_family="custom_samples",
               ic_file=str(tmp_path / "absent.txt"))
    g = build_grid(1e-3, 1e2, 512)
    with pytest.raises(ConfigurationError):
        build_initial_condition(cfg, g)


# ---- run artifacts -------------------------------------------------------

def test_run_artifacts_and_determinism(tmp_path):
    cfg = _cfg(tmp_path / "a")
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    assert run(cfg) == 0
    cfg2 = _cfg(tmp_path / "b")
    assert run(cfg2) == 0
    csv_a = (tmp_path / "a" / "fast_trajectory.csv").read_bytes()
    csv_b = (tmp_path / "b" / "fast_trajectory.csv").read_bytes()
    assert csv_a == csv_b  # bit-identical reruns
    header = csv_a.decode().splitlines()[0].split(",")
    assert header == CSV_COLUMNS
    summary = json.loads((tmp_path / "a" / "fast_summary.json").read_text())
    for key in ("scenario", "label", "status", "classification", "checks",
                "final_metrics", "dissipation_residual_history", "provenance"):
        assert key in summary
    assert summary["status"] == "Global"
    assert summary["provenance"]["grid"]["n"] == 512
    assert len(summary["dissipation_residual_history"]) >= 2


def test_trajectory_rows_consistent(tmp_path):
    cfg = _cfg(tmp_path)
    assert run(cfg) == 0
    rows = (tmp_path / "fast_trajectory.csv").read_text().splitlines()
    ncol = len(CSV_COLUMNS)
    data = np.array([[float(x) for x in row.split(",")]
                     for row in rows[1:]])
    assert data.shape[1] == ncol
    t = data[:, 0]
    assert t[0] == 0.0 and np.all(np.diff(t) > 0)
    e = data[:, 1]
    assert np.all(np.diff(e) <= 1e-8 * e[0])  # dissipation
    assert np.allclose(e, data[:, 2] + data[:, 3], rtol=1e-12)


def test_zero_degree_artifacts_have_no_signed_zero(tmp_path):
    # a zero-degree field is its own offset, with no "+ 0.0" pass between
    # steps to turn -0.0 into +0.0, so no artifact may print a signed zero
    cfg = _cfg(tmp_path, n=256, t_end=0.05, sample_every=0.01, label="sz")
    assert run(cfg) == 0
    rows = (tmp_path / "sz_trajectory.csv").read_text().splitlines()[1:]
    cells = [c for row in rows for c in row.split(",")]
    assert len(cells) == 6 * len(CSV_COLUMNS)
    assert not [c for c in cells if c.startswith("-") and float(c) == 0.0]

    def numbers(obj):
        if isinstance(obj, dict):
            obj = list(obj.values())
        if isinstance(obj, list):
            for item in obj:
                yield from numbers(item)
        elif isinstance(obj, float):
            yield obj

    summary = json.loads((tmp_path / "sz_summary.json").read_text())
    assert not [x for x in numbers(summary)
                if x == 0.0 and math.copysign(1.0, x) < 0]


def test_scenario_failure_exit_code(tmp_path, capsys):
    # an over-strict stationarity check: evolving a wide bump under the
    # stationarity scenario cannot keep the drift small
    raw = {"scenario": "q_stationarity", "ic_family": "e0_bump", "ic_A": "1",
           "ic_sigma": "1", "n": "512", "r_min": "1e-3", "r_max": "1e2",
           "t_end": "0.5", "label": "drifty"}
    path = tmp_path / "drifty.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in raw.items()))
    assert cli_main(["--out", str(tmp_path), "run", str(path)]) == 3
    assert "scenario checks failed" in capsys.readouterr().err


def test_solver_abort_exit_code(tmp_path, capsys, monkeypatch):
    # every step is non-finite, so the run aborts once dt reaches its floor
    monkeypatch.setattr("hmflow.evolve._step_offset",
                        lambda grid, off, *args:
                        (np.full_like(off, np.nan),) * 2)
    path = _write_cfg(tmp_path)
    assert cli_main(["--out", str(tmp_path), "run", path]) == 2
    assert "run aborted by the solver" in capsys.readouterr().err
    summary = json.loads((tmp_path / "fast_summary.json").read_text())
    assert summary["status"] == "Aborted"
    assert summary["classification"] == "Undetermined"


def test_a_bubble_inside_r_min_ends_as_blowup(tmp_path):
    # its half-turn radius, 1e-9, lies inside r_min; it used to read NaN,
    # and the run passed check and ended Global and Undetermined
    raw = {"scenario": "free", "ic_family": "q_exact", "m": "2",
           "ic_s0": "1e-9", "r_min": "1e-3", "r_max": "1e2", "n": "64"}
    cfg = build_run_config(raw, out_dir=str(tmp_path))
    _setup(cfg)
    res = execute(cfg)
    assert res.status == "Blowup"
    assert res.record.times == [0.0]
    assert res.record.scale_estimates[0] == pytest.approx(1e-9, rel=1e-3)


def test_execute_classifies_decay(tmp_path):
    cfg = _cfg(tmp_path, ic_A="0.3", t_end="8", sample_every="0.5")
    res = execute(cfg)
    assert res.status == "Global"
    assert res.classification == "Decayed"


def test_execute_classifies_the_vacuum_as_decayed(tmp_path):
    # E_initial = E_final = 0; a strict 5% test classified it Undetermined
    res = execute(_cfg(tmp_path, ic_A="0", t_end="0.1"))
    assert res.summary["final_metrics"]["E_initial"] == 0.0
    assert res.summary["final_metrics"]["E_final"] == 0.0
    assert (res.status, res.classification) == ("Global", "Decayed")


def test_m1_checks_fail_when_the_rate_fit_raises(tmp_path):
    # by t 0.5 the collapse spans 11 samples over 0.24 decades, too few
    # for the rate fit, so every m = 1 check reads false
    cfg = build_run_config({"scenario": "m1_blowup", "t_end": "0.5"},
                           out_dir=str(tmp_path))
    res = execute(cfg)
    t, s = concentration_scale_track(res.record)
    k = _collapse_start(s)
    with pytest.raises(FitUnreliableError, match="got 11 samples"):
        fit_blowup_rate(t[k:], s[k:])
    assert (res.status, res.classification) == ("Global", "Undetermined")
    assert res.checks == {"status_blowup": False,
                          "scale_fell_1p5_decades": False,
                          "ratio_to_sqrt_decreasing": False,
                          "rate_exponent_is_1": False}


# ---- sweep ---------------------------------------------------------------

def test_parse_grid_file():
    axes = parse_grid_file("m = 1, 2\nic_A = 0.2, 0.4  # amplitudes\n")
    assert axes == [("m", ["1", "2"]), ("ic_A", ["0.2", "0.4"])]
    with pytest.raises(ConfigurationError):
        parse_grid_file("m = 1\nm = 2\n")
    with pytest.raises(ConfigurationError, match="no values for 'm'"):
        parse_grid_file("m = ,\n")
    with pytest.raises(ConfigurationError):
        parse_grid_file("bogus = 1\n")


def test_sweep_classifications(tmp_path):
    base = dict(FAST, t_end="8", sample_every="0.5", label="sw")
    axes = [("m", ["1", "2"]), ("ic_A", ["0.2", "0.4"])]
    sweep(base, axes, str(tmp_path), threads=1)
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    header = rows[0].split(",")
    assert header[:3] == ["run_id", "m", "ic_A"]
    assert len(rows) == 5
    table = [dict(zip(header, r.split(","))) for r in rows[1:]]
    # small-amplitude data decays in every degree
    assert all(row["classification"] == "Decayed" for row in table)
    assert all(row["status"] == "Global" for row in table)


def test_sweep_empty_grid(tmp_path):
    sweep(dict(FAST), [("m", [])], str(tmp_path), threads=1)
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(rows) == 1  # header only


def test_sweep_records_failures(tmp_path):
    base = dict(FAST)
    axes = [("ic_A", ["0.3", "50.0"])]  # the huge amplitude exceeds E0 window
    sweep(base, axes, str(tmp_path), threads=1)
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    table = [dict(zip(rows[0].split(","), r.split(","))) for r in rows[1:]]
    assert table[0]["status"] == "Global"
    assert table[1]["status"] == "Failed"
    assert table[1]["error"] != ""


def test_sweep_records_unsizable_degrees_and_grids_as_failed(tmp_path):
    # these rows used to end the whole sweep in a traceback, with no
    # sweep.csv written
    axes = [("m", ["2", _HUGE_M]), ("n", ["512", _HUGE_N])]
    sweep(dict(FAST), axes, str(tmp_path), threads=1)
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    table = [dict(zip(rows[0].split(","), r.split(","))) for r in rows[1:]]
    assert [row["status"] for row in table] == ["Global"] + ["Failed"] * 3
    assert all(row["error"] != "" for row in table[1:])


def test_sweep_process_pool_matches_serial(tmp_path):
    base = dict(FAST, t_end="0.05")
    # the huge amplitude exceeds the E0 window, so half the rows are Failed
    axes = [("m", ["2", "3"]), ("ic_A", ["0.2", "50.0"])]
    serial = sweep(base, axes, str(tmp_path / "serial"), threads=1)
    pooled = sweep(base, axes, str(tmp_path / "pool"), threads=2)
    assert [row["status"] for row in serial] == ["Global", "Failed"] * 2
    assert pooled == serial
    assert ((tmp_path / "pool" / "sweep.csv").read_bytes()
            == (tmp_path / "serial" / "sweep.csv").read_bytes())


def test_sweep_pool_starts_no_more_workers_than_points(tmp_path, monkeypatch):
    # a stand-in executor records the pool size and runs the points in
    # this process, so no worker is started
    sizes = []

    class RecordingExecutor:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingExecutor)
    base = dict(FAST, t_end="0.01")
    rows = sweep(base, [("m", ["2", "3"])], str(tmp_path), threads=8)
    assert sizes == [2]
    assert [row["status"] for row in rows] == ["Global", "Global"]
    sweep(base, [("m", ["2", "3", "4"])], str(tmp_path), threads=2)
    assert sizes == [2, 2]


# ---- CLI -----------------------------------------------------------------

def _write_cfg(tmp_path, name="c.cfg", **over):
    raw = dict(FAST, **{k: str(v) for k, v in over.items()})
    text = "".join(f"{k} = {v}\n" for k, v in raw.items())
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_cli_check_and_run(tmp_path):
    path = _write_cfg(tmp_path)
    assert cli_main(["check", path]) == 0
    assert cli_main(["--out", str(tmp_path), "run", path]) == 0
    assert (tmp_path / "fast_trajectory.csv").exists()


def test_cli_unreadable_config_exits_1(tmp_path, capsys):
    for path in (tmp_path / "absent.cfg", tmp_path):
        assert cli_main(["check", str(path)]) == 1
        assert "invalid config: cannot read" in capsys.readouterr().err


def test_cli_check_accepts_near_bubble_data(tmp_path):
    # Q + 0.001 h^3 for m = 4 on the default grid: its quadrature energy,
    # 7.99973, is below E(Q) = 8 by quadrature error only
    path = tmp_path / "near_bubble.cfg"
    path.write_text("m = 4\nic_family = e1_excited\nic_s0 = 1\n"
                    "ic_sigma = 3\nic_A = 0.001\n")
    assert cli_main(["check", str(path)]) == 0


def _empty_samples(tmp_path):
    """An empty custom_samples file."""
    path = tmp_path / "empty_ic.txt"
    path.write_text("")
    return str(path)


def _one_row_samples(tmp_path):
    """A custom_samples file with a single (r, u) row."""
    path = tmp_path / "one_row_ic.txt"
    path.write_text("1.0 0.5\n")
    return str(path)


def _nan_samples(tmp_path):
    """A custom_samples file with one NaN in its u column."""
    r = np.geomspace(1e-3, 1e2, 50)
    u = 0.5 * r / (1 + r**2)
    u[10] = np.nan
    path = tmp_path / "nan_ic.txt"
    np.savetxt(path, np.column_stack([r, u]))
    return str(path)


def test_cli_small_bubble_runs_below_the_old_step_floor(tmp_path):
    # a bubble of scale 1e-5 needs steps near 1e-11, below the fixed step
    # floor 1e-9 of old; check accepts dt = 5e-12 with no key, since it
    # exceeds sqrt(eps) * t_end, and the provenance records the step floor
    # at the default scale floor 10 r_min = 1e-7
    path = tmp_path / "small_bubble.cfg"
    path.write_text("m = 2\nr_min = 1e-8\nr_max = 1e2\nn = 2925\n"
                    "dt = 5e-12\nt_end = 5e-9\nsample_every = 1e-9\n"
                    "ic_family = q_exact\nic_s0 = 1e-5\nlabel = small\n")
    assert cli_main(["check", str(path)]) == 0
    assert cli_main(["--out", str(tmp_path), "run", str(path)]) == 0
    summary = json.loads((tmp_path / "small_summary.json").read_text())
    assert summary["status"] == "Global"
    assert summary["classification"] == "ConvergedToQ"
    assert summary["provenance"]["stepper"]["dt_floor"] == step_floor(
        10 * 1e-8)


# each of these used to pass `check` and then fail or misbehave in `run`;
# a callable value is called with tmp_path to make the file it names
@pytest.mark.parametrize("over", [
    pytest.param(dict(m="0"), id="m_zero"),
    # dt_floor is no longer a key: its lines are rejected as unknown
    pytest.param(dict(dt_floor="2e-3"), id="dt_equals_dt_floor"),
    pytest.param(dict(t_end="nan"), id="t_end_nan"),
    pytest.param(dict(dt_floor="nan"), id="dt_floor_nan"),
    # this dt needs 1e300 steps to reach t_end; with a dt_floor line of
    # 1e-301 it used to pass check and hang the run
    pytest.param(dict(n="64", dt="1e-300", t_end="1"), id="dt_below_floor"),
    pytest.param(dict(n="64", dt="1e-300", dt_floor="1e-301", t_end="1"),
                 id="dt_below_dt_floor_line"),
    # above its old step floor 1e-39, but t stops moving once it passes
    # 1e-14
    pytest.param(dict(n="64", r_min="1e-20", dt="1e-30", t_end="1"),
                 id="dt_below_spacing_of_t_end"),
    # above its old step floor 1e-21 and the float spacing at t_end, but
    # 1e15 steps long: it used to pass check and hang the run
    pytest.param(dict(n="64", r_min="1e-10", dt="1e-15", t_end="1"),
                 id="dt_below_clock_edge_deep_grid"),
    # r_min^4 underflows to 0; the run used to end Aborted
    pytest.param(dict(r_min="1e-200"), id="r_min_fourth_power_underflow"),
    # r_max^4 overflows; the run used to end Aborted
    pytest.param(dict(r_max="1e200"), id="r_max_fourth_power_overflow"),
    pytest.param(dict(ic_family="q_exact", ic_s0="nan"), id="ic_s0_nan"),
    pytest.param(dict(r_max="inf"), id="r_max_inf"),
    pytest.param(dict(ic_A="50"), id="e0_energy_window"),
    pytest.param(dict(ic_family="e1_excited", ic_s0="1", ic_sigma="3",
                      ic_target_energy="30"), id="e1_energy_window"),
    # the scale floor is no longer a key: its lines are rejected as unknown
    pytest.param(dict(scale_floor="nan"), id="scale_floor_nan"),
    pytest.param(dict(label="sub/run"), id="label_separator"),
    pytest.param(dict(ic_family="custom_samples", ic_file=_nan_samples),
                 id="custom_samples_nan"),
    # numpy's no-data warning used to reach the terminal, then the file was
    # told it "must have two columns"
    pytest.param(dict(ic_family="custom_samples", ic_file=_empty_samples),
                 id="custom_samples_empty"),
    pytest.param(dict(ic_family="custom_samples", ic_file=_one_row_samples),
                 id="custom_samples_one_row"),
    # no float holds this degree: check_degree's float(m) used to raise
    # OverflowError
    pytest.param(dict(m=_HUGE_M), id="m_beyond_float"),
    # m^2 overflows: check used to reject it only through the energy
    # window, after an invalid-value warning
    pytest.param(dict(m=_M_SQUARE_OVERFLOW), id="m_square_overflow"),
    # (m/r_min)^2 overflows: it used to pass check, and the run warned of
    # an overflow and exited 0
    pytest.param(dict(m=_M_OVER_R_MIN_OVERFLOW, r_min="1e-60"),
                 id="m_over_r_min_square_overflow"),
    # numpy cannot size an array of this many floats: np.linspace used to
    # raise ValueError
    pytest.param(dict(n=_HUGE_N), id="n_beyond_array_size"),
])
def test_cli_invalid_config(tmp_path, capsys, over):
    over = {k: v(tmp_path) if callable(v) else v for k, v in over.items()}
    path = _write_cfg(tmp_path, **over)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli_main(["check", path]) == 1
        assert cli_main(["--out", str(tmp_path), "run", path]) == 1
    assert not caught
    assert capsys.readouterr().err.count("invalid config") == 2


def test_cli_large_degree_that_fits_runs(tmp_path):
    # m^2 = 1e40 and (m/r_min)^2 = 1e46 are finite: the degree checks and
    # runs
    path = _write_cfg(tmp_path, m="1" + "0" * 20, n="64", t_end="0.05",
                      sample_every="0.01")
    assert cli_main(["check", path]) == 0
    assert cli_main(["--out", str(tmp_path), "run", path]) == 0


# exterior_energy needs R inside the grid; the CSV cell of an R outside
# it is NaN, as the scale-track cells are without a track
@pytest.mark.parametrize("over,nan_col,finite_col", [
    pytest.param(dict(r_max="5"), "exterior_energy_R10",
                 "exterior_energy_R1", id="R10_beyond_r_max"),
    pytest.param(dict(r_min="2", r_max="1e3", ic_sigma="10"),
                 "exterior_energy_R1", "exterior_energy_R10",
                 id="R1_below_r_min"),
])
def test_cli_run_exterior_energy_outside_grid(tmp_path, over, nan_col,
                                              finite_col):
    path = _write_cfg(tmp_path, **over)
    assert cli_main(["check", path]) == 0
    assert cli_main(["--out", str(tmp_path), "run", path]) == 0
    lines = (tmp_path / "fast_trajectory.csv").read_text().splitlines()
    rows = [dict(zip(CSV_COLUMNS, line.split(","))) for line in lines[1:]]
    assert rows
    assert all(math.isnan(float(row[nan_col])) for row in rows)
    assert all(math.isfinite(float(row[finite_col])) for row in rows)


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_cli_out_dir_that_cannot_be_made(tmp_path, capsys, command):
    # os.makedirs on an existing file used to end in a FileExistsError
    # traceback
    cfg = _write_cfg(tmp_path)
    grid = tmp_path / "grid.txt"
    grid.write_text("ic_A = 0.2\n")
    taken = tmp_path / "taken"
    taken.write_text("")
    args = {"run": ["run", cfg], "sweep": ["sweep", cfg, "--grid", str(grid)]}
    assert cli_main(["--out", str(taken), *args[command]]) == 1
    assert "invalid config" in capsys.readouterr().err
    assert taken.read_text() == ""


def test_cli_sweep(tmp_path):
    cfg = _write_cfg(tmp_path, t_end="0.2")
    grid = tmp_path / "grid.txt"
    grid.write_text("ic_A = 0.2, 0.4\n")
    assert cli_main(["--out", str(tmp_path), "sweep", cfg,
                     "--grid", str(grid)]) == 0
    assert (tmp_path / "sweep.csv").exists()


# valid settings for a short run, and per-key values at or past the edge of
# what a config may hold; each drawn example injects at most one of the
# latter, and a pinned @example may inject several.
_PROPERTY_BASE = dict(r_min="1e-3", r_max="1e2", dt="2e-3", ic_A="0.5",
                      ic_sigma="1", ic_s0="1", label="prop")
_EDGE_VALUES = {
    "m": ["0", "1", _HUGE_M, _M_SQUARE_OVERFLOW],
    "r_min": ["0", "nan", "1e-12", "1e2", "1e-200", "1e-76"],
    "r_max": ["inf", "1e6", "1e200"],
    "n": ["8", "15", _HUGE_N],
    # 1e-11 lies below sqrt(eps) * t_end for every drawn t_end
    "dt": ["0", "nan", "1e-11", "1", "1e-300"],
    # not keys: the step floor is derived from the scale floor, 10 r_min
    "dt_floor": ["2e-3", "nan", "-1", "1e-300"],
    "t_end": ["0", "nan", "inf", "1e-9"],
    "sample_every": ["0", "nan", "1e-4", "1e3", "1e-20"],
    "scale_floor": ["0", "nan", "1e3"],
    "ic_A": ["nan", "0", "50", "-50"],
    "ic_sigma": ["0", "inf", "1e-6", "1e6"],
    "ic_s0": ["0", "nan", "1e-6", "1e6"],
    "ic_target_energy": ["nan", "0", "1e-12", "30"],
    "label": ["a/b"],
}


@given(family=st.sampled_from(["e0_bump", "e1_excited", "q_exact"]),
       m=st.integers(1, 4), n=st.integers(16, 256),
       scheme=st.sampled_from(["IMEX1", "IMEX2"]),
       t_end=st.floats(1e-3, 0.05), sample_every=st.floats(1e-3, 0.05),
       target=st.one_of(st.none(), st.floats(0.0, 30.0)),
       edge=st.one_of(st.none(), st.sampled_from(
           [{k: v} for k, vals in _EDGE_VALUES.items() for v in vals])))
@settings(max_examples=100, deadline=None)
# an IMEX2 trial on this coarse, deep grid overflows in the energy gate; the
# run used to raise the overflow warning instead of ending Aborted
@example(family="e0_bump", m=1, n=256, scheme="IMEX2", t_end=0.01,
         sample_every=0.01, target=None, edge={"r_min": "1e-76"})
# above its step floor 1e-39, this dt used to hang the run once t passed
# 1e-14, where t + dt == t
@example(family="e0_bump", m=2, n=64, scheme="IMEX1", t_end=1.0,
         sample_every=0.05, target=None,
         edge={"r_min": "1e-20", "dt": "1e-30"})
# above its old step floor 1e-21, this dt used to pass check, and the run
# needed 1e15 steps
@example(family="e0_bump", m=2, n=64, scheme="IMEX1", t_end=1.0,
         sample_every=0.05, target=None,
         edge={"r_min": "1e-10", "dt": "1e-15"})
# (m/r_min)^2 overflows: this degree used to pass check, and the run warned
# of an overflow
@example(family="e0_bump", m=1, n=64, scheme="IMEX1", t_end=0.01,
         sample_every=0.01, target=None,
         edge={"m": _M_OVER_R_MIN_OVERFLOW, "r_min": "1e-60"})
def test_checked_configs_execute(family, m, n, scheme, t_end, sample_every,
                                 target, edge):
    raw = dict(_PROPERTY_BASE, ic_family=family, m=str(m), n=str(n),
               scheme=scheme, t_end=repr(t_end),
               sample_every=repr(sample_every))
    if target is not None:
        raw["ic_target_energy"] = repr(target)
    if edge is not None:
        raw.update(edge)
    # a function-scoped tmp_path is shared by every example of @given
    with tempfile.TemporaryDirectory() as out:
        try:
            # what `hmflow check` runs
            cfg = build_run_config(raw, out_dir=out)
            _setup(cfg)
        except ConfigurationError:
            return
        # what `hmflow run` runs, artifacts included
        assert run(cfg) in (0, 2, 3)
        with open(f"{out}/{cfg.label}_summary.json") as fh:
            summary = json.load(fh)
        assert summary["status"] in ("Global", "Blowup", "Aborted")


def test_m1_blowup_collapse_time_converges_in_dt():
    # the explicit nonlinearity slowed the collapse by a splitting error of
    # order dt / s^2, so the time at which s first reached 1e-3 was 12.48 at
    # dt = 2e-3 and 7.76 at dt = 1e-3
    def first_time_below(dt, s_min=1e-3):
        cfg = build_run_config({"scenario": "m1_blowup", "dt": str(dt)})
        u0, stepper = _setup(cfg)
        rec = evolve(u0, cfg.m, cfg.t_end, stepper,
                     sample_every=cfg.sample_every)
        s = np.asarray(rec.scale_estimates)
        assert np.any(s <= s_min)
        return rec.times[int(np.argmax(s <= s_min))]

    t_coarse, t_fine = first_time_below(2e-3), first_time_below(1e-3)
    assert t_coarse == pytest.approx(t_fine, rel=1e-2)
