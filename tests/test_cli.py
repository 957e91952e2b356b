"""Config parsing, CSV emission, pipeline exit codes, reproducibility."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import anisohit
from anisohit.cli import (
    ConfigReader,
    ReportRow,
    _REQUIRED,
    _bound_row,
    _close_row,
    _flag_row,
    _info_row,
    emit_csv,
    main,
)
from anisohit.errors import ConfigurationError


def _write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# -- config reader -----------------------------------------------------------------


def test_config_parses_comments_blanks_and_whitespace(tmp_path):
    cfg = ConfigReader.load(
        _write(
            tmp_path,
            "# full-line comment\n"
            "\n"
            "hurst = 0.75   # trailing comment\n"
            "  label=  spaced out  \n"
            "n = 12\n",
        )
    )
    assert cfg.float("hurst") == 0.75
    assert cfg.str("label") == "spaced out"
    assert cfg.int("n") == 12
    cfg.reject_unknown()


def test_config_rejects_duplicates_and_malformed_lines(tmp_path):
    with pytest.raises(ConfigurationError):
        ConfigReader.load(_write(tmp_path, "a = 1\na = 2\n"))
    with pytest.raises(ConfigurationError):
        ConfigReader.load(_write(tmp_path, "just some words\n"))
    with pytest.raises(ConfigurationError):
        ConfigReader.load(str(tmp_path / "absent.cfg"))


def test_config_typed_getters():
    cfg = ConfigReader({"x": "1.5", "n": "7", "v": "1; 2, 3", "bad": "abc"})
    assert cfg.float("x") == 1.5
    assert cfg.int("n") == 7
    assert cfg.floats("v") == [1.0, 2.0, 3.0]
    assert cfg.float("missing", 2.0) == 2.0
    assert cfg.str("missing") is None
    with pytest.raises(ConfigurationError):
        cfg.float("bad")
    with pytest.raises(ConfigurationError):
        cfg.int("x")  # 1.5 is not an integer
    with pytest.raises(ConfigurationError):
        cfg.floats("bad")
    with pytest.raises(ConfigurationError):
        cfg.float("absent", _REQUIRED)


def test_config_reports_unknown_keys():
    cfg = ConfigReader({"known": "1", "stray": "2"})
    cfg.int("known")
    with pytest.raises(ConfigurationError, match="stray"):
        cfg.reject_unknown()


# -- report rows and CSV ---------------------------------------------------------------


def test_row_helpers():
    assert _close_row("e", "p", 1.0005, 1.0, 0.001).passed
    assert not _close_row("e", "p", 1.002, 1.0, 0.001).passed
    assert not _close_row("e", "p", math.nan, 1.0, 0.001).passed
    assert _bound_row("e", "p", 0.5, 0.5).passed
    assert not _bound_row("e", "p", 0.51, 0.5).passed
    info = _info_row("e", "p", 0.25)
    assert info.passed and info.reference == info.observed
    assert _flag_row("e", "p", True, 1) == ReportRow("e", "p", 1.0, 1.0, 0.0, True)
    assert _flag_row("e", "p", False, True) == ReportRow("e", "p", 0.0, 1.0, 0.0, False)
    assert _flag_row("e", "p", True, 0) == ReportRow("e", "p", 1.0, 0.0, 0.0, False)
    assert _flag_row("e", "p", False) == _info_row("e", "p", 0.0)


def test_csv_format_and_significant_digits(tmp_path):
    rows = [
        ReportRow("exp-a", "H=0.6;c=2", 1.0 / 3.0, 2.0 / 3.0, 1e-3, True),
        ReportRow("exp-b", "H=0.6;c=4", 1.25, 1.25, 0.01, False),
    ]
    path = tmp_path / "report.csv"
    emit_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "experiment,params,observed,reference,tolerance,pass"
    assert lines[1] == "exp-a,H=0.6;c=2,0.333333333333,0.666666666667,0.001,true"
    assert lines[2] == "exp-b,H=0.6;c=4,1.25,1.25,0.01,false"
    assert not any(p.suffix == ".tmp" for p in tmp_path.iterdir())


def test_csv_refuses_empty_reports(tmp_path):
    path = tmp_path / "report.csv"
    with pytest.raises(ValueError):
        emit_csv([], path)
    assert not path.exists()


# -- pipelines end to end -----------------------------------------------------------------


def test_variance_scaling_pipeline_passes(tmp_path, capsys):
    cfg = _write(tmp_path, "hurst = 0.75\nt_ref = 0.25\nfactors = 0.5, 2\nrel_tol = 1e-6\n")
    code = main(["variance-scaling", "--config", cfg, "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "variance-scaling.csv").read_text().splitlines()
    assert lines[0] == "experiment,params,observed,reference,tolerance,pass"
    assert len(lines) == 3
    assert all(line.endswith(",true") for line in lines[1:])
    assert "all passed" in capsys.readouterr().out


def test_gauge_check_pipeline_detects_a_wrong_reference(tmp_path):
    cfg = _write(
        tmp_path,
        "q1_nu = 0.5\nq2_nu = 0.5\nstate_dim = 5\ndiam_cap = 1.0\n"
        "grid_size = 60\ngrowth_limit = 999\n",
    )
    code = main(["gauge-check", "--config", cfg, "--out", str(tmp_path)])
    assert code == 1
    text = (tmp_path / "gauge-check.csv").read_text()
    assert ",false" in text


def test_gauge_check_pipeline_passes_without_reference(tmp_path):
    cfg = _write(tmp_path, "q1_nu = 0.5\nq2_nu = 0.5\nstate_dim = 5\ndiam_cap = 1.0\n")
    assert main(["gauge-check", "--config", cfg, "--out", str(tmp_path)]) == 0


def _critical_gauges(family):
    # the gauges of H=0.75, d=1, alpha=0, D=4: q1 = tau^0.5, q2 = tau sqrt(log(2e/tau)),
    # growth limit 1/(D nu1 nu2 - (d1 nu2 + d2 nu1)) = 2
    return (
        f"q1_nu = 0.5\nq2_family = {family}\nq2_nu = 1\nq2_log_scale = {2.0 * math.e!r}\n"
        "state_dim = 4\ndiam_cap = 2.0\ngrowth_limit = 2\n"
    )


def test_gauge_check_accepts_the_log_corrected_family(tmp_path):
    cfg = _write(tmp_path, _critical_gauges("power-log"))
    assert main(["gauge-check", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert ",false" not in (tmp_path / "gauge-check.csv").read_text()


def test_unknown_gauge_family_names_the_accepted_ones(tmp_path, capsys):
    cfg = _write(tmp_path, _critical_gauges("power_log"))
    assert main(["gauge-check", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "power-log" in capsys.readouterr().err


def test_missing_required_key_exits_2(tmp_path):
    cfg = _write(tmp_path, "t_ref = 0.25\n")  # hurst missing
    assert main(["variance-scaling", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_unknown_config_key_exits_2(tmp_path):
    cfg = _write(tmp_path, "hurst = 0.75\ntypo_key = 1\n")
    assert main(["variance-scaling", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_unreadable_config_exits_2(tmp_path):
    assert main(["variance-scaling", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_blocked_output_directory_exits_2(tmp_path):
    cfg = _write(tmp_path, "hurst = 0.75\n")
    blocked = tmp_path / "blocked"
    blocked.write_text("a file, not a directory")
    assert main(["variance-scaling", "--config", cfg, "--out", str(blocked)]) == 2


_HIT_MC_2D = "hurst = 0.75\ncomponents = 2\nn_times = 4\nn_sites = 4\nn_samples = 200\n"
_HUGE = "1000000000000000"
_GAUGES = "q1_nu = 0.5\nq2_nu = 0.5\nstate_dim = 5\ndiam_cap = 1.0\n"
# a window so wide that the covariance overflows: in the rule builder's
# arrays below H = 0.75, in the variance's float power above it
_OVERFLOW = "t1 = 1e308\nn_pairs = 10\n"


@pytest.mark.parametrize(
    "pipeline, text",
    [
        ("capacity", "target = interval\nriesz_beta = nan\n"),
        ("capacity", "target = interval\nriesz_beta = 0.3\ntol = nan\n"),
        ("capacity", "target = interval\ntarget_lo = nan\nriesz_beta = 0.3\n"),
        ("hausdorff", "target = cantor\ngauge_gamma = 0.63\neps = 0.1, nan, 0.001\n"),
        ("small-ball", "hurst = 0.75\nn_times = 4\nn_sites = 4\nn_samples = 0\n"),
        ("small-ball", "hurst = 0.75\nn_times = 4\nn_sites = 4\nn_samples = -5\n"),
        ("small-ball", "hurst = 0.75\nn_times = 4\nn_sites = 4\neps = 0.2, nan, 0.05\nn_samples = 200\n"),
        ("hit-mc", _HIT_MC_2D + "target = ball\ntarget_center = nan, 0\ntarget_radius = 0.5\n"),
        ("hit-mc", _HIT_MC_2D + "target = points\ntarget_points = 0 nan; 1 1\n"),
        ("hit-mc", _HIT_MC_2D + "target = points\ntarget_points = 0 x; 1 1\n"),
        ("hit-mc", _HIT_MC_2D + "target = points\ntarget_points = 0 0; 1\n"),
        ("hit-mc", _HIT_MC_2D + "target = ball\ntarget_center = 0, 0\ntarget_radius = inf\n"),
        ("capacity", "target = interval\ntarget_hi = inf\nriesz_beta = 0.3\n"),
        ("capacity", "target = interval\ntarget_lo = -inf\nriesz_beta = 0.3\n"),
        ("hit-mc", _HIT_MC_2D + "target = points\ntarget_points = ;\n"),
        ("metric-equivalence", "hurst = 0.75\nn_pairs = 0\n"),
        ("metric-equivalence", "hurst = 0.75\nn_pairs = 1\n"),
        ("variance-scaling", "hurst = 0.75\nt_ref = -1\n"),
        ("variance-scaling", "hurst = 0.75\nfactors = -0.5\n"),
        ("variance-scaling", "hurst = 0.75\nfactors = 0\n"),
        ("capacity", "target = interval\nriesz_beta = 0.3\nhomogeneity_scale = 0\n"),
        ("capacity", "target = interval\nriesz_beta = 0.3\nhomogeneity_scale = -1\n"),
        ("hausdorff", "target = cantor\ngauge_gamma = 0.63\neps = 0.1, 0.01\nexpect_value = 1\nexpect_factor = 0.5\n"),
        # past the 4096-cell bound of a capacity solve; numpy cannot allocate
        # these cell counts at all, so an unbounded solve fails at once
        ("capacity", "target = interval\nriesz_beta = 0.3\nn_cells = 1000000000000\n"),
        ("capacity", "target = interval\nriesz_beta = 0.3\nhomogeneity_scale = 10000000000\n"),
        # sizes whose arrays numpy refuses: 10^15 doubles pass the 47-bit
        # address space, so no overcommit policy can grant them
        ("hit-mc", f"hurst = 0.75\ntarget = ball\ntarget_center = 0\ntarget_radius = 0.4\nn_samples = {_HUGE}\n"),
        ("small-ball", f"hurst = 0.75\nn_times = 4\nn_sites = 4\nn_samples = {_HUGE}\n"),
        ("polarity", f"hurst = 0.75\nn_samples = {_HUGE}\n"),
        ("metric-equivalence", f"hurst = 0.75\nn_pairs = {_HUGE}\n"),
        ("gauge-check", f"q1_nu = 0.5\nq2_nu = 0.5\nstate_dim = 5\ndiam_cap = 1.0\ngrid_size = {_HUGE}\n"),
        ("variance-scaling", "hurst = 0.75\nt1 = inf\n"),
        ("variance-scaling", "hurst = 0.75\nbox_radius = inf\n"),
        ("hausdorff", "target = cantor\ngauge_gamma = 0.63\neps = inf, 0.5\n"),
        ("hausdorff", "target = cantor\ngauge_gamma = inf\neps = 0.1, 0.01\n"),
        ("hausdorff", "target = cantor\ngauge_gamma = nan\neps = 0.1, 0.01\n"),
        ("small-ball", "hurst = 0.75\nn_times = 4\nn_sites = 4\neps = inf, 1, 0.5\nn_samples = 200\n"),
        # one frequency is a trend that cannot fail
        ("polarity", "hurst = 0.9\ncomponents = 4\ngrids = 8x8\nn_samples = 200\n"),
        # tolerances and references that make a row unable to fail, or to pass
        ("capacity", "target = interval\nriesz_beta = 0.3\nexpect_capacity = inf\n"),
        ("capacity", "target = interval\nriesz_beta = 0.3\nexpect_capacity = 0.6\nexpect_rel_tol = inf\n"),
        ("capacity", "target = interval\nriesz_beta = 0.3\nexpect_capacity = 0.6\nexpect_rel_tol = -0.01\n"),
        ("capacity", "target = interval\nriesz_beta = 0.3\ntol = inf\n"),
        ("capacity", "target = interval\nriesz_beta = 0.3\ntol = 0\n"),
        ("gauge-check", _GAUGES + "growth_limit = inf\n"),
        ("gauge-check", _GAUGES + "growth_limit = 2\ngrowth_limit_rel_tol = inf\n"),
        ("variance-scaling", "hurst = 0.75\nrel_tol = inf\n"),
        ("variance-scaling", "hurst = 0.75\nrel_tol = -1e-6\n"),
        ("rates", "hurst = 0.7\ntemporal_tol = inf\n"),
        ("rates", "hurst = 0.7\nspatial_tol = -1\n"),
        ("rates", "hurst = 0.7\nspatial_tol = nan\n"),
        ("rates", "hurst = 0.75\nresidual_ratio_min = -inf\n"),
        ("metric-equivalence", "hurst = 0.75\nband_limit = inf\n"),
        ("small-ball", "hurst = 0.75\nn_times = 4\nn_sites = 4\nslope_tol = inf\n"),
        ("hausdorff", "target = cantor\ngauge_gamma = 0.63\neps = 0.1, 0.01\nexpect_value = inf\n"),
        ("hausdorff", "target = cantor\ngauge_gamma = 0.63\neps = 0.1, 0.01\nexpect_value = 1\nexpect_factor = inf\n"),
    ],
    ids=[
        "beta-nan", "tol-nan", "interval-nan", "eps-nan", "n-samples-0", "n-samples-negative",
        "small-ball-eps-nan", "ball-center-nan", "points-nan", "points-bad-token", "points-ragged",
        "ball-radius-inf", "interval-hi-inf", "interval-lo-inf", "points-empty", "n-pairs-0", "n-pairs-1",
        "t-ref-negative", "factor-negative", "factor-0", "homogeneity-scale-0", "homogeneity-scale-negative",
        "expect-factor-below-1", "n-cells-huge", "homogeneity-cells-huge", "hit-mc-samples-huge",
        "small-ball-samples-huge", "polarity-samples-huge", "n-pairs-huge", "grid-size-huge", "t1-inf",
        "box-radius-inf", "hausdorff-eps-inf", "gauge-gamma-inf", "gauge-gamma-nan", "small-ball-eps-inf",
        "polarity-one-grid", "expect-capacity-inf", "expect-rel-tol-inf", "expect-rel-tol-negative", "tol-inf",
        "tol-0", "growth-limit-inf", "growth-limit-rel-tol-inf", "rel-tol-inf", "rel-tol-negative",
        "temporal-tol-inf", "spatial-tol-negative", "spatial-tol-nan", "residual-ratio-min-minus-inf",
        "band-limit-inf", "slope-tol-inf", "expect-value-inf", "expect-factor-inf",
    ],
)
def test_invalid_numeric_config_exits_2(tmp_path, pipeline, text):
    cfg = _write(tmp_path, text)
    assert main([pipeline, "--config", cfg, "--out", str(tmp_path)]) == 2
    assert not (tmp_path / f"{pipeline}.csv").exists()


@pytest.mark.parametrize(
    "pipeline, text",
    [
        ("small-ball", "hurst = 0.75\nn_times = 8\nn_sites = 8\neps = 200, 100, 50\nn_samples = 200\n"),
        ("metric-equivalence", "hurst = 0.7\n" + _OVERFLOW),
        ("metric-equivalence", "hurst = 0.8\n" + _OVERFLOW),
        # t_ref is not bound to the window; the rule's t + s overflows
        ("variance-scaling", "hurst = 0.7\nt_ref = 1e308\n"),
    ],
    ids=["saturated-small-ball", "tail-moment-overflow", "variance-overflow", "variance-scaling-overflow"],
)
def test_insufficient_resolution_exits_3(tmp_path, capsys, pipeline, text):
    cfg = _write(tmp_path, text)
    assert main([pipeline, "--config", cfg, "--out", str(tmp_path)]) == 3
    assert not (tmp_path / f"{pipeline}.csv").exists()
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("numerical failure: ")
    if "t1 = 1e308" in text:
        assert "the model window is [0.1, 1e+308]" in line


@pytest.mark.parametrize(
    "pipeline, text, code, prefix",
    [
        ("gauge-check", f"q1_nu = 0.5\nq2_nu = 0.5\nstate_dim = 5\ndiam_cap = 1.0\ngrid_size = {_HUGE}\n", 2, "error: "),
        ("metric-equivalence", "hurst = 0.7\n" + _OVERFLOW, 3, "numerical failure: "),
        ("metric-equivalence", "hurst = 0.8\n" + _OVERFLOW, 3, "numerical failure: "),
    ],
    ids=["memory", "rule-overflow", "overflow"],
)
def test_refused_run_ends_in_one_stderr_line(tmp_path, pipeline, text, code, prefix):
    # the real command's exit code and stderr, which in-process calls of
    # main do not see: one line, no traceback
    proc = _python("-m", "anisohit.cli", pipeline, "--config", _write(tmp_path, text), "--out", str(tmp_path))
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), proc.stderr
    assert not (tmp_path / f"{pipeline}.csv").exists()


def test_unknown_pipeline_is_a_usage_error(tmp_path):
    cfg = _write(tmp_path, "hurst = 0.75\n")
    with pytest.raises(SystemExit) as exc:
        main(["no-such-pipeline", "--config", cfg])
    assert exc.value.code == 2


def test_thread_cap_env(tmp_path, monkeypatch):
    monkeypatch.setenv("ANISOHIT_THREADS", "bogus")
    cfg = _write(tmp_path, "hurst = 0.75\n")
    assert main(["variance-scaling", "--config", cfg, "--out", str(tmp_path)]) == 2
    monkeypatch.setenv("ANISOHIT_THREADS", "0")
    assert main(["variance-scaling", "--config", cfg, "--out", str(tmp_path)]) == 2
    monkeypatch.setenv("ANISOHIT_THREADS", "2")
    assert main(["variance-scaling", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert os.environ["OMP_NUM_THREADS"] == "2"
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"


def test_hit_mc_reports_are_byte_identical_for_one_seed(tmp_path):
    cfg = _write(
        tmp_path,
        "hurst = 0.7\nn_times = 6\nn_sites = 6\ntarget = ball\n"
        "target_center = 0\ntarget_radius = 0.4\nn_samples = 300\nseed = 5\n",
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["hit-mc", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["hit-mc", "--config", cfg, "--out", str(out_b)]) == 0
    bytes_a = (out_a / "hit-mc.csv").read_bytes()
    assert bytes_a == (out_b / "hit-mc.csv").read_bytes()
    assert b",true" in bytes_a


def test_seed_flag_overrides_the_config(tmp_path):
    cfg = _write(
        tmp_path,
        "hurst = 0.7\nn_times = 6\nn_sites = 6\ntarget = ball\n"
        "target_center = 0\ntarget_radius = 0.4\nn_samples = 300\nseed = 5\n",
    )
    assert main(["hit-mc", "--config", cfg, "--seed", "7", "--out", str(tmp_path)]) == 0
    assert ";seed=7" in (tmp_path / "hit-mc.csv").read_text()


def test_hausdorff_pipeline_smoke(tmp_path):
    cfg = _write(
        tmp_path,
        "target = cantor\ntarget_level = 10\ngauge_gamma = 0.6309297535714574\n"
        "eps = 0.1, 0.01, 0.001\nexpect_value = 1.0\nexpect_factor = 2.0\n",
    )
    assert main(["hausdorff", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "hausdorff.csv").read_text().splitlines()
    assert len(lines) == 4


def test_capacity_pipeline_smoke(tmp_path):
    cfg = _write(
        tmp_path,
        "target = interval\nriesz_beta = 0.0\nn_cells = 64\nexpect_capacity = 1.0\n",
    )
    assert main(["capacity", "--config", cfg, "--out", str(tmp_path)]) == 0
    text = (tmp_path / "capacity.csv").read_text()
    assert "fw-gap" in text and "capacity," in text


def _python(*args):
    src = str(Path(anisohit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def _fresh_interpreter(code):
    return _python("-c", "import sys\n" + code)


def _assert_unloaded(module):
    return f"assert {module!r} not in sys.modules, sorted(m for m in sys.modules if m.startswith({module!r}))\n"


# scipy.stats costs about a second of start-up, scipy.special about half of
# one and scipy.linalg a quarter; alpha > 0 models import scipy.special
# themselves, and the sampler loads two compiled modules of scipy.linalg
# without the package, so importing anisohit loads none of them
@pytest.mark.parametrize("module", ["scipy.stats", "scipy.linalg", "scipy.special"])
def test_package_import_leaves_scipy_module_unloaded(module):
    proc = _fresh_interpreter(
        "import anisohit.cli, anisohit.gauges, anisohit.heat, anisohit.mc, anisohit.potential\n"
        + _assert_unloaded(module)
    )
    assert proc.returncode == 0, proc.stderr


def test_hit_mc_run_leaves_scipy_linalg_unloaded(tmp_path):
    cfg = _write(tmp_path, _HIT_MC_2D + "target = ball\ntarget_center = 0, 0\ntarget_radius = 0.4\n")
    proc = _fresh_interpreter(
        "from anisohit.cli import main\n"
        f"assert main(['hit-mc', '--config', {cfg!r}, '--out', {str(tmp_path)!r}]) == 0\n"
        + _assert_unloaded("scipy.linalg")
        + _assert_unloaded("numpy.ma")  # which np.unique's first plain call imports
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "hit-mc.csv").is_file()


def test_hausdorff_run_on_points_leaves_numpy_ma_unloaded(tmp_path):
    # np.unique(axis=0) would import numpy.ma on its first call
    cfg = _write(
        tmp_path,
        "target = points\ntarget_points = 0 0; 0.3 -0.7; 0.31 -0.69\ngauge_gamma = 0.5\neps = 0.5, 0.05\n",
    )
    proc = _fresh_interpreter(
        "from anisohit.cli import main\n"
        f"assert main(['hausdorff', '--config', {cfg!r}, '--out', {str(tmp_path)!r}]) == 0\n"
        + _assert_unloaded("numpy.ma")
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "hausdorff.csv").is_file()


def test_sampler_routines_are_the_ones_scipy_linalg_exports():
    # loaded first, the compiled modules are what the package later re-exports
    proc = _fresh_interpreter(
        "from anisohit.mc import _lapack_blas\n"
        "dpotrf, dtrmm = _lapack_blas()\n"
        + _assert_unloaded("scipy.linalg")
        + "import scipy.linalg\n"
        "assert dpotrf is scipy.linalg.lapack.dpotrf and dtrmm is scipy.linalg.blas.dtrmm\n"
    )
    assert proc.returncode == 0, proc.stderr


def test_white_noise_model_and_log_gauges_leave_scipy_special_unloaded():
    # the critical power-log system inverts its gauge through the lower
    # Lambert branch, which is numpy-only
    proc = _fresh_interpreter(
        "from anisohit.heat import HeatModel, model_gauges\n"
        "from anisohit.gauges import check_growth\n"
        "m = HeatModel(hurst=0.75, components=4)\n"
        "assert m.variance_const > 0.0\n"
        "assert m.is_critical and model_gauges(m).q2.is_log\n"
        "assert check_growth(model_gauges(m), grid_size=64).ok\n"
        + _assert_unloaded("scipy.special")
    )
    assert proc.returncode == 0, proc.stderr


def test_coloured_noise_model_loads_scipy_special():
    # negative control: the guard above can fail
    proc = _fresh_interpreter(
        "from anisohit.heat import HeatModel\n"
        "assert HeatModel(hurst=0.8, alpha=0.5, space_dim=2).variance_const > 0.0\n"
        + _assert_unloaded("scipy.special")
    )
    assert proc.returncode != 0
    assert "AssertionError" in proc.stderr and "scipy.special" in proc.stderr
