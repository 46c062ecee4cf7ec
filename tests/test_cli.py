import importlib.util
import json
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nichewave import (Kernel, build_grid, bump_growth, cli, constant_growth, experiments,
                       rescale_kernel, spectral)
from nichewave.config import DEFAULTS, load_config
from nichewave.cli import main
from nichewave.experiments import fat_tail_verdict
from nichewave.operators import build_operator
from oracles import dense_lambda_p_oracle


def run_cli(tmp_path, command, body, label="t"):
    config = tmp_path / "config.ini"
    config.write_text(f"[run]\nlabel = {label}\noutput_dir = {tmp_path / 'out'}\n" + body)
    code = main([command, str(config)])
    return code, tmp_path / "out"


@pytest.fixture
def no_solve(monkeypatch):
    """Fail the test if the command reaches an eigenvalue, stationary or sweep solve."""
    def refuse(*args, **kwargs):
        raise AssertionError("a solve ran")
    for name in ("principal_eigenvalue", "solve_stationary_wholespace", "epsilon_sweep"):
        monkeypatch.setattr(cli, name, refuse)


def test_spectrum_brackets_the_dense_oracle(tmp_path):
    code, out = run_cli(tmp_path, "spectrum", """
[kernel]
family = tent

[grid]
R = 4
h = 0.125

[growth]
family = constant
params = value=1.5
""")
    assert code == 0
    payload = json.loads((out / "spectrum-t.json").read_text())
    assert payload["schema"] == 1
    oracle, _ = dense_lambda_p_oracle(build_operator(build_grid(1, 4.0, 0.125), Kernel("tent"),
                                                     constant_growth(1.5)))
    assert payload["lower"] - 1e-13 <= oracle <= payload["upper"] + 1e-13
    assert payload["met_tol"] is True
    csv = (out / "spectrum-t.csv").read_text().splitlines()
    assert csv[0] == "method,R,eps,m,value,lower,upper,residual,iterations"
    assert len(csv) == 3  # header + perron-cw + rayleigh


def test_spectrum_reruns_are_byte_identical(tmp_path):
    # a 2-D ball has no band: its eigenvectors come from LOBPCG on the FFT
    # product, which must not make a rerun differ in the last bits
    written = []
    for run in ("first", "second"):
        (tmp_path / run).mkdir()
        code, out = run_cli(tmp_path / run, "spectrum", """
[kernel]
family = tent
dimension = 2

[grid]
R = 2
h = 0.25

[growth]
family = bump
params = a0=2, b=1, a_min=-1

[spectral]
R_schedule = 2 3
""")
        assert code == 0
        written.append([(out / f"spectrum-t.{ext}").read_bytes() for ext in ("csv", "json")])
    assert written[0] == written[1]
    assert json.loads(written[0][1])["met_tol"] is True


def test_spectrum_r_schedule_uses_the_scaled_kernel(tmp_path):
    code, out = run_cli(tmp_path, "spectrum", """
[kernel]
family = tent
epsilon = 1
alpha0 = 4

[grid]
R = 4
h = 0.1

[growth]
family = bump
params = a0=2, b=1, a_min=-1

[spectral]
R_schedule = 4 6
""")
    assert code == 0
    rows = [line.split(",") for line in (out / "spectrum-t.csv").read_text().splitlines()[1:]]
    main_row, r4_row = rows[0], rows[2]
    assert r4_row[:4] == ["perron-cw", "4.0", "1.0", "0.0"]
    assert r4_row[4:7] == main_row[4:7]  # the same operator, so the same bracket


def test_spectrum_certifies_each_ball_once(tmp_path, monkeypatch):
    # [grid] R = 2 is also on the schedule: the walk solves with [spectral]
    # maxiter, so at any maxiter its estimate is reused, and both runs write
    # the same bytes
    solve = spectral.principal_eigenvalue
    calls = Counter()

    def spy(op, *args, **kwargs):
        calls[op.grid.radius] += 1
        return solve(op, *args, **kwargs)

    monkeypatch.setattr(spectral, "principal_eigenvalue", spy)
    monkeypatch.setattr(cli, "principal_eigenvalue", spy)
    written, counts = {}, {}
    for maxiter in (spectral.DEFAULT_MAXITER, spectral.DEFAULT_MAXITER + 1):
        calls.clear()
        (tmp_path / str(maxiter)).mkdir()
        code, out = run_cli(tmp_path / str(maxiter), "spectrum", f"""
[kernel]
family = tent
epsilon = 0.5
m = 2

[grid]
R = 2
h = 0.05

[growth]
family = bump
params = a0=2, b=1, a_min=-1

[spectral]
R_schedule = 3 2
maxiter = {maxiter}
""")
        assert code == 0
        written[maxiter] = [(out / f"spectrum-t.{ext}").read_bytes() for ext in ("csv", "json")]
        counts[maxiter] = dict(calls)
    for count in counts.values():
        assert count == {2.0: 1, 3.0: 1}
    assert written[spectral.DEFAULT_MAXITER] == written[spectral.DEFAULT_MAXITER + 1]


def test_spectrum_r_schedule_honours_maxiter(tmp_path):
    # the schedule's balls get the [spectral] maxiter of the main rows, whose
    # LOBPCG vector meets tol at the first product on this 2-D ball; R = 4
    # then misses tol, which met_tol records without an exit 2
    code, out = run_cli(tmp_path, "spectrum", """
[kernel]
family = tent
dimension = 2

[grid]
R = 2
h = 0.25

[growth]
family = bump
params = a0=2, b=1, a_min=-1

[spectral]
R_schedule = 3 4
maxiter = 2
""")
    assert code == 0
    rows = [line.split(",") for line in (out / "spectrum-t.csv").read_text().splitlines()[1:]]
    assert [row[1] for row in rows[2:]] == ["3.0", "4.0"]
    assert all(int(row[-1]) <= 2 for row in rows)
    assert json.loads((out / "spectrum-t.json").read_text())["met_tol"] is False


def test_spectrum_lambda_v_starts_from_lambda_ps_eigenvector(tmp_path):
    # lambda_p's certified eigenvector already brackets lambda_v within tol:
    # one product, where an independent start takes several Noda steps
    code, out = run_cli(tmp_path, "spectrum", """
[kernel]
family = tent

[grid]
R = 4
h = 0.05

[growth]
family = bump
params = a0=2, b=1, a_min=-1
""")
    assert code == 0
    rows = [line.split(",") for line in (out / "spectrum-t.csv").read_text().splitlines()[1:]]
    assert [row[0] for row in rows] == ["perron-cw", "rayleigh"]
    assert int(rows[1][-1]) == 1 < int(rows[0][-1])
    assert json.loads((out / "spectrum-t.json").read_text())["met_tol"] is True


def test_spectrum_r_schedule_rise_is_not_converged(tmp_path):
    # maxiter = 1 leaves every bracket about 3.4 wide, which tol = 4 accepts
    # on the main ball, and lambda_p rises inside them from R = 3 to R = 4
    # (R = 4 starts from R = 3's eigenvector): no decrease, so no
    # convergence, and the uncertainty is the rise plus both widths
    code, out = run_cli(tmp_path, "spectrum", """
[kernel]
family = tent

[grid]
R = 2
h = 0.125

[growth]
family = bump
params = a0=2, b=1, a_min=-1

[spectral]
tol = 4
R_schedule = 3 4
maxiter = 1
""")
    assert code == 0
    rows = [line.split(",") for line in (out / "spectrum-t.csv").read_text().splitlines()[1:]]
    (v3, lo3, hi3), (v4, lo4, hi4) = [[float(x) for x in row[4:7]] for row in rows[2:]]
    assert v4 > v3
    payload = json.loads((out / "spectrum-t.json").read_text())
    assert payload["converged"] is False
    assert payload["uncertainty"] == abs(v3 - v4) + (hi3 - lo3) + (hi4 - lo4)


def test_spectrum_r_schedule_rise_at_the_floor_converges(tmp_path):
    # lambda_p rises by 6.7e-16 from R = 6 to R = 8, well inside the two
    # brackets (6e-10 and 5e-15 wide): the step converges, and R = 10 is
    # never solved
    code, out = run_cli(tmp_path, "spectrum", """
[kernel]
family = tent

[grid]
R = 6
h = 0.1

[growth]
family = bump
params = a0=2, b=1, a_min=-1

[spectral]
tol = 1e-7
R_schedule = 6 8 10
""")
    assert code == 0
    rows = [line.split(",") for line in (out / "spectrum-t.csv").read_text().splitlines()[1:]]
    assert [row[1] for row in rows[2:]] == ["6.0", "8.0"]
    (v6, lo6, hi6), (v8, lo8, hi8) = [[float(x) for x in row[4:7]] for row in rows[2:]]
    assert 0.0 < v8 - v6 <= (hi6 - lo6) + (hi8 - lo8)
    payload = json.loads((out / "spectrum-t.json").read_text())
    assert payload["converged"] is True
    assert payload["extrapolated"] == v8
    assert payload["uncertainty"] == abs(v6 - v8) + (hi6 - lo6) + (hi8 - lo8)
    assert payload["uncertainty"] <= 1e-7


def test_validate_negative_kernel_exits_one(tmp_path):
    code, _ = run_cli(tmp_path, "validate", """
[kernel]
family = tabulated
params = r=0 0.5 1, values=1 -0.5 0
""")
    assert code == 1


def test_unknown_key_exits_one_with_message(tmp_path, capsys):
    config = tmp_path / "bad.ini"
    config.write_text("[kernel]\nfamly = tent\n")
    assert main(["spectrum", str(config)]) == 1
    assert "famly" in capsys.readouterr().err


def test_numerical_failure_exits_two(tmp_path):
    code, _ = run_cli(tmp_path, "spectrum", """
[kernel]
family = tent

[grid]
R = 6
h = 0.1

[growth]
family = bump
params = a0=2, b=1, a_min=-1

[spectral]
tol = 1e-10
maxiter = 2
""")
    assert code == 2


@pytest.mark.parametrize("values, code, written", [
    ("-1 -1 -1 -1 -1 -1 2 -1 -1", 0, True), ("2 -1 -1 -1 -1 -1 -1 -1 -1", 2, False),
], ids=["two-niches", "one-niche"])
def test_degenerate_top_eigenvalue_excuses_a_miss(tmp_path, values, code, written):
    # q = 50, off the band; no bracket meets tol = 1e-30. Two niches at |x| = 6
    # make the top eigenvalue double, which excuses the miss; one niche does not
    got, out = run_cli(tmp_path, "spectrum", f"""
[kernel]
family = tent
epsilon = 0.5

[grid]
R = 8
h = 0.01

[growth]
family = tabulated
params = r=0 1 2 3 4 5 6 7 8, values={values}

[spectral]
tol = 1e-30
""")
    assert got == code
    assert (out / "spectrum-t.json").exists() == written
    if written:
        assert json.loads((out / "spectrum-t.json").read_text())["met_tol"] is False


@pytest.mark.parametrize("radius", ["2", "4"])
def test_spectrum_r_schedule_honours_max_cells(tmp_path, capsys, radius):
    # R = 4 at h = 0.1 is 80 cells per axis; whether it is the main grid or
    # only an R_schedule row, the 50-cell limit refuses it
    code, _ = run_cli(tmp_path, "spectrum", f"""
[kernel]
family = tent

[grid]
R = {radius}
h = 0.1
max_cells = 50

[growth]
family = bump
params = a0=2, b=1, a_min=-1

[spectral]
R_schedule = 4
""")
    assert code == 2
    assert "80 cells per axis exceeds the limit 50" in capsys.readouterr().err


def test_sweep_artifacts_and_reproducibility(tmp_path):
    body = """
[kernel]
family = tent
m = 1

[growth]
family = bump
params = a0=2, b=1, a_min=-1

[grid]
R = 4
h = 0.1

[sweep]
epsilons = 4 8
solver_tol = 1e-9
spectral_tol = 1e-9
"""
    code, out = run_cli(tmp_path, "sweep", body)
    assert code == 0
    csv1 = (out / "sweep-t.csv").read_bytes()
    lines = csv1.decode().splitlines()
    assert lines[0] == "m,eps,lambda_lo,lambda_hi,u_sup,u_l2,u_l1,err_target,target_name"
    errs = [float(line.split(",")[7]) for line in lines[1:]]
    assert errs[1] < errs[0]

    code2, out2 = run_cli(tmp_path, "sweep", body)
    assert code2 == 0
    assert (out2 / "sweep-t.csv").read_bytes() == csv1
    assert json.loads((out / "sweep-t.json").read_text())["coherent"] is True


def test_sweep_skips_an_eps_whose_grid_is_too_large(tmp_path):
    # eps = 0.01 needs h = 5e-4 on R = 4 + 0.01: 16040 cells, beyond the 8192 limit
    code, out = run_cli(tmp_path, "sweep", """
[kernel]
family = tent
m = 2

[growth]
family = bump
params = a0=2, b=1, a_min=-1

[grid]
R = 4
h = 0.05

[sweep]
epsilons = 0.4 0.01
direction = small
""")
    assert code == 0
    payload = json.loads((out / "sweep-t.json").read_text())
    assert payload["epsilons"] == [0.4]
    assert "16040 cells per axis exceeds the limit 8192" in payload["skipped"]["0.01"]
    assert payload["errors"] == [{}]
    rows = (out / "sweep-t.csv").read_text().splitlines()
    # the m = 2 small-eps limit is the local FD pair, not a+: no target is named
    assert len(rows) == 2 and rows[1].endswith(",nan,")


def test_stationary_and_evolve_roundtrip(tmp_path):
    body = """
[kernel]
family = tent

[grid]
h = 0.1

[growth]
family = bump
params = a0=2, b=1, a_min=-1

[stationary]
R_schedule = 4 6 8
tol = 1e-6

[evolve]
T = 60
u0 = indicator:0.01:1.0
tol = 1e-3
"""
    code, out = run_cli(tmp_path, "stationary", body)
    assert code == 0
    payload = json.loads((out / "stationary-t.json").read_text())
    assert payload["verdict"] == "persistent"
    assert payload["lambda_upper"] < 0
    assert payload["lambda_met_tol"] is True
    header = (out / "stationary-t.csv").read_text().splitlines()[0]
    assert header == "x,u,sub,super,a"

    code, out = run_cli(tmp_path, "evolve", body)
    assert code == 0
    ev = json.loads((out / "evolve-t.json").read_text())
    assert ev["verdict"] == "persistence-converged"
    assert ev["lambda_met_tol"] is True
    trace_header = (out / "evolve-t.csv").read_text().splitlines()[0]
    assert trace_header == "t,sup_norm,dist_sup,dist_l1,mass"


@pytest.mark.parametrize("schedule, message", [("4.05", "not a multiple of h"), ("", "empty")])
def test_stationary_bad_r_schedule_exits_one(tmp_path, capsys, schedule, message):
    code, out = run_cli(tmp_path, "stationary", f"""
[kernel]
family = tent

[grid]
h = 0.1

[growth]
family = bump
params = a0=2, b=1, a_min=-1

[stationary]
R_schedule = {schedule}
""")
    assert code == 1
    assert message in capsys.readouterr().err
    assert not (out / "stationary-t.json").exists()


_SMALL_STATIONARY = """
[kernel]
family = tent

[grid]
R = 4
h = 0.1

[growth]
family = bump
params = a0=2, b=1, a_min=-1

[stationary]
R_schedule = 4
"""


def test_missed_spectral_tol_is_recorded_not_raised(tmp_path, capsys):
    # stationary only needs the sign of lambda_p; spectrum reports the bracket itself
    body = _SMALL_STATIONARY + "spectral_tol = 1e-30\n\n[spectral]\ntol = 1e-30\n"
    code, out = run_cli(tmp_path, "stationary", body)
    assert code == 0
    payload = json.loads((out / "stationary-t.json").read_text())
    assert payload["lambda_met_tol"] is False
    assert payload["verdict"] == "persistent"
    assert payload["lambda_upper"] - payload["lambda_lower"] < 1e-10

    code, out = run_cli(tmp_path, "spectrum", body)
    assert code == 2
    assert "> tol 1.000e-30 after" in capsys.readouterr().err
    assert not (out / "spectrum-t.json").exists()


@pytest.mark.parametrize("setting, message", [
    ("dt = 10", "exceeds the monotone-stability bound"),
    ("dt = abc", "[evolve] dt: cannot parse 'abc'"),
    ("u0 = constant:abc", "[evolve] u0: cannot parse 'abc'"),
    ("u0 = constant:-0.01", "[evolve] u0: amplitude -0.01 is not a nonnegative number"),
    ("stride = 0", "[evolve] stride = 0.0 is not a finite number > 0"),
    ("dt = 0", "[evolve] dt = 0.0 is not a finite number > 0"),
    ("dt = -0.1", "[evolve] dt = -0.1 is not a finite number > 0"),
    ("u0 = wave:0.1", "[evolve] u0: unknown initial-data spec 'wave:0.1'"),
    ("u0 = indicator:0.1:0", "[evolve] u0: radius 0.0 is not a finite number > 0"),
    ("tol = -1", "[evolve] tol = -1.0 is not a finite number > 0"),
])
def test_evolve_bad_step_or_u0_exits_one(tmp_path, capsys, request, setting, message):
    if setting != "dt = 10":  # only the step bound needs the operator; the rest fail at load
        request.getfixturevalue("no_solve")
    code, out = run_cli(tmp_path, "evolve", _SMALL_STATIONARY + f"\n[evolve]\nT = 1\n{setting}\n")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not (out / "evolve-t.json").exists()


@pytest.mark.parametrize("command, section, message", [
    ("evolve", "[evolve]\nT = -5\n", "[evolve] T = -5.0 is not a finite number > 0"),
    ("evolve", "[evolve]\nT = nan\n", "[evolve] T = nan is not a finite number > 0"),
    ("sweep", "[sweep]\ndirection = lage\n", "[sweep] direction = 'lage': expected small or large"),
    ("spectrum", "[kernel]\nfamily = truncated-gaussian\nparams = sigam=0.3, cutoff=1\n",
     "kernel family 'truncated-gaussian' takes params ['sigma', 'cutoff']: "
     "unknown ['sigam'], missing ['sigma']"),
    ("spectrum", "[kernel]\nfamily = exponential-tail\nparams = beta=fast\n",
     "could not convert string to float: 'fast'"),
    ("spectrum", "[kernel]\nfamily = algebraic-tail\n", "unknown [], missing ['power']"),
    ("spectrum", "[kernel]\nfamily = tabulated\nparams = r=0 0.5 1\n", "missing ['values']"),
    ("spectrum", "[growth]\nparams = a_0=3\n",
     "growth family 'bump' takes params ['a0', 'b', 'a_min']: "
     "unknown ['a_0'], missing ['a0', 'b', 'a_min']"),
    ("spectrum", "[growth]\nfamily = tabulated\nparams = values=1 0 -1\n", "missing ['r']"),
    ("spectrum", "[kernel]\nfamily = truncated-gaussian\nparams = sigma=0, cutoff=1\n",
     "kernel family 'truncated-gaussian' needs sigma = 0.0 > 0"),
    ("spectrum", "[kernel]\nfamily = truncated-gaussian\nparams = sigma=0.3, cutoff=-1\n",
     "needs cutoff = -1.0 > 0"),
    ("spectrum", "[kernel]\nfamily = exponential-tail\nparams = beta=0\n", "needs beta = 0.0 > 0"),
    ("spectrum", "[kernel]\nfamily = exponential-tail\nparams = beta=-1\n",
     "needs beta = -1.0 > 0"),
    ("spectrum", "[kernel]\nfamily = algebraic-tail\nparams = power=-3\n",
     "needs power = -3.0 > 0"),
    ("spectrum", "[growth]\nparams = a0=2, b=0, a_min=-1\n",
     "growth family 'bump' needs b = 0.0 > 0"),
    ("spectrum", "[growth]\nfamily = plateau\nparams = a0=2, r0=1, width=0, a_min=-1\n",
     "growth family 'plateau' needs width = 0.0 > 0"),
    # every epsilon is a finite number > 0, and so is the [grid] spacing each command reads
    ("sweep", "[sweep]\nepsilons = 0 1\n", "[sweep] epsilons = 0.0 is not a finite number > 0"),
    ("sweep", "[grid]\nR = 4\nh = 0\n", "[grid] h = 0.0 is not a finite number > 0"),
    ("audit", "[audit]\nepsilons = -2 1\n", "[audit] epsilons = -2.0 is not a finite number > 0"),
    ("audit", "[grid]\nR = 4\nh = -0.05\n", "[grid] h = -0.05 is not a finite number > 0"),
    ("ess", "[ess]\neps_residents = 1 nan\n",
     "[ess] eps_residents = nan is not a finite number > 0"),
    ("ess", "[ess]\neps_mutants = 0\n", "[ess] eps_mutants = 0.0 is not a finite number > 0"),
    ("ess", "[grid]\nR = 4\nh = inf\n", "[grid] h = inf is not a finite number > 0"),
    ("eps-star", "[eps_star]\nlo = -1\n", "[eps_star] lo = -1.0 is not a finite number > 0"),
    ("eps-star", "[eps_star]\nhi = inf\n", "[eps_star] hi = inf is not a finite number > 0"),
    ("eps-star", "[grid]\nR = 4\nh = 0\n", "[grid] h = 0.0 is not a finite number > 0"),
    ("fat-tail", "[grid]\nR = 4\nh = 0\n", "[grid] h = 0.0 is not a finite number > 0"),
    # a schedule that solves nothing or runs backwards
    ("eps-star", "[eps_star]\nlo = 4\nhi = 0.5\n", "[eps_star] lo = 4.0 is not below hi = 0.5"),
    ("sweep", "[sweep]\nepsilons =\n", "[sweep] epsilons is empty"),
    ("audit", "[audit]\nepsilons =\n", "[audit] epsilons is empty"),
    ("ess", "[ess]\neps_residents =\n", "[ess] eps_residents is empty"),
    ("ess", "[ess]\neps_mutants =\n", "[ess] eps_mutants is empty"),
], ids=["T-negative", "T-nan", "direction-misspelt", "sigma-misspelt", "beta-not-a-number",
        "power-missing", "kernel-values-missing", "a0-misspelt", "growth-r-missing",
        "sigma-zero", "cutoff-negative", "beta-zero", "beta-negative", "power-negative",
        "b-zero", "width-zero", "sweep-eps-zero", "sweep-h-zero", "audit-eps-negative",
        "audit-h-negative", "ess-resident-nan", "ess-mutant-zero", "ess-h-inf",
        "eps-star-lo-negative", "eps-star-hi-inf", "eps-star-h-zero", "fat-tail-h-zero",
        "eps-star-backwards", "sweep-empty", "audit-empty", "ess-residents-empty",
        "ess-mutants-empty"])
def test_bad_input_exits_one_before_a_solve(tmp_path, capsys, no_solve, command, section, message):
    # a misspelt or missing name is refused, never replaced by a default
    grid = "" if section.startswith("[grid]") else "[grid]\nR = 4\nh = 0.1\n\n"
    code, out = run_cli(tmp_path, command, grid + "[stationary]\nR_schedule = 4\n\n" + section)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command", ["spectrum", "stationary"])
@pytest.mark.parametrize("topology", ["torus", "bogus"])
def test_topology_other_than_the_ball_exits_one(tmp_path, capsys, no_solve, command, topology):
    # every grid is the ball |x| <= R: any other topology is refused at load
    code, out = run_cli(tmp_path, command, f"[grid]\nR = 4\nh = 0.1\ntopology = {topology}\n")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert f"[grid] topology = {topology!r}: every grid is the ball |x| <= R" in err
    assert not out.exists() or not any(out.iterdir())


def test_stationary_is_evolve_fixed_point_at_alpha0(tmp_path):
    # epsilon = 1 with alpha0 = 4: both commands must use the rate-4 kernel
    body = """
[kernel]
family = tent
epsilon = 1
alpha0 = 4

[grid]
h = 0.1

[growth]
family = bump
params = a0=2, b=1, a_min=-1

[stationary]
R_schedule = 4 6 8
tol = 1e-6

[evolve]
T = 60
u0 = stationary
tol = 1e-3
"""
    code, out = run_cli(tmp_path, "stationary", body)
    assert code == 0
    st = json.loads((out / "stationary-t.json").read_text())
    assert st["verdict"] == "persistent"
    # the R schedule stops short of its tolerance, and says so
    assert st["r_converged"] is False
    assert st["r_change_final"] == st["R_history"][-1][1] > 1e-6

    code, out = run_cli(tmp_path, "evolve", body)
    assert code == 0
    ev = json.loads((out / "evolve-t.json").read_text())
    assert ev["verdict"] == "persistence-converged"
    assert ev["final_dist_sup"] <= 1e-6
    assert (ev["r_converged"], ev["r_change_final"]) == (False, st["r_change_final"])


_SIGN_OF_VERDICT = {"persistent": "negative", "extinct": "nonnegative", "indeterminate": "straddle"}


@settings(max_examples=8, deadline=None)
@example(eps=3.0, m=0.0, alpha0=4.0)  # lambda_p > 0: extinction
@given(eps=st.floats(0.3, 3.0), m=st.floats(0.0, 2.0), alpha0=st.floats(0.25, 4.0))
def test_stationary_is_fixed_point_and_agrees_with_spectrum(eps, m, alpha0):
    body = f"""
[kernel]
family = tent
epsilon = {eps!r}
m = {m!r}
alpha0 = {alpha0!r}

[grid]
R = 3
h = 0.1

[growth]
family = bump
params = a0=0.5, b=0.5, a_min=-1

[stationary]
R_schedule = 3
"""
    with tempfile.TemporaryDirectory() as tmp:
        for command in ("stationary", "spectrum"):
            code, out = run_cli(Path(tmp), command, body)
            assert code == 0
        verdict = json.loads((out / "stationary-t.json").read_text())["verdict"]
        sign = json.loads((out / "spectrum-t.json").read_text())["sign"]
        u = np.loadtxt(out / "stationary-t.csv", delimiter=",", skiprows=1, usecols=1)
        cfg = load_config(str(Path(tmp) / "config.ini"))
    assert _SIGN_OF_VERDICT[verdict] == sign
    # the operator `evolve` steps with (FFT), and its CSR form, on the grid of the solution
    op = build_operator(build_grid(1, 3.0, 0.1), cfg.scaled_kernel(), cfg.growth())
    target = max(cfg["stationary"]["solver_tol"], 1e-14 * (1.0 + op.rate))
    roundoff = 1e-11 * (1.0 + op.rate + np.max(np.abs(op.a_values)))
    csr = op.rate * (op.stencil_product(u) - u) + op.reaction(u)
    for resid in (op.rhs(u), csr):
        assert np.max(np.abs(resid)) <= target + roundoff


def test_eps_star_command(tmp_path):
    code, out = run_cli(tmp_path, "eps-star", """
[kernel]
family = tent

[growth]
family = bump
params = a0=0.8, b=1, a_min=-1

[grid]
R = 4
h = 0.1

[eps_star]
lo = 4
hi = 10
tol = 0.05
""")
    assert code == 0
    payload = json.loads((out / "eps-star-t.json").read_text())
    assert payload["kind"] == "finite"
    assert 6.0 < payload["value"] < 6.8


def test_ess_command(tmp_path):
    code, out = run_cli(tmp_path, "ess", """
[kernel]
family = tent
m = 1

[growth]
family = bump
params = a0=2, b=1, a_min=-1

[grid]
R = 3
h = 0.1

[ess]
eps_residents = 1
eps_mutants = 1 2
""")
    assert code == 0
    rows = (out / "ess-t.csv").read_text().splitlines()
    assert rows[0] == "eps1,eps2,lambda_lo,lambda_hi,verdict"
    assert len(rows) == 3
    payload = json.loads((out / "ess-t.json").read_text())
    assert payload["diagonal_abs_lambda"][0] <= payload["diagonal_widths"][0] + 1e-6


def test_fat_tail_command(tmp_path):
    code, out = run_cli(tmp_path, "fat-tail", """
[kernel]
family = algebraic-tail
params = power=5

[growth]
family = bump
params = a0=1, b=1, a_min=-1

[grid]
h = 0.05

[fat_tail]
R_schedule = 4 8
""")
    assert code == 0
    payload = json.loads((out / "fat-tail-t.json").read_text())
    assert payload["verdict"] == "persistence"


def test_audit_command(tmp_path):
    code, out = run_cli(tmp_path, "audit", """
[kernel]
family = tent
m = 1

[growth]
family = bump
params = a0=2, b=1, a_min=-1

[grid]
R = 4
h = 0.05

[audit]
epsilons = 1 2 4 8
solver_tol = 1e-9
""")
    assert code == 0
    payload = json.loads((out / "audit-t.json").read_text())
    assert payload["all_passed"] is True
    assert abs(payload["slope"] - 1.0) <= 0.2


def test_every_command_solves_on_the_grid_section(tmp_path, monkeypatch):
    # one config, one grid: each eps command solves on [grid] R (a fat tail
    # has no compact reach to pad it by) at [grid] h min(1, eps), and
    # fat-tail walks its R_schedule at [grid] h
    built = []

    def spy(*args):
        grid = build_grid(*args)
        built.append((grid.radius, grid.spacing))
        return grid

    monkeypatch.setattr(experiments, "build_grid", spy)
    body = """
[kernel]
family = algebraic-tail
params = power=5

[growth]
family = bump
params = a0=0.8, b=1, a_min=-1

[grid]
R = 3
h = 0.1

[sweep]
epsilons = 0.5 2

[eps_star]
lo = 1
hi = 8
tol = 0.5

[ess]
eps_residents = 1
eps_mutants = 1 2

[audit]
epsilons = 1 2

[fat_tail]
R_schedule = 2 3
"""
    grids = {}
    for command in ("sweep", "eps-star", "ess", "audit", "fat-tail"):
        built.clear()
        assert run_cli(tmp_path, command, body)[0] == 0, command
        grids[command] = sorted(set(built))
    assert grids == {"sweep": [(3.0, 0.05), (3.0, 0.1)], "eps-star": [(3.0, 0.1)],
                     "ess": [(3.0, 0.1)], "audit": [(3.0, 0.1)],
                     "fat-tail": [(2.0, 0.1), (3.0, 0.1)]}


_BUMP = """
[growth]
family = bump
params = a0=2, b=1, a_min=-1
"""


@pytest.mark.parametrize("setting, message", [
    ("epsilon = 0", "epsilon must be positive"),
    ("m = 3", "m must lie in [0, 2]"),
    ("alpha0 = -1", "alpha0 must be positive"),
    ("dimension = 3", "dimension must be 1 or 2"),
    ("epsilon = nan", "epsilon must be positive"),
    ("epsilon = inf", "epsilon must be positive"),
    ("alpha0 = nan", "alpha0 must be positive"),
    ("alpha0 = inf", "alpha0 must be positive"),
])
def test_out_of_range_kernel_exits_one(tmp_path, capsys, setting, message):
    code, _ = run_cli(tmp_path, "spectrum", f"[kernel]\nfamily = tent\n{setting}\n\n[grid]\nR = 2\nh = 0.1\n"
                      + _BUMP)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: [kernel]") and message in err


# Every number outside [kernel] and [growth]: the one range rule of load_config
# covers it, and [evolve] dt once it is not auto.
RANGE_KEYS = [(section, key) for section, keys in DEFAULTS.items()
              if section not in ("kernel", "growth")
              for key, default in keys.items()
              if isinstance(default, (int, float, list)) and (section, key) != ("run", "seed")]
RANGE_KEYS.append(("evolve", "dt"))


@pytest.mark.parametrize("section, key", RANGE_KEYS, ids=[f"{s}-{k}" for s, k in RANGE_KEYS])
def test_every_number_out_of_range_exits_one(tmp_path, capsys, no_solve, section, key):
    default = DEFAULTS[section][key]
    values = ["0", "-1", "nan", "inf"] + ([""] if isinstance(default, list) else [])
    for i, value in enumerate(values):
        config, out = tmp_path / f"{i}.ini", tmp_path / str(i)
        setting = f"{key} = {value}\n"
        config.write_text(f"[run]\nlabel = t\noutput_dir = {out}\n"
                          + (setting if section == "run" else f"\n[{section}]\n{setting}"))
        if (section, key, value) == ("spectral", "r_schedule", ""):
            load_config(str(config))  # no R rows
            continue
        assert main(["spectrum", str(config)]) == 1, value
        err = capsys.readouterr().err.lower()
        if value == "":
            message = "is empty"
        elif type(default) is int and value in ("nan", "inf"):
            message = f"{key}: cannot parse"
        else:
            shown = value if type(default) is int else repr(float(value))
            message = f"{key} = {shown} is not a finite number"
        assert err.startswith(f"config error: [{section}] {key}") and message in err, (value, err)
        assert not out.exists()


@pytest.mark.parametrize("name", ["SPECTRUM_INI", "EVOLVE_INI"])
@pytest.mark.parametrize("seed", [0, 2**32 - 1])
def test_perfbench_configs_load(tmp_path, name, seed):
    # the benchmark's CLI configs, as its workloads write them, pass every range rule
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    config = tmp_path / "bench.ini"
    config.write_text(workloads._ini(getattr(workloads, name), seed, tmp_path / "out", "bench"))
    assert load_config(str(config))["run"]["seed"] == seed


@pytest.mark.parametrize("setting, message", [
    ("epsilon = 0", "epsilon must be positive"),
    ("m = 3", "m must lie in [0, 2]"),
    ("alpha0 = -1", "alpha0 must be positive"),
])
def test_validate_checks_the_scaled_kernel(tmp_path, capsys, setting, message):
    # validate refuses what every solving command refuses
    code, _ = run_cli(tmp_path, "validate", f"[kernel]\nfamily = tent\n{setting}\n")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: [kernel]") and message in err


def test_validate_reports_the_unscaled_kernel(tmp_path):
    # mass and H5 moment are J's own, whatever epsilon, m and alpha0 scale it to
    reports = []
    for i, scale in enumerate(("", "epsilon = 0.25\nm = 2\nalpha0 = 3\n")):
        (tmp_path / str(i)).mkdir()
        code, out = run_cli(tmp_path / str(i), "validate", "[kernel]\nfamily = tent\n" + scale)
        assert code == 0
        reports.append((out / "validate-t.json").read_text())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["h5_moment"] == pytest.approx(1.0 / 6.0, abs=1e-12)


@pytest.mark.parametrize("section, key", [
    ("sweep", "m"), ("ess", "m"), ("audit", "m"), ("growth", "radial_nonincreasing"),
    # [grid] R and h are the one grid of every command
    ("sweep", "base_r"), ("sweep", "base_h"), ("sweep", "radius_pad"),
    ("eps_star", "base_r"), ("eps_star", "base_h"), ("ess", "base_r"), ("ess", "base_h"),
    ("audit", "base_r"), ("audit", "base_h"), ("fat_tail", "h"),
])
def test_removed_keys_are_unknown(tmp_path, capsys, section, key):
    code, _ = run_cli(tmp_path, "validate", f"[{section}]\n{key} = 1\n")
    assert code == 1
    assert f"unknown key {key!r} in section [{section}]" in capsys.readouterr().err


@pytest.mark.parametrize("workers, code", [(2, 1), (1, 0)])
def test_run_workers_accepts_only_one(tmp_path, capsys, workers, code):
    # the [run] section every benchmark config writes, workers included
    config = tmp_path / "config.ini"
    config.write_text(f"[run]\nseed = 1\nlabel = t\noutput_dir = {tmp_path / 'out'}\n"
                      f"workers = {workers}\n\n[kernel]\nm = 1\n\n"
                      "[grid]\nR = 4\nh = 0.1\n\n[sweep]\nepsilons = 4\n")
    assert main(["sweep", str(config)]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("config error: [run] workers = 2") and "in order" in err
    else:
        assert err == "" and (tmp_path / "out" / "sweep-t.csv").is_file()


@pytest.mark.parametrize("spectral_tol, met", [("1e-30", False), ("1e-10", True)])
def test_sweep_records_missed_spectral_tol(tmp_path, spectral_tol, met):
    code, out = run_cli(tmp_path, "sweep", f"""
[kernel]
family = tent
m = 1
{_BUMP}
[grid]
R = 4
h = 0.1

[sweep]
epsilons = 4 8
spectral_tol = {spectral_tol}
""")
    assert code == 0
    assert json.loads((out / "sweep-t.json").read_text())["lambda_met_tol"] is met


# Every command solves with the [kernel] rate alpha0 / eps^m.

def test_eps_star_uses_the_kernel_rate(tmp_path):
    # sup a = 2 < alpha0 = 4: the threshold is finite (lambda_p >= 0 by eps = 16)
    code, out = run_cli(tmp_path, "eps-star", f"""
[kernel]
family = tent
alpha0 = 4
{_BUMP}
[grid]
R = 4
h = 0.1

[eps_star]
lo = 0.5
hi = 64
""")
    assert code == 0
    payload = json.loads((out / "eps-star-t.json").read_text())
    assert payload["kind"] == "finite"
    assert 4.0 < payload["value"] < 16.0
    assert payload["lambda_met_tol"] is True


def test_eps_star_refuses_a_nonzero_m(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "eps-star", "[kernel]\nfamily = tent\nm = 1\n" + _BUMP)
    assert code == 1
    assert "eps* is defined for m = 0" in capsys.readouterr().err


def test_audit_uses_the_kernel_rate(tmp_path):
    energies = {}
    for alpha0 in (1, 4):
        code, out = run_cli(tmp_path, "audit", f"""
[kernel]
family = tent
m = 1
alpha0 = {alpha0}
{_BUMP}
[grid]
R = 4
h = 0.1

[audit]
epsilons = 1 2
solver_tol = 1e-9
""")
        assert code == 0
        energies[alpha0] = json.loads((out / "audit-t.json").read_text())["energies"]
    assert len(energies[1]) == len(energies[4]) == 2
    assert all(abs(e1 - e4) > 1e-3 for e1, e4 in zip(energies[1], energies[4]))


def test_audit_records_lambda_met_tol(tmp_path):
    code, out = run_cli(tmp_path, "audit", f"""
[kernel]
family = tent
m = 1
{_BUMP}
[grid]
R = 4
h = 0.1

[audit]
epsilons = 2 4
solver_tol = 1e-9
""")
    assert code == 0
    assert json.loads((out / "audit-t.json").read_text())["lambda_met_tol"] is True


def test_fat_tail_uses_the_kernel_rate(tmp_path):
    code, out = run_cli(tmp_path, "fat-tail", """
[kernel]
family = algebraic-tail
params = power=5
alpha0 = 2

[growth]
family = bump
params = a0=1, b=1, a_min=-1

[grid]
h = 0.05

[fat_tail]
R_schedule = 4 8
""")
    assert code == 0
    kernel = rescale_kernel(Kernel("algebraic-tail", params={"power": 5.0}), 1, 0, 2)
    res = fat_tail_verdict(kernel, bump_growth(1.0, 1.0, -1.0), [4, 8], 0.05)
    payload = json.loads((out / "fat-tail-t.json").read_text())
    assert (payload["verdict"], payload["bracket_inflation"]) == (res.verdict, res.bracket_inflation)
    assert payload["bracket_inflation"] == 2.0 * 2.0 * payload["tail_mass"]  # 2 rate tail_mass
    rows = [line.split(",") for line in (out / "fat-tail-t.csv").read_text().splitlines()[1:]]
    assert [[float(v) for v in row] for row in rows] == [
        [R, e.lower, e.upper] for R, e in zip(res.radii, res.estimates)]


@pytest.mark.parametrize("text, message", [
    ("[evolve]\nT = 1\nT = 2\n", "option 't' in section 'evolve' already exists"),
    ("T = 1\n", "File contains no section headers"),
], ids=["duplicate-key", "no-section"])
def test_malformed_ini_exits_one(tmp_path, capsys, text, message):
    config = tmp_path / "bad.ini"
    config.write_text(text)
    assert main(["validate", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err


def test_missing_config_exits_one():
    assert main(["spectrum", "/nonexistent/nope.ini"]) == 1
