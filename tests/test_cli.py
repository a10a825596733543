import json
import time
from pathlib import Path

import pytest

from padicharm.cli import main, run

GOLDEN = Path(__file__).parent / "golden"


def run_cli(args, tmp_path=None):
    out = tmp_path / "report.json" if tmp_path else None
    argv = list(args)
    if out:
        argv += ["--out", str(out)]
    code = main(argv)
    data = json.loads(out.read_text()) if out and out.exists() else None
    return code, data


def test_beta_verb(tmp_path):
    code, rep = run_cli(["beta", "--p", "3", "--n", "1", "--conductor", "0"], tmp_path)
    assert code == 0
    assert rep["payload"]["factor"] == "beta"
    assert "num" in rep["payload"]["result"] and "den" in rep["payload"]["result"]


def test_gamma_verb(tmp_path):
    code, rep = run_cli(["gamma", "--p", "3", "--conductor", "1"], tmp_path)
    assert code == 0
    # ramified gamma is a monomial: numerator has one band, denominator 1
    den = rep["payload"]["result"]["den"]
    assert len(den) == 1


def test_unknown_verb_exit_2():
    assert main(["frobnicate"]) == 2


def test_symplectic_check(tmp_path):
    code, rep = run_cli(["symplectic-check", "--n", "1", "--seed", "5"], tmp_path)
    assert code == 0
    assert all(c["status"] == "pass" for c in rep["checks"])


def test_verify_fe_pvs(tmp_path):
    code, rep = run_cli(["verify", "fe-pvs", "--p", "3", "--n", "1", "--k", "2"],
                        tmp_path)
    assert code == 0
    assert all(c["status"] == "pass" for c in rep["checks"])
    assert all(c["max_deviation"] < 1e-6 for c in rep["checks"])


@pytest.mark.parametrize("p", [5, 7])
def test_verify_fe_pvs_k3_beyond_p3(p, tmp_path):
    # the spherical, shifted and dilated functions at k = 3, from the
    # recursion; the Sym_3 sweep could not reach these sizes
    code, rep = run_cli(["verify", "fe-pvs", "--p", str(p), "--n", "1", "--k", "3"],
                        tmp_path)
    assert code == 0
    assert len(rep["checks"]) == 3 * (p - 1)
    assert all(c["status"] == "pass" for c in rep["checks"])


@pytest.mark.parametrize("seed", [0, 1])
def test_verify_fe_gl1_n2_to_1e_11(tmp_path, seed):
    # the n = 2 functional equation holds to 1e-11 once residues are taken at
    # the known pole set (root finding lost up to 9.5e-9 at these seeds)
    code, rep = run_cli(["verify", "fe-gl1", "--p", "5", "--level", "2", "--n", "2",
                         "--seed", str(seed), "--tolerance", "1e-11"], tmp_path)
    assert code == 0
    assert max(c["max_deviation"] for c in rep["checks"]) <= 1e-11


def test_verify_fe_gl1_transforms_each_function_once(monkeypatch):
    from padicharm import fxspace
    calls = []
    fourier_L = fxspace.fourier_L

    def counted(*args, **kwargs):
        calls.append(args)
        return fourier_L(*args, **kwargs)
    monkeypatch.setattr(fxspace, "fourier_L", counted)
    rep, code = run(["verify", "fe-gl1", "--p", "5", "--level", "1"])
    assert code == 0 and len(rep["checks"]) == 12
    assert len(calls) == 3


def test_verify_fe_pvs_builds_each_function_once(monkeypatch):
    from padicharm import pvszeta
    calls = []
    fe_pvs_sides = pvszeta.fe_pvs_sides

    def counted(*args, **kwargs):
        calls.append(args)
        return fe_pvs_sides(*args, **kwargs)
    monkeypatch.setattr(pvszeta, "fe_pvs_sides", counted)
    rep, code = run(["verify", "fe-pvs", "--p", "5", "--n", "1", "--k", "3"])
    assert code == 0 and len(rep["checks"]) == 12
    assert len(calls) == 3


def test_verify_fe_gl1_p7_level2():
    # 3 functions times the 42 characters mod 49
    rep, code = run(["verify", "fe-gl1", "--p", "7", "--level", "2", "--n", "1",
                     "--seed", "0"])
    assert code == 0 and len(rep["checks"]) == 126
    assert all(c["status"] == "pass" for c in rep["checks"])


def test_count_fibers_csv(tmp_path):
    out = tmp_path / "counts.csv"
    code = main(["count-fibers", "--p", "3", "--k", "2", "--m", "3",
                 "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "ord_class,unit_coset,count"
    assert any(line.startswith("0,1,") for line in lines)


@pytest.mark.parametrize("p, k, m", [(7, 3, 3), (3, 3, 5)])
def test_count_fibers_past_the_sweep(p, k, m, tmp_path):
    # counts come from the recursion, so sizes and depths the Sym_3 sweep
    # cannot reach still conserve p^(k d)
    code, rep = run_cli(["count-fibers", "--p", str(p), "--k", str(k), "--m", str(m)],
                        tmp_path)
    assert code == 0
    payload = rep["payload"]
    total = sum(r["count"] for r in payload["fiber_counts"]) + payload["zero_count"]
    assert total == payload["total"] == p ** (k * m * (m + 1) // 2)


def test_tate_oracle_verb(tmp_path):
    code, rep = run_cli(["tate-oracle", "--p", "3", "--level", "1",
                         "--conductor", "1"], tmp_path)
    assert code == 0
    assert len(rep["checks"]) == 2   # trivial and quadratic


def test_shells_verb(tmp_path):
    code, rep = run_cli(["shells", "--p", "3", "--conductor", "0",
                         "--s", "0.7", "--level", "1"], tmp_path)
    assert code == 0
    assert rep["checks"][0]["status"] == "pass"


def test_timing_measures_the_checks():
    for argv, n_checks in ((["fourier-n0", "--p", "3", "--level", "2"], 2),
                           (["verify", "fe-gl1", "--p", "3", "--level", "2"], 18)):
        t0 = time.perf_counter()
        rep, code = run(argv + ["--timing"])
        wall_ms = 1000 * (time.perf_counter() - t0)
        assert code == 0 and len(rep["checks"]) == n_checks, argv
        assert sum(c["runtime_ms"] for c in rep["checks"]) >= 0.5 * wall_ms, argv


def test_check_errors_become_error_status(monkeypatch):
    # a domain error raised inside a check is reported as that check's error
    from padicharm import gdist

    def diverge(*args, **kwargs):
        raise gdist.GDistError("divergent partial sums")
    monkeypatch.setattr(gdist, "shell_coefficients_sum", diverge)
    rep, code = run(["shells", "--p", "3", "--level", "1", "--s", "0.7"])
    assert code == 1
    assert rep["checks"][0]["status"] == "error"
    assert "sum" not in rep["payload"]


def test_deterministic_reports(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["symplectic-check", "--n", "1", "--seed", "9", "--out", str(a)]) == 0
    assert main(["symplectic-check", "--n", "1", "--seed", "9", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_overrides_flags(tmp_path):
    cfg = tmp_path / "field.cfg"
    cfg.write_text("p = 5\nlevel = 1\ntolerance = 1e-6\n")
    code, rep = run_cli(["gamma", "--p", "3", "--conductor", "0",
                         "--config", str(cfg)], tmp_path)
    assert code == 0
    assert rep["parameters"]["p"] == 5
    # a flag the file does not name keeps its value
    cfg.write_text("tolerance = 1e-6\n")
    code, rep = run_cli(["gamma", "--p", "7", "--level", "1", "--conductor", "1",
                         "--config", str(cfg)], tmp_path)
    assert code == 0 and (rep["parameters"]["p"], rep["parameters"]["level"]) == (7, 1)


def test_csv_rejected_for_nontabular(tmp_path):
    code = main(["beta", "--p", "3", "--format", "csv",
                 "--out", str(tmp_path / "x.csv")])
    # the refusal comes before any write, so the file holds the error alone
    assert code == 2 and json.loads((tmp_path / "x.csv").read_text()) == {
        "error": "CSV output is only available for count tables"}


def test_run_api_exit_codes():
    rep, code = run(["beta", "--p", "3", "--n", "0", "--conductor", "1"])
    assert code == 0 and rep["command"] == "beta"


def test_fourier_n0_consumes_fx_json(tmp_path):
    from padicharm.fxspace import FxFunction, TailSpec
    phi = FxFunction(3, 1, 0, 1, {(0, 1): 1.0 + 0.0j, (0, 2): 1.0 + 0.0j},
                     TailSpec.compact())
    src = tmp_path / "phi.json"
    src.write_text(json.dumps(phi.to_json()))
    code, rep = run_cli(["fourier-n0", "--fx-in", str(src)], tmp_path)
    assert code == 0
    assert all(c["status"] == "pass" for c in rep["checks"])
    # ch(Z_p^x) transforms to (1-1/q) q^{-k/2} on k >= 0
    got = {(r["k"], r["coset"]): complex(r["re"], r["im"])
           for r in rep["payload"]["transform"]}
    assert abs(got[(0, 1)] - (1 - 1 / 3)) < 1e-9


@pytest.mark.parametrize("argv", [
    ["gamma", "--p", "4"],
    ["gamma", "--p", "9", "--conductor", "1"],
    ["beta", "--n", "-2"],
    ["count-fibers", "--p", "7", "--k", "11"],
    ["count-fibers", "--p", "3", "--k", "1", "--m", "150"],
    ["fourier-n0", "--level", "0"],
    ["eta-table", "--level", "0"],
    ["verify", "fe-pvs", "--p", "3", "--n", "1", "--k", "1"],
    ["verify", "fe-pvs", "--p", "5", "--n", "1", "--k", "7"],
    ["verify", "fe-pvs", "--p", "3", "--n", "2", "--k", "2"],
    ["count-fibers", "--p", "3", "--k", "18"],
    ["shells", "--p", "5", "--level", "1", "--s", "-1"],
    ["shells", "--p", "3", "--s", "-0.5"],
    ["verify", "fe-gl1", "--tolerance", "-1"],
    ["verify", "fe-gl1", "--tolerance", "nan"],
    ["verify", "fe-pvs", "--tolerance", "inf"],
    ["verify", "fe-pvs", "--p", "3", "--n", "0", "--k", "1"],
    # just past the row budget of 10^6: phi(3^13) = 1,062,882 units, phi-eval's
    # eta series to |ord|, an eta table's rows and its top shell
    ["gamma", "--p", "3", "--conductor", "1", "--level", "13"],
    ["phi-eval", "--p", "3", "--ord", "1000001"],
    ["eta-table", "--p", "3", "--level", "1", "--kmin", "0", "--kmax", "500000"],
    ["eta-table", "--p", "3", "--level", "1", "--kmin", "1000001", "--kmax", "1000001"],
    # every unit expands its own series: units x (terms + 1) series terms,
    # 162 x 20001 and 354294 x 1000001 for phi-eval, 162 x 10001 for one shell
    ["phi-eval", "--p", "3", "--n", "0", "--level", "5", "--ord", "20000"],
    ["phi-eval", "--p", "3", "--n", "0", "--level", "12", "--ord", "1000000"],
    ["eta-table", "--p", "3", "--level", "5", "--kmin", "10000", "--kmax", "10000"],
    # tate-oracle averages every unit once per character of conductor <= c:
    # phi(3^7)^2 = 2.1e6 (about 7 s) and phi(101^2)^2 = 1e8 (minutes)
    ["tate-oracle", "--p", "3", "--level", "7", "--conductor", "7"],
    ["tate-oracle", "--p", "101", "--level", "2", "--conductor", "2"],
    # usage errors, each with its reason
    ["gamma", "--bogus", "1"],
    ["gamma", "--lev", "2"],
    ["gamma", "--p"],
    ["gamma", "--p", "--level", "2"],
    ["gamma", "--p", "three"],
    ["shells", "--s=x"],
    ["gamma", "--psi-sign", "2"],
    ["count-fibers", "--format", "xml"],
    ["gamma", "--timing=1"],
    ["--p", "5"],
    [],
    # a config key that names no flag: the word after --config is the file's text
    ["gamma", "--config", "lvl = 1"],
    # Sp_0 is trivial; at n = 1 the SL_2(F_p) count takes p^4 = 1.9e6 rows at p = 37
    ["symplectic-check", "--n", "0"],
    ["symplectic-check", "--n", "1", "--p", "37"],
    # fourier-n0's inverse reads units^2 kernel entries per shell: phi(3^7) =
    # 1458, phi(5^5) = 2500 and phi(1009) = 1008 units are past 1000
    ["fourier-n0", "--p", "3", "--level", "7"],
    ["fourier-n0", "--p", "5", "--level", "5"],
    ["fourier-n0", "--p", "1009", "--level", "1"],
    # symplectic-check's exact elimination past n = 4
    ["symplectic-check", "--n", "5", "--p", "5"],
    # shells at conductor 0 whose shells past ELL_MAX are more than half the
    # tolerance: at s = -0.45 the check read 3.6e-2 at p = 3 and 2.8e-5 at p = 31
    ["shells", "--p", "3", "--conductor", "0", "--s", "-0.45"],
    ["shells", "--p", "31", "--level", "1", "--conductor", "0", "--s", "-0.45"],
    # beta's float coefficients past float64: beta and eta-table printed NaN
    # from n = 18, 15, 11 and 8 at p = 3, 5, 31 and 997, and raised
    # OverflowError from n = 163 (beta) and 125 (eta-table) at p = 3;
    # phi-eval printed NaN from n = 12 at p = 31 and took 30 s at p = 3, n = 32
    ["beta", "--p", "3", "--n", "18", "--level", "1"],
    ["beta", "--p", "5", "--n", "15", "--level", "1"],
    ["beta", "--p", "31", "--n", "11", "--level", "1"],
    ["beta", "--p", "997", "--n", "8", "--level", "1"],
    ["beta", "--p", "3", "--n", "163"],
    ["beta", "--p", "997", "--n", "27", "--level", "1"],
    ["eta-table", "--p", "3", "--n", "18"],
    ["eta-table", "--p", "997", "--n", "8", "--level", "1"],
    ["eta-table", "--p", "3", "--n", "125"],
    ["eta-table", "--p", "31", "--n", "31", "--level", "1"],
    ["phi-eval", "--p", "31", "--n", "12", "--level", "1"],
    ["phi-eval", "--p", "997", "--n", "8", "--level", "1"],
    ["phi-eval", "--p", "3", "--n", "32"],
])
def test_invalid_input_is_a_json_error(argv, capsys, tmp_path):
    if "--config" in argv:
        (tmp_path / "f.cfg").write_text(argv[-1] + "\n")
        argv = argv[:-1] + [str(tmp_path / "f.cfg")]
    assert main(argv) == 2
    rep = json.loads(capsys.readouterr().out)
    assert list(rep) == ["error"] and rep["error"]


@pytest.mark.parametrize("argv", [
    # 3^100000 rows, once an OverflowError of float(p) ** k
    ["count-fibers", "--p", "3", "--k", "100000"],
    ["verify", "fe-pvs", "--p", "3", "--k", "100000"],
    # 2^61 - 1 is prime, and trial division took over 10 s to say so
    ["gamma", "--p", "2305843009213693951"],
])
def test_huge_inputs_are_refused_at_once(argv, capsys):
    t0 = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - t0 < 2
    rep = json.loads(capsys.readouterr().out)
    assert list(rep) == ["error"] and "budget" in rep["error"]


@pytest.mark.parametrize("verb, p, level, conductor", [
    ("beta", 3, 1, 0), ("beta", 3, 2, 1), ("beta", 5, 1, 1), ("beta", 31, 2, 2),
    ("beta", 997, 1, 0), ("beta", 3, 6, 6), ("eta-table", 3, 2, 0), ("eta-table", 997, 1, 0),
    ("phi-eval", 31, 1, 0), ("phi-eval", 997, 1, 0),
])
def test_the_float_bound_on_n_is_where_beta_leaves_float64(verb, p, level, conductor):
    # the largest n the boundary accepts prints finite numbers; beta at the
    # next n printed NaN before the boundary refused it
    from padicharm import PadicharmError
    from padicharm.abelian import beta_factor
    from padicharm.cli import _character, _validate, parse_args

    def argv(n):
        return [verb, "--p", str(p), "--level", str(level), "--conductor", str(conductor),
                "--n", str(n)]

    def accepted(n):
        try:
            _validate(parse_args(argv(n)), verb, None)
        except PadicharmError:
            return False
        return True
    n = max(n for n in range(40) if accepted(n))
    assert not any(accepted(m) for m in range(n + 1, 200))
    rep, code = run(argv(n))
    assert code == 0
    strict_json(json.dumps(rep))
    if verb == "beta":
        nan = beta_factor(n + 1, _character(p, level, conductor)).to_json()
        with pytest.raises(ValueError):
            strict_json(json.dumps(nan))


@pytest.mark.parametrize("p, level, conductor", [(3, 7, 6), (5, 3, 3), (5, 2, 2), (3, 7, 0)])
def test_tate_oracle_within_the_row_budget_is_accepted(p, level, conductor):
    # 486 x 1458 = 7.1e5 unit averages at (3, 7, 6), about 2.4 s; one character at c = 0
    from padicharm.cli import _validate, parse_args
    argv = ["tate-oracle", "--p", str(p), "--level", str(level), "--conductor", str(conductor)]
    _validate(parse_args(argv), "tate-oracle", None)


@pytest.mark.parametrize("p, level", [(3, 6), (5, 4), (997, 1)])
def test_fourier_n0_within_the_row_budget_is_accepted(p, level):
    # units^2 = 486^2, 500^2 and 996^2 <= 10^6; p = 997 at level 1 is the
    # slowest, about 2.5 s
    from padicharm.cli import _validate, parse_args
    _validate(parse_args(["fourier-n0", "--p", str(p), "--level", str(level)]),
              "fourier-n0", None)


@pytest.mark.parametrize("argv", [
    # conductor 0 just past the bound, where the shells past ELL_MAX leave
    # about 5e-6 of the sum out, and a ramified character, whose shells end
    # at ell = -1, right by s = -1/2
    ["shells", "--p", "3", "--level", "1", "--conductor", "0", "--s", "-0.3178"],
    ["shells", "--p", "31", "--level", "1", "--conductor", "0", "--s", "-0.4417"],
    ["shells", "--p", "3", "--level", "2", "--conductor", "1", "--s", "-0.4999"],
    ["shells", "--p", "7", "--level", "2", "--conductor", "2", "--s", "-0.4999"],
])
def test_shells_near_minus_one_half_passes_where_accepted(argv):
    rep, code = run(argv)
    assert code == 0, rep


@pytest.mark.parametrize("tolerance", [1e-6])
@pytest.mark.parametrize("dev", [float("nan"), float("inf"), -float("inf")])
def test_a_non_finite_deviation_is_an_error(dev, tolerance):
    from padicharm.cli import Check, run_check
    out = run_check(Check("x", lambda: [0.0], lambda: [0.0], lambda a, b: dev, tolerance),
                    False)
    assert out["status"] == "error" and out["max_deviation"] is None
    json.dumps(out, allow_nan=False)    # the report stays valid JSON


def test_a_nan_side_deviates_infinitely_under_every_compare():
    # moved from tests/test_ratfunc.py with RationalFunctionZ.max_relative_deviation:
    # a side that is not finite at a sample deviates infinitely
    import math
    from padicharm.cli import absolute, relative, relative_to_second
    from padicharm.ratfunc import _SAMPLES, RationalFunctionZ
    nan = float("nan")
    R = RationalFunctionZ([1.0, 0.5])

    def at(F, samples=_SAMPLES):
        return [F(z) for z in samples]
    for compare in (relative, relative_to_second, absolute):
        assert compare(at(R), at(RationalFunctionZ([1.0, nan]))) == math.inf
        assert compare(at(RationalFunctionZ([nan, 1.0]), [0.3]), at(R, [0.3])) == math.inf
        assert compare(at(R, [0.5j]), at(R * math.inf, [0.5j])) == math.inf
        assert compare(at(R), at(RationalFunctionZ([1.0, 0.5]))) == 0.0


def test_compares_read_their_formula():
    from padicharm.cli import absolute, exact, relative, relative_to_second
    assert relative([3.0], [2.0]) == 1 / 3 and relative([0.5], [0.25]) == 0.25
    assert relative_to_second([3.0], [2.0]) == 0.5 and relative_to_second([0.5], [0.0]) == 0.5
    assert absolute([3.0, 1.0], [2.0, 1.5]) == 1.0
    assert exact([[1, 2]], [[1, 2]]) == 0.0 and exact((1,), (2,)) == 1.0
    with pytest.raises(ValueError):
        relative([1.0, 2.0], [1.0])     # unpaired values


@pytest.mark.parametrize("argv, reason", [
    (["gamma", "--bogus", "1"], "unknown flag --bogus"),
    (["gamma", "--p"], "--p needs a value"),
    (["gamma", "--p", "three"], "--p: 'three' is not a valid int"),
    (["shells", "--s=x"], "--s: 'x' is not a valid float"),
    (["gamma", "--psi-sign", "2"], "--psi-sign must be one of 1, -1, got 2"),
    (["gamma", "--timing=1"], "--timing takes no value"),
    (["--p", "5"], "no verb: one of gamma, beta, eta-table, verify fe-gl1, verify fe-pvs, "
                   "count-fibers, symplectic-check, tate-oracle, fourier-n0, shells, phi-eval"),
])
def test_usage_errors_state_their_reason(argv, reason):
    assert run(argv) == ({"error": reason}, 2)


def test_help_lists_the_verbs_and_flags(capsys):
    from padicharm.cli import FLAGS, VERBS
    assert main(["--help"]) == 0
    text = capsys.readouterr().out
    assert all(verb in text for verb in VERBS)
    assert all(f"--{flag}" in text for flag in FLAGS)


def test_flags_take_their_value_after_a_space_or_an_equals_sign():
    spaced, code = run(["shells", "--p", "5", "--level", "2", "--s", "0.6", "--psi-sign", "-1"])
    assert code == 0
    assert run(["shells", "--p=5", "--level=2", "--s=0.6", "--psi-sign=-1"]) == (spaced, 0)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_character_is_the_first_of_its_conductor(p):
    # the closed-form exponent against the first match of a scan over the level
    from padicharm.abelian import characters, conductor
    from padicharm.cli import UsageError, _character
    for level in range(1, 5):
        scan = characters(p, level)
        for e in range(-1, level + 2):
            want = next((chi for chi in scan if conductor(chi) == e), None)
            if want is None:
                with pytest.raises(UsageError,
                                   match=f"^no character of conductor {e} at level {level}$"):
                    _character(p, level, e)
            else:
                assert _character(p, level, e) == want, (level, e)


@pytest.mark.parametrize("conductor", ["5", "-1"])
def test_conductor_outside_the_level_is_a_usage_error(conductor, capsys):
    assert main(["gamma", "--p", "3", "--level", "2", "--conductor", conductor]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": f"no character of conductor {conductor} at level 2"}


@pytest.mark.parametrize("n", [3, 4])
def test_verify_fe_gl1_past_n2_is_refused(n, capsys):
    # at n >= 3 the float partial fractions lose the poles: p = 5, level 2,
    # n = 4 failed all 60 checks before the boundary refused it
    assert main(["verify", "fe-gl1", "--p", "5", "--level", "2", "--n", str(n)]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert list(rep) == ["error"] and "--n <= 2" in rep["error"]
    assert "partial fractions" in rep["error"]


def test_runs_share_no_state():
    rep, code = run(["shells", "--p", "5", "--level", "2", "--conductor", "2",
                     "--s", "0.6", "--timing"])
    assert code == 0 and "runtime_ms" in rep["checks"][0]
    rep, code = run(["shells"])
    assert code == 0 and "runtime_ms" not in rep["checks"][0]
    assert rep["parameters"] == {"p": 3, "n": 1, "level": 2, "k": 2, "conductor": 0,
                                 "tolerance": 1e-6, "psi_sign": 1, "seed": 0}
    assert rep["payload"]["s"] == 0.7


# a fresh interpreter: imports every padicharm module, runs the invocations
# of argv[1] and tate_gamma_oracle as the benchmark's workloads do, and
# prints the exit codes and whether numpy was loaded
_WORKLOAD_VERBS = """
import importlib, json, pkgutil, sys
import padicharm
for info in pkgutil.iter_modules(padicharm.__path__):
    importlib.import_module(f"padicharm.{info.name}")
from padicharm.abelian import characters, tate_gamma_oracle
from padicharm.cli import run
codes = [run(argv)[1] for argv in json.loads(sys.argv[1])]
[tate_gamma_oracle(chi, s) for chi in characters(5, 2) for s in (0.3, 0.5, 0.7)]
print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules}))
"""


def test_workload_verbs_run_without_numpy():
    invocations = [
        ["verify", "fe-gl1", "--p", "5", "--level", "1", "--n", "0"],
        ["verify", "fe-gl1", "--p", "5", "--level", "1", "--n", "1", "--seed", "1"],
        ["verify", "fe-pvs", "--p", "5", "--n", "1", "--k", "2"],
        ["verify", "fe-pvs", "--p", "5", "--n", "1", "--k", "2", "--psi-sign", "-1"],
        ["count-fibers", "--p", "5", "--k", "2", "--m", "3"],
        ["fourier-n0", "--p", "3", "--level", "2"],
        ["shells", "--p", "5", "--level", "1", "--conductor", "0"],
        ["shells", "--p", "5", "--level", "1", "--conductor", "1"],
        ["tate-oracle", "--p", "5", "--level", "2", "--conductor", "2"],
    ]
    assert run_fresh(_WORKLOAD_VERBS, invocations) == {
        "codes": [0] * len(invocations), "numpy": False}


def run_fresh(script, invocations):
    """The JSON that script prints in a fresh interpreter given the
    invocations as argv[1]."""
    import os
    import subprocess
    import sys
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(invocations)],
                          capture_output=True, text=True, timeout=120, check=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    return json.loads(proc.stdout)


def test_fe_pvs_censuses_load_no_numpy():
    # (13, 3) and (7, 4) reach the phased job of the shifted function's
    # transform and the masked jobs of the shifted and dilated functions
    invocations = [["verify", "fe-pvs", "--p", "13", "--n", "1", "--k", "3"],
                   ["verify", "fe-pvs", "--p", "7", "--n", "1", "--k", "4"]]
    assert run_fresh(_WORKLOAD_VERBS, invocations) == {"codes": [0, 0], "numpy": False}


@pytest.mark.parametrize("p", [3, 5])
def test_phi_eval_draws_off_the_singular_locus(p):
    # det(h + I) = 0 exactly when the drawn X is singular, as h + I =
    # 4 J X (2 J X - I)^(-1): seeds 16, 26, 34 and 38 drew one and exited 2
    codes = [run(["phi-eval", "--p", str(p), "--n", "1", "--seed", str(seed)])[1]
             for seed in range(40)]
    assert codes == [0] * 40


@pytest.mark.parametrize("tolerance", ["-1e-6", "nan"])
def test_config_tolerance_is_validated(tolerance, tmp_path, capsys):
    cfg = tmp_path / "field.cfg"
    cfg.write_text(f"p = 5\nlevel = 1\ntolerance = {tolerance}\n")
    assert main(["verify", "fe-gl1", "--config", str(cfg)]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert list(rep) == ["error"] and "tolerance" in rep["error"]


def test_verify_fe_gl1_builds_each_beta_once():
    # one beta per character mod 5, shared by the transforms and the compares
    from padicharm.abelian import beta_factor
    beta_factor.cache_clear()
    rep, code = run(["verify", "fe-gl1", "--p", "5", "--level", "1"])
    assert code == 0 and len(rep["checks"]) == 12
    assert beta_factor.cache_info().misses == 4


def test_fx_in_parameters_are_validated(tmp_path):
    src = tmp_path / "phi.json"
    src.write_text(json.dumps({"p": 4, "level": 1, "k_min": 0, "k_tail": 1,
                               "shells": [], "tail": {"kind": "compact"}}))
    rep, code = run(["fourier-n0", "--fx-in", str(src)])
    assert code == 2 and "not prime" in rep["error"]


@pytest.mark.parametrize("data", [
    {"p": 3, "level": 1, "k_min": 0, "k_tail": 1, "shells": 5, "tail": {"kind": "compact"}},
    {"p": 3, "level": 1, "k_min": 0, "k_tail": 1, "shells": [], "tail": ["compact"]},
    [{"p": 3, "level": 1, "k_min": 0, "k_tail": 1, "shells": [], "tail": {"kind": "compact"}}],
    {"p": "3", "level": 1, "k_min": 0, "k_tail": 1, "shells": [], "tail": {"kind": "compact"}},
    {"p": 3, "level": 1, "k_min": 0, "k_tail": 1, "tail": {"kind": "compact"},
     "shells": [{"k": "0", "coset": 1, "re": 1.0, "im": 0.0}]},
    # a tail of n = 1 needs one row each of ap and am
    {"p": 3, "level": 1, "k_min": 0, "k_tail": 1, "shells": [],
     "tail": {"kind": "plus", "n": 1, "a0": [[1.0, 0.0], [1.0, 0.0]], "ap": [], "am": []}},
])
def test_malformed_fx_in_is_a_json_error(data, tmp_path, capsys):
    src = tmp_path / "phi.json"
    src.write_text(json.dumps(data))
    assert main(["fourier-n0", "--fx-in", str(src)]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert list(rep) == ["error"] and "unreadable input file" in rep["error"]


FX_WINDOW = {"p": 3, "level": 1, "k_min": 0, "k_tail": 2, "tail": {"kind": "compact"}}


@pytest.mark.parametrize("data", [
    dict(FX_WINDOW, shells=[{"k": 0, "coset": 4, "re": 1.0, "im": 0.0}]),    # not reduced
    dict(FX_WINDOW, shells=[{"k": 0, "coset": 3, "re": 1.0, "im": 0.0}]),    # not a unit
    dict(FX_WINDOW, shells=[{"k": 0, "coset": 0, "re": 1.0, "im": 0.0}]),
    dict(FX_WINDOW, shells=[{"k": 2, "coset": 1, "re": 1.0, "im": 0.0}]),    # k = k_tail
    dict(FX_WINDOW, shells=[{"k": -1, "coset": 1, "re": 1.0, "im": 0.0}]),   # k < k_min
    dict(FX_WINDOW, k_min=3, k_tail=1, shells=[]),
])
def test_fx_in_shell_keys_are_validated(data, tmp_path, capsys):
    # a shell off the window or off the reduced units exits 2, not 1 with
    # failing checks (or 0, at k >= k_tail, which the Mellin transform ignores)
    src = tmp_path / "phi.json"
    src.write_text(json.dumps(data))
    assert main(["fourier-n0", "--fx-in", str(src)]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert list(rep) == ["error"] and "invalid input file" in rep["error"]


FX_TAIL = {"a0": [[1.0, 0.0], [1.0, 0.0]], "ap": [[[0.5, 0.0], [0.5, 0.0]]],
           "am": [[[0.0, 0.5], [0.0, 0.5]]]}
FX_SHELL = {"coset": 1, "re": 1.0, "im": 0.0}


@pytest.mark.parametrize("data, reason", [
    # a tail: the kernel sums of its transform are not finite
    (dict(FX_WINDOW, shells=[], tail={"kind": "plus", "n": 0, "a0": FX_TAIL["a0"],
                                      "ap": [], "am": []}), "compactly supported"),
    (dict(FX_WINDOW, shells=[dict(FX_SHELL, k=0)], tail=dict(FX_TAIL, kind="minus", n=1)),
     "compactly supported"),
    # (k_tail - k_min + 24) eta rows of 2 units: 1000048 > 10^6
    (dict(FX_WINDOW, k_min=-250000, k_tail=250000,
          shells=[dict(FX_SHELL, k=-250000), dict(FX_SHELL, k=249999)]), "budget"),
    # each unit's eta series to the shell k_tail + 11: 2 x 500012 terms
    (dict(FX_WINDOW, k_min=500000, k_tail=500001, shells=[dict(FX_SHELL, k=500000)]),
     "budget"),
])
def test_fx_in_outside_the_fourier_n0_boundary_is_refused(data, reason, tmp_path, capsys):
    # refused at the boundary with exit 2, not run into checks that error
    src = tmp_path / "phi.json"
    src.write_text(json.dumps(data))
    assert main(["fourier-n0", "--fx-in", str(src)]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert list(rep) == ["error"] and reason in rep["error"]


def test_fx_in_level_is_bounded_before_its_cosets(tmp_path):
    # p^level of an unchecked level is unbounded: the row budget refuses
    # this level before any coset is reduced mod p^level
    src = tmp_path / "phi.json"
    src.write_text(json.dumps(dict(FX_WINDOW, level=10**12,
                                   shells=[{"k": 0, "coset": 1, "re": 1.0, "im": 0.0}])))
    rep, code = run(["fourier-n0", "--fx-in", str(src)])
    assert code == 2 and "budget" in rep["error"]


def test_shells_reads_no_eta_kernel(monkeypatch):
    # shells reads one character component of eta, so it needs no coset
    # values of eta: at conductor 12 they cost minutes and over a gigabyte
    from padicharm import fxspace, gdist

    def refuse(*args):
        raise AssertionError("shells evaluated eta_kernel")
    monkeypatch.setattr(fxspace, "eta_kernel", refuse)
    monkeypatch.setattr(gdist, "eta_kernel", refuse)
    rep, code = run(["shells", "--p", "3", "--level", "12", "--conductor", "12", "--s", "0.5"])
    assert code == 0 and rep["checks"][0]["status"] == "pass"


def strict_json(text):
    """json.loads that refuses the NaN and Infinity tokens outside the JSON standard."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_inputs_are_json_errors(value, tmp_path, capsys):
    # nan and inf pass a test of --s > -1/2 and would print bare NaN tokens;
    # --fx-in values are refused in the shells and in the tail alike
    shells = {"p": 3, "level": 1, "k_min": 0, "k_tail": 1, "tail": {"kind": "compact"},
              "shells": [{"k": 0, "coset": 1, "re": value, "im": 0.0}]}
    tail = {"p": 3, "level": 1, "k_min": 0, "k_tail": 1, "shells": [],
            "tail": {"kind": "plus", "n": 0, "a0": [[1.0, 0.0], [0.0, value]],
                     "ap": [], "am": []}}
    invocations = [["shells", "--s", str(value)], ["shells", f"--s={-value}"]]
    for i, data in enumerate((shells, tail)):
        (tmp_path / f"phi{i}.json").write_text(json.dumps(data))
        invocations.append(["fourier-n0", "--fx-in", str(tmp_path / f"phi{i}.json")])
    for argv in invocations:
        assert main(argv) == 2, argv
        rep = strict_json(capsys.readouterr().out)
        assert list(rep) == ["error"] and rep["error"], argv


def test_reports_are_strict_json(tmp_path, capsys):
    # the JSON report of every verb and input path of the reachability test
    # parses without NaN or Infinity
    from test_reachable import FX_IN, invocations
    (tmp_path / "phi.json").write_text(json.dumps(FX_IN))
    (tmp_path / "field.cfg").write_text("p = 5\nlevel = 1\ntolerance = 1e-6\n")
    for argv in invocations(tmp_path):
        if "--help" in argv or "--out" in argv:
            continue    # usage text, and a CSV table written to a file
        main(argv)
        strict_json(capsys.readouterr().out)


# a fresh interpreter whose Cayley form identity always fails: runs the verb
# of argv[1] and prints its exit code and report
_BROKEN_CAYLEY = """
import contextlib, io, json, sys
from padicharm import symplectic
symplectic.is_symplectic = lambda g, n: False
from padicharm.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(json.dumps({"code": code, "report": json.loads(out.getvalue())}))
"""


@pytest.mark.parametrize("argv", [
    ["phi-eval", "--n", "1"],
    ["symplectic-check", "--n", "1"],
])
def test_broken_cayley_identity_is_an_error_not_a_hang(argv):
    # only Cayley poles and singular draws are resampled: any other failure
    # of the transform ends the verb within the timeout, as a JSON error or
    # an error check
    import os
    import subprocess
    import sys
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", _BROKEN_CAYLEY, json.dumps(argv)],
                          capture_output=True, text=True, timeout=20, check=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    out = json.loads(proc.stdout)
    report = out["report"]
    if out["code"] == 2:
        assert "form identity" in report["error"]
    else:
        errors = [c for c in report["checks"] if c["status"] == "error"]
        assert out["code"] == 1 and errors, report
        assert any("form identity" in c["error"] for c in errors), errors


@pytest.mark.parametrize("n", [0, 1])
def test_fe_gl1_builds_each_scaled_transform_once(n, monkeypatch):
    # M(f |.|^{(2n+1)/2}) of each of the three test functions is built once
    # per side: by fourier_L for the left side and by fe_gl1_sides for the
    # right, so that the two sides share no transform object
    from fractions import Fraction
    from padicharm import fxspace
    built, inside = {"left": 0, "right": 0}, []
    transform, fourier_L = fxspace.mellin_transform, fxspace.fourier_L

    def counting(f):
        if f.tail.kind == "compact" and f.power_shift == Fraction(2 * n + 1, 2):
            built["left" if inside else "right"] += 1
        return transform(f)

    def left(*args):
        inside.append(True)
        try:
            return fourier_L(*args)
        finally:
            inside.pop()
    monkeypatch.setattr(fxspace, "mellin_transform", counting)
    monkeypatch.setattr(fxspace, "fourier_L", left)
    rep, code = run(["verify", "fe-gl1", "--p", "5", "--level", "1", "--n", str(n)])
    assert code == 0 and len(rep["checks"]) == 12 and built == {"left": 3, "right": 3}


@pytest.mark.parametrize("n", [0, 1])
def test_fe_gl1_expands_each_component_of_v_once(n, monkeypatch):
    # fourier_L's minus-class check is the inversion of V itself: one
    # Laurent series per nonzero component of V, and no other series
    from padicharm import fxspace
    from padicharm.ratfunc import RationalFunctionZ
    expanded, nonzero = [], []
    series, invert = RationalFunctionZ.laurent_coeffs, fxspace.fx_from_mellin

    def counting(self, lo, hi):
        expanded.append(self)
        return series(self, lo, hi)

    def inverting(Z, kind, n):
        nonzero.extend(R for R in Z.comps.values()
                       if not R.is_zero(fxspace.ZERO_COMPONENT_TOL))
        return invert(Z, kind, n)
    monkeypatch.setattr(RationalFunctionZ, "laurent_coeffs", counting)
    monkeypatch.setattr(fxspace, "fx_from_mellin", inverting)
    rep, code = run(["verify", "fe-gl1", "--p", "5", "--level", "1", "--n", str(n)])
    # RationalFunctionZ has no __eq__: the lists compare object by object
    assert code == 0 and nonzero and expanded == nonzero


def counting_series(monkeypatch):
    """From here on, with no eta series or shell held: the calls of laurent_coeffs,
    and (held list, its length before, after) of each growth of an eta series."""
    from padicharm import fxspace
    from padicharm.ratfunc import RationalFunctionZ
    fresh, grown = [], []
    series, extend = RationalFunctionZ.laurent_coeffs, fxspace._laurent_range

    def growing(num, v, den0, held, lo, hi):
        before, out = len(held), extend(num, v, den0, held, lo, hi)
        grown.append((id(held), before, len(held)))
        return out
    monkeypatch.setattr(RationalFunctionZ, "laurent_coeffs",
                        lambda self, lo, hi: fresh.append((lo, hi)) or series(self, lo, hi))
    monkeypatch.setattr(fxspace, "_laurent_range", growing)
    fxspace._eta_series.cache_clear()
    fxspace._eta_values.cache_clear()
    return fresh, grown


def test_eta_table_expands_each_character_once(monkeypatch):
    # one Laurent series per character for the whole table, grown once, equal
    # to the per-shell residues and, through one FFT, to eta_kernel
    from padicharm.abelian import UnitCharacter, beta_factor_inverse_argument
    from padicharm.fxspace import eta_kernel
    from padicharm.padic import unit_group
    from padicharm.ratfunc import RationalFunctionZ
    p, n, level, lo, hi = 3, 1, 2, -9, 6
    series = RationalFunctionZ.laurent_coeffs
    fresh, grown = counting_series(monkeypatch)
    rep, code = run(["eta-table", "--p", str(p), "--n", str(n), "--level", str(level),
                     "--kmin", str(lo), "--kmax", str(hi)])
    assert code == 0 and fresh == [] and len(grown) == len({held for held, _, _ in grown}) == 6
    monkeypatch.undo()
    from padicharm.fxspace import eta_components
    table = eta_components(n, 1, lo, hi, p, level)
    for j in range(6):
        beta_inv = beta_factor_inverse_argument(n, UnitCharacter(p, level, j))
        assert [series(beta_inv, k, k)[0] for k in range(lo, hi + 1)] == [row[j] for row in table]
    cosets = unit_group(p, level)[0]
    rows = rep["payload"]["eta"]
    assert [(r["ord"], r["coset"]) for r in rows] == [(k, u) for k in range(lo, hi + 1)
                                                       for u in cosets]
    for r in rows:
        want = eta_kernel(n, 1, r["ord"], r["coset"], p, level)
        assert abs(complex(r["re"], r["im"]) - want) <= 1e-15 * max(1.0, abs(want)), r


def test_fourier_n0_computes_each_eta_coefficient_once(monkeypatch):
    # the 12 eta series of the table and of the inverse sweep (6 characters,
    # both psi signs) are held once each and grown upward in place, each growth
    # from where the last stopped: no laurent_coeffs regrows one from z^-v
    fresh, grown = counting_series(monkeypatch)
    rep, code = run(["fourier-n0", "--p", "3", "--level", "2"])
    ends = {}
    for held, before, after in grown:
        assert before == ends.setdefault(held, before)
        ends[held] = after
    assert code == 0 and fresh == [] and len(ends) == 12


@pytest.mark.parametrize("argv, golden", [
    (["count-fibers", "--p", "3", "--k", "2", "--m", "1", "--format", "csv"],
     "count_fibers_p3_k2_m1.csv"),
    (["count-fibers", "--p", "3", "--k", "2", "--m", "2", "--format", "csv"],
     "count_fibers_p3_k2_m2.csv"),
    (["count-fibers", "--p", "3", "--k", "2", "--m", "3", "--format", "csv"],
     "count_fibers_p3_k2_m3.csv"),
    (["symplectic-check", "--n", "1", "--seed", "9"], "symplectic_check_n1_seed9.json"),
    # every float of these reports leaves the exact series layer, so a change of
    # float order there shows up byte for byte
    (["verify", "fe-pvs", "--p", "7", "--n", "1", "--k", "4", "--seed", "0"],
     "verify_fe_pvs_p7_n1_k4_seed0.json"),
    (["verify", "fe-pvs", "--p", "11", "--n", "0", "--k", "3", "--seed", "0"],
     "verify_fe_pvs_p11_n0_k3_seed0.json"),
    # the oracle's shells and z-powers and the shared gamma factors, every float
    (["tate-oracle", "--p", "5", "--level", "2", "--conductor", "2"],
     "tate_oracle_p5_level2_cond2.json"),
    (["verify", "fe-gl1", "--p", "5", "--level", "1", "--n", "0", "--seed", "0"],
     "verify_fe_gl1_p5_level1_n0_seed0.json"),
])
def test_exact_reports_match_golden_files(argv, golden, tmp_path):
    out = tmp_path / golden
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


def assert_report_matches(got, want, path="report"):
    """Keys, strings, integers, booleans and None exactly; floats within
    |a - b| <= 1e-12 max(1, |a|), a the golden value."""
    assert type(got) is type(want), f"{path}: {type(got).__name__} != {type(want).__name__}"
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), f"{path}: keys {sorted(got)} != {sorted(want)}"
        for key in want:
            assert_report_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{path}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_report_matches(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), f"{path}: {got} != {want}"
    else:
        assert got == want, f"{path}: {got!r} != {want!r}"


def test_report_comparer_tolerates_only_float_rounding():
    want = {"checks": [{"name": "a", "status": "pass", "max_deviation": 2.0}], "k": 3}
    assert_report_matches({"checks": [{"name": "a", "status": "pass",
                                       "max_deviation": 2.0 + 1e-12}], "k": 3}, want)
    for bad in ({"checks": [{"name": "a", "status": "fail", "max_deviation": 2.0}], "k": 3},
                {"checks": [{"name": "a", "status": "pass", "max_deviation": 2.0}], "k": 3.0},
                {"checks": [{"name": "a", "status": "pass", "max_deviation": 2.0 + 1e-11}],
                 "k": 3},
                {"checks": [], "k": 3},
                {"checks": [{"name": "a", "status": "pass", "max_deviation": 2.0}]}):
        with pytest.raises(AssertionError):
            assert_report_matches(bad, want)


@pytest.mark.parametrize("argv, golden, exit_code", [
    (["gamma", "--p", "5", "--level", "2", "--conductor", "2"],
     "gamma_p5_level2_cond2.json", 0),
    (["beta", "--p", "5", "--n", "1", "--level", "1", "--conductor", "1"],
     "beta_p5_n1_level1_cond1.json", 0),
    (["verify", "fe-gl1", "--p", "5", "--level", "1", "--n", "1", "--seed", "0"],
     "verify_fe_gl1_p5_level1_n1_seed0.json", 0),
    (["verify", "fe-pvs", "--p", "3", "--n", "1", "--k", "2"],
     "verify_fe_pvs_p3_n1_k2.json", 0),
    (["shells", "--p", "5", "--level", "1", "--conductor", "1"],
     "shells_p5_level1_cond1.json", 0),
    (["fourier-n0", "--p", "3", "--level", "1", "--seed", "0"],
     "fourier_n0_p3_level1_seed0.json", 0),
    (["fourier-n0", "--p", "3", "--level", "2", "--seed", "1"],
     "fourier_n0_p3_level2_seed1.json", 0),
])
def test_float_reports_match_golden_files(argv, golden, exit_code, tmp_path):
    code, rep = run_cli(argv, tmp_path)
    assert code == exit_code
    assert_report_matches(rep, json.loads((GOLDEN / golden).read_text()))
