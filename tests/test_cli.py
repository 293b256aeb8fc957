"""CLI surface: exit codes, schemas, tolerance flags, emitted artifacts."""

import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
import xml.dom.minidom

import pytest

from fractrunc import cli


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_constants_schema(capsys):
    code, out, _ = run(capsys, ["constants", "--s", "0.5", "--N", "3",
                                "--k", "2", "--gamma", "1.0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    for key in ("C_s", "beta", "c_hat", "c_perp", "c_k", "c_iso", "c_N_plus"):
        assert key in doc
    # gamma = 1.0 sits outside the (0,1) domain of two constants: emitted
    # as null with a note rather than a hard failure
    assert doc["c_hat"] is None and doc["c_k"] is None
    assert doc["beta"] == pytest.approx(3.141592653589793)


def test_constants_domain_error_exit_2(capsys):
    code, _, err = run(capsys, ["constants", "--s", "1.5"])
    assert code == 2
    assert "s must lie in (0,1)" in err


def test_roots_noroot_is_answer(capsys):
    code, out, _ = run(capsys, ["roots", "--which", "gamma-bar",
                                "--k", "1", "--s", "0.75"])
    assert code == 0
    doc = json.loads(out)
    assert doc["exists"] is False and doc["params"] == {"k": 1, "s": 0.75}


def test_roots_gamma_tilde_above_one(capsys):
    code, out, _ = run(capsys, ["roots", "--which", "gamma-tilde",
                                "--N", "3", "--s", "0.9"])
    doc = json.loads(out)
    assert code == 0 and doc["root"] > 1.0 and abs(doc["residual"]) <= 1e-9
    assert doc["params"] == {"N": 3, "s": 0.9}  # the flags it read, and no k


@pytest.mark.parametrize("which,N,s", [("gamma-plus", 3, 0.5), ("gamma-tilde", 20, 0.02),
                                       ("gamma-plus", 2, 0.98), ("gamma-bar", 2, 0.5),
                                       ("gamma-bar", 5, 0.5)])
def test_roots_bracket_is_the_verified_cell(capsys, which, N, s):
    # for gamma-bar, N stands for k; its root is the end of the cell with the smaller |c_k|
    size = "--k" if which == "gamma-bar" else "--N"
    code, out, _ = run(capsys, ["roots", "--which", which, size, str(N), "--s", str(s)])
    doc = json.loads(out)
    lo, hi = doc["bracket"]
    assert code == 0 and lo <= doc["root"] <= hi and 0.0 < hi - lo <= 1e-9
    if which == "gamma-bar":
        assert doc["root"] in (lo, hi)
        assert cli.cn.c_k_fn(lo, s, N) * cli.cn.c_k_fn(hi, s, N) < 0.0
    else:
        assert lo < doc["root"] < hi
        constant =cli.cn.c_iso if which == "gamma-tilde" else cli.cn.c_n_plus
        assert constant(lo, s, N) < 0.0 < constant(hi, s, N)


def test_roots_and_tables_past_the_second_walk_grid(capsys):
    # gamma_tilde(200, 0.02) ~ 1567 and gamma_plus(50, 1e-5) ~ 1203 lie past gamma = 1024
    code, out, _ = run(capsys, ["roots", "--which", "gamma-tilde", "--N", "200", "--s", "0.02"])
    assert code == 0 and abs(json.loads(out)["root"] - 1567.2721322) <= 1e-6
    code, out, _ = run(capsys, ["table", "--N", "50", "--s", "1e-5"])
    assert code == 0
    assert json.loads(out)["rows"][49]["p_star_upper"] == pytest.approx(1.0 + 2e-5 / 1202.5412925572118)


def test_constants_report_the_series_errors_they_reach(capsys):
    # c_iso and c_N_plus's correction are series, each with its own bound;
    # constants runs no quadrature and takes no tolerance
    code, out, _ = run(capsys, ["constants", "--s", "0.5", "--N", "3", "--gamma", "0.7"])
    doc = json.loads(out)
    iso, plus = (cli.cn.iso_stack([0.7], 0.5, 3, n_plus)[0] for n_plus in (False, True))
    assert code == 0 and doc["c_iso"] == iso.value and doc["c_N_plus"] == plus.value
    bars = doc["error_estimates"]
    assert bars["closed_form"] == iso.abs_error_estimate < 1e-14
    assert 0.0 < bars["correction"] == plus.abs_error_estimate - 3 * iso.abs_error_estimate < 1e-10
    code, out, _ = run(capsys, ["constants", "--s", "0.5"])
    assert json.loads(out)["error_estimates"] == {"closed_form": None, "correction": None}


def test_table_csv_four_columns(capsys):
    code, out, _ = run(capsys, ["table", "--N", "3", "--s", "0.5",
                                "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["operator", "p_star", "p_lower_star", "notes"]
    assert all(len(r) == 4 for r in rows)
    assert len(rows) == 7  # header + six operators
    assert rows[1][1] == "1" and rows[1][2] == "1"


def test_table_reads_gamma_bar_below_the_first_bracket(capsys):
    # gamma_bar(2, 0.9999) ~ 4.93e-8 lies below 1e-6: I_2^+ reads its bound
    # near 3, not the k = 1 bound 1/(1-s) = 10000
    code, out, _ = run(capsys, ["table", "--N", "2", "--s", "0.9999", "--format", "csv"])
    rows = {row[0]: row for row in csv.reader(io.StringIO(out))}
    assert code == 0 and rows["I_2^+"][1].startswith(">= 2.99")
    assert rows["I_2^+"][3].endswith(" conjectured")


def test_table_where_gamma_plus_meets_gamma_tilde(capsys):
    code, out, _ = run(capsys, ["table", "--N", "6", "--s", "0.05"])
    assert code == 0
    full_minus = [row for row in json.loads(out)["rows"] if row["operator"] == "I_6^-"]
    assert 1.0 < full_minus[0]["p_star_upper"] < 1.01


def test_verify_exit_codes_and_report(tmp_path, capsys):
    report = tmp_path / "r.json"
    code, _, _ = run(capsys, ["verify", "power-identity", "--s", "0.5",
                              "--mu", "0.7", "--report", str(report)])
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["schema"] == 1 and doc["verdict"] == "pass"


def test_verify_singular_small_s_passes(capsys):
    # a valid construction at small s; the kernel constant must not drop terms
    code, out, _ = run(capsys, ["verify", "singular", "--s", "0.05", "--p", "-3"])
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_verify_psi_without_onset_exit_3(capsys):
    code, out, _ = run(capsys, ["verify", "psi", "--kind", "decay", "--k", "2",
                                "--s", "0.06"])
    assert code == 3
    assert json.loads(out)["verdict"] == "inconclusive"


@pytest.mark.parametrize("argv,flags", [
    (["verify", "bump-train", "--s", "0.3"], "--p"),
    (["verify", "transform", "--s", "0.3"], "--p and --q"),
    (["verify", "transform", "--s", "0.3", "--p", "-3"], "--q"),
    (["verify", "singular", "--s", "0.5"], "--p"),
    (["verify", "power-identity", "--s", "0.5"], "--mu"),
])
def test_verify_missing_parameters_exit_2(capsys, argv, flags):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == (f"error: fractrunc verify {argv[1]}: the following arguments are "
                   f"required: {flags.replace(' and ', ', ')}\n")


@pytest.mark.parametrize("argv,message", [
    (["verify", "power-identity", "--s", "0.5", "--mu", "0.3", "--abs-tol", "nan"],
     "tolerances must be finite and positive"),
    (["verify", "power-identity", "--s", "0.5", "--mu", "0.3", "--abs-tol", "inf"],
     "tolerances must be finite and positive"),
    # the constant is formed before the quadrature, whose far rule would
    # refuse mu >= 2s with a message about its exponent instead
    (["verify", "power-identity", "--s", "0.5", "--mu", "1.5"], "mu must lie in (0, 2s)"),
    (["verify", "singular", "--s", "0.5", "--p", "-3", "--N", "0"], "N must be >= 2"),
    (["verify", "avoidance", "--s", "0.5", "--N", "0"], "N must be >= 2"),
    (["verify", "avoidance", "--s", "0.5", "--N", "1"], "N must be >= 2"),
    (["verify", "avoidance", "--s", "0.5", "--N", "-1"], "N must be >= 2"),
    (["verify", "psi", "--kind", "growth", "--k", "0", "--s", "0.75"], "k must be >= 1"),
    (["verify", "avoidance", "--s", "0.5", "--N", "2", "--r", "-1"],
     "r must be finite and positive"),
    (["verify", "avoidance", "--s", "0.5", "--N", "2", "--r", "0"],
     "r must be finite and positive"),
    (["verify", "avoidance", "--s", "0.5", "--N", "2", "--r", "inf"],
     "r must be finite and positive"),
    (["verify", "avoidance", "--s", "0.5", "--N", "2", "--r", "nan"],
     "r must be finite and positive"),
    (["verify", "avoidance", "--s", "0.5", "--N", "2", "--report", "DIR"],
     "Is a directory: DIR"),
    (["constants", "--s", "0.5", "--out", "DIR"], "Is a directory: DIR"),
    (["constants", "--s", "0.5", "--out", "DIR/missing/x.json"],
     "No such file or directory: DIR/missing/x.json"),
    (["verify", "avoidance", "--s", "0.5", "--N", "2", "--report", "DIR/missing/r.json"],
     "No such file or directory: DIR/missing/r.json"),
    (["verify", "avoidance", "--s", "0.5", "--N", "2", "--y-N", "nan"], "y must be finite"),
    (["verify", "avoidance", "--s", "0.5", "--N", "2", "--y-N=-inf"], "y must be finite"),
    # r^2 overflowed in the sphere crossings (a traceback), |y|^2 in a norm (a warning)
    (["verify", "avoidance", "--s", "0.5", "--r", "1e300", "--y-N=-1e301"],
     "r and |y| must be at most 1e+150, or their squares overflow"),
    (["verify", "avoidance", "--s", "0.5", "--r", "0.5", "--y-N=-1e300"],
     "r and |y| must be at most 1e+150, or their squares overflow"),
    (["verify", "t49-2", "--N", "50000", "--s", "0.5"],
     "N = 50000 is too large: the t49-2 suite takes N <= 20000, whose sections fit in memory"),
    (["verify", "t49-2", "--N", "2", "--s", "0.5", "--gamma", "nan"],
     "gamma must be finite and positive"),
    (["verify", "t49-2", "--N", "2", "--s", "0.5", "--gamma", "inf"],
     "gamma must be finite and positive"),
    (["verify", "t49-2", "--N", "2", "--s", "0.5", "--gamma", "1e300"],
     "gamma = 1e+300 is too large: the kernel's peak (1-1/N)^(-gamma/2) exceeds 1e300"),
    (["verify", "transform", "--s", "0.5", "--p", "2", "--q", "1"],
     "transform requires q != 1 when p != q"),
    (["verify", "bump-train", "--s", "0.5", "--p", "inf"], "p must be finite and positive"),
    (["verify", "bump-train", "--s", "0.5", "--p", "nan"], "p must be finite and positive"),
    # a bump narrower than the quadrature's breakpoint resolution read as ~0
    (["verify", "bump-train", "--s", "0.5", "--p", "1.5", "--eps", "1e-20"],
     "eps must lie in [1e-06, 1/2)"),
    # sweep checks N and k as constants does, before it writes a row; the
    # bounds read no N, so their k need only be >= 1
    (["sweep", "--targets", "roots", "--k", "0", "--out-prefix", "DIR/sw"],
     "k must lie in 1..N"),
    (["sweep", "--targets", "roots", "--k", "5", "--N", "3", "--out-prefix", "DIR/sw"],
     "k must lie in 1..N"),
    (["sweep", "--targets", "bounds", "--k", "0", "--out-prefix", "DIR/sw"],
     "k must be >= 1"),
    (["sweep", "--targets", "roots", "--N", "1", "--out-prefix", "DIR/sw"], "N must be >= 2"),
    # no s to sweep: not an empty CSV and SVG
    (["sweep", "--steps", "0", "--out-prefix", "DIR/sw"], "steps must be >= 1"),
    (["sweep", "--steps", "-3", "--out-prefix", "DIR/sw"], "steps must be >= 1"),
], ids=["abs-tol-nan", "abs-tol-inf", "power-identity-mu-above-2s",
        "singular-N0", "avoidance-N0", "avoidance-N1", "avoidance-N-negative",
        "psi-growth-k0", "avoidance-r-negative", "avoidance-r-zero", "avoidance-r-inf",
        "avoidance-r-nan", "report-dir", "out-dir", "out-missing-dir",
        "report-missing-dir", "avoidance-y-nan", "avoidance-y-neg-inf", "avoidance-r-huge",
        "avoidance-y-huge", "t49-2-N-ceiling", "t49-2-gamma-nan",
        "t49-2-gamma-inf", "t49-2-gamma-overflow", "transform-q1", "bump-train-p-inf",
        "bump-train-p-nan", "bump-train-eps-tiny", "sweep-k0", "sweep-k-above-N",
        "sweep-bounds-k0", "sweep-N1",
        "sweep-steps0", "sweep-steps-negative"])
def test_bad_input_exit_2(capsys, tmp_path, argv, message):
    # DIR stands for an existing directory: given where a file belongs, or as
    # the parent of a directory that does not exist
    argv = [a.replace("DIR", str(tmp_path)) for a in argv]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == f"error: {message.replace('DIR', str(tmp_path))}\n"
    assert not any(tmp_path.iterdir())  # no temporary file left behind


def test_large_n_refusal_allocates_nothing_large(capsys):
    # at N = 100,000 t49-2's N sections a point would take ~2 GB (a
    # MemoryError, exit 1, before the ceiling); the refusal comes before any
    # of them, and before its gamma_plus root, which fails there
    tracemalloc.start()
    try:
        for argv in (["verify", "t49-2", "--s", "0.5", "--N", "100000"],
                     ["verify", "t49-2", "--s", "0.5", "--N", "50000"]):
            code, out, err = run(capsys, argv)
            assert code == 2 and out == "" and err.count("\n") == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16_000_000


@pytest.mark.parametrize("gamma", ["-1", "inf", "nan"])
def test_constants_negative_gamma_is_null(capsys, gamma):
    code, out, err = run(capsys, ["constants", "--s", "0.5", "--gamma", gamma])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["c_N_plus"] is None
    assert "c_N_plus: gamma must be finite and positive" in doc["notes"]


def test_constants_overflowing_gamma_is_null(capsys):
    # the c_iso kernel's peak (1-1/N)^(-gamma/2) is past the float range
    code, out, err = run(capsys, ["constants", "--s", "0.5", "--gamma", "5000"])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["c_iso"] is None and doc["c_N_plus"] is None
    assert doc["c_perp"] is not None
    for name in ("c_iso", "c_N_plus"):
        assert (f"{name}: gamma = 5000.0 is too large: the kernel's peak "
                "(1-1/N)^(-gamma/2) exceeds 1e300") in doc["notes"]


# every subcommand that takes --s, with valid values for its other required flags
_S_COMMANDS = {
    "constants": ["constants"],
    "roots-gamma-bar": ["roots", "--which", "gamma-bar"],
    "roots-gamma-tilde": ["roots", "--which", "gamma-tilde", "--N", "2"],
    "roots-gamma-plus": ["roots", "--which", "gamma-plus", "--N", "2"],
    "table": ["table", "--N", "2"],
    "verify-power-identity": ["verify", "power-identity", "--mu", "0.3"],
    "verify-bump-train": ["verify", "bump-train", "--p", "2"],
    "verify-t49-2": ["verify", "t49-2", "--N", "2"],
    "verify-psi": ["verify", "psi"],
    "verify-singular": ["verify", "singular", "--p", "-3"],
    "verify-avoidance": ["verify", "avoidance", "--N", "2"],
    "verify-transform": ["verify", "transform", "--p", "-3", "--q", "-4"],
}


@pytest.mark.parametrize("s", ["nan", "inf", "-inf", "0", "1", "1.5", "-0.5"])
@pytest.mark.parametrize("command", sorted(_S_COMMANDS))
def test_bad_s_exits_2(capsys, command, s):
    code, out, err = run(capsys, _S_COMMANDS[command] + [f"--s={s}"])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


# Every entry point refuses s below the one floor 1e-5: just below it, where
# 1 + 2s rounds to 1 (1e-17) and where Gamma(-s) overflows (1e-310).  Each
# exits 2 and names the floor.
@pytest.mark.parametrize("s", ["1e-17", "1e-310", "9e-06"])
@pytest.mark.parametrize("command", sorted(_S_COMMANDS))
def test_s_below_floor_exits_2(capsys, command, s):
    code, out, err = run(capsys, _S_COMMANDS[command] + [f"--s={s}"])
    assert code == 2 and out == ""
    assert err == f"error: s = {float(s):g} lies below 1e-05, the smallest s fractrunc resolves\n"


def test_s_at_floor_resolves(capsys):
    code, out, _ = run(capsys, ["roots", "--which", "gamma-tilde", "--N", "3", "--s", "1e-05"])
    assert code == 0 and json.loads(out)["exists"] is True


def test_verify_no_root_exit_2(capsys):
    code, out, err = run(capsys, ["verify", "psi", "--kind", "decay",
                                  "--k", "1", "--s", "0.75"])
    assert code == 2 and out == ""
    assert err.startswith("error: no bounded exponent root") and err.count("\n") == 1


def test_verify_bracket_failure_exit_2(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise cli.cn.BracketFailure("no sign change found up to gamma = 1e3")

    monkeypatch.setattr(cli.vf, "verify_T49_2", fail)
    code, out, err = run(capsys, ["verify", "t49-2", "--N", "3", "--s", "0.5"])
    assert code == 2 and out == ""
    assert err == "error: no sign change found up to gamma = 1e3\n"


def test_sweep_emits_csv_and_svg(tmp_path, capsys):
    prefix = str(tmp_path / "sw")
    code, out, _ = run(capsys, ["sweep", "--targets", "roots", "--N", "3",
                                "--k", "2", "--steps", "5",
                                "--s-min", "0.2", "--s-max", "0.8",
                                "--out-prefix", prefix])
    assert code == 0
    rows = list(csv.reader(open(prefix + ".csv", newline="")))
    assert rows[0] == ["s", "gamma_bar", "gamma_tilde", "gamma_plus", "status"]
    # gamma_tilde decreases in s on this grid
    tildes = [float(r[2]) for r in rows[1:]]
    assert tildes == sorted(tildes, reverse=True)
    xml.dom.minidom.parse(prefix + ".svg")  # well-formed XML


def test_sweep_records_domain_errors(tmp_path, capsys):
    # gamma = 1.5 lies outside the (0,1) domain of c_hat and c_k; the status
    # names every target that failed
    prefix = str(tmp_path / "sw")
    code, _, _ = run(capsys, ["sweep", "--targets", "bounds", "--gamma", "1.5",
                              "--steps", "3", "--out-prefix", prefix])
    assert code == 0
    rows = list(csv.reader(open(prefix + ".csv", newline="")))
    assert [r[-1] for r in rows[1:]] == ["error:c_hat:DomainError;c_k:DomainError"] * 3
    assert all(r[1] == "" and r[2] != "" and r[3] == "" for r in rows[1:])


def test_sweep_propagates_bugs(tmp_path, capsys, monkeypatch):
    def broken(gamma, s):
        return 1.0 / 0.0

    monkeypatch.setattr(cli.cn, "c_perp", broken)
    with pytest.raises(ZeroDivisionError):
        cli.main(["sweep", "--targets", "bounds", "--gamma", "0.5", "--steps", "2",
                  "--out-prefix", str(tmp_path / "sw")])


def test_tolerance_environment_is_not_read(capsys, monkeypatch):
    # a tolerance comes from its two flags or their defaults, never the environment
    argvs = (["verify", "t49-2", "--N", "2", "--s", "0.5"], ["table", "--N", "2", "--s", "0.5"],
             ["verify", "psi", "--kind", "halfint", "--s", "0.5"])
    plain = [run(capsys, argv) for argv in argvs]
    monkeypatch.setenv("FRACTRUNC_ABS_TOL", "-1")
    monkeypatch.setenv("FRACTRUNC_REL_TOL", "x")
    for argv, before in zip(argvs, plain):
        assert before[0] == 0 and before[2] == "" and json.loads(before[1])
        assert run(capsys, argv) == before


# no verify parser takes a config file, and avoidance, which integrates
# nothing, takes no tolerance flag
@pytest.mark.parametrize("argv", [
    _S_COMMANDS[c] + ["--s", "0.5", "--config", "F"] for c in sorted(_S_COMMANDS)
    if c.startswith("verify-")] + [
    ["verify", "avoidance", "--s", "0.5", "--abs-tol", "1e-9"],
    ["verify", "avoidance", "--s", "0.5", "--rel-tol", "1e-9"],
], ids=lambda argv: argv[1] + argv[-2])
def test_verify_refuses_tolerance_sources_it_does_not_read(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == f"error: fractrunc: unrecognized arguments: {' '.join(argv[-2:])}\n"


# first every parser given a flag it does not read, then other parse errors
@pytest.mark.parametrize("argv", [
    ["verify", "psi", "--s", "0.4", "--N", "3"],
    ["verify", "psi", "--s", "0.4", "--abs-tol", "1e-12"],
    ["verify", "power-identity", "--s", "0.5", "--mu", "0.3", "--N", "3"],
    ["verify", "transform", "--s", "0.5", "--p", "-3", "--q", "-4", "--seed", "3"],
    ["constants", "--s", "0.5", "--abs-tol", "1e-3"],
    ["table", "--N", "2", "--s", "0.5", "--config", "F"],
    ["roots", "--which", "gamma-bar", "--s", "0.3", "--rel-tol", "1e-3"],
    ["sweep", "--steps", "1", "--abs-tol", "1e-3"],
    # a target given a flag it does not read
    ["roots", "--which", "gamma-tilde", "--N", "3", "--k", "7", "--s", "0.5"],
    ["roots", "--which", "gamma-plus", "--N", "3", "--k", "2", "--s", "0.5"],
    ["roots", "--which", "gamma-bar", "--N", "999", "--k", "2", "--s", "0.3"],
    ["sweep", "--targets", "roots", "--gamma", "0.3", "--steps", "1", "--out-prefix", "DIR/sw"],
    ["sweep", "--targets", "bounds", "--N", "3", "--steps", "1", "--out-prefix", "DIR/sw"],
    ["--seed", "3", "table", "--N", "2", "--s", "0.5"],
    ["table", "--seed", "3", "--N", "2", "--s", "0.5"],
    ["--abs-tol", "1e-3", "verify", "power-identity", "--s", "0.5", "--mu", "0.3"],
    # argparse reads -1e400 as a flag, not as --p's value
    ["verify", "singular", "--s", "0.5", "--p", "-1e400"],
    ["verify", "bump-train", "--s", "0.5", "--p", "1.5", "--eps", "x"],
    ["verify"],
    [],
])
def test_parse_errors_exit_2_in_one_line(capsys, tmp_path, argv):
    # DIR stands for an existing directory, where nothing may be written
    code, out, err = run(capsys, [a.replace("DIR", str(tmp_path)) for a in argv])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [[], ["constants"], ["roots"], ["table"], ["sweep"], ["verify"]]
                         + [["verify", c] for c in ("power-identity", "bump-train", "t49-2",
                                                    "psi", "singular", "avoidance", "transform")])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv + ["--help"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage: fractrunc")


# Run with every scipy import refused: the subcommands, a frame search on a
# min field (its crossings are root-refined) and one on a radial profile (it
# reads a spline table), then no scipy module may have been loaded.
_WITHOUT_SCIPY = """
import contextlib, io, sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is refused")

sys.meta_path.insert(0, RefuseScipy())

import numpy as np
from fractrunc import cli
from fractrunc import operators as op
from fractrunc import profiles as pr
from fractrunc.quad import Tolerance

for argv in (["constants", "--s", "0.5"],
             ["roots", "--which", "gamma-plus", "--N", "3", "--s", "0.5"],
             ["table", "--N", "3", "--s", "0.5"],
             ["verify", "t49-2", "--N", "2", "--s", "0.5"],
             ["verify", "avoidance", "--s", "0.5", "--N", "2"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    assert code == 0, (argv, code)
loose = Tolerance(1e-7, 1e-6)
thin, _ = pr.build_thIN_supersolution(2, 0.45, 4.0)
op.extremal_search(thin, np.array([0.2, 1.2]), 0.45, 1, "plus", budget=1, sweeps=1, tol=loose)
op.extremal_search(pr.make_w_gamma(0.5), np.array([0.3, 1.2, 0.8]), 0.4, 2, "plus",
                   budget=1, sweeps=1, tol=loose)
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""


def test_runtime_needs_no_scipy():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": path})
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_write_atomic(tmp_path):
    target = tmp_path / "out.json"
    cli.write_atomic(str(target), "hello")
    assert target.read_text() == "hello"
    assert not any(p.name.startswith(".fractrunc-")
                   for p in tmp_path.iterdir())


def test_svg_renderer_handles_empty_series():
    svg = cli.render_svg("t", "x", "y", {"a": []})
    xml.dom.minidom.parseString(svg)
