"""CLI surface: exit codes, schemas, config precedence, emitted artifacts."""

import csv
import io
import json
import os
import subprocess
import sys
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
    assert json.loads(out)["exists"] is False


def test_roots_gamma_tilde_above_one(capsys):
    code, out, _ = run(capsys, ["roots", "--which", "gamma-tilde",
                                "--N", "3", "--s", "0.9"])
    doc = json.loads(out)
    assert code == 0 and doc["root"] > 1.0 and abs(doc["residual"]) <= 1e-9


def test_table_csv_four_columns(capsys):
    code, out, _ = run(capsys, ["table", "--N", "3", "--s", "0.5",
                                "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["operator", "p_star", "p_lower_star", "notes"]
    assert all(len(r) == 4 for r in rows)
    assert len(rows) == 7  # header + six operators
    assert rows[1][1] == "1" and rows[1][2] == "1"


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
    assert err == f"error: verify {argv[1]} requires {flags}\n"


@pytest.mark.parametrize("argv,message", [
    (["--abs-tol", "nan", "verify", "power-identity", "--s", "0.5", "--mu", "0.3"],
     "tolerances must be finite and positive"),
    (["--abs-tol", "inf", "verify", "power-identity", "--s", "0.5", "--mu", "0.3"],
     "tolerances must be finite and positive"),
    (["verify", "singular", "--s", "0.5", "--p", "-3", "--N", "0"], "N must be >= 2"),
    (["verify", "avoidance", "--s", "0.5", "--N", "0"], "N must be >= 2"),
    (["verify", "avoidance", "--s", "0.5", "--N", "1"], "N must be >= 2"),
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
    (["--config", "DIR", "constants", "--s", "0.5"], "Is a directory: DIR"),
    (["constants", "--s", "0.5", "--out", "DIR/missing/x.json"],
     "No such file or directory: DIR/missing/x.json"),
    (["verify", "avoidance", "--s", "0.5", "--N", "2", "--report", "DIR/missing/r.json"],
     "No such file or directory: DIR/missing/r.json"),
    (["verify", "avoidance", "--s", "0.5", "--N", "2", "--y-N", "nan"], "y must be finite"),
    (["verify", "avoidance", "--s", "0.5", "--N", "2", "--y-N=-inf"], "y must be finite"),
    (["verify", "t49-2", "--N", "2", "--s", "0.5", "--gamma", "nan"],
     "gamma must be finite and positive"),
    (["verify", "t49-2", "--N", "2", "--s", "0.5", "--gamma", "inf"],
     "gamma must be finite and positive"),
    (["verify", "transform", "--s", "0.5", "--p", "2", "--q", "1"],
     "transform requires q != 1 when p != q"),
], ids=["abs-tol-nan", "abs-tol-inf", "singular-N0", "avoidance-N0", "avoidance-N1",
        "psi-growth-k0", "avoidance-r-negative", "avoidance-r-zero", "avoidance-r-inf",
        "avoidance-r-nan", "report-dir", "out-dir", "config-dir", "out-missing-dir",
        "report-missing-dir", "avoidance-y-nan", "avoidance-y-neg-inf", "t49-2-gamma-nan",
        "t49-2-gamma-inf", "transform-q1"])
def test_bad_input_exit_2(capsys, tmp_path, argv, message):
    # DIR stands for an existing directory: given where a file belongs, or as
    # the parent of a directory that does not exist
    argv = [a.replace("DIR", str(tmp_path)) for a in argv]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == f"error: {message.replace('DIR', str(tmp_path))}\n"
    assert not any(tmp_path.iterdir())  # no temporary file left behind


@pytest.mark.parametrize("gamma", ["-1", "inf", "nan"])
def test_constants_negative_gamma_is_null(capsys, gamma):
    code, out, err = run(capsys, ["constants", "--s", "0.5", "--gamma", gamma])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["c_N_plus"] is None
    assert "c_N_plus: gamma must be finite and positive" in doc["notes"]


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
    "verify-transform": ["verify", "transform", "--p", "2", "--q", "3"],
}


@pytest.mark.parametrize("s", ["nan", "inf", "-inf", "0", "1", "1.5", "-0.5"])
@pytest.mark.parametrize("command", sorted(_S_COMMANDS))
def test_bad_s_exits_2(capsys, command, s):
    code, out, err = run(capsys, _S_COMMANDS[command] + [f"--s={s}"])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


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


def test_config_precedence(tmp_path, monkeypatch):
    cfgfile = tmp_path / "fractrunc.conf"
    cfgfile.write_text("seed = 7\nabs_tol = 1e-8\n")
    cfg = cli.load_config(str(cfgfile))
    assert cfg.seed == 7 and cfg.abs_tol == 1e-8
    monkeypatch.setenv("FRACTRUNC_SEED", "9")
    cfg = cli.load_config(str(cfgfile))
    assert cfg.seed == 9  # env beats file
    cfg = cli.load_config(str(cfgfile), {"seed": 11})
    assert cfg.seed == 11  # flag beats env
    assert cli.load_config().seed == 9  # env still applies without a file


def test_config_rejects_unknown_key(tmp_path):
    bad = tmp_path / "bad.conf"
    bad.write_text("colour = blue\n")
    with pytest.raises(ValueError):
        cli.load_config(str(bad))
    with pytest.raises(ValueError):
        cli.Config(abs_tol=-1.0)


def test_cli_import_leaves_scipy_integrate_out():
    # the quadrature is the package's own, and brentq is imported where a
    # root is refined; scipy.integrate and then scipy.optimize each took
    # most of the CLI's import time
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = ("import sys, fractrunc.cli; "
             "print([m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, check=True)
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
