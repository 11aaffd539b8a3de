"""Command-line behavior: output shapes, trailers, exit codes, determinism."""

import functools
import glob
import hashlib
import io
import os
import random
import re
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from flagcert import graphs
from flagcert.cli import main
from flagcert.graphs import emit_paircode, to_graph6, turan

K221_CODE = "2 2 2 1 1 2 2 2 2 2"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _bundled_text(name):
    return (resources.files("flagcert") / "certs" / name).read_text()


# ---------------------------------------------------------------------------
# enumerate / density


def test_enumerate_order_three(capsys):
    code, out, _ = run(capsys, "enumerate", "--order", "3")
    lines = out.splitlines()
    assert code == 0
    assert len(lines) == 5 and lines[-1] == "count=4"
    assert "1 1 1" in lines and "2 2 2" in lines


def test_enumerate_graph6(capsys):
    code, out, _ = run(capsys, "enumerate", "--order", "5", "--graph6")
    lines = out.splitlines()
    assert code == 0 and lines[-1] == "count=34"
    # order-5 graph6: one order byte, two data bytes
    assert all(len(l) == 3 and l[0] == "D" for l in lines[:-1])


def test_enumerate_order7_graph6_is_frozen(capsys):
    # digest of the listing before orderly generation replaced the
    # canonical-form search: same classes, same representatives, same order
    code, out, _ = run(capsys, "enumerate", "--order", "7", "--graph6")
    assert code == 0 and out.endswith("count=1044\n")
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "8afff0d97c1853e18211796b0f6a6e0001ae72261b9349f5a3388c08325edff9"
    )


def test_enumerate_order8_graph6_is_frozen(capsys):
    # one graph6 line per class, recorded before the bitset canonicity test
    # and the column bound replaced the sorted-column search
    code, out, _ = run(capsys, "enumerate", "--order", "8", "--graph6")
    classes, _, trailer = out.rpartition("count=")
    assert code == 0 and trailer == "12346\n"
    assert classes.count("\n") == 12346
    assert (
        hashlib.sha256(classes.encode()).hexdigest()
        == "e1aed63b07ff72557885ee1244044d6ad30ba1b182f74cc7bcb7a02da8d34867"
    )


def test_enumerate_order9_is_frozen(capsys):
    # digest of the whole stdout, recorded before one walk of each parent's
    # tie tree replaced a canonicity test per candidate column
    graphs._enumerate.cache_clear()
    code, out, _ = run(capsys, "enumerate", "--order", "9")
    # the command prints order 9 as it is listed: only the parents, orders
    # 1..8, stay cached
    assert graphs._enumerate.cache_info().currsize == 8
    assert code == 0 and out.endswith("\ncount=274668\n")
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "ffa04b93e33829315c67ff421f09a3c33b6a9070ef1c8ace46f648894169b5a7"
    )


def test_enumerate_rejects_large_order(capsys):
    for order in ("0", "10"):
        code, out, err = run(capsys, "enumerate", "--order", order)
        assert (code, out, err) == (2, "", f"error: order {order} outside 1..9\n")


def test_density_edge_in_turan(capsys):
    code, out, _ = run(
        capsys, "density", "--h", "2", "--g", emit_paircode(turan(3, 6))
    )
    assert code == 0
    assert "count=12" in out
    assert "density=4/5" in out
    assert "density_approx=0.800000000" in out


def test_density_graph6_host(capsys):
    code, out, _ = run(
        capsys, "density", "--h", K221_CODE, "--g", to_graph6(turan(3, 6))
    )
    assert code == 0 and "count=6" in out and "density=1" in out


def test_density_pattern_larger_than_host(capsys):
    code, _, err = run(capsys, "density", "--h", K221_CODE, "--g", "2")
    assert code == 2 and "error:" in err


# ---------------------------------------------------------------------------
# verify


def test_verify_lemma074(capsys):
    code, out, _ = run(capsys, "verify", "--cert", "lemma074.cert")
    assert code == 0
    assert "verdict=PASS" in out
    assert "at most 44.947" in out
    assert "max_coefficient=13167847077677/292968750000" in out
    assert "zero_set_size=" in out


def test_verify_parametric_default_base(capsys):
    code, out, _ = run(capsys, "verify", "--cert", "appendixA.cert")
    assert code == 0
    assert "verdict=PASS" in out and "k0=5" in out
    assert "zero_set_size=8" in out


def test_verify_parametric_low_base_fails(capsys):
    code, out, _ = run(
        capsys, "verify", "--cert", "appendixA.cert", "--k0", "4"
    )
    assert code == 1
    assert "verdict=FAIL" in out
    assert "63*k^6" in out


def test_verify_pole_wording_is_shared(capsys):
    # at k0 = 1 the denominators k - 1 vanish on the ray: multipliers and
    # matrix blocks name the pole and the ray in one wording
    code, out, _ = run(capsys, "verify", "--cert", "appendixA.cert", "--k0", "1")
    assert code == 1 and "verdict=FAIL" in out
    poles = [line for line in out.splitlines() if "pole" in line]
    assert poles == [
        "FAIL: linear term 0, multiplier of 2 2 1: RF((5*k^4 - 15*k^3 - 25*k^2"
        " + 60*k - 20) / (k - 1)) has a pole on [1, oo)",
        "FAIL: linear term 0, multiplier of 1 1 2: RF((10*k^5 - 35*k^4 - 45*k^3"
        " + 125*k^2 - 105*k + 70) / (k^2 - 2*k + 1)) has a pole on [1, oo)",
        "FAIL: square term 0 multiplier: RF((15*k - 30) / (k - 1)) has a pole on [1, oo)",
        "FAIL: square term 1: matrix entry has a pole on [1, oo)",
    ]
    assert "changes sign or vanishes" not in out


def test_verify_against_goldens(capsys):
    code, out, _ = run(
        capsys, "verify", "--cert", "lemma074.cert", "--golden", "appendixB.golden"
    )
    assert code == 0 and "golden_mismatches=0" in out

    code, out, _ = run(
        capsys, "verify", "--cert", "appendixA.cert", "--golden", "appendixC.golden"
    )
    assert code == 0 and "golden_mismatches=0" in out


def test_verify_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(_bundled_text("k3.cert")))
    code, out, _ = run(capsys, "verify", "--cert", "-")
    assert code == 0 and "verdict=PASS" in out


def test_verify_rejects_double_stdin(capsys):
    code, _, err = run(capsys, "verify", "--cert", "-", "--golden", "-")
    assert code == 2 and "standard input" in err


def test_verify_k0_on_numeric_certificate(capsys):
    assert run(capsys, "verify", "--cert", "k3.cert", "--k0", "5") == (
        2, "", "error: k0 only applies to parametric kind\n"
    )


def test_verify_missing_file(capsys):
    code, _, err = run(capsys, "verify", "--cert", "no-such.cert")
    assert code == 2 and "not a bundled name" in err


HEADER = (
    "format: flagcert 1\nname: {name}\nkind: {kind}\nexpansion-order: 5\n"
    "target: 2 2 2 1 1 2 2 2 2 2\ntarget-coefficient: {target}\n"
    "scale: {scale}\nbound: {bound}\n"
)


@pytest.mark.parametrize(
    "text, fail",
    [
        (
            HEADER.format(name="t", kind="numeric", target=-1, scale=1, bound=0),
            "target-coefficient -1 is not positive",
        ),
        (
            HEADER.format(name="s", kind="numeric", target=1, scale=-1, bound=0),
            "scale -1 is not positive",
        ),
        (
            HEADER.format(
                name="p", kind="parametric", target="[1]", scale="[-1]", bound="[0]"
            )
            + "k0: 5\n",
            "scale -1 is not positive on [5, oo)",
        ),
    ],
)
def test_nonpositive_scale_or_target_coefficient_is_refuted(
    capsys, monkeypatch, text, fail
):
    # no terms and bound 0: every coefficient check passes, so the
    # positivity of the scaling alone decides the verdict
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, _ = run(capsys, "verify", "--cert", "-")
    assert code == 1 and "verdict=FAIL" in out
    assert [l for l in out.splitlines() if l.startswith("FAIL:")] == [f"FAIL: {fail}"]


def test_scaling_positivity_lines_in_appendixA_below_the_ray(capsys):
    _, out, _ = run(capsys, "verify", "--cert", "appendixA.cert", "--k0", "0")
    fails = [l for l in out.splitlines() if l.startswith("FAIL:")]
    assert fails[:2] == [
        "FAIL: target-coefficient k^4 is not positive on [0, oo)",
        "FAIL: scale 4*k^2 - 8*k + 4 is not positive on [0, oo)",
    ]
    _, out, _ = run(capsys, "verify", "--cert", "appendixA.cert", "--k0", "1")
    assert "FAIL: scale 4*k^2 - 8*k + 4 is not positive on [1, oo)" in out
    assert "target-coefficient" not in out


SRC = Path(__file__).resolve().parent.parent / "src"


def _cli(python, argv, stdin=None):
    """``python -m flagcert.cli ARGV`` on this tree's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [python, "-m", "flagcert.cli", *argv],
        input=stdin, capture_output=True, text=True, env=env, timeout=300,
    )


def _assert_one_error_line(proc, message):
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:") and message in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize(
    "cert, golden, stdin, message",
    [
        ("k4.cert", "-", "golden: x\n1/2\n", "golden line 2"),
        ("k4.cert", "-", "golden: x\nzero\n", "golden line 2"),
        ("k4.cert", "-", "golden: x\n# rows\n[1,2] | 2 2 2\n", "golden line 3"),
        ("k4.cert", "-", "golden: x\n1/0 | 2 2 2\n", "golden line 2"),
        ("k4.cert", "-", "golden: k4\n1/0 | 2 2 2\n", "golden line 2: division by zero"),
        (
            "appendixA.cert", "-", "golden: appendixA\n[1,1/0] | 2 2 2 | 5\n",
            "golden line 2: division by zero in '1/0'",
        ),
        ("k4.cert", "appendixC.golden", None, "coefficient rows"),
        ("k4.cert", "profile_curve.golden", None, "coefficient rows"),
        ("appendixA.cert", "appendixB.golden", None, "polynomial rows"),
        ("appendixA.cert", "profile_curve.golden", None, "polynomial rows"),
        ("k3.cert", "appendixB.golden", None, "not the table of certificate 'k3'"),
        ("k4.cert", "appendixB.golden", None, "not the table of certificate 'k4'"),
        ("k4.cert", "-", "golden: k4\n1/2 | 2 2 2\n", "graphs have order 5"),
    ],
)
def test_malformed_or_mismatched_golden_exits_two(cert, golden, stdin, message):
    proc = _cli(sys.executable, ["verify", "--cert", cert, "--golden", golden], stdin)
    _assert_one_error_line(proc, message)


@pytest.mark.parametrize(
    "argv, stdin, message",
    [
        # standard input is document text, never a bundled name
        (
            ("--cert", "-"), "k3.cert",
            "certificate line 1: a certificate starts with 'format: flagcert 1'",
        ),
        (
            ("--cert", "appendixA.cert", "--golden", "-"), "appendixC.golden",
            "golden line 1: golden files start with a 'golden:' label",
        ),
        # a name with a directory part is a path, not a bundled file
        (
            ("--cert", "/nonexistent/dir/k3.cert"), None,
            "/nonexistent/dir/k3.cert: not a file and not a bundled name",
        ),
        (
            ("--cert", "k4.cert", "--golden", "/nonexistent/dir/appendixB.golden"), None,
            "not a file and not a bundled name",
        ),
        (
            ("--cert", "-"), _bundled_text("k4.cert").replace("strict: no", "strict: no\nk0: 3"),
            "certificate line 13: k0 only applies to parametric kind",
        ),
    ],
)
def test_verify_input_comes_from_where_it_says(argv, stdin, message):
    _assert_one_error_line(_cli(sys.executable, ["verify", *argv], stdin), message)


# Every supported interpreter must print the same bytes: the listing and
# the oracle's pass 2 keep sets of columns as integers of up to 2**8 bits,
# and the verifies, the scan and the profile print exact rationals.
INTERPRETER_COMMANDS = [
    ("enumerate", "--order", "8", "--graph6"),
    ("oracle", "--h", K221_CODE, "--n", "8"),
    ("verify", "--cert", "k3.cert"),
    ("verify", "--cert", "k4.cert"),
    ("verify", "--cert", "lemma074.cert", "--golden", "appendixB.golden"),
    ("verify", "--cert", "appendixA.cert", "--golden", "appendixC.golden"),
    ("scan", "--k", "3,7/2,4,5,10", "--nmax", "60"),
    ("profile", "--from", "0", "--to", "1", "--step", "1/300"),
]


def _cli_stdout(python, argv):
    proc = _cli(python, argv)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@functools.cache
def _running_interpreter_stdout(argv):
    return _cli_stdout(sys.executable, argv)


def _starts(path):
    return subprocess.run([path, "-c", ""], capture_output=True, timeout=60).returncode == 0


def _interpreter(name):
    """A ``name`` that starts: from PATH, else installed under pyenv.

    A pyenv shim on PATH fails unless a version is selected, so the
    versions installed under ``pyenv root`` are tried too.
    """
    candidates = [shutil.which(name)]
    pyenv = shutil.which("pyenv")
    if pyenv:
        root = subprocess.run(
            [pyenv, "root"], capture_output=True, text=True, timeout=60
        ).stdout.strip()
        pattern = os.path.join(root, "versions", name[len("python"):] + ".*", "bin", name)
        candidates += sorted(glob.glob(pattern))
    return next((p for p in candidates if p and _starts(p)), None)


@pytest.mark.parametrize("name", ["python3.10", "python3.12", "python3.13"])
def test_interpreters_print_the_same_bytes(name):
    path = _interpreter(name)
    if path is None:
        pytest.skip(f"{name} is not installed")
    for argv in INTERPRETER_COMMANDS:
        assert _cli_stdout(path, argv) == _running_interpreter_stdout(argv), argv


# ---------------------------------------------------------------------------
# profile


def test_profile_stdout_csv(capsys):
    code, out, _ = run(
        capsys, "profile", "--from", "0", "--to", "1", "--step", "0.005"
    )
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "e,value"
    assert len(lines) == 1 + 202  # grid plus the inserted 2/3 breakpoint
    assert "0.666667,0.370370" in lines
    assert "0.750000,0.351562" in lines


def test_profile_out_file(capsys, tmp_path):
    target = tmp_path / "curve.csv"
    code, out, _ = run(
        capsys,
        "profile",
        "--from", "0", "--to", "1", "--step", "0.005",
        "--out", str(target),
    )
    assert code == 0
    assert "points=202" in out
    text = target.read_text()
    assert text.startswith("e,value\n") and "0.666667,0.370370\n" in text


# profile arguments (from, to, step) refused as bad input, with the message
PROFILE_BAD_INPUTS = [
    (("0", "1", "0"), "step must be positive"),
    (("1", "0", "1/10"), "empty range: from 1 is above to 0"),
]


def test_profile_bad_step(capsys):
    for (e_from, e_to, step), message in PROFILE_BAD_INPUTS:
        code, out, err = run(capsys, "profile", "--from", e_from, "--to", e_to, "--step", step)
        assert (code, out, err) == (2, "", f"error: {message}\n")


# ---------------------------------------------------------------------------
# oracle


def test_oracle_single_edge_count(capsys):
    code, out, _ = run(
        capsys, "oracle", "--h", K221_CODE, "--n", "5", "--edges", "8"
    )
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "n,edges,max_count,density,maximizers"
    assert lines[1].startswith("5,8,1,1,")
    assert "max_count=1" in out and "density=1" in out


def test_oracle_full_table(capsys):
    code, out, _ = run(capsys, "oracle", "--h", K221_CODE, "--n", "5")
    lines = out.splitlines()
    assert code == 0
    assert len(lines) == 1 + 11 + 2  # header, edge counts 0..10, trailers
    assert "max_count=1" in out


@pytest.mark.parametrize(
    "extra, digest",
    [
        (("--n", "8"), "442a25011943533adf29bcdf2b76ec41ca9fec37fbcb86b396b7567df63ec887"),
        (
            ("--n", "8", "--edges", "21"),
            "1b62187c8ea0f9fe8a632d619d8bb42ff7f075fb5e9a6391f6b7a8baeeff3605",
        ),
        (("--n", "9"), "33727a7928455e77af70fd0870fc0d69d9d32c99952e1bed86341a7787a761c7"),
    ],
    ids=["n8", "n8-edges21", "n9"],
)
def test_oracle_stdout_is_frozen(capsys, extra, digest):
    # digests of the whole stdout when every order-n class was listed and
    # counted; the maximum by parent extension must print the same bytes
    code, out, _ = run(capsys, "oracle", "--h", K221_CODE, *extra)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_oracle_order_guard(capsys):
    code, _, err = run(capsys, "oracle", "--h", K221_CODE, "--n", "10")
    assert code == 2 and "error:" in err


# ---------------------------------------------------------------------------
# scan


def test_scan_passes(capsys):
    code, out, _ = run(capsys, "scan", "--k", "3,7/2", "--nmax", "10")
    assert code == 0
    assert "verdict=PASS" in out
    assert "violations=0" in out
    assert "triples_checked=" in out and "tight_points=" in out


def test_scan_rejects_small_k(capsys):
    code, _, err = run(capsys, "scan", "--k", "2", "--nmax", "10")
    assert code == 2 and "error:" in err


def test_scan_rejects_garbage_k(capsys):
    code, _, err = run(capsys, "scan", "--k", "3,owl", "--nmax", "10")
    assert code == 2 and "comma-separated" in err


def _drop_lines(text, prefix):
    return "\n".join(l for l in text.splitlines() if not l.startswith(prefix))


# the line each error names: a bad value names its key's line, a missing
# block key the block's begin line, and a missing header key no line
ERROR_LINE = {
    "strict": 12, "vector": 15, "factor": 15, "labels": 22, "flags": 22,
    "multiplier": 22, "type": 22, "row": 22, "psd-condition-factor": 41,
    "scale": None,
}


@pytest.mark.parametrize(
    "name, edit, key",
    [
        ("k4.cert", lambda t: t.replace("strict: no", "strict: maybe"), "strict"),
        ("k4.cert", lambda t: _drop_lines(t, "vector:"), "vector"),
        ("k4.cert", lambda t: _drop_lines(t, "factor:"), "factor"),
        ("k4.cert", lambda t: _drop_lines(t, "labels:"), "labels"),
        ("k4.cert", lambda t: _drop_lines(t, "flags:"), "flags"),
        ("k4.cert", lambda t: _drop_lines(t, "multiplier:"), "multiplier"),
        ("k4.cert", lambda t: _drop_lines(t, "type:"), "type"),
        ("k4.cert", lambda t: _drop_lines(t, "row:"), "row"),
        (
            "appendixA.cert",
            lambda t: _drop_lines(t, "psd-condition-factor:"),
            "psd-condition-factor",
        ),
        ("k4.cert", lambda t: _drop_lines(t, "scale:"), "scale"),
    ],
)
def test_malformed_certificate_exits_two(capsys, monkeypatch, name, edit, key):
    monkeypatch.setattr(sys, "stdin", io.StringIO(edit(_bundled_text(name))))
    code, out, err = run(capsys, "verify", "--cert", "-")
    assert code == 2 and out == ""
    assert err.startswith("error:") and repr(key) in err
    line = ERROR_LINE[key]
    if line is None:
        assert "certificate line" not in err
    else:
        assert err.startswith(f"error: certificate line {line}: ")


@pytest.mark.parametrize(
    "edit, message",
    [
        (
            lambda t: t.replace("format: flagcert 1", "format: nonsense 7"),
            "certificate line 4: format 'nonsense 7' is not 'flagcert 1'",
        ),
        (
            lambda t: _drop_lines(t, "format:"),
            "certificate line 4: a certificate starts with 'format: flagcert 1'",
        ),
        (
            lambda t: t.replace("row: 91 ; 12 ; -115", "row: 91 ; 1/0 ; -115"),
            "certificate line 27: division by zero in '1/0'",
        ),
        (
            lambda t: t.replace(
                "row: -115 ; -94 ; 303\n",
                "row: -115 ; -94 ; 303\npsd-condition-factor: garbage\n",
            ),
            "certificate line 30: psd-condition-factor without psd-condition",
        ),
        (
            # an exact multiplier too large for the report's float approximations
            lambda t: t.replace("multiplier: 15/256", "multiplier: 1e400"),
            "integer division result too large for a float",
        ),
    ],
)
def test_bad_format_or_zero_denominator_exits_two(capsys, monkeypatch, edit, message):
    # line numbers are those of k4.cert, whose format line is line 4
    monkeypatch.setattr(sys, "stdin", io.StringIO(edit(_bundled_text("k4.cert"))))
    assert run(capsys, "verify", "--cert", "-") == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("profile", "--from", "0", "--to", "1", "--step", "1/0"),
        ("verify", "--cert", "appendixA.cert", "--k0", "1/0"),
    ],
)
def test_zero_denominator_argument_exits_two(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects a bad --step itself
        code = exc.code
    _, err = capsys.readouterr()
    assert code == 2 and "Traceback" not in err
    assert "'1/0'" in err and "Fraction(1, 0)" not in err


def _huge_literal_run(argv, stdin=None):
    """Run the CLI in a fresh process that must finish within a few seconds."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-m", "flagcert.cli", *argv],
        input=stdin, capture_output=True, text=True, env=env, timeout=20,
    )


@pytest.mark.parametrize(
    "name, old, new, message",
    [
        (
            "k4.cert", "multiplier: 15/256", "multiplier: 1e999999999",
            "certificate line 25: literal '1e999999999' has more than 4300 digits",
        ),
        (
            "k4.cert", "multiplier: 15/256", "multiplier: 1e-99999999",
            "certificate line 25: literal '1e-99999999' has more than 4300 digits",
        ),
        (
            "appendixA.cert", "k0: 5", "k0: 1e9999",
            "certificate line 20: literal '1e9999' has more than 4300 digits",
        ),
        (
            "appendixA.cert", "multiplier: 1\n", "multiplier: [1e999999999]\n",
            "certificate line 44: literal '1e999999999' has more than 4300 digits",
        ),
    ],
)
def test_huge_certificate_literal_exits_two_at_its_line(name, old, new, message):
    text = _bundled_text(name)
    assert old in text
    proc = _huge_literal_run(["verify", "--cert", "-"], text.replace(old, new))
    _assert_one_error_line(proc, message)


def test_huge_golden_literal_exits_two_at_its_line():
    proc = _huge_literal_run(
        ["verify", "--cert", "k4.cert", "--golden", "-"], "golden: k4\n1e999999999 | 2 2 2\n"
    )
    _assert_one_error_line(proc, "golden line 2: literal '1e999999999' has more than")


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--cert", "appendixA.cert", "--k0", "1e999999999"),
        ("scan", "--k", "3,1e999999999", "--nmax", "10"),
        ("profile", "--from", "1e-99999999", "--to", "1", "--step", "1/10"),
        ("profile", "--from", "0", "--to", "1e999999999", "--step", "1/10"),
        ("profile", "--from", "0", "--to", "1", "--step", "1e-99999999"),
    ],
)
def test_huge_argument_literal_exits_two(argv):
    proc = _huge_literal_run(argv)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr and "1e" in proc.stderr


@pytest.mark.parametrize(
    "name, old, new, message",
    [
        (
            "k4.cert", "multiplier: 15/256", "multiplier: 9e4299",
            "square term 0: an expansion coefficient has more than 4300 digits",
        ),
        (
            "k4.cert", "vector: 95/64", "vector: 9e4299",
            "linear term 0: an expansion coefficient has more than 4300 digits",
        ),
        (
            "k4.cert", "target-coefficient: 1", "target-coefficient: 9e4299",
            "scaled coefficient at 1 2 2 2 2 2 2 1 2 2 has more than 4300 digits",
        ),
        (
            "appendixA.cert", "multiplier: 1\n", "multiplier: [9e4299]\n",
            "square term 1: an expansion coefficient has more than 4300 digits",
        ),
    ],
)
def test_coefficient_too_long_to_print_exits_two_naming_its_term(name, old, new, message):
    # each literal is inside the digit limit, but a product of literals is
    # not, and the report could not print it
    text = _bundled_text(name)
    assert old in text
    proc = _huge_literal_run(["verify", "--cert", "-"], text.replace(old, new, 1))
    _assert_one_error_line(proc, message)


def test_psd_condition_on_1x1_matrix_fails_cleanly(capsys, monkeypatch):
    block = (
        "begin square\nlabels: 3\ntype: 1 1 1\nmultiplier: 1\n"
        "flags: 1 1 2 1 2 2\nrow: 1\npsd-condition: [1]\n"
        "psd-condition-factor: 1\nend\n"
    )
    text = _bundled_text("appendixA.cert") + block
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, _ = run(capsys, "verify", "--cert", "-")
    assert code == 1
    assert "FAIL: square term 2: psd-condition requires a 2x2 matrix" in out
    assert "verdict=FAIL" in out


def test_negative_numeric_multiplier_exits_1(capsys, monkeypatch):
    # one rule for both kinds: a negative square multiplier refutes
    text = _bundled_text("k4.cert").replace("multiplier: 15/256", "multiplier: -15/256")
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, _ = run(capsys, "verify", "--cert", "-")
    assert code == 1 and "verdict=FAIL" in out
    assert "FAIL: square term 0 multiplier: -15/256 is negative" in out.splitlines()


HOLE = HEADER.format(name="hole", kind="numeric", target=1, scale=1, bound=0) + (
    "begin linear\nvector: -1 * 1 ; -1 * 2\nfactor: 1 * 1 ; 1 * 2\nend\n"
)


def test_linear_term_constant_on_every_graph_exits_1(capsys, monkeypatch):
    # the factor is the constant 1, so the term is -1 on every graph and
    # pins no edge density: the bound 0 would follow for every target
    monkeypatch.setattr(sys, "stdin", io.StringIO(HOLE))
    code, out, _ = run(capsys, "verify", "--cert", "-")
    assert code == 1 and "verdict=FAIL" in out
    assert [l for l in out.splitlines() if l.startswith("FAIL:")] == [
        "FAIL: linear term 0: factor does not depend on the edge density "
        "(coefficient 1 at the empty and the complete graph)"
    ]


def test_strict_parametric_certificate_fails_on_zero_deficits(capsys, monkeypatch):
    text = _bundled_text("appendixA.cert").replace("strict: no", "strict: yes")
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, _ = run(capsys, "verify", "--cert", "-")
    assert code == 1 and "verdict=FAIL" in out
    lines = out.splitlines()
    zero_set = next(l for l in lines if l.startswith("zero set (8): "))
    codes = zero_set.split(": ", 1)[1].split("; ")
    assert [l for l in lines if l.startswith("FAIL:")] == [
        f"FAIL: deficit 0 at {c} is not positive on [5, oo)" for c in codes
    ]


# ---------------------------------------------------------------------------
# environment, argparse plumbing, determinism


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["polish"])
    assert exc.value.code == 2


def test_missing_required_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["enumerate"])
    assert exc.value.code == 2


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "verify", "--cert", "lemma074.cert")
    _, second, _ = run(capsys, "verify", "--cert", "lemma074.cert")
    assert first == second
    _, t1, _ = run(capsys, "oracle", "--h", K221_CODE, "--n", "6")
    _, t2, _ = run(capsys, "oracle", "--h", K221_CODE, "--n", "6")
    assert t1 == t2


def test_console_script_installed():
    proc = subprocess.run(
        ["flagcert", "enumerate", "--order", "2"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == "count=2"


def test_alt_bound_in_parametric_certificate_exits_two(capsys, monkeypatch):
    text = _bundled_text("appendixA.cert").replace("k0: 5\n", "k0: 5\nalt-bound: [0]\n")
    line = text.splitlines().index("alt-bound: [0]") + 1
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert run(capsys, "verify", "--cert", "-") == (
        2, "", f"error: certificate line {line}: alt-bound only applies to numeric kind\n"
    )


# Line fuzz: every mutant of a bundled certificate or certificate golden
# either gets a verdict (exit 0 or 1 with a verdict= trailer) or is refused
# as bad input (exit 2 with one error: line); no traceback, no other exit.
FUZZ_INPUTS = [
    ("k3.cert", None),
    ("k4.cert", None),
    ("lemma074.cert", None),
    ("appendixA.cert", None),
    ("appendixB.golden", "lemma074.cert"),
    ("appendixC.golden", "appendixA.cert"),
]
FUZZ_RUNS = 25
FUZZ_CHARS = "0123456789 -+*/.;:,[]#abkx"


def _fuzz_lines(text, rng):
    """One to three deletions, duplications, swaps or character edits."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        op = rng.randrange(4)
        if op == 0:
            del lines[i]
        elif op == 1:
            lines.insert(j, lines[i])
        elif op == 2:
            lines[i], lines[j] = lines[j], lines[i]
        else:
            at = rng.randrange(len(lines[i]) + 1)
            lines[i] = lines[i][:at] + rng.choice(FUZZ_CHARS) + lines[i][at + 1:]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name, cert", FUZZ_INPUTS)
def test_line_fuzz_ends_in_a_verdict_or_an_error(capsys, monkeypatch, name, cert):
    rng = random.Random(name)
    text = _bundled_text(name)
    argv = ["verify", "--cert", "-"] if cert is None else [
        "verify", "--cert", cert, "--golden", "-"
    ]
    for _ in range(FUZZ_RUNS):
        mutant = _fuzz_lines(text, rng)
        monkeypatch.setattr(sys, "stdin", io.StringIO(mutant))
        code, out, err = run(capsys, *argv)
        if code == 2:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, mutant
        else:
            assert code in (0, 1) and err == "", mutant
            assert re.search("^verdict=(PASS|FAIL)$", out, re.M), mutant
