import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from h3orbifold import cli, modular, qseries, scalars
from h3orbifold.cli import build_parser, main
from h3orbifold.modular import MAX_QDIM_POINTS
from h3orbifold.qseries import MAX_FREE_WEIGHTS, MAX_SERIES_ORDER
from h3orbifold.symmetry import GROUPS, Permutation


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse errors
        code = exc.code
    out = capsys.readouterr()
    return code, out.out


def test_usage_error_exit_code(capsys):
    code, _ = run_cli(capsys, "verify", "--suite", "bogus")
    assert code == 2
    code, _ = run_cli(capsys, "span", "--group", "s5")
    assert code == 2


def test_verify_relations_json(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "s3-relations",
                        "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["schema"].startswith("h3orbifold-report/")
    assert data["pass"] is True
    ids = {r["id"] for r in data["results"]}
    assert {"quaddec_06", "step1_004", "big_deriv_6"} <= ids
    assert all(r["pass"] for r in data["results"])


def test_verify_classical_and_primaries(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "classical",
                        "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert {r["id"] for r in data["results"]} == {"D5C", "D6C1", "D6C2"}
    code, out = run_cli(capsys, "verify", "--suite", "primaries",
                        "--format", "json")
    assert code == 0


def test_span_command(capsys):
    code, out = run_cli(capsys, "span", "--group", "s3", "--max-weight", "4",
                        "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["matched"] is True
    assert data["dims_spanned"]["4"] == 13


def test_span_drop_shows_deficit(capsys):
    code, out = run_cli(capsys, "span", "--group", "s3", "--max-weight", "4",
                        "--drop", "omega2(0,2)", "--format", "json")
    assert code == 0  # demonstrating the deficit is the expected outcome
    data = json.loads(out)
    assert data["matched"] is False
    assert data["first_deficit"] == 4
    assert data["dropped"] == "omega2(0,2)"
    code, _ = run_cli(capsys, "span", "--group", "s3", "--drop", "omega9(1)")
    assert code == 2
    # an index is read only as str(GeneratorId) prints it, without spaces
    code, _ = run_cli(capsys, "span", "--group", "s3", "--max-weight", "4",
                      "--drop", "omega2(0, 2)", "--format", "json")
    assert code == 2


def test_char_command(capsys):
    code, out = run_cli(capsys, "char", "--which", "s3", "--order", "6",
                        "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["series"]["integer_slice"] == ["1", "1", "3", "6", "13", "24", "49"]
    code, out = run_cli(capsys, "char", "--which", "sigma", "--order", "3",
                        "--format", "json")
    data = json.loads(out)
    assert data["series"]["offset"] == "-1/72"
    code, out = run_cli(capsys, "char", "--which", "w-free",
                        "--weights", "1,2,3,4,5,6,6", "--order", "10",
                        "--format", "json")
    assert code == 0


def test_char_burnside_crosscheck(capsys):
    code, out = run_cli(capsys, "char", "--which", "s3", "--order", "5",
                        "--check", "--format", "json")
    assert code == 0
    assert json.loads(out)["burnside"] is True


def test_qdim_command(capsys):
    code, out = run_cli(capsys, "qdim", "--module", "fock:1/2,1/4,1/8",
                        "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["classification"] == "finite"
    assert abs(data["limit"] - 6) < 0.06
    code, out = run_cli(capsys, "qdim", "--module", "theta:0,0",
                        "--t-list", "0.1,0.05,0.02,0.01", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["classification"] == "divergent"
    assert abs(data["growth_exponent"] + 0.5) < 0.05


def test_qdim_fails_a_limit_outside_one_percent_of_its_expected_value(capsys):
    # at t = 2 and 1 the Fock ratio is still near 1, so its estimate is not 6
    argv = ("qdim", "--module=fock:0,0,0", "--t-list=1,2")
    code, out = run_cli(capsys, *argv)
    assert code == 1
    assert out.splitlines()[-2:] == ["  extrapolated limit: 1.007505",
                                     "  expected 6.0: FAIL"]
    code, out = run_cli(capsys, *argv, "--format=json")
    assert code == 1
    assert json.loads(out)["classification"] == "finite"


def test_modular_command(capsys):
    for tau in ("i", "i/2", "2i"):
        code, out = run_cli(capsys, "modular", "--tau", tau, "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["pass"] is True
        assert len(data["reports"]) == 3


def test_product_command(capsys):
    code, out = run_cli(capsys, "product", "--u", "a1(-1)", "--n", "1",
                        "--v", "a1(-1)")
    assert code == 0
    assert out.strip() == "1"
    code, out = run_cli(capsys, "product", "--u", "b2(-1)", "--n", "-1",
                        "--v", "b3(-1)", "--format", "json")
    assert code == 0
    assert json.loads(out)["result"] == "b2(-1)b3(-1)"


def test_product_refuses_a_result_weight_above_its_cap(capsys):
    def product(u, n, v):
        try:
            code = main(["product", "--u", u, "--n", str(n), "--v", v])
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out.strip(), out.err.strip().splitlines()[-1:]

    assert cli.MAX_PRODUCT_WEIGHT == 12
    # a1(-1)_n a1(-1) has weight 1 - n: 12 at n = -11, 13 at n = -12
    assert product("a1(-1)", -11, "a1(-1)") == (0, "a1(-11)a1(-1)", [])
    assert product("a1(-1)", -12, "a1(-1)") == (
        2, "", ["h3orb product: error: product weight 13 exceeds cap 12"])
    # a zero state has no weight to refuse
    assert product("0", -100000, "a1(-1)") == (0, "0", [])
    assert product("a1(-1)", -100000, "0") == (0, "0", [])
    # a basis mismatch is reported before the cap
    assert product("a1(-1)", -100000, "b1(-1)") == (
        2, "", ["h3orb product: error: basis mismatch: a vs b"])


@pytest.mark.parametrize("argv, expected", [
    (["dims"], 0),
    (["manifest", "--format", "json"], 0),
    # a failed check keeps its exit code too
    (["modular", "--tol", "1e-300"], 1)])
def test_a_reader_that_closes_stdout_early_keeps_the_exit_code(argv, expected):
    # the read end is closed before the child writes, so its first write fails
    read, write = os.pipe()
    os.close(read)
    src = Path(cli.__file__).parents[1]
    try:
        run = subprocess.run([sys.executable, "-m", "h3orbifold.cli", *argv],
                             stdout=write, stderr=subprocess.PIPE, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)},
                             timeout=120)
    finally:
        os.close(write)
    assert run.returncode == expected, run.stderr
    assert "Traceback" not in run.stderr


def test_manifest_command(capsys):
    code, out = run_cli(capsys, "manifest", "--format", "json")
    assert code == 0
    data = json.loads(out)
    ids = {e["id"] for e in data["relations"]}
    assert "quaddec_06" in ids and "z3_quad_D2" in ids


def test_verify_deterministic_output(capsys):
    _, out1 = run_cli(capsys, "verify", "--suite", "axioms", "--format", "json")
    _, out2 = run_cli(capsys, "verify", "--suite", "axioms", "--format", "json")
    assert out1 == out2


@pytest.fixture
def refuse_big_exponents(monkeypatch):
    """``Fraction`` in ``scalars``, the one module that reads rationals in
    text, fails at once on text with a decimal exponent beyond 1000."""
    real = scalars.Fraction

    def fraction(*args):
        # Fraction expands a decimal exponent into an exact integer, for
        # hours at 4 * 10^8 digits: the text must be refused before it
        if args and isinstance(args[0], str):
            exponent = re.search(r"[eE][-+]?0*(\d+)", args[0])
            assert not exponent or int(exponent.group(1)[:6]) <= 1000, args
        return real(*args)

    monkeypatch.setattr(scalars, "Fraction", fraction)


#: the interpreter's limit on int-to-text digits, 0 where there is none
_INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
#: a 2500-digit weight reads; its square, with 4999 digits, does not print
_PRINTS_2500_NOT_4998_DIGITS = pytest.mark.skipif(
    not 2500 <= _INT_DIGITS < 4998,
    reason="needs a limit on int-to-str digits between 2500 and 4997")
#: indices that int() reads as 2 but str(GeneratorId) never prints
_UNPRINTED_INDICES = ["omega3(0,1,+2)", "omega3(0,1, 2)", "omega3(0,1,0_2)",
                      "omega3(0,1,002)"]
_LONG_WEIGHT = "1" * 2500
_LONG_WEIGHTS = [("sigma", _LONG_WEIGHT, "<w>"),
                 ("fock", f"{_LONG_WEIGHT},0,0", "<w>,0,0"),
                 ("theta", f"{_LONG_WEIGHT},0", "<w>,0")]


@pytest.mark.parametrize("argv", [
    ["product", "--u", "a1", "--n", "-1", "--v", "a1(-1)"],
    ["product", "--u", "3/0*a1(-1)", "--n", "-1", "--v", "a1(-1)"],
    ["product", "--u", "(1/0)*a1(-1)", "--n", "-1", "--v", "a1(-1)"],
    ["product", "--u", "a1(-1)", "--n", "-100000", "--v", "a1(-1)"],
    ["product", "--u", "a1(-1)+", "--n", "1", "--v", "a1(-1)"],
    ["char", "--which", "fock", "--weights", "1/0"],
    ["char", "--which", "fock", "--weights", "1,2"],
    ["char", "--which", "w-free", "--weights=-1"],
    ["char", "--order", "-3", "--which", "s3"],
    ["dims", "--max-weight", "-2"],
    ["dims", "--max-weight", str(MAX_SERIES_ORDER + 1)],
    ["char", "--which", "s3", "--order", str(MAX_SERIES_ORDER + 1)],
    ["span", "--max-weight", "13"],
    ["span", "--max-weight", "-1"],
    ["qdim", "--module", "fock:1/0,0,0"],
    ["modular", "--tau=-i"],
    ["char", "--which", "w-free"],
    ["span", "--drop", "omega9(1)"],
    # an empty index position is refused, not skipped
    ["span", "--drop", "omega3(0,,1,2)"],
    ["span", "--drop", "omega3(0,1,2,)"],
    ["span", "--drop", "omega3(,0,1,2)"],
    # an empty generator and a non-integer index are malformed too
    ["span", "--drop", ""],
    ["span", "--drop", "omega3(a)"],
    # an index only as str(GeneratorId) prints it
    *(["span", "--drop", text, *fmt] for text in _UNPRINTED_INDICES
      for fmt in ([], ["--format=json"])),
    ["modular", "--tau", "i/10000"],
    ["modular", "--tau", "10000i", "--quadrature"],
    ["modular", "--tau=1e20"],
    ["modular", "--tau=i/10", "--tol=1e-320"],
    ["modular", "--tol=-1"],
    ["modular", "--tol", "nan"],
    ["qdim", "--module", "sgn", "--t-list", "1/10000,1/1000"],
    ["qdim", "--module", "sgn", "--t-list", "1000,2000"],
    ["qdim", "--module", "sgn", "--t-list", "1/2,1/10,1/10"],
    ["qdim", "--module", "sgn:1,2"],
    ["char", "--which", "s3", "--weights", "1,2"],
    ["char", "--which=vac", "--weights=0"],
    ["modular", "--tau=1e400i"],
    ["modular", "--tau=0,1e400"],
    ["qdim", "--module", "sgn", "--t-list", "1e400"],
    ["modular", "--tau=1e400000000i"],
    ["qdim", "--module", "sgn", "--t-list", "1e400000000"],
    ["char", "--which=fock", "--weights=1e400000000,0,0"],
    ["qdim", "--module=fock:1e400000000,0,0"],
    ["product", "--u", "(1e5000)*a1(-1)", "--n", "1", "--v", "a1(-1)"],
    ["product", "--u", "(1e400000000)*a1(-1)", "--n", "1", "--v", "a1(-1)"],
    # the Euler products overflow within a few dozen factors
    ["qdim", "--module", "sgn", "--t-list", "1e-6,5e-7"],
    ["qdim", "--module", "sgn", "--t-list", "1e-9,5e-10"],
    # one "i", only at the end of the numerator
    ["modular", "--tau=2i3"],
    ["modular", "--tau=ii"],
    ["modular", "--tau=i2"],
    ["modular", "--tau=i-1"],
    # a highest weight that reads, but whose offset is too long to print
    *(pytest.param(["char", f"--which={which}", f"--weights={weights}",
                    "--order=2", *fmt], marks=_PRINTS_2500_NOT_4998_DIGITS,
                   id=" ".join(["char", f"--which={which}",
                                f"--weights={shown}", "--order=2", *fmt]))
      for which, weights, shown in _LONG_WEIGHTS
      for fmt in ([], ["--format=json"])),
], ids=lambda argv: " ".join(argv))
def test_bad_input_exits_with_usage_error(capsys, refuse_big_exponents, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    # the usage and the message are the command's, not those of every verb
    assert out.err.startswith(f"usage: h3orb {argv[0]} ")
    assert f"h3orb {argv[0]}: error: " in out.err


@pytest.mark.parametrize("text", ["", "omega3(a)", "omega3(0,1,x)",
                                  *_UNPRINTED_INDICES])
def test_drop_that_names_no_generator_is_malformed(capsys, text):
    for fmt in ([], ["--format=json"]):
        with pytest.raises(SystemExit) as exc:
            main(["span", "--drop", text, *fmt])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.endswith(
            f"h3orb span: error: malformed generator {text!r}\n")


@pytest.mark.parametrize("text, tau", [
    ("i", 1j), ("-i", -1j), ("2i", 2j), ("1e1i", 10j), ("i/2", 0.5j),
    ("3i/4", 0.75j), ("-3i/4", -0.75j), ("1e1i/4", 2.5j), ("2", 2j),
    ("1/2", 0.5j),
    ("0,1", 1j), ("1/2,3", complex(0.5, 3)),
])
def test_tau_reads_one_i_at_the_end_of_the_numerator(text, tau):
    assert cli._parse_tau(text) == tau


@pytest.mark.parametrize("text", ["2i3", "ii", "i2", "i-1", "2ii", "3/4i",
                                  "i/", "i/2/3"])
def test_tau_outside_its_grammar_cannot_be_parsed(capsys, text):
    with pytest.raises(SystemExit) as exc:
        main(["modular", f"--tau={text}"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"h3orb modular: error: cannot parse tau {text!r}\n")


def _fail(*args, **kwargs):
    raise AssertionError("work started before the count check")


def test_free_weight_count_is_checked_before_any_product(capsys, monkeypatch):
    assert 9 <= MAX_FREE_WEIGHTS
    weights = ",".join(["2"] * MAX_FREE_WEIGHTS)
    code, out = run_cli(capsys, "char", "--which=w-free",
                        f"--weights={weights}", "--order=4", "--format=json")
    assert code == 0
    assert json.loads(out)["series"]["integer_slice"][1] == "0"
    monkeypatch.setattr(qseries, "_euler_product", _fail)
    with pytest.raises(SystemExit) as exc:
        main(["char", "--which=w-free", f"--weights={weights},2",
              "--order=1000"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"error: at most {MAX_FREE_WEIGHTS} generator weights, "
        f"got {MAX_FREE_WEIGHTS + 1}\n")


def test_qdim_point_count_is_checked_before_any_value(capsys, monkeypatch):
    assert 4 <= MAX_QDIM_POINTS
    t_list = [f"{k}/1000" for k in range(20, 20 + MAX_QDIM_POINTS)]
    code, out = run_cli(capsys, "qdim", "--module=sgn",
                        f"--t-list={','.join(t_list)}", "--format=json")
    assert code == 0
    assert len(json.loads(out)["t"]) == MAX_QDIM_POINTS
    monkeypatch.setattr(modular, "character_value", _fail)
    with pytest.raises(SystemExit) as exc:
        main(["qdim", "--module=sgn", f"--t-list={','.join(t_list)},1/1000"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"error: at most {MAX_QDIM_POINTS} t values, "
        f"got {MAX_QDIM_POINTS + 1}\n")


@pytest.mark.parametrize("text, value", [
    ("1e1000", Fraction(10) ** 1000), ("-2E-1000", Fraction(-2, 10 ** 1000)),
    ("1e0001000", Fraction(10) ** 1000), ("3/4", Fraction(3, 4)),
    ("1e1001", None), ("1e-1001", None), ("1e1_001", None),
    ("1e400000000", None), ("1.5e+4000000000000000000000", None),
])
def test_rational_caps_the_decimal_exponent(refuse_big_exponents, text, value):
    assert scalars.MAX_DECIMAL_EXPONENT == 1000
    if value is None:
        with pytest.raises(ValueError, match="exponent"):
            scalars.parse_rational(text)
    else:
        assert scalars.parse_rational(text) == value


@pytest.mark.skipif(
    not 4000 <= getattr(sys, "get_int_max_str_digits", lambda: 0)() < 7999,
    reason="needs a limit on int-to-str digits between 4000 and 7998")
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_product_too_long_to_print_is_a_usage_error(capsys, fmt):
    # each coefficient prints, their 8000-digit product does not
    u = f"({'9' * 4000})*a1(-1)"
    with pytest.raises(SystemExit) as exc:
        main(["product", "--u", u, "--n", "1", "--v", u, f"--format={fmt}"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    message = out.err.splitlines()[-1]
    assert message.startswith("h3orb product: error: ")
    assert "Traceback" not in out.err


@pytest.mark.parametrize("module, message", [
    ("bogus", "unknown module kind 'bogus'"),
    ("theta:0", "theta takes two highest weights"),
    ("sigma", "sigma takes one highest weight"),
    ("sgn:1,2", "sgn takes no highest weights"),
    ("orb:0", "orb takes no highest weights"),
])
def test_qdim_names_a_bad_module_before_evaluating(capsys, module, message):
    # at t = 1/10000 every Euler product overflows, so only a check made
    # before any evaluation names the bad input
    with pytest.raises(SystemExit) as exc:
        main(["qdim", f"--module={module}", "--t-list=1/10000,1/1000"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"h3orb qdim: error: {message}\n")


def test_dims_json(capsys):
    code, out = run_cli(capsys, "dims", "--max-weight", "12", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["weight"] for r in rows] == list(range(13))
    assert [r["fock"] for r in rows] == [1, 3, 9, 22, 51, 108, 221, 429, 810,
                                         1479, 2640, 4599, 7868]
    assert [r["s3"] for r in rows] == [1, 1, 3, 6, 13, 24, 49, 87, 162, 284,
                                       499, 846, 1436]
    assert [r["z3"] for r in rows] == [1, 1, 3, 8, 17, 36, 75, 143, 270, 495,
                                       880, 1533, 2626]


def test_values_with_a_leading_minus_take_the_equals_form(capsys):
    code, out = run_cli(capsys, "char", "--which=fock", "--weights=-1,0,1")
    assert code == 0
    assert out.startswith("character fock, offset q^(7/8)")
    # "-i" reaches the tau parser, which rejects the lower half-plane
    with pytest.raises(SystemExit) as exc:
        main(["modular", "--tau=-i"])
    assert exc.value.code == 2
    assert "upper half-plane" in capsys.readouterr().err


def _outcome(capsys, run, argv):
    """(exit code, stdout, stderr) of run(argv)."""
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def _fresh_main(argv):
    """``main`` with a parser of its own for this call."""
    cached, cli._main_parser = cli._main_parser, build_parser
    try:
        return main(argv)
    finally:
        cli._main_parser = cached


@pytest.mark.parametrize("first, second", [
    (["modular", "--tau=-i"], ["span", "--max-weight", "3", "--format", "json"]),
    (["char", "--which", "s3", "--order", "6"], ["qdim", "--module", "sgn:1,2"]),
], ids=["bad-then-good", "good-then-bad"])
def test_main_parses_with_one_parser_as_with_fresh_ones(capsys, monkeypatch,
                                                       first, second):
    expected = [_outcome(capsys, _fresh_main, argv) for argv in (first, second)]
    assert sorted(code for code, _, _ in expected) == [0, 2]
    main(["manifest"])  # main has built its parser by now
    capsys.readouterr()
    monkeypatch.setattr(cli, "build_parser", None)  # and builds no other
    assert [_outcome(capsys, main, argv) for argv in (first, second)] == expected


#: SHA-256 of ``h3orb char --format=json --order=40`` for every character,
#: with the benchmark's highest-weight candidates for fock/theta/sigma and
#: both generating types of the paper for w-free
CHAR_JSON_SHA256 = {
    ("s3", ""): "62b49041cd5e326064cf71503e3d34bbae6b13ff9ed49f7b16f1b88e329f7c78",
    ("z3", ""): "1ac9530eda98cf783d454cb41cc60e15acb53e306a98f280e85408fd00a69817",
    ("sgn", ""): "27fb60e0f2f13f5bd7dd6021c2900bf67692f2a6de18d19be2e175908071071f",
    ("st", ""): "79a899f5ababc918ab00bd4528d3b4a17b8a0f96f9337a9e75ddfcc2ad11063c",
    ("vac", ""): "2578564c4c9502ba450e5241e24a786ba4305982a4b25150bbd1db2a7a2b4767",
    ("fock", "0,0,0"): "8a9e00f21e4a4bbb58e36c0002f3cf964b375319195d9cf18c5df704562d71db",
    ("fock", "1/2,1/3,1/4"): "0ebcadb6ac564a71308e09533d774c336dc8e4ecf9928d2f6235a3492084704c",
    ("fock", "1,0,-1"): "e2eb97cd6003ef490e7c06b19c1fc8e02c1a813feddb416989871177465ae962",
    ("fock", "2/3,-1/5,3/7"): "19412d5351dcbe3c1bbf6b17de0f91a24cd96c41593eb30008bf6b46ca55c84e",
    ("fock", "1/6,1/6,1/6"): "bd5ec7f6c931f116786fb32d20848ec180f14eb4af5ccd5b69f443f9ff1f7937",
    ("fock", "-3/4,1/2,0"): "23c18f795f039626f014649bf19757f420fe2747e0b678563a37a495766c46f3",
    ("fock", "5/3,2/5,-1/2"): "c07f51219cace20de4bab0b04135ce2e55fd0cdfebcaa45be7f9fb22c556b9a5",
    ("fock", "1/9,2/9,4/9"): "a49329c02f46e9d14b9a8ee8b02da2a03001091f83e7dbd02ccbe086f7b34e14",
    ("theta", "0,0"): "b3a4ff12238e4ddebbbdad6a669f620159bc8caf465c2e590d743d2bbf63c492",
    ("theta", "1/2,1/3"): "193c247512fc60f8f271c69733d69c0ec23d2c3ee89232fafbcc15df28dbdc1a",
    ("theta", "1,-1"): "4d366a4b24fa303bb0d9dd7d7bcd07003ca8330221ea54f7bfdd10e189e6f919",
    ("theta", "2/3,1/5"): "21566f5ded46d6b958799d69fddb72f9fda0c37e1e7672396310bda045dcf644",
    ("theta", "1/6,1/6"): "f4af35b17c1d9c0a1184df1316e95cac484e6d84dd5db8b843217f352e03be60",
    ("theta", "-3/4,0"): "f0e8097aa2dd1b5070f7d3585a584066efd991647d901ffcf869eecd67c2d16f",
    ("theta", "5/3,2/5"): "680b25f0c3ee6732ddb24f011054c11c0ed7ce750d7d754083e0ccad1e550bf0",
    ("theta", "1/9,4/9"): "24a8ff0abb241df4952562d1770b6d7ac0b8e6fce78a5086380603813c555956",
    ("sigma", "0"): "3658847aa1d8da1978aeb0b5237a541fd45d9fa1c804c60e1a39189089a39731",
    ("sigma", "1/2"): "12d059459516e548bdeeed0d38e30dad09ef6f79779b7aa0fe096e4723881b9b",
    ("sigma", "1/3"): "7f9684bfc86bd1d49733fa9cc5d4e0d467984b220c1ffa946b678682284f7377",
    ("sigma", "-1"): "31fb2efd580599c0c89d6d836a1bb7d16615bd4977372bcaecacf9dc5852caae",
    ("sigma", "2/3"): "7ecb72e0e9ec35a755034c48dd9e1874cd3533486fb880ffa622cdcf460a58df",
    ("sigma", "1/6"): "95fbafde8aa15cc2fcf1fca98050195dc2b88a69da856c96a2863721ddcc86d4",
    ("sigma", "-3/4"): "146781561a80c171abf3f490469c63cc2747b08b74f4830691f500e5c1b57cda",
    ("sigma", "5/3"): "3a9afd8d18d50fe1ebae80d6f2cdbf526a4cc1029e12138615735f0f02b5ab4c",
    ("w-free", "1,2,3,4,5,6,6"): "0d8b9f62f00ae5ce3dddb25f35ace240dd81c8a72f2eb94faf45ddd45c86ffef",
    ("w-free", "1,2,3,3,3,4,5,5,5"): "d456ab19744d2220ea2797154a218e2e520b436d46ae0385044f1a38c2239a22",
}


@pytest.mark.parametrize("key", list(CHAR_JSON_SHA256),
                         ids=lambda key: ":".join(filter(None, key)))
def test_char_json_is_pinned(capsys, key):
    which, weights = key
    argv = ["char", f"--which={which}", "--order=40", "--format=json"]
    if weights:
        argv.append(f"--weights={weights}")
    code, out = run_cli(capsys, *argv)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == CHAR_JSON_SHA256[key]


#: (which, weights, order) of every pinned ``char --check --format=json`` call:
#: every character above at the benchmark's order 200, and the class sums and
#: the vacuum at small orders and at the CLI's largest order
CHAR_PIN_CASES = (
    [(which, weights, 200) for which, weights in CHAR_JSON_SHA256]
    + [(which, "", order) for which in ("s3", "z3", "sgn", "st", "vac")
       for order in (0, 1, 6, 12, MAX_SERIES_ORDER)])
#: SHA-256 over the SHA-256 of each payload, one line per case in order
CHAR_PIN_SHA256 = "c69ada65c668761f6486c1230a5f7c9b217eb5c35c4d3bcceaf1ab23c0b6c08e"


def test_char_payloads_are_pinned(capsys):
    assert len(CHAR_PIN_CASES) == 56
    digests = []
    for which, weights, order in CHAR_PIN_CASES:
        argv = ["char", f"--which={which}", f"--order={order}", "--check",
                "--format=json"]
        if weights:
            argv.append(f"--weights={weights}")
        code, out = run_cli(capsys, *argv)
        assert code == 0, argv
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    combined = hashlib.sha256("\n".join(digests).encode()).hexdigest()
    assert combined == CHAR_PIN_SHA256


#: SHA-256 of ``h3orb char --check --format=json --order=1000`` for the
#: twisted modules, a Fock module off the vacuum and both generating types of
#: ``w-free``, at the CLI's largest order
CHAR_LARGEST_ORDER_SHA256 = {
    ("theta", "1/2,1/3"): "648a7e24cdd4110b7b2e2938809a4651047bebd5f2d44f73e8959c9fbd68d51a",
    ("sigma", "1/2"): "c096c7588a66c300b54a9ee3c99ac1ce8a621ce94e3008634d4fa284b3bb0227",
    ("fock", "1/2,1/3,1/4"): "aabe122444b28ac819bfc980e5819cd38fa0c0be6d34bb181c4c4b266f0e6d11",
    ("w-free", "1,2,3,4,5,6,6"): "a4e0c10a237c28bcfbd504550886472f6ed0bef3069931ea03b0190d1891359f",
    ("w-free", "1,2,3,3,3,4,5,5,5"): "fecf7a252d5ec8efa1fe0104c4a00162ff237cad42debbf0939c3c68b15d5537",
}


@pytest.mark.parametrize("key", list(CHAR_LARGEST_ORDER_SHA256),
                         ids=lambda key: ":".join(key))
def test_char_at_the_largest_order_is_pinned(capsys, key):
    which, weights = key
    code, out = run_cli(capsys, "char", f"--which={which}", "--order=1000",
                        "--check", "--format=json", f"--weights={weights}")
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == CHAR_LARGEST_ORDER_SHA256[key]


def test_char_check_fails_on_a_perturbed_trace(capsys, monkeypatch):
    # the product row of the 2-cycles that the check reads at order 12
    real = qseries._euler_product
    real.cache_clear()

    def perturbed(*args):
        row = real(*args)
        if args == (1, 6, (2, 1)):
            row = row[:2] + (row[2] + 1,) + row[3:]
        return row

    monkeypatch.setattr(qseries, "_euler_product", perturbed)
    code, out = run_cli(capsys, "char", "--which=s3", "--order=12", "--check")
    assert code == 1
    assert "burnside cross-check: FAIL" in out
    code, out = run_cli(capsys, "char", "--which=s3", "--order=12", "--check",
                        "--format=json")
    assert code == 1
    assert json.loads(out)["burnside"] is False



def test_char_check_fails_on_a_perturbed_fixed_count(capsys, monkeypatch):
    real = qseries._fixed_counts
    real.cache_clear()
    index = GROUPS["S3"].index(Permutation((2, 1, 3)))

    def perturbed(weight):
        counts = real(weight)
        if weight == 2:
            counts = counts[:index] + (counts[index] + 1,) + counts[index + 1:]
        return counts

    monkeypatch.setattr(qseries, "_fixed_counts", perturbed)
    code, out = run_cli(capsys, "char", "--which=s3", "--order=12", "--check",
                        "--format=json")
    assert code == 1
    assert json.loads(out)["burnside"] is False


def test_two_char_checks_enumerate_each_fock_weight_once(capsys, monkeypatch):
    real = qseries.enumerate_basis
    weights = []

    def counted(rank, weight):
        weights.append((rank, weight))
        return real(rank, weight)

    qseries._fixed_counts.cache_clear()
    monkeypatch.setattr(qseries, "enumerate_basis", counted)
    for which in ("s3", "fock"):
        code, out = run_cli(capsys, "char", f"--which={which}", "--order=12",
                            "--check", "--format=json")
        assert code == 0
        assert json.loads(out)["burnside"] is True
    assert sorted(weights) == [(3, w) for w in range(7)]


@pytest.mark.parametrize("which", [
    "s3", "z3", "sgn", "st", "vac", "fock",
    pytest.param("fock --weights=1/2,1/3,1/4", id="fock-weights")])
def test_char_check_fails_on_a_perturbed_printed_series(capsys, monkeypatch,
                                                        which):
    def perturbed(real):
        def character(*args, **kwargs):
            series = real(*args, **kwargs)
            k = 2 * series.D   # the coefficient of weight 2
            series.coeffs[k] = series.coeffs.get(k, 0) + 1
            return series
        return character

    monkeypatch.setattr(cli, "character", perturbed(cli.character))
    which, *extra = which.split()
    argv = ["char", f"--which={which}", *extra, "--order=12", "--check"]
    code, out = run_cli(capsys, *argv)
    assert code == 1
    assert "burnside cross-check: FAIL" in out
    code, out = run_cli(capsys, *argv, "--format=json")
    assert code == 1
    assert json.loads(out)["burnside"] is False


def test_verify_reports_a_failing_classical_relation(capsys, monkeypatch):
    from h3orbifold import classical
    terms = classical.RELATION_TERMS["D6C2"]
    monkeypatch.setitem(classical.RELATION_TERMS, "D6C2", terms[:-1])
    code, out = run_cli(capsys, "verify", "--suite", "classical",
                        "--format", "json")
    assert code == 1
    data = json.loads(out)
    assert data["pass"] is False
    results = {r["id"]: r for r in data["results"]}
    assert results["D5C"]["pass"] and results["D6C1"]["pass"]
    failed = results["D6C2"]
    assert failed["pass"] is False
    idx = tuple(failed["counterexample"])
    assert len(idx) == 6
    assert not classical.cpoly_relation("D6C2", idx).is_zero()
    code, out = run_cli(capsys, "verify", "--suite", "classical")
    assert code == 1
    assert "FAIL  D6C2" in out and "FAILURES PRESENT" in out

# -- exit-code property ---------------------------------------------------------

_RATIONAL = (st.integers(-9, 9).map(str)
             | st.builds("{}/{}".format, st.integers(-9, 9), st.integers(0, 9))
             # a square too long to print
             | st.integers(10 ** 2499, 10 ** 2500 - 1).map(str))
_RATIONALS = st.lists(_RATIONAL, max_size=4).map(",".join)
#: short text over the characters the parsers care about
_JUNK = st.text(alphabet="0123456789-+*/,.eiabxz() ", max_size=10)
_FORMAT = st.sampled_from(["text", "json", "xml"])


def _rationals_past(bound):
    """Strategy for a list of bound + 1 rationals, one past a count bound."""
    return st.lists(_RATIONAL, min_size=bound + 1,
                    max_size=bound + 1).map(",".join)


def _argv(verb, required=(), **options):
    """Strategy for [verb, --opt=value, ...]: each option present or absent,
    those named in ``required`` always present; a value of True is a bare
    flag."""
    parts = []
    for name, values in options.items():
        flag = values.map(lambda v, name=name:
                          [f"--{name}"] if v is True else [f"--{name}={v}"])
        parts.append(flag if name in required else st.just([]) | flag)
    return st.tuples(*parts).map(lambda opts: [verb, *sum(opts, [])])


#: small draws for every subcommand: weights, orders and sample points stay
#: small, and the heavy suites (``all``, ``axioms``) are left out, so that no
#: draw starts long work
_ARGV = {
    "verify": _argv("verify", required=("suite",), format=_FORMAT,
                    seed=st.integers(0, 99).map(str) | _JUNK,
                    suite=st.sampled_from(["s3-relations", "z3-relations",
                                           "classical", "primaries", "bogus"])),
    "span": _argv("span", format=_FORMAT,
                  group=st.sampled_from(["s3", "z3", "s5"]),
                  **{"max-weight": st.integers(-1, 4) | st.just(13),
                     "drop": st.sampled_from(["omega1(0)", "omega2(0,2)",
                                              "omega23_0(0,1)", "omega3(0,1",
                                              "omega9(1)"]) | _JUNK}),
    "dims": _argv("dims", format=_FORMAT,
                  **{"max-weight": st.integers(-2, 12) | st.just(1001)}),
    "char": _argv("char", format=_FORMAT, check=st.just(True),
                  which=st.sampled_from(["s3", "z3", "sgn", "st", "vac", "fock",
                                         "theta", "sigma", "w-free", "bogus"]),
                  order=st.integers(-1, 8) | st.just(1001),
                  weights=_RATIONALS | _JUNK
                  | _rationals_past(MAX_FREE_WEIGHTS)),
    "qdim": _argv("qdim", format=_FORMAT,
                  module=st.builds("{}:{}".format,
                                   st.sampled_from(["fock", "theta", "sigma",
                                                    "sgn", "st", "orb", "vac",
                                                    "bogus"]), _RATIONALS)
                  | st.sampled_from(["sgn", "st"]) | _JUNK,
                  **{"t-list": _RATIONALS | st.sampled_from(
                      ["1/10000,1/1000", "1000,2000", "1/2,1/2"]) | _JUNK
                     | _rationals_past(MAX_QDIM_POINTS)}),
    "modular": _argv("modular", format=_FORMAT, quadrature=st.just(True),
                     tau=st.builds("{}i/{}".format, st.integers(-3, 50),
                                   st.integers(0, 50))
                     | st.sampled_from(["i", "1,1", "0,1", "i/10000", "10000i"])
                     | _JUNK,
                     tol=st.sampled_from(["1e-9", "1e-3", "1", "0", "-1", "nan",
                                          "inf", "x"])),
    "product": _argv("product", format=_FORMAT, n=st.integers(-4, 4).map(str),
                     **{side: st.sampled_from(["a1(-1)", "a1(-2)a2(-1)", "b2(-1)",
                                               "1", "z*a3(-1)", "(1/2)*a3(-3)"])
                        | _JUNK for side in ("u", "v")}),
    "manifest": _argv("manifest", format=_FORMAT),
}


def test_every_subcommand_has_an_argv_strategy():
    verbs = next(a.choices for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction))
    assert set(_ARGV) == set(verbs)


@pytest.mark.parametrize("verb", list(_ARGV))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_exit_code_is_0_1_or_2(capsys, verb, data):
    argv = data.draw(_ARGV[verb], label="argv")
    start = time.perf_counter()
    code, _ = run_cli(capsys, *argv)
    assert code in (0, 1, 2)
    # the work bounds hold on every draw
    assert time.perf_counter() - start < 10
