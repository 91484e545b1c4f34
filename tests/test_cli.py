import json

import pytest

from h3orbifold.cli import main


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
    code, _ = run_cli(capsys, "span", "--group", "s3", "--drop", "omega9(1)")
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


@pytest.mark.parametrize("argv", [
    ["product", "--u", "a1", "--n", "-1", "--v", "a1(-1)"],
    ["product", "--u", "3/0*a1(-1)", "--n", "-1", "--v", "a1(-1)"],
    ["product", "--u", "(1/0)*a1(-1)", "--n", "-1", "--v", "a1(-1)"],
    ["product", "--u", "a1(-1)", "--n", "-100000", "--v", "a1(-1)"],
    ["char", "--which", "fock", "--weights", "1/0"],
    ["char", "--which", "fock", "--weights", "1,2"],
    ["char", "--which", "w-free", "--weights=-1"],
    ["char", "--order", "-3", "--which", "s3"],
    ["dims", "--max-weight", "-2"],
    ["span", "--max-weight", "13"],
    ["span", "--max-weight", "-1"],
    ["qdim", "--module", "fock:1/0,0,0"],
], ids=lambda argv: " ".join(argv))
def test_bad_input_exits_with_usage_error(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""


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
