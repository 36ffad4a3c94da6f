import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gyblink
from gyblink.braids import random_braid
from gyblink.cli import main
from gyblink.operators import GybType, build_type1, build_type3, load_custom, write_operator_file


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--output", "json")
    return code, json.loads(out), err


def test_compute_text_trefoil(capsys):
    code, out, err = run_cli(
        capsys, "compute", "--operator", "type1", "--braid", "trefoil"
    )
    assert code == 0
    assert "operator: type1" in out
    assert "strands: 2" in out
    assert "writhe: 3" in out
    assert "components: 1" in out
    assert "value (raw): -8" in out


def test_compute_json_payload(capsys):
    code, payload, _ = run_json(
        capsys, "compute", "--operator", "type2", "--braid", "figure8"
    )
    assert code == 0
    assert payload["schema_version"] == 1
    assert payload["operator"] == "type2"
    assert payload["theta"] == 0.0
    assert payload["braid"] == "1 -2 1 -2"
    assert payload["strands"] == 3
    assert payload["writhe"] == 0
    assert payload["components"] == 1
    assert payload["normalization"] == "raw"
    assert payload["value"]["re"] == pytest.approx(4.0, abs=1e-9)
    assert payload["value"]["im"] == pytest.approx(0.0, abs=1e-9)


def test_compute_json_is_byte_stable(capsys):
    argv = ("compute", "--operator", "type3", "--braid", "hopf+", "--output", "json")
    code1 = main(list(argv))
    out1 = capsys.readouterr().out
    code2 = main(list(argv))
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2
    assert '"schema_version":1' in out1  # canonical separators, sorted keys


def test_compute_normalizations(capsys):
    code, payload, _ = run_json(
        capsys, "compute", "--operator", "r232", "--braid", "trefoil",
        "--normalization", "P",
    )
    assert code == 0
    assert payload["normalization"] == "P"
    assert payload["value"]["re"] == pytest.approx(-1.0, abs=1e-9)
    code, payload, _ = run_json(
        capsys, "compute", "--operator", "type1", "--braid", "unknot",
        "--normalization", "tilde",
    )
    assert code == 0
    assert payload["value"]["re"] == pytest.approx(2.0, abs=1e-9)


def test_compute_braid_word_and_strands(capsys):
    code, payload, err = run_json(
        capsys, "compute", "--operator", "type1", "--braid", "1 1", "--strands", "3"
    )
    assert code == 0 and err == ""
    assert payload["strands"] == 3
    # hopf link plus one split unknotted circle
    assert payload["components"] == 3


def test_compute_identity_braid_text(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "--operator", "type1", "--braid", "", "--strands", "2"
    )
    assert code == 0
    assert "(identity)" in out


def test_theta_warning_for_fixed_operator(capsys):
    code, _, err = run_cli(
        capsys, "compute", "--operator", "r232", "--braid", "unknot", "--theta", "1.0"
    )
    assert code == 0
    assert "ignored" in err
    code, _, err = run_cli(
        capsys, "compute", "--operator", "type1", "--braid", "unknot", "--theta", "1.0"
    )
    assert code == 0
    assert err == ""


@pytest.mark.parametrize("argv", [
    ("compute", "--operator", "type1", "--braid", "trefoil", "--theta", "4"),
    ("verify", "--operator", "type1", "--theta", "-1"),
])
def test_an_error_warnings_filter_still_prints_one_line(capsys, argv):
    # python -W error or PYTHONWARNINGS=error must not turn the theta warning
    # into a traceback and exit 1, the code of a failed verification
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli(capsys, *argv)
    assert code == 0
    assert err.startswith("warning: theta=") and len(err.splitlines()) == 1


@pytest.mark.parametrize("operator, extra, warning", [
    ("type1", ("--alpha", "5", "--beta", "7"), "alpha/beta is ignored for operator type1"),
    ("type1", ("--beta", "x"), "beta is ignored for operator type1"),
    ("type1", ("--strands", "3"), "strands is ignored for catalog link trefoil on 2 strands"),
    ("type1", ("--strands", "-3"), "strands is ignored for catalog link trefoil on 2 strands"),
    ("r232", ("--theta", "1.0"), "theta is ignored for operator r232"),
    ("custom", ("--theta", "1.0"), "theta is ignored for operator custom:{path}"),
])
def test_ignored_options_warn_once(tmp_path, capsys, operator, extra, warning):
    path = tmp_path / "op.mat"
    write_operator_file(path, build_type3(0.0))
    argv = ["compute", "--braid", "trefoil", "--output", "json", "--operator"]
    argv += [f"custom:{path}", "--alpha=1", "--beta=2"] if operator == "custom" else [operator]
    code, want, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    code, out, err = run_cli(capsys, *argv, *extra)
    assert code == 0 and out == want
    assert err == f"warning: {warning.format(path=path)}\n"


def test_catalog_file_names_win_over_words(tmp_path, capsys):
    path = tmp_path / "links.tsv"
    path.write_text("granny\t2\t1 1 1 1 1 1\n1\t2\t1 1 1\n")
    code, payload, _ = run_json(
        capsys, "compute", "--operator", "type1", "--braid", "granny",
        "--catalog-file", str(path),
    )
    assert code == 0
    assert payload["braid"] == "1 1 1 1 1 1"
    # the name "1" shadows the single-letter braid word
    code, payload, _ = run_json(
        capsys, "compute", "--operator", "type1", "--braid", "1",
        "--catalog-file", str(path),
    )
    assert code == 0
    assert payload["braid"] == "1 1 1"
    assert payload["writhe"] == 3


def test_blank_catalog_name_exits_2(tmp_path, capsys):
    # a blank name would shadow the empty braid word, the identity
    path = tmp_path / "links.tsv"
    path.write_text("\t2\t1 1 1\n")
    code, out, err = run_cli(capsys, "compute", "--operator", "type1", "--braid", "", "--strands", "2",
                             "--catalog-file", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {path}:1: empty link name\n"


def test_huge_catalog_record_costs_nothing_until_used(tmp_path, capsys):
    # loading a record does not allocate per strand; using it hits the float-range refusal
    path = tmp_path / "links.tsv"
    path.write_text("big\t1000000000\t1\n")
    code, _, err = run_cli(capsys, "compute", "--operator", "type1", "--braid", "unknot", "--catalog-file", str(path))
    assert code == 0 and err == ""
    code, out, err = run_cli(capsys, "compute", "--operator", "type1", "--braid", "big", "--catalog-file", str(path))
    assert code == 3 and out == "" and "overflows a float" in err


def test_compute_exit_codes(capsys):
    code, _, err = run_cli(capsys, "compute", "--operator", "nope", "--braid", "unknot")
    assert code == 2 and "error:" in err
    code, _, err = run_cli(capsys, "compute", "--operator", "type1", "--braid", "1 x 2")
    assert code == 2
    code, _, err = run_cli(
        capsys, "compute", "--operator", "custom:/nonexistent.mat", "--braid", "unknot",
        "--alpha", "1", "--beta", "1",
    )
    assert code == 2
    code, payload, _ = run_json(
        capsys, "compute", "--operator", "type1", "--braid", "", "--strands", "11"
    )
    assert code == 0
    assert payload["value"]["re"] == pytest.approx(4096.0, abs=1e-6)


def test_peak_cap_exit_codes(capsys, monkeypatch):
    word = " ".join(map(str, random_braid(11, 20, seed=3).letters))
    argv = ("compute", "--operator", "type1", "--braid", word, "--strands", "11")
    code, want, _ = run_json(capsys, *argv)
    assert code == 0
    monkeypatch.setattr("gyblink.rep.PEAK_CAP", 64)
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("error:") and "cap" in err and len(err.splitlines()) == 1
    code, payload, _ = run_json(capsys, *argv, "--allow-large")
    assert code == 0 and payload == want


def test_out_of_memory_exits_3(capsys, monkeypatch):
    # an evaluation that runs past the machine's memory, as an --allow-large
    # word can, is refused with exit 3 and one line naming the array size, not
    # a traceback and exit 1; _contract is stubbed to fail, nothing large is built
    def no_memory(*args):
        raise MemoryError("stub")

    word = " ".join(map(str, random_braid(9, 40, seed=5).letters))
    monkeypatch.setattr("gyblink.rep._contract", no_memory)
    code, out, err = run_cli(capsys, "compute", "--operator", "type1", "--braid", word, "--strands", "9", "--allow-large")
    assert code == 3 and out == ""
    assert err.startswith("error: ran out of memory") and "elements" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("flag", [(), ("--allow-large",)])
@pytest.mark.parametrize("braid", [("", "--strands", "2000"), ("300000000",)])
def test_float_range_refusal(capsys, flag, braid):
    code, out, err = run_cli(capsys, "compute", "--operator", "type1", "--braid", *braid, *flag)
    assert code == 3 and out == ""
    assert err.startswith("error:") and "overflows a float" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("n", [24, 64])
def test_wide_words_under_the_default_cap(capsys, n):
    word = " ".join(map(str, random_braid(n, 20, seed=n).letters))
    code, payload, err = run_json(capsys, "compute", "--operator", "type1", "--braid", word, "--strands", str(n))
    assert code == 0 and err == ""
    assert payload["strands"] == n and np.isfinite(payload["value"]["re"])


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("operator, flag", [
    ("type1", "--theta"), ("r232", "--theta"), ("custom", "--alpha"), ("custom", "--beta"),
])
def test_nonfinite_parameters_exit_2(tmp_path, capsys, operator, flag, value):
    argv = ["compute", "--operator", operator, "--braid", "trefoil", "--output", "json"]
    if operator == "custom":
        path = tmp_path / "op.mat"
        write_operator_file(path, build_type3(0.0))
        argv[2] = f"custom:{path}"
        argv += ["--alpha=1", "--beta=1.4142135623730951"]
    code, out, err = run_cli(capsys, *argv, f"{flag}={value}")
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("weights, braid", [
    (("--alpha", "1e-300", "--beta", "1"), ("1 1 1 1 1 1 1 1",)),  # Python raises ZeroDivisionError
    (("--alpha", "1e200", "--beta", "1"), ("1 1 1 1 1 1 1 1",)),  # Python returns NaN
    (("--alpha", "1", "--beta", "1e-300"), ("", "--strands", "50")),
    (("--alpha", "1e-100", "--beta", "1e-100"), ("1 1",)),  # each power is finite, their product is not
])
def test_weight_powers_past_the_float_range_exit_2(tmp_path, capsys, weights, braid):
    path = tmp_path / "op.mat"
    write_operator_file(path, build_type1(0.3))
    argv = ["compute", "--operator", f"custom:{path}", "--braid", *braid, *weights, "--output", "json"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "not a finite number" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("output", ["text", "json"])
@pytest.mark.parametrize("scale", [1e120, 1e200])
def test_verify_of_overflowing_entries_exits_2(tmp_path, capsys, scale, output):
    # the residual products overflow a float: a NaN braid-relation residual
    # at 1e120, an infinite unitarity residual too at 1e200; neither reaches
    # the output, and numpy's overflow warnings stay off stderr
    path = tmp_path / "big.mat"
    write_operator_file(path, load_custom(scale * np.eye(8), GybType(2, 3, 1)))
    code, out, err = run_cli(capsys, "verify", "--operator", f"custom:{path}", "--output", output)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "residual" in err and len(err.splitlines()) == 1


def test_compute_with_overflowing_entries_prints_one_line(tmp_path, capsys):
    path = tmp_path / "big.mat"
    write_operator_file(path, load_custom(1e200 * np.eye(8), GybType(2, 3, 1)))
    argv = ["compute", "--operator", f"custom:{path}", "--braid", "1 1", "--alpha", "1", "--beta", "1"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("command", [
    ("verify",),
    ("compute", "--braid", "", "--strands", "100", "--alpha=1", "--beta=1"),  # past numpy's 64 dimensions
])
def test_one_dimensional_operator_file_exits_2(tmp_path, capsys, command):
    path = tmp_path / "d1.mat"
    path.write_text("1 2 1\n1\n")
    code, out, err = run_cli(capsys, command[0], "--operator", f"custom:{path}", *command[1:])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "d >= 2" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("header", ["1 2 1", "2 3 3"])
def test_operator_file_header_error_names_the_file(tmp_path, capsys, header):
    # a header GybType rejects (d < 2, stride not below span) names the file
    # and line, as every other operator-file error does
    path = tmp_path / "bad.mat"
    path.write_text(f"{header}\n1\n")
    code, out, err = run_cli(capsys, "verify", "--operator", f"custom:{path}")
    assert code == 2 and out == ""
    assert err.startswith("error:") and f"{path}:1:" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("token", ["1_0", "\u0663", "\uff13", "1.0", "+3"])
@pytest.mark.parametrize("reader", ["word", "catalog", "header", "--strands", "--trials", "--seed"])
def test_every_integer_reads_by_one_rule(tmp_path, capsys, reader, token):
    # ASCII [+-]?[0-9]+ wherever an integer is read; int() alone also reads
    # "1_0" and non-ASCII digits
    catalog, header = tmp_path / "links.tsv", tmp_path / "op.mat"
    catalog.write_text(f"x\t{token}\t1\n", encoding="utf-8")
    write_operator_file(header, build_type1(0.3))
    rows = header.read_text().splitlines()[1:]
    header.write_text("\n".join([f"2 {token} 1", *rows]) + "\n", encoding="utf-8")
    argv = {
        "word": ["compute", "--operator", "type1", "--braid", token],
        "catalog": ["compute", "--operator", "type1", "--braid", "x", "--catalog-file", str(catalog)],
        "header": ["verify", "--operator", f"custom:{header}"],
        "--strands": ["compute", "--operator", "type1", "--braid", "1", "--strands", token],
        "--trials": ["suite", "--operator", "type1", "--trials", token],
        "--seed": ["verify", "--operator", "type1", "--seed", token],
    }[reader]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr().out
    if token == "+3":
        assert code == 0 and out
    else:
        assert code == 2 and out == ""


@pytest.mark.parametrize("kind", ["operator", "catalog"])
def test_a_byte_order_mark_reads_like_the_plain_file(tmp_path, capsys, kind):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    if kind == "operator":
        write_operator_file(plain, build_type1(0.3))
        argv = ["verify", "--operator", "custom:{}"]
    else:
        plain.write_text("knot\t2\t1 1 1\n")
        argv = ["compute", "--operator", "type1", "--braid", "knot", "--catalog-file", "{}"]
    marked.write_text("\ufeff" + plain.read_text(), encoding="utf-8")
    want, got = (run_cli(capsys, *(token.format(path) for token in argv)) for path in (plain, marked))
    assert want[0] == 0 and want[1] and got == want


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@st.composite
def compute_argv(draw):
    n = draw(st.integers(1, 10**9))
    letters = draw(st.lists(st.integers(1, max(n - 1, 1)), max_size=8 if n > 1 else 0))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=len(letters), max_size=len(letters)))
    argv = [
        "compute",
        "--operator", draw(st.sampled_from(("type1", "type2", "type3", "r232"))),
        f"--theta={draw(st.floats())!r}",
        f"--braid={' '.join(str(s * g) for s, g in zip(signs, letters))}",
        "--strands", str(n),
        "--output", "json",
    ]
    return argv + (["--allow-large"] if draw(st.booleans()) else [])


@settings(max_examples=60, deadline=None)
@given(compute_argv())
def test_compute_fuzz_keeps_the_exit_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_reject_constant)
    else:
        assert out.getvalue() == ""


@pytest.mark.parametrize("argv", [
    "compute --operator custom:{dir} --braid unknot --alpha 1 --beta 1",
    "compute --operator custom: --braid unknot --alpha 1 --beta 1",
    "verify --operator custom:{dir}",
    "verify --operator custom:{dir}/missing.mat",
    "compute --operator type1 --braid unknot --catalog-file {dir}",
    "compute --operator custom:{utf16} --braid unknot --alpha 1 --beta 1",
    "verify --operator custom:{utf16}",
    "compute --operator type1 --braid unknot --catalog-file {utf16}",
])
def test_file_input_errors_exit_2(tmp_path, capsys, argv):
    utf16 = tmp_path / "utf16.txt"
    utf16.write_bytes("# \u03b8 = 0.4\n".encode("utf-16"))
    code, out, err = run_cli(capsys, *argv.format(dir=tmp_path, utf16=utf16).split())
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "utf16" not in argv or str(utf16) in err


def test_output_errors_are_not_usage_errors(monkeypatch):
    # exit 2 is for bad input; a failing stdout (a closed pipe) is not one
    def closed_pipe(args):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr("gyblink.cli.cmd_compute", closed_pipe)
    with pytest.raises(BrokenPipeError):
        main(["compute", "--operator", "type1", "--braid", "trefoil"])


def test_custom_operator_needs_weights(tmp_path, capsys):
    path = tmp_path / "op.mat"
    write_operator_file(path, build_type3(0.0))
    code, _, err = run_cli(
        capsys, "compute", "--operator", f"custom:{path}", "--braid", "unknot"
    )
    assert code == 2 and "alpha" in err
    code, payload, _ = run_json(
        capsys, "compute", "--operator", f"custom:{path}", "--braid", "trefoil",
        "--alpha", "1", "--beta", "1.4142135623730951",
    )
    assert code == 0
    assert payload["operator"] == "custom"
    assert payload["value"]["re"] == pytest.approx(-2 * np.sqrt(2.0), abs=1e-9)


def test_verify_catalog_json(capsys):
    code, payload, _ = run_json(capsys, "verify", "--operator", "type1", "--theta", "0.8")
    assert code == 0
    assert payload["pass"] is True
    assert payload["gtype"] == [2, 3, 1]
    assert payload["outer_diagonal"] is True
    assert payload["residuals"]["braid_relation"] < 1e-12
    assert payload["enhancement"]["verdict"] == "structural"
    code, payload, _ = run_json(capsys, "verify", "--operator", "r232")
    assert code == 0
    assert payload["outer_diagonal"] is None
    assert payload["enhancement"]["verdict"] == "strong"


def test_verify_text_output(capsys):
    code, out, _ = run_cli(capsys, "verify", "--operator", "type3")
    assert code == 0
    assert "braid_relation residual" in out
    assert "verdict: structural" in out
    assert "PASS" in out


def test_verify_custom_operator(tmp_path, capsys):
    good = tmp_path / "good.mat"
    write_operator_file(good, build_type3(0.5))
    code, payload, _ = run_json(capsys, "verify", "--operator", f"custom:{good}")
    assert code == 0
    assert payload["pass"] is True
    assert "enhancement" not in payload

    rng = np.random.default_rng(7)
    z = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    q, _ = np.linalg.qr(z)
    from gyblink.operators import GybType, load_custom

    bad = tmp_path / "bad.mat"
    write_operator_file(bad, load_custom(q, GybType(2, 3, 1), "randu"))
    code, payload, _ = run_json(capsys, "verify", "--operator", f"custom:{bad}")
    assert code == 1
    assert payload["pass"] is False
    assert payload["residuals"]["braid_relation"] > 0.1


def test_suite_all_operators(capsys):
    code, payload, _ = run_json(capsys, "suite", "--trials", "2", "--seed", "5")
    assert code == 0
    assert payload["pass"] is True
    pairs = {(row["operator"], row["relation"]) for row in payload["relations"]}
    assert ("type1", "markov") in pairs
    assert ("type2", "quartic") in pairs
    assert ("type3", "skein") in pairs
    assert ("type3/r232", "cross_operator") in pairs
    assert all(row["residual"] < 1e-9 for row in payload["relations"])


def test_suite_single_operator(capsys):
    code, out, _ = run_cli(capsys, "suite", "--operator", "type2", "--trials", "2")
    assert code == 0
    assert "quartic" in out
    assert "cross_operator" not in out
    code, _, err = run_cli(capsys, "suite", "--operator", "custom:/x.mat", "--trials", "1")
    assert code == 2


def test_suite_fails_on_a_nan_trial(capsys, monkeypatch):
    # a NaN residual in the middle trial must reach the row, not fall out of the fold
    import gyblink.cli

    real, calls = gyblink.cli.skein_check, []

    def skein_check(*args):
        calls.append(real(*args))
        return float("nan") if len(calls) == 2 else calls[-1]

    monkeypatch.setattr(gyblink.cli, "skein_check", skein_check)
    code, out, _ = run_cli(capsys, "suite", "--operator", "type1", "--trials", "3")
    assert len(calls) == 3
    assert code == 1
    assert "skein              max residual nan" in out
    assert out.rstrip().endswith("FAIL (tolerance 1e-09)")


def test_tolerance_env_default(capsys, monkeypatch):
    monkeypatch.setenv("GYBLINK_TOLERANCE", "0.01")
    code, payload, _ = run_json(capsys, "verify", "--operator", "type1")
    assert code == 0
    assert payload["tolerance"] == 0.01
    for value in ("1e-30", "0"):
        monkeypatch.setenv("GYBLINK_TOLERANCE", value)
        code, payload, _ = run_json(capsys, "verify", "--operator", "type1")
        assert code == 1  # float residuals cannot meet an impossible tolerance
        assert payload["tolerance"] == float(value)


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_suite_rejects_nonpositive_trials(capsys, trials):
    code, out, err = run_cli(capsys, "suite", "--operator", "type1", "--trials", trials)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("value", ["abc", "nan", "inf", "-inf", "-5", "-1e-300"])
def test_tolerance_env_must_be_finite(capsys, monkeypatch, value):
    monkeypatch.setenv("GYBLINK_TOLERANCE", value)
    for argv in (("verify", "--operator", "type1"), ("suite", "--operator", "type1", "--trials", "1")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: GYBLINK_TOLERANCE") and len(err.splitlines()) == 1
        assert err.rstrip().endswith(f"got {value!r}")  # quoted as given
    # compute compares no residuals, so it never reads the variable
    code, out, err = run_cli(capsys, "compute", "--operator", "type1", "--braid", "trefoil")
    assert code == 0 and "value (raw): -8" in out and err == ""
    # an explicit --tolerance overrides the bad default
    code, payload, _ = run_json(capsys, "verify", "--operator", "type1", "--tolerance", "0.01")
    assert code == 0
    assert payload["tolerance"] == 0.01


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "abc", "-5e-1"])
def test_tolerance_flag_must_be_finite(capsys, value):
    code, out, err = run_cli(capsys, "verify", "--operator", "type1", "--tolerance", value)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --tolerance") and len(err.splitlines()) == 1
    assert err.rstrip().endswith(f"got {value!r}")  # quoted as given, as GYBLINK_TOLERANCE is


@pytest.mark.parametrize("argv, code", [
    (("compute", "--operator", "type1", "--braid", "trefoil", "--theta", "-2e-1"), 0),
    (("compute", "--operator", "type2", "--braid", "figure8", "--theta", "-inf"), 2),
    (("verify", "--operator", "type2", "--theta", "-1e-1"), 0),
    (("verify", "--operator", "type1", "--tolerance", "-1e-3"), 2),
    (("suite", "--operator", "type1", "--trials", "1", "--tolerance", "-1e-3"), 2),
    (("suite", "--operator", "type3", "--trials", "1", "--tolerance", "-0"), 1),
    (("compute", "--operator", "custom", "--braid", "trefoil", "--alpha", "-0.5j", "--beta", "1"), 0),
    (("compute", "--operator", "custom", "--braid", "trefoil", "--alpha", "1", "--beta", "-1.5e0"), 0),
    # prefixes that argparse resolves to one option
    (("compute", "--operator", "type1", "--braid", "trefoil", "--thet", "-2e-1"), 0),
    (("compute", "--operator", "type1", "--braid", "trefoil", "--t", "-2e-1"), 0),
    (("verify", "--operator", "type1", "--tol", "-1e-3"), 2),
    (("suite", "--operator", "type1", "--trials", "1", "--to", "-1e-3"), 2),
    (("compute", "--operator", "custom", "--braid", "trefoil", "--alp", "-0.5j", "--be", "-1"), 0),
])
def test_negative_values_read_as_with_equals(tmp_path, capsys, argv, code):
    # "--theta -2e-1" reads as "--theta=-2e-1", though argparse alone takes
    # only "-\d+" and "-\d*\.\d+" for negative numbers
    path = tmp_path / "op.mat"
    write_operator_file(path, build_type3(0.0))
    argv = [f"custom:{path}" if token == "custom" else token for token in argv]
    joined = argv[:-2] + [f"{argv[-2]}={argv[-1]}"]
    if argv[-4].startswith("--al"):
        joined = argv[:-4] + [f"{argv[-4]}={argv[-3]}", f"{argv[-2]}={argv[-1]}"]
    split = run_cli(capsys, *argv)
    assert split == run_cli(capsys, *joined)
    assert split[0] == code and "usage" not in split[2]
    assert len(split[2].splitlines()) <= 1


@pytest.mark.parametrize("argv", [
    ("compute", "--operator", "type1", "--braid", "trefoil", "--seed", "1"),
    ("compute", "--operator", "type1", "--braid", "trefoil", "--tolerance", "1"),
    ("verify", "--operator", "type1", "--allow-large"),
    ("suite", "--trials", "1", "--allow-large"),
    ("suite", "--trials", "1", "--theta", "1"),
    ("verify", "--operator", "type1", "--seed", "-1"),
    ("suite", "--trials", "1", "--seed", "x"),
    # an ambiguous prefix before a negative value keeps argparse's own error
    ("verify", "--operator", "type1", "--t", "-1e-3"),
    ("suite", "--trials", "1", "--t", "-1e-3"),
    ("compute", "--operator", "type1", "--braid", "trefoil", "--al", "-1"),
    ("compute", "--operator", "type1", "--braid", "trefoil", "--strands", "1_0"),
    ("compute", "--operator", "type1"),
    ("nope",),
])
def test_unread_or_bad_options_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("command", [("compute", "--braid", "trefoil"), ("verify",)])
def test_theta_outside_the_range_warns_once(capsys, command):
    code, out, err = run_cli(capsys, command[0], "--operator", "type1", *command[1:], "--theta=1e20")
    assert code == 0 and out
    assert err.startswith("warning: theta=1e+20") and len(err.splitlines()) == 1


@pytest.mark.parametrize("theta", ["-1.7976931348623157e308", "1e308"])
@pytest.mark.parametrize("command", [("compute", "--braid", "trefoil"), ("verify",)])
def test_theta_past_the_float_range_of_exp_exits_2(capsys, command, theta):
    # finite, but exp(2i theta) is NaN
    code, out, err = run_cli(capsys, command[0], "--operator", "type2", *command[1:], f"--theta={theta}")
    assert code == 2 and out == ""
    assert err.startswith("error: theta") and len(err.splitlines()) == 1


@st.composite
def check_argv(draw):
    command = draw(st.sampled_from(("verify", "suite")))
    seed = draw(st.one_of(st.integers(-3, 3), st.integers(0, 2**70)))
    argv = [command, "--operator", "type1", "--output", "json", f"--seed={seed}"]
    if draw(st.booleans()):
        argv.append(f"--tolerance={draw(st.one_of(st.floats().map(repr), st.text(max_size=6)))}")
    if command == "verify":
        argv.append(f"--theta={draw(st.floats())!r}")
    else:
        argv.append(f"--trials={draw(st.integers(-2, 2))}")
    return argv


@settings(max_examples=30, deadline=None)
@given(check_argv())
def test_check_fuzz_keeps_the_exit_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code in (0, 1):
        json.loads(out.getvalue(), parse_constant=_reject_constant)
    else:
        assert out.getvalue() == ""


def test_help_ignores_bad_tolerance_env(capsys, monkeypatch):
    monkeypatch.setenv("GYBLINK_TOLERANCE", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert "--tolerance" in capsys.readouterr().out


def test_cli_imports_no_undeclared_dependency():
    # numpy is the only declared dependency; scipy, sympy and networkx are
    # often installed beside it, and importing one would slow every call
    src = str(Path(gyblink.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, gyblink.cli; print(sorted({'scipy', 'sympy', 'networkx'} & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["[]"]


def test_module_entry_point_exit_codes(capsys):
    # `python -m gyblink.cli` goes through cli.run(), which turns main's code into the exit status
    src = str(Path(gyblink.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}

    def child(*argv):
        return subprocess.run([sys.executable, "-m", "gyblink.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    argv = ["compute", "--operator", "type1", "--braid", "trefoil", "--output", "json"]
    result = child(*argv)
    assert result.returncode == 0, result.stderr
    assert result.stdout == run_cli(capsys, *argv)[1]
    result = child("compute", "--operator", "type1", "--braid", "1 x 2")
    assert result.returncode == 2 and result.stderr.startswith("error: ")
    result = child("compute", "--operator", "type1", "--braid", "", "--strands", "2000")
    assert result.returncode == 3 and result.stderr.startswith("error: ")


def test_run_freezes_the_heap_before_exit():
    # cli.run() freezes what the call made before it exits, so the
    # collections at interpreter exit skip it
    src = str(Path(gyblink.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import gc, sys\nfrom gyblink import cli\n"
            "sys.argv[1:] = ['compute', '--operator', 'type1', '--braid', 'trefoil']\n"
            "try:\n    cli.run()\nfinally:\n    print(gc.get_freeze_count())")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert int(result.stdout.split()[-1]) > 0
