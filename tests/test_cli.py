import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qmmp import cli, gf, oracle
from qmmp.dyck import DyckPath
from qmmp.mmp import QuadrantSpec
from qmmp.perm import Permutation
from qmmp.series import IntPoly, TSeries, catalan

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_poly_text(text):
    if text == "0":
        return {}
    out = {}
    for term in text.split("+"):
        m = re.fullmatch(r"(\d+)?(?:x(?:\^(\d+))?)?", term)
        assert m, term
        coeff = int(m.group(1) or 1)
        expo = int(m.group(2) or (1 if "x" in term else 0))
        out[expo] = coeff
    return out


def parse_table(text):
    out = {}
    for line in text.strip().splitlines():
        head, _, poly = line.partition(": ")
        assert head.startswith("t^")
        out[int(head[2:])] = parse_poly_text(poly)
    return out


def test_series_table_examples(capsys):
    code, out, _ = run_cli(capsys, "series", "--avoid", "123", "--spec", "0,1,0,0", "--max-n", "5")
    assert code == 0
    assert "t^5: 28x^3+14x^4" in out
    code, out, _ = run_cli(capsys, "series", "--avoid", "132", "--spec", "e,0,e,0", "--max-n", "4")
    assert code == 0
    assert "t^4: 6+4x+3x^2+x^4" in out
    code, out, _ = run_cli(capsys, "series", "--avoid", "123", "--spec", "0,0,0,0", "--max-n", "0")
    assert code == 0
    assert out.strip() == "t^0: 1"


def test_formats_carry_identical_coefficients(capsys):
    argv = ("series", "--avoid", "132", "--spec", "1,1,e,0", "--max-n", "6")
    _, table_out, _ = run_cli(capsys, *argv)
    table = parse_table(table_out)

    _, csv_out, _ = run_cli(capsys, *argv, "--format", "csv")
    lines = csv_out.strip().splitlines()
    assert lines[0] == "n,xexp,coeff"
    csv_data = {}
    for line in lines[1:]:
        n, e, c = (int(v) for v in line.split(","))
        csv_data.setdefault(n, {})[e] = c

    _, json_out, _ = run_cli(capsys, *argv, "--format", "json")
    payload = json.loads(json_out)
    assert payload["avoid"] == "132" and payload["spec"] == "1,1,e,0"
    json_data = {
        row["n"]: {term["xexp"]: int(term["coeff"]) for term in row["terms"]}
        for row in payload["series"]
    }
    json_data = {n: d for n, d in json_data.items() if d}

    table = {n: d for n, d in table.items() if d}
    assert table == csv_data == json_data


def test_engines_agree(capsys):
    for avoid, spec in (("123", "0,2,0,0"), ("123", "0,1,0,1"), ("132", "2,1,e,1")):
        _, auto_out, _ = run_cli(capsys, "series", "--avoid", avoid, "--spec", spec, "--max-n", "7")
        _, brute_out, _ = run_cli(
            capsys, "series", "--avoid", avoid, "--spec", spec, "--max-n", "7",
            "--engine", "brute",
        )
        assert auto_out == brute_out


def test_auto_falls_back_to_brute(capsys):
    code, auto_out, _ = run_cli(
        capsys, "series", "--avoid", "132", "--spec", "0,1,0,0", "--max-n", "6"
    )
    assert code == 0
    _, brute_out, _ = run_cli(
        capsys, "series", "--avoid", "132", "--spec", "0,1,0,0", "--max-n", "6",
        "--engine", "brute",
    )
    assert auto_out == brute_out


def test_engine_choices_are_brute_and_the_router_kinds(capsys):
    # the CLI lists the engine kinds itself; they must stay gf.ENGINE_KINDS
    with pytest.raises(SystemExit):
        cli.main(["series", "--help"])
    choices = re.search(r"--engine \{([^}]*)\}", capsys.readouterr().out).group(1)
    assert sorted(choices.split(",")) == sorted(["brute", *gf.ENGINE_KINDS])


def test_brute_fallback_at_default_cap(capsys, monkeypatch):
    monkeypatch.delenv("MMP_MAX_N", raising=False)
    code, out, err = run_cli(
        capsys, "series", "--avoid", "132", "--spec", "0,1,0,0", "--max-n", "16"
    )
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert len(lines) == 17
    assert lines[-1].startswith("t^16:")


def test_brute_fallback_past_default_cap_notes_its_states(capsys, monkeypatch):
    # above the default cap the brute path says what it walks before it
    # starts; the series is stubbed, so no 2^17-state walk runs
    def stub(tau, spec, trunc):
        return TSeries([IntPoly({0: 1})] * (trunc + 1))

    monkeypatch.setattr(oracle, "brute_series", stub)
    monkeypatch.setenv("MMP_MAX_N", "17")
    want = "\n".join(stub(None, None, 17).render_lines()) + "\n"
    note = (
        "note: brute force to t^17 (above the default cap 16) "
        "walks up to 2^17 = 131072 prefix states per row\n"
    )
    for engine in ("auto", "brute"):
        code, out, err = run_cli(
            capsys, "series", "--avoid", "132", "--spec", "0,1,0,0", "--max-n", "17",
            "--engine", engine,
        )
        assert (code, out, err) == (0, want, note), engine
    # no note at the default cap, nor when an engine answers
    code, out, err = run_cli(
        capsys, "series", "--avoid", "132", "--spec", "0,1,0,0", "--max-n", "16"
    )
    assert (code, err) == (0, "") and out.count("\n") == 17
    code, out, err = run_cli(
        capsys, "series", "--avoid", "132", "--spec", "0,1,e,0", "--max-n", "17"
    )
    assert (code, err) == (0, "") and out.count("\n") == 18


def test_verify_past_default_cap_notes_its_states(capsys, monkeypatch):
    # verify prints the series command's note; the subjects are stubbed, so
    # nothing walks
    asked = []

    def verify(subject, max_n):
        asked.append((subject, max_n))
        return oracle.VerificationReport(subject, ())

    monkeypatch.setattr(oracle, "verify", verify)
    monkeypatch.setattr(oracle, "verify_all", lambda max_n: [verify("all", max_n)])
    monkeypatch.setattr(oracle, "check_conjecture1", lambda k, t: verify("conjecture-1", t))
    monkeypatch.setenv("MMP_MAX_N", "17")
    note = (
        "note: brute force to t^17 (above the default cap 16) "
        "walks up to 2^17 = 131072 prefix states per row\n"
    )
    for subject in ("lemma-sym", "all"):
        code, out, err = run_cli(capsys, "verify", "--subject", subject, "--max-n", "17")
        assert (code, err) == (0, note)
        assert out.endswith(f"{subject}: PASS (0 pass, 0 fail, 0 skipped)\n")
        code, _, err = run_cli(capsys, "verify", "--subject", subject, "--max-n", "16")
        assert (code, err) == (0, "")
    # the subjects' own depths, and conjecture-1's oracle rows (n <= 9), stay unnoted
    code, _, err = run_cli(capsys, "verify", "--subject", "lemma-sym")
    assert (code, err) == (0, "")
    code, _, err = run_cli(capsys, "conjecture", "--max-n", "17")
    assert (code, err) == (0, "")
    assert asked == [
        ("lemma-sym", 17), ("lemma-sym", 16), ("all", 17), ("all", 16),
        ("lemma-sym", None), ("conjecture-1", 17),
    ]


def test_large_slots_give_the_brute_force_series(capsys):
    for avoid, text in (
        ("132", "e,900,e,0"),
        ("132", "0,900,e,0"),
        ("132", "900,0,e,0"),
        ("123", "0,0,0,900"),
        ("123", "0,1,900,0"),
        ("123", "900,0,e,0"),
    ):
        code, out, err = run_cli(capsys, "series", "--avoid", avoid, "--spec", text, "--max-n", "4")
        assert code == 0 and err == "", (avoid, text, err)
        brute = oracle.brute_series(oracle.class_from_text(avoid), QuadrantSpec.parse(text), 4)
        assert out.splitlines() == brute.render_lines(), (avoid, text)


def test_engine_spec_mismatch_errors(capsys):
    code, out, err = run_cli(
        capsys, "series", "--avoid", "123", "--spec", "0,3,0,1", "--max-n", "6",
        "--engine", "closed",
    )
    assert code == 1 and out == ""
    assert "no closed form" in err
    code, _, err = run_cli(
        capsys, "series", "--avoid", "123", "--spec", "0,3,0,1", "--max-n", "6",
        "--engine", "recurrence",
    )
    assert code == 1 and "brute" in err
    code, _, err = run_cli(
        capsys, "series", "--avoid", "132", "--spec", "0,1,0,0", "--max-n", "6",
        "--engine", "closed",
    )
    assert code == 1 and "recurrence, brute" in err


def test_bad_spec_errors(capsys):
    code, _, err = run_cli(capsys, "series", "--avoid", "123", "--spec", "0,1,0", "--max-n", "3")
    assert code == 1 and "invalid quadrant spec" in err
    code, out, err = run_cli(capsys, "series", "--avoid", "132", "--spec", "0,²,0,0")
    assert code == 1 and out == ""
    assert err.strip() == "error: invalid quadrant spec '0,²,0,0': bad slot '²'"


def test_max_n_cap(capsys, monkeypatch):
    monkeypatch.setenv("MMP_MAX_N", "4")
    code, out, err = run_cli(
        capsys, "series", "--avoid", "123", "--spec", "0,1,0,0", "--max-n", "9"
    )
    assert code == 0
    assert "capped to 4" in err
    assert out.strip().splitlines()[-1].startswith("t^4:")
    # int() would take all but "junk"; "-3" used to cap every request to 0
    for bad in ("junk", "٣", "1_0", "-3"):
        monkeypatch.setenv("MMP_MAX_N", bad)
        code, out, err = run_cli(
            capsys, "series", "--avoid", "123", "--spec", "0,1,0,0", "--max-n", "9"
        )
        assert code == 1 and out == "" and err.startswith("error:") and "MMP_MAX_N" in err


def test_too_deep_a_recursion_is_one_error_line():
    # the engines recurse top-down, so a large enough explicit cap runs out
    # of Python stack: that is one error line naming the depth, no traceback.
    # A subprocess with a timeout, so that a lost guard fails instead of hanging.
    # The deep threshold may sit in either swapped slot, and the guard must
    # fire before any shallow series is computed to t^251.
    env = dict(os.environ, MMP_MAX_N="400", PYTHONPATH=str(SRC))
    for spec in ("0,250,e,0", "e,250,e,0", "0,1,e,250", "1,0,e,250", "2,250,e,1"):
        argv = ["series", "--avoid", "132", "--spec", spec, "--max-n", "251"]
        done = subprocess.run(
            [sys.executable, "-m", "qmmp.cli", *argv], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 1 and done.stdout == "", spec
        assert done.stderr.startswith("error: depth 251 ") and "MMP_MAX_N" in done.stderr
        assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr
    # (e, 1, e, 250) is (e, 250, e, 1) by lemma-sym: a match needs 252 points,
    # so through t^251 every coefficient is the constant C_n
    argv = ["series", "--avoid", "132", "--spec", "e,1,e,250", "--max-n", "251"]
    done = subprocess.run(
        [sys.executable, "-m", "qmmp.cli", *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout.splitlines() == [f"t^{n}: {catalan(n)}" for n in range(252)]


def test_deep_123_peak_spec_is_one_bottom_up_walk():
    # (0, k, 0, 0) over 123-avoiders is a walk over heights, not a recursion:
    # a deep threshold at a deep cap prints every degree and exits promptly.
    env = dict(os.environ, MMP_MAX_N="400", PYTHONPATH=str(SRC))
    argv = ["series", "--avoid", "123", "--spec", "0,250,0,0", "--max-n", "251"]
    done = subprocess.run(
        [sys.executable, "-m", "qmmp.cli", *argv], env=env, capture_output=True, text=True, timeout=60
    )
    lines = done.stdout.splitlines()
    assert done.returncode == 0 and done.stderr == ""
    assert len(lines) == 252 and lines[-1].startswith("t^251:")


def test_bijection_examples(capsys):
    code, out, _ = run_cli(capsys, "bijection", "--map", "psi", "--input", "869743251",
                           "--show", "path")
    assert code == 0 and out.strip() == "DDRDDRRRDDRDRDRRDR"
    code, out, _ = run_cli(capsys, "bijection", "--map", "psi", "--input", "869743251",
                           "--show", "lift")
    assert code == 0 and out.strip() == "8,6,10,9,4,3,2,7,1,5"
    code, out, _ = run_cli(capsys, "bijection", "--map", "phi", "--input", "867943251",
                           "--show", "path")
    assert code == 0 and out.strip() == "DDRDDRRRDDRDRDRRDR"
    code, out, _ = run_cli(capsys, "bijection", "--map", "phi",
                           "--input", "DDRDDRRRDDRDRDRRDR", "--show", "perm")
    assert code == 0 and out.strip() == "867943251"
    code, out, _ = run_cli(capsys, "bijection", "--map", "psi",
                           "--input", "DDRDDRRRDDRDRDRRDR", "--show", "stats")
    assert code == 0
    assert "returns: 4,8,9" in out and "ret: 3" in out and "hills: 1" in out


def test_bijection_error_diagnostics(capsys):
    code, _, err = run_cli(capsys, "bijection", "--map", "phi", "--input", "RDRD")
    assert code == 1 and "position 1" in err
    code, _, err = run_cli(capsys, "bijection", "--map", "phi", "--input", "132")
    assert code == 1 and "132" in err
    code, _, err = run_cli(capsys, "bijection", "--map", "psi", "--input", "123")
    assert code == 1 and "123" in err
    code, _, err = run_cli(capsys, "bijection", "--map", "phi", "--input", "1a2")
    assert code == 1 and "invalid permutation" in err
    # --show perm checks the pattern as the other views do
    for map_name, text in (("psi", "123"), ("phi", "132")):
        argv = ("bijection", "--map", map_name, "--input", text, "--show", "perm")
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == "" and f"contains a {text} pattern" in err
    code, out, _ = run_cli(capsys, "bijection", "--map", "phi", "--input", "312", "--show", "perm")
    assert code == 0 and out == "312\n"


# user text: digits, separators, the spec and path letters, whitespace and
# digits outside ASCII that str.isdigit accepts
user_text = st.text(
    st.sampled_from(list("0123456789,eDR \t") + ["\u0663", "\uff15", "\u00b2"]), max_size=12
)
maps = st.sampled_from(["phi", "psi"])
views = st.sampled_from(["path", "perm", "stats", "lift"])


@settings(max_examples=300, deadline=None)
@given(user_text)
def test_parsers_raise_only_value_error(text):
    for parse in (QuadrantSpec.parse, Permutation.parse, DyckPath.parse):
        try:
            parse(text)
        except ValueError:
            pass


@settings(max_examples=300, deadline=None)
@given(user_text, maps, views)
def test_bijection_exits_cleanly(text, map_name, show):
    argv = ["bijection", "--map", map_name, "--input", text, "--show", show]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert cli.main(argv) in (0, 1)


def test_verify_command(capsys):
    code, out, _ = run_cli(capsys, "verify", "--subject", "corollary-1", "--max-n", "5")
    assert code == 0
    assert "corollary-1: PASS" in out
    assert all(len(line.split("; ")) == 4 for line in out.splitlines() if "; " in line)
    # the known x^1 disagreement makes this subject fail honestly
    code, out, _ = run_cli(capsys, "verify", "--subject", "theorem-3", "--max-n", "4")
    assert code == 1 and "theorem-3: FAIL" in out
    code, _, err = run_cli(capsys, "verify", "--subject", "theorem-99")
    assert code == 1 and "unknown subject" in err


def test_conjecture_command(capsys):
    code, out, _ = run_cli(capsys, "conjecture", "--k-max", "2", "--max-n", "7")
    assert code == 0
    assert "conjecture-1: PASS" in out


def test_paper_tables_files(tmp_path, capsys, monkeypatch):
    first = tmp_path / "a"
    second = tmp_path / "b"
    names = cli.write_paper_tables(first, trunc=5)
    assert len(names) == 59 and "errata.txt" in names
    assert (first / "Q_132_01e0.txt").exists()
    assert (first / "Q_123_0101.txt").exists()
    assert (first / "Q_132_e0e0.txt").exists()
    table = parse_table((first / "Q_132_01e0.txt").read_text())
    assert table[4] == {0: 1, 1: 6, 2: 6, 3: 1}
    cli.write_paper_tables(second, trunc=5)
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()
    # the subcommand writes into the working directory
    monkeypatch.chdir(tmp_path / "cwd_run" if (tmp_path / "cwd_run").mkdir() is None else tmp_path)
    monkeypatch.setattr(cli, "TABLE_TRUNC", 4)
    code, out, _ = run_cli(capsys, "paper-tables")
    assert code == 0 and "wrote 59 files" in out
    assert (tmp_path / "cwd_run" / "Q_123_0202.txt").exists()


def test_table_file_names():
    assert cli.table_file_name("132", QuadrantSpec.parse("0,1,e,0")) == "Q_132_01e0.txt"
    assert len(cli.paper_table_specs()) == 58
