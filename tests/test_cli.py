import re
from pathlib import Path

import pytest

from gddkit.cli import main
from gddkit.search import enumerate_quasi_affine
from gddkit.tables import load

DATA = str(Path(__file__).parent.parent / "src" / "gddkit" / "data" / "exceptional_rows.gdd")
FIXTURES = Path(__file__).parent / "fixtures"

ITEM_11_1_1 = """\
# item=11.1.1 N=3
gdd M=6 n=6
diag 2 2 3 2 2 2
edge 1 2 4
edge 1 6 4
edge 2 3 4
edge 3 4 4
edge 4 5 4
edge 5 6 4
"""

AFFINE_A11 = """\
gdd M=10 n=2
diag 2 2
edge 1 2 6
"""

CHAIN_T7 = """\
gdd M=6 n=5
diag 2 2 2 2 2
edge 1 2 4
edge 2 3 4
edge 3 4 4
edge 4 5 4
"""


@pytest.fixture
def files(tmp_path):
    d = {}
    for name, text in [
        ("item", ITEM_11_1_1), ("a11", AFFINE_A11), ("chain", CHAIN_T7)
    ]:
        p = tmp_path / f"{name}.gdd"
        p.write_text(text)
        d[name] = str(p)
    return d


def test_check_quasi_affine_item(files, capsys):
    rc = main(["check", files["item"], "--db", DATA])
    out = capsys.readouterr().out
    assert rc == 0
    assert "quasi-affine: YES" in out
    assert "arithmetic: no" in out


def test_check_affine_catalogue_member(files, capsys):
    rc = main(["check", files["a11"], "--db", DATA])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Cartan type: yes (affine)" in out
    assert "affine family: A^(1)_1" in out
    assert "arithmetic: no" in out


def test_check_classical_chain(files, capsys):
    rc = main(["check", files["chain"], "--db", DATA])
    out = capsys.readouterr().out
    assert rc == 0
    assert "classical: yes (T7)" in out
    assert "arithmetic: yes" in out


def test_check_is_deterministic(files, capsys):
    main(["check", files["item"], "--db", DATA])
    first = capsys.readouterr().out
    main(["check", files["item"], "--db", DATA])
    second = capsys.readouterr().out
    assert first == second


def test_check_parse_error_exit_1(tmp_path, capsys):
    p = tmp_path / "bad.gdd"
    p.write_text("gdd M=6 n=2\ndiag 2 2\nedge 1 2 0\n")
    assert main(["check", str(p)]) == 1


@pytest.mark.parametrize("command", ["check", "db-validate"])
def test_non_integer_edge_field_exit_1(tmp_path, capsys, command):
    p = tmp_path / "bad.gdd"
    p.write_text("# row=1 gdd=1 N=3\ngdd M=6 n=4\ndiag 2 2 2 2\nedge 1 x 4\n")
    argv = ["check", str(p)] if command == "check" else ["db-validate", "--db", str(p)]
    assert main(argv) == 1
    assert "line 4" in capsys.readouterr().err


def test_check_reports_every_diagram_after_a_gap(tmp_path, capsys):
    # rank 3 lies below the database's coverage, so the first diagram is
    # undecided; the chain after it must still be reported
    gap = "gdd M=6 n=3\ndiag 1 1 2\nedge 1 2 1\nedge 2 3 1\n"
    p = tmp_path / "two.gdd"
    p.write_text(gap + "\n" + CHAIN_T7)
    assert main(["check", str(p), "--db", DATA]) == 3
    out = capsys.readouterr().out
    assert "diagram 1:" in out and "arithmetic: undecided" in out
    assert "diagram 2: rank 5" in out and "arithmetic: yes" in out


def test_check_classical_diagram_above_generation_bound(tmp_path, capsys):
    # an A3 chain with q of order 33: its minimal modulus 66 lies above
    # tables.MAX_MODULUS, which bounds generation, not recognition
    p = tmp_path / "a3.gdd"
    p.write_text("gdd M=66 n=3\ndiag 2 2 2\nedge 1 2 64\nedge 2 3 64\n")
    assert main(["check", str(p), "--db", DATA]) == 0
    captured = capsys.readouterr()
    assert "  arithmetic: yes (witness: classical)\n" in captured.out
    assert captured.err == ""


def test_enumerate_without_db_exit_3(capsys, tmp_path):
    rc = main(["enumerate", "--rank", "6", "--order-of-q", "3",
               "--out", str(tmp_path / "r.txt")])
    assert rc == 3


def test_enumerate_rejects_small_rank(capsys, tmp_path):
    rc = main(["enumerate", "--rank", "5", "--order-of-q", "3", "--db", DATA])
    assert rc == 1
    assert capsys.readouterr().err == "error: enumeration is defined for rank >= 6\n"
    with pytest.raises(ValueError):
        enumerate_quasi_affine(5, 6, load(DATA))


@pytest.mark.parametrize("modulus", [0, 1, 3, 9])
def test_enumerate_rejects_odd_or_small_modulus(modulus):
    with pytest.raises(ValueError, match="modulus must be even and >= 2"):
        enumerate_quasi_affine(6, modulus, load(DATA))


@pytest.mark.parametrize("argv, message", [
    (["check", "MISSING"], "No such file"),
    (["verify", "--report", "MISSING", "--expected", "MISSING"], "No such file"),
    (["export-dot", "MISSING"], "No such file"),
    (["db-validate", "--db", "MISSING"], "No such file"),
    (["enumerate", "--rank", "6", "--order-of-q", "4", "--db", DATA,
      "--expected", "MISSING"], "No such file"),
    (["enumerate", "--rank", "6", "--order-of-q", "1", "--db", DATA],
     "order of q must be >= 2"),
    (["catalogue", "--order-of-q", "1"], "order of q must be >= 2"),
    (["enumerate", "--rank", "6", "--order-of-q", "33", "--db", DATA],
     "modulus 66 above configured bound 64"),
], ids=["check-missing", "verify-missing", "export-dot-missing", "db-validate-missing",
        "enumerate-expected-missing", "enumerate-q-order-1", "catalogue-q-order-1",
        "enumerate-modulus-66"])
def test_bad_input_exit_1_with_one_line(tmp_path, capsys, argv, message):
    missing = str(tmp_path / "missing.gdd")
    rc = main([missing if a == "MISSING" else a for a in argv])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err


def test_db_validate(capsys):
    rc = main(["db-validate", "--db", DATA])
    out = capsys.readouterr().out
    assert rc == 0
    assert "99 entries" not in out  # conjugate expansion enlarges the count
    assert "entries after conjugate expansion" in out


def test_db_validate_bad_file(tmp_path, capsys):
    p = tmp_path / "bad.gdd"
    p.write_text("# row=1 gdd=1 N=3\ngdd M=6 n=2\ndiag 0 2\nedge 1 2 4\n")
    assert main(["db-validate", "--db", str(p)]) == 1


def test_catalogue(capsys):
    rc = main(["catalogue", "--order-of-q", "5", "--max-rank", "6"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "family=G1_2" in out  # ord(q) = 5 > 3 admits it
    assert "family=A2_2\n" in out  # ord(q) = 5 > 4 admits it
    blocks = [b for b in out.split("\n\n") if b.strip().startswith("# family")]
    assert len(blocks) >= 16


def test_catalogue_excludes_small_orders(capsys):
    main(["catalogue", "--order-of-q", "3", "--max-rank", "6"])
    out = capsys.readouterr().out
    assert "family=G1_2" not in out  # needs ord(q) > 3
    assert "family=A1_N" in out


def test_export_dot(files, capsys):
    rc = main(["export-dot", files["item"]])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("--") == 6  # six labelled edges
    assert out.count("[label=") == 12  # six vertices + six edges


def test_export_dot_stdin(monkeypatch, capsys):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(CHAIN_T7))
    rc = main(["export-dot", "-"])
    out = capsys.readouterr().out
    assert rc == 0 and "v1 -- v2" in out


def test_enumerate_restricted_smoke(tmp_path, capsys):
    # a tiny run through the command path: rank 6, expected = empty file
    out = tmp_path / "report.txt"
    expected = tmp_path / "none.gdd"
    expected.write_text("")
    rc = main([
        "enumerate", "--rank", "6", "--order-of-q", "4", "--db", DATA,
        "--out", str(out), "--expected", str(expected),
    ])
    assert rc == 0
    text = out.read_text()
    assert "quasi-affine enumeration rank=6" in text
    assert "matched=0 missing=0" in text


def test_enumerate_report_is_keyed_by_modulus(tmp_path):
    """--order-of-q 3 and 6 both search over mu_6 and write one report,
    whose count line keeps the format the benchmark parses."""
    texts = []
    for order in ("3", "6"):
        out = tmp_path / f"q{order}.txt"
        assert main(["enumerate", "--rank", "6", "--order-of-q", order, "--db", DATA,
                     "--out", str(out)]) == 0
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]
    head = texts[0].decode().splitlines()[:2]
    assert head[0] == "# quasi-affine enumeration rank=6 modulus=6"
    assert re.fullmatch(r"# bases=\d+ candidates=\d+ pruned-by-filters=0 found=\d+",
                        head[1])


def test_verify_subcommand(tmp_path, capsys):
    report = tmp_path / "report.gdd"
    report.write_text(ITEM_11_1_1)
    good = tmp_path / "good.gdd"
    good.write_text(ITEM_11_1_1)
    assert main(["verify", "--report", str(report), "--expected", str(good)]) == 0
    out = capsys.readouterr().out
    assert "missing=0" in out

    other = tmp_path / "other.gdd"
    other.write_text(CHAIN_T7)
    assert main(["verify", "--report", str(report), "--expected", str(other)]) == 2
