import gc
import hashlib
import re
from pathlib import Path

import pytest

from gddkit import cli, classify
from gddkit.cli import main
from gddkit.core import parse_blocks
from gddkit.roots import UnityRoot
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


def test_check_output_is_pinned(capsys):
    """The stdout of ``check --db`` on every transcribed fixture block and
    every stored row, as first recorded: every line it prints (classical
    readings, Cartan type and affine family, verdict, quasi-affinity and
    shape) is held fixed."""
    digest = hashlib.sha256()
    for path in sorted(FIXTURES.glob("*.gdd")) + [Path(DATA)]:
        assert main(["check", str(path), "--db", DATA]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == (
        "fed4a41272406cb8abea6faf9e24a6d152f836dd7c368a7e3de57f0ae838cd57"
    )


def test_check_batch_output_is_pinned(capsys):
    """The stdout of ``check --db`` on the 306 blocks of the benchmark's
    check batch (``perfbench/data/check_batch.gdd``), as first recorded:
    27 of them are quasi-affine, so each of their connected deletions is
    decided, and every line printed about them is held fixed."""
    path = Path(__file__).parent.parent / "perfbench" / "data" / "check_batch.gdd"
    assert main(["check", str(path), "--db", DATA]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "b47fa909b0e569e5fd94763202072bceaec6b30b4c11db797f39d343d5e98f44"
    )


def test_check_output_on_all_fixture_blocks_is_pinned(tmp_path, capsys):
    """The stdout of one ``check --db`` call on the 334 fixture blocks in
    one file, all quasi-affine, and on the same blocks each with a leaf
    labelled -1 added at vertex 0, none arithmetic or quasi-affine, as
    recorded before the classical readings were shared: the quasi-affine
    and shape lines of each are held fixed."""
    text = "\n".join(path.read_text().rstrip("\n") + "\n"
                     for path in sorted(FIXTURES.glob("*.gdd")))
    blocks = parse_blocks(text)
    assert len(blocks) == 334
    leafed = "\n\n".join(
        g.add_vertex(UnityRoot(g.modulus // 2, g.modulus), [(0, g.diag[0] ** -1)]).to_text()
        for g, _, _ in blocks)
    digests = []
    for name, body in (("fixtures", text), ("leafed", leafed)):
        path = tmp_path / f"{name}.gdd"
        path.write_text(body)
        assert main(["check", str(path), "--db", DATA]) == 0
        digests.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    assert digests == [
        "8902357c9ff062480b749c7a722a8fe121e275f71e5c4f35a6ee0150cf26c75f",
        "14d777e4558ce5d275689ee38bfe6128d51ca9bca44bad008a0e19c5a22e25c2",
    ]


def test_check_reads_each_diagram_once(monkeypatch, capsys):
    """``check --db`` on the check batch builds one classify reading per
    input diagram and, as recorded, no other (306 in all: no shape tag there
    queries a continual extension), and keeps at most one reading alive
    once it returns."""
    path = Path(__file__).parent.parent / "perfbench" / "data" / "check_batch.gdd"
    inputs, built = [], []
    parse, init = cli.parse_blocks, classify._Subsets.__init__

    def parsed(text):
        blocks = parse(text)
        inputs.extend(g for g, _, _ in blocks)
        return blocks

    def counted(self, g):
        built.append(g)
        init(self, g)

    monkeypatch.setattr(cli, "parse_blocks", parsed)
    monkeypatch.setattr(classify._Subsets, "__init__", counted)
    assert main(["check", str(path), "--db", DATA]) == 0
    capsys.readouterr()
    assert len(inputs) == 306
    assert all(sum(h is g for h in built) == 1 for g in inputs)
    assert len(built) == 306
    gc.collect()
    assert sum(isinstance(o, classify._Subsets) for o in gc.get_objects()) <= 1


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
    (["enumerate", "--rank", "6", "--modulus", "5", "--db", DATA],
     "modulus must be even and >= 2, got 5"),
], ids=["check-missing", "verify-missing", "export-dot-missing", "db-validate-missing",
        "enumerate-expected-missing", "enumerate-q-order-1", "catalogue-q-order-1",
        "enumerate-modulus-66", "enumerate-modulus-5"])
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


def test_export_dot_reexpresses_labels_in_the_parameter_group(monkeypatch, capsys):
    """A diagram over mu_4 whose labels are all -1 renders with q of order
    2, in mu_2, where it once stopped on a modulus mismatch."""
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("gdd M=4 n=2\ndiag 2 2\nedge 1 2 2\n"))
    rc = main(["export-dot", "-"])
    out = capsys.readouterr().out
    assert rc == 0 and out.count("graph gdd {") == 1
    assert out.count('[label="q"]') == 3


def test_export_dot_falls_back_to_exponents(monkeypatch, capsys):
    """Labels of orders 3 and 4 need mu_12, which mu_lcm(2, 4) does not
    hold: they render as z^e."""
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("gdd M=12 n=2\ndiag 4 3\nedge 1 2 6\n"))
    rc = main(["export-dot", "-"])
    out = capsys.readouterr().out
    assert rc == 0 and out.count("graph gdd {") == 1
    assert '[label="z^4"]' in out and '[label="z^6"]' in out


def test_export_dot_renders_every_check_batch_diagram(capsys):
    """The diagrams of the check-batch benchmark input (the fixtures and
    perfbench/data/check_batch.gdd): one graph per block, exit 0."""
    paths = sorted(FIXTURES.glob("*.gdd"))
    paths.append(Path(__file__).parent.parent / "perfbench" / "data" / "check_batch.gdd")
    for path in paths:
        rc = main(["export-dot", str(path)])
        out = capsys.readouterr().out
        assert rc == 0, path
        assert out.count("graph gdd {") == len(parse_blocks(path.read_text())), path


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


def test_enumerate_modulus_and_order_of_q_write_one_report(tmp_path):
    """--modulus 4 and its alias --order-of-q 4 (M = lcm(2, 4)) write
    byte-identical reports."""
    texts = []
    for flag in ("--modulus", "--order-of-q"):
        out = tmp_path / f"{flag[2:]}.txt"
        assert main(["enumerate", "--rank", "6", flag, "4", "--db", DATA,
                     "--out", str(out)]) == 0
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]
    assert texts[0].startswith(b"# quasi-affine enumeration rank=6 modulus=4\n")


@pytest.mark.parametrize("flags", [[], ["--modulus", "4", "--order-of-q", "4"]],
                         ids=["neither", "both"])
def test_enumerate_takes_exactly_one_of_modulus_and_order_of_q(capsys, flags):
    """A usage error exits 1 with one line on stderr; 2 means a mismatch."""
    assert main(["enumerate", "--rank", "6", *flags, "--db", DATA]) == 1
    err = capsys.readouterr().err
    assert "--modulus" in err
    assert err.count("\n") == 1


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--help"])
    assert exc.value.code == 0
    assert "--modulus" in capsys.readouterr().out


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
