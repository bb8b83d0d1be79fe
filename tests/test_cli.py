"""End-to-end tests of the command line, driven through ``run(argv)``."""

import io
import json
import xml.etree.ElementTree as ET
from collections import Counter

import pytest

import polyposet.census as census
from polyposet.cli import run


def out_of(capsys):
    return capsys.readouterr().out


# ---------------------------------------------------------------------------
# inspection commands
# ---------------------------------------------------------------------------


def test_intervals(capsys):
    assert run(["intervals", "21"]) == 0
    assert out_of(capsys) == "{1} {2} [1,2]\n"


def test_intervals_sorted_by_size(capsys):
    assert run(["intervals", "5123647"]) == 0
    line = out_of(capsys).strip().split()
    assert line == ["{1}", "{2}", "{3}", "{4}", "{5}", "{6}", "{7}",
                    "[1,2]", "[2,3]", "[1,3]", "[1,6]", "[1,7]"]


def test_poset(capsys):
    assert run(["poset", "2413"]) == 0
    lines = out_of(capsys).splitlines()
    assert lines[0] == "n 4"
    assert lines[1] == "intervals {1} {2} {3} {4} [1,4]"
    assert lines[2:] == ["[1,4] -> {1}", "[1,4] -> {2}",
                         "[1,4] -> {3}", "[1,4] -> {4}"]


def test_classify(capsys):
    assert run(["classify", "4253716"]) == 0
    assert out_of(capsys) == \
        "simple: false, block-wise simple: true, tree poset: true\n"
    assert run(["classify", "123"]) == 0
    assert out_of(capsys) == \
        "simple: false, block-wise simple: false, tree poset: false\n"


# ---------------------------------------------------------------------------
# the correspondence, both ways
# ---------------------------------------------------------------------------


def test_phi(capsys):
    assert run(["phi", "5123647"]) == 0
    assert out_of(capsys) == "m 8\n1 3\n1 4\n1 7\n2 4\n"


def test_phi_simple(capsys):
    assert run(["phi", "2413"]) == 0
    assert out_of(capsys) == "m 5\n"


def test_inverse(capsys):
    assert run(["inverse", "8", "1,3", "2,4", "1,4", "1,7"]) == 0
    assert out_of(capsys) == (
        "n 7\n1 1\n1 2\n1 3\n1 6\n1 7\n2 2\n2 3\n"
        "3 3\n4 4\n5 5\n6 6\n7 7\n")


def test_inverse_accepts_dash_chords(capsys):
    assert run(["inverse", "4", "1-3"]) == 0
    assert out_of(capsys) == "n 3\n1 1\n1 2\n1 3\n2 2\n3 3\n"


def test_inverse_no_chords(capsys):
    assert run(["inverse", "5"]) == 0
    assert out_of(capsys) == "n 4\n1 1\n1 4\n2 2\n3 3\n4 4\n"


def test_inverse_rejects_non_diagonal(capsys):
    assert run(["inverse", "8", "1,2"]) == 1
    assert run(["inverse", "8", "1,9"]) == 1
    assert run(["inverse", "8", "nonsense"]) == 1


def test_inverse_output_feeds_realize(tmp_path, capsys):
    assert run(["inverse", "8", "1,3", "2,4", "1,4", "1,7"]) == 0
    family_file = tmp_path / "family.txt"
    family_file.write_text(out_of(capsys), encoding="utf-8")
    assert run(["realize", "--n", "7", "--intervals", str(family_file)]) == 0
    assert out_of(capsys) == "4612357\n"


# ---------------------------------------------------------------------------
# realize
# ---------------------------------------------------------------------------


def test_realize_from_file(tmp_path, capsys):
    path = tmp_path / "fam.txt"
    path.write_text("n 4\n# trivial intervals plus nothing else\n"
                    "1 1\n2 2\n3 3\n4 4\n1 4\n", encoding="utf-8")
    assert run(["realize", "--n", "4", "--intervals", str(path)]) == 0
    assert out_of(capsys) == "2413\n"


def test_realize_from_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin",
                        io.StringIO("1 1\n2 2\n3 3\n4 4\n1 4\n"))
    assert run(["realize", "--n", "4", "--intervals", "-"]) == 0
    assert out_of(capsys) == "2413\n"


def test_realize_unrealizable_family(tmp_path, capsys):
    path = tmp_path / "fam.txt"
    path.write_text("1 1\n2 2\n3 3\n4 4\n1 2\n2 3\n1 4\n", encoding="utf-8")
    assert run(["realize", "--n", "4", "--intervals", str(path)]) == 0
    assert out_of(capsys) == "none\n"


def test_realize_out_of_range_interval_is_input_error(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin",
                        io.StringIO("1 1\n2 2\n3 3\n4 4\n1 4\n0 9\n"))
    assert run(["realize", "--n", "4", "--intervals", "-"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: interval (0, 9) out of range for n=4\n"


def test_realize_header_mismatch(tmp_path, capsys):
    path = tmp_path / "fam.txt"
    path.write_text("n 5\n1 1\n", encoding="utf-8")
    assert run(["realize", "--n", "4", "--intervals", str(path)]) == 1


@pytest.mark.parametrize("text, line", [
    ("n 4\n1 1\n2 x\n", "line 3: cannot parse '2 x'"),
    ("# order\nn four\n1 1\n", "line 2: cannot parse 'n four'"),
    ("1 1\n2 2\nn 4\n", "line 3: cannot parse 'n 4'"),
], ids=["bad-entry", "bad-header", "header-after-data"])
def test_realize_malformed_line_is_named(tmp_path, capsys, text, line):
    path = tmp_path / "fam.txt"
    path.write_text(text, encoding="utf-8")
    assert run(["realize", "--n", "4", "--intervals", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {line}\n"


def test_realize_missing_file():
    assert run(["realize", "--n", "4", "--intervals", "/no/such/file"]) == 1


def test_realize_cap_exit_code(tmp_path):
    path = tmp_path / "fam.txt"
    lines = [f"{i} {i}" for i in range(1, 10)] + ["1 9"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run(["realize", "--n", "9", "--intervals", str(path)]) == 3
    assert run(["realize", "--n", "9", "--cap", "9",
                "--intervals", str(path)]) == 0


def test_realize_too_deep_for_the_search_is_an_error_line(monkeypatch,
                                                          capsys):
    # the trivial family of order 1100 is one prime node, whose pattern
    # the prefix search would find one recursion level per position
    lines = [f"{i} {i}" for i in range(1, 1101)] + ["1 1100"]
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
    assert run(["realize", "--n", "1100", "--cap", "1100",
                "--intervals", "-"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: order 1100 is too deep for the prefix "
                          "search") and err.count("\n") == 1, err


def test_realize_deep_family(monkeypatch, capsys):
    # the intervals of 1 400 2 399 ... 200 201: singletons and suffixes
    lines = [f"{i} {i}" for i in range(1, 401)]
    lines += [f"{k + 1} {400 - k}" for k in range(200)]
    lines += [f"{k + 2} {400 - k}" for k in range(199)]
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
    assert run(["realize", "--n", "400", "--cap", "400",
                "--intervals", "-"]) == 0
    assert out_of(capsys).startswith("1 400 2 399 ")


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------


def test_census_blockwise(capsys):
    assert run(["census", "--max-n", "7", "--class", "blockwise"]) == 0
    lines = out_of(capsys).splitlines()
    rows = [line.split() for line in lines[1:5]]
    assert [r[0] for r in rows] == ["4", "5", "6", "7"]
    assert [r[2] for r in rows] == ["1", "1", "1", "5"]
    assert [r[3] for r in rows] == ["1", "1", "1", "5"]
    assert all(r[4] == "yes" for r in rows)


def test_census_mismatch_exit_code(capsys):
    code = run(["census", "--max-n", "3", "--min-n", "2",
                "--class", "blockwise"])
    assert code == 2
    assert "NO" in out_of(capsys)


def test_census_cap_exit_code(capsys):
    assert run(["census", "--max-n", "10", "--class", "all"]) == 3


def test_census_cap_exits_before_any_scan(monkeypatch, capsys):
    def no_scan(*args, **kwargs):
        raise AssertionError("the poset side ran before the cap check")

    monkeypatch.setattr(census, "distinct_posets", no_scan)
    assert run(["census", "--max-n", "10", "--class", "all"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "m=11 exceeds the cap 9 for framed-quad-free" in err


def test_census_json_out(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(["census", "--max-n", "4", "--out", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert [row["n"] for row in payload["rows"]] == [1, 2, 3, 4]
    assert [row["poset_count"] for row in payload["rows"]] == [1, 1, 3, 12]
    assert payload["rows"][0]["class"] == "all"
    assert "pairing" in payload["conventions"]


def test_census_against_reference_fixture(fixtures_dir, capsys):
    code = run(["census", "--max-n", "6", "--class", "all",
                "--oeis", str(fixtures_dir / "b348479.txt"),
                "--offset", "0"])
    assert code == 0
    text = out_of(capsys)
    assert "alignment: sequence index k corresponds to order n = k + 0" in text
    assert text.count("yes") >= 12  # census rows and comparison rows


def test_census_against_tree_fixture(fixtures_dir, capsys):
    code = run(["census", "--max-n", "6", "--class", "tree",
                "--oeis", str(fixtures_dir / "b054515.txt"),
                "--offset", "1"])
    assert code == 0
    assert "n = k + 1" in out_of(capsys)


def test_census_against_blockwise_fixture(fixtures_dir, capsys):
    code = run(["census", "--max-n", "7", "--class", "blockwise",
                "--oeis", str(fixtures_dir / "b054514.txt"),
                "--offset", "3"])
    assert code == 0
    assert "n = k + 3" in out_of(capsys)


def test_census_alignment_header_with_negative_offset(tmp_path, capsys):
    shifted = tmp_path / "shifted.txt"
    shifted.write_text("2 1\n3 1\n4 3\n5 12\n", encoding="utf-8")
    assert run(["census", "--max-n", "4", "--class", "all",
                "--oeis", str(shifted), "--offset", "-1"]) == 0
    text = out_of(capsys)
    assert "alignment: sequence index k corresponds to order n = k - 1" \
        in text
    assert "+ -" not in text


def test_census_reference_mismatch(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 1\n2 1\n3 99\n", encoding="utf-8")
    code = run(["census", "--max-n", "3", "--class", "all",
                "--oeis", str(bad), "--offset", "0"])
    assert code == 2
    text = out_of(capsys)
    assert "NO" in text
    assert "reference sequence: 1, 1, 99" in text


def test_census_with_no_order_in_range_is_usage_error(capsys):
    assert run(["census", "--max-n", "3", "--class", "blockwise"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no blockwise order" in captured.err


def test_census_max_n_zero_is_usage_error(capsys):
    assert run(["census", "--max-n", "0"]) == 1
    assert out_of(capsys) == ""


def test_census_min_n_zero_is_usage_error(capsys):
    assert run(["census", "--max-n", "3", "--min-n", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: order must be at least 1" in captured.err


@pytest.mark.parametrize("argv", [["census", "--max-n", "3"],
                                  ["verify", "--max-n", "2"]],
                         ids=lambda argv: argv[0])
def test_threads_option_is_gone(argv, capsys):
    assert run([*argv, "--threads", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --threads 2" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["census"], "polyposet census: error: the following arguments are "
                 "required: --max-n"),
    (["census", "--max-n", "4", "--class", "nope"], "invalid choice"),
], ids=["missing-option", "invalid-choice"])
def test_argparse_error_is_usage_error(argv, message, capsys):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: polyposet census")
    assert message in captured.err


def test_help_exits_zero(capsys):
    assert run(["census", "--help"]) == 0
    assert out_of(capsys).startswith("usage: polyposet census")


def test_census_with_no_aligned_reference_term_is_usage_error(
        fixtures_dir, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(["census", "--max-n", "3",
                "--oeis", str(fixtures_dir / "b348479.txt"),
                "--offset", "100", "--out", str(out)]) == 1
    assert "no census order aligns" in capsys.readouterr().err
    assert not out.exists()


def test_census_malformed_reference(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 one\n", encoding="utf-8")
    assert run(["census", "--max-n", "3", "--class", "all",
                "--oeis", str(bad)]) == 1


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify(capsys):
    assert run(["verify", "--max-n", "3"]) == 0
    text = out_of(capsys)
    assert "n=3 tree-iff-no-triple-sum: pass" in text
    assert "n=2 image-framed-quad-free: pass" in text
    assert "FAIL" not in text
    # 4 identity checks + 3 image checks per order
    assert len(text.splitlines()) == 21


def test_verify_walks_each_order_once(capsys, monkeypatch):
    real_block, scans = census._scan_block, Counter()

    def spy_block(n, blockwise):
        scans[n, blockwise] += 1
        return real_block(n, blockwise)

    monkeypatch.setattr(census, "_scan_block", spy_block)
    # one walk of S_n for the identity, all and tree checks, one pruned
    # block-wise scan; a second run in the same process reuses no scan
    for _ in range(2):
        scans.clear()
        assert run(["verify", "--max-n", "6"]) == 0
        assert "FAIL" not in out_of(capsys)
        assert scans == {(n, blockwise): 1 for n in range(1, 7)
                         for blockwise in (False, True)}


def test_verify_max_n_zero_is_usage_error(capsys):
    assert run(["verify", "--max-n", "0"]) == 1
    assert out_of(capsys) == ""


# ---------------------------------------------------------------------------
# render
# ---------------------------------------------------------------------------


def test_render_poset_dot(capsys):
    assert run(["render", "--poset", "5123647", "--format", "dot"]) == 0
    text = out_of(capsys)
    assert text.startswith("digraph interval_poset {")
    assert text.count(" -> ") == 12


def test_render_polygon_svg(tmp_path, capsys):
    polygon_file = tmp_path / "d.txt"
    polygon_file.write_text("m 8\n1 3\n1 4\n1 7\n2 4\n", encoding="utf-8")
    out = tmp_path / "figure.svg"
    assert run(["render", "--polygon", str(polygon_file),
                "--format", "svg", "--out", str(out)]) == 0
    root = ET.fromstring(out.read_text(encoding="utf-8"))
    assert root.tag.endswith("svg")
    assert len(root.findall("{http://www.w3.org/2000/svg}line")) == 4


def test_render_polygon_from_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("m 5\n1 3\n"))
    assert run(["render", "--polygon", "-", "--format", "svg"]) == 0
    assert out_of(capsys).startswith("<?xml")


def test_render_format_pairing_enforced(capsys):
    assert run(["render", "--poset", "2413", "--format", "svg"]) == 1
    assert run(["render", "--polygon", "-", "--format", "dot"]) == 1


def test_render_requires_exactly_one_source():
    assert run(["render", "--format", "dot"]) == 1
    assert run(["render", "--poset", "21", "--polygon", "x",
                "--format", "dot"]) == 1


# ---------------------------------------------------------------------------
# usage errors and help
# ---------------------------------------------------------------------------


def test_bad_permutation_exit_code():
    assert run(["intervals", "102"]) == 1
    assert run(["intervals", "2414"]) == 1
    assert run(["poset", ""]) == 1


def test_missing_arguments():
    assert run([]) == 1
    assert run(["intervals"]) == 1
    assert run(["census"]) == 1
    assert run(["no-such-command"]) == 1
    assert run(["census", "--max-n", "4", "--class", "nope"]) == 1


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "polyposet" in out_of(capsys)
