import io
import json
import sys

import pytest

from nakayama import ar
from nakayama.cli import main
from nakayama.kupisch import KupischSeries, parse_series
from nakayama.render import RenderSpec, render

from oracles import render_oracle

# the module: the package's name render is the function
render_module = sys.modules["nakayama.render"]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out


def test_validate(capsys):
    code, out = run(capsys, "validate", "--kupisch", "2,2,1")
    assert code == 0 and "valid" in out
    code, out = run(capsys, "validate", "--kupisch", "2,1,1")
    assert code == 2
    code, out = run(capsys, "validate", "--kupisch", "2,1,1", "--json")
    assert code == 2 and json.loads(out)["violation"] == "entry-below-two"


def test_check_nct_exit_codes(capsys):
    code, _ = run(capsys, "check-nct",
                  "--kupisch", "2,3,3,3,3,3,3,3,3,3,3,3,2,2,1", "--n", "9")
    assert code == 0
    code, _ = run(capsys, "check-nct",
                  "--kupisch", "4,4,4,4,4,4,3,2,1", "--n", "2")
    assert code == 1
    code, _ = run(capsys, "check-nct", "--kupisch", "2,1,1", "--n", "2")
    assert code == 2


def test_batch_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin",
                        io.StringIO("2,2,2,1\n5,5,4^7,3,2,1\n"))
    code, out = run(capsys, "check-nct", "--kupisch", "-", "--n", "2", "--json")
    lines = [json.loads(line) for line in out.strip().splitlines()]
    # both lines are emitted and the worst verdict drives the exit code
    assert [rec["ok"] for rec in lines] == [False, True]
    assert code == 1


def test_ar_quiver_batch_goes_on_past_missing_highlight(capsys, monkeypatch):
    # a highlighted vertex missing from one line's quiver gets that line
    # an error record; the next line, whose quiver has it, still renders
    argv = ["ar-quiver", "--kupisch", "-", "--highlight", "[[3,1]]"]
    monkeypatch.setattr("sys.stdin", io.StringIO("2,1\n3,2,1\n"))
    code, out = run(capsys, *argv)
    assert code == 2 and "(3,1)" in out
    monkeypatch.setattr("sys.stdin", io.StringIO("2,1\n3,2,1\n"))
    code, out = run(capsys, *argv, "--json")
    records = [json.loads(line) for line in out.splitlines()]
    assert code == 2 and len(records) == 2
    assert records[0] == {"error": "highlighted vertices not in the "
                                   "quiver: [(3, 1)]"}
    assert records[1]["highlight"] == [[3, 1]]


@pytest.mark.parametrize("fmt", ["ascii", "dot", "tikz", "json"])
def test_ar_quiver_batch_builds_no_quiver(capsys, monkeypatch, fmt):
    # a stdin batch with a highlight, in every format: the bytes of the
    # ARQuiver emitters, and the error record of the line that lacks the
    # vertex, with ar_quiver never called
    def refuse(K):
        raise AssertionError("ar-quiver built an ARQuiver")

    lines = ["3,3,2,1", "2,1", "5,5,4^7,3,2,1"]
    for as_json in (False, True):
        spec = RenderSpec("json" if as_json else fmt, ((1, 1), (2, 2)), "dims")
        want = "".join(
            ('{"error": "highlighted vertices not in the quiver: [(2, 2)]"}\n'
             if as_json else "") if text == "2,1" else
            render_oracle(ar.ar_quiver(parse_series(text)), spec)
            + ("\n" if as_json else "") for text in lines)
        with monkeypatch.context() as patch:
            patch.setattr(ar, "ar_quiver", refuse)
            patch.setattr("sys.stdin", io.StringIO("\n".join(lines)))
            code, out = run(capsys, "ar-quiver", "--kupisch", "-",
                            "--format", fmt, "--labels", "dims",
                            "--highlight", "[[1, 1], [2, 2]]",
                            *(["--json"] if as_json else []))
        assert code == 2 and out == want


def test_check_nct_batch_worst_exit(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("2,2,1\n2,2,2,1\n"))
    code, out = run(capsys, "check-nct", "--kupisch", "-", "--n", "2")
    assert code == 1  # (2,2,2,1) is not 2-cluster-tilting


# JSON nested far deeper than json.loads decodes: it stops at its
# recursion limit, which differs between Python versions
DEEP = "[" * 100_000 + "]" * 100_000


def test_batch_isolates_bad_lines(capsys, monkeypatch):
    # a line that does not parse, or names no Kupisch series, gets one
    # error record; the lines after it still run and the exit code is
    # the worst one
    for argv, stdin, good, last_ok in (
            (["validate"], "2,2,1\nfoo\n2,1\n", "valid: 2,1 (m = 2)",
             lambda r: r.get("ok") is True),
            (["check-nct", "--n", "2"], '{"kupisch": %s}\n2,2,1\n' % DEEP,
             "2^2,1 n=2: ok", lambda r: r.get("ok") is True),
            (["check-nct", "--n", "2"], "3,1\n5,5,4^7,3,2,1\n",
             "5^2,4^7,3,2,1 n=2: ok", lambda r: r.get("ok") is True),
            (["ar-quiver"], "foo\n2,1\n", "   (1,1) (2,1)",
             lambda r: len(r["vertices"]) == 3),
            # a line "-" is no series, not the option refusal of "-"
            (["validate"], "-\n2,1\n", "valid: 2,1 (m = 2)",
             lambda r: r.get("ok") is True),
            (["check-nct", "--n", "2"], "-\n2,2,1\n", "2^2,1 n=2: ok",
             lambda r: r.get("ok") is True),
            (["ar-quiver"], "-\n2,1\n", "   (1,1) (2,1)",
             lambda r: len(r["vertices"]) == 3)):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code = main(argv + ["--kupisch", "-"])
        out = capsys.readouterr()
        assert code == 2
        assert out.out.splitlines()[-1] == good
        assert out.err.startswith("error: bad Kupisch series")
        assert len(out.err.splitlines()) == 1

        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code = main(argv + ["--kupisch", "-", "--json"])
        out = capsys.readouterr()
        records = [json.loads(line) for line in out.out.splitlines()]
        assert code == 2 and out.err == ""
        assert len(records) == len(stdin.splitlines())
        assert [r for r in records if "error" in r][0]["error"].startswith(
            "bad Kupisch series")
        assert last_ok(records[-1])


def test_verdict_round_trip(capsys):
    code, out = run(capsys, "check-fractured", "--kupisch", "5,5,4^7,3,2,1",
                    "--n", "2", "--json")
    assert code == 0
    verdict = json.loads(out)
    code, out = run(capsys, "check-fractured", "--kupisch", "5,5,4^7,3,2,1",
                    "--n", "2", "--json",
                    "--candidate", json.dumps(verdict["candidate"]))
    assert code == 0
    again = json.loads(out)
    assert again["ok"] and again["candidate"] == verdict["candidate"]


def test_check_fractured_with_fracturing(capsys):
    fr = {
        "TL": {"side": "left", "height": 5,
               "coords": [[2, 1], [2, 2], [1, 3], [1, 4], [1, 5]]},
        "TR": {"side": "right", "height": 5,
               "coords": [[11, 1], [10, 2], [10, 3], [9, 4], [8, 5]]},
    }
    code, out = run(capsys, "check-fractured",
                    "--kupisch", "5^8,4,3,2,1", "--n", "4", "--json",
                    "--fracturing", json.dumps(fr))
    assert code == 0
    data = json.loads(out)
    assert data["ok"] and len(data["candidate"]) == 16


def test_glue_command(capsys):
    code, out = run(capsys, "glue", "--b", "4,4,4,4,4,4,3,2,1",
                    "--a", "5,5,4,3,2,1", "--height", "3", "--check")
    assert code == 0 and out.strip() == "5^2,4^7,3,2,1"
    code, out = run(capsys, "glue", "--b", "4,4,4,4,4,4,3,2,1",
                    "--a", "5,5,4,3,2,1", "--height", "5", "--json")
    assert code == 2


def test_glue_check_prints_its_failure(capsys, monkeypatch):
    # check_glue fails only on a gldim bound that a bug breaks: patched
    # here, the text output names it and the exit code is 1
    monkeypatch.setattr(ar, "gldim", lambda K: 9 if K.m == 12 else 1)
    code, out = run(capsys, "glue", "--b", "4,4,4,4,4,4,3,2,1",
                    "--a", "5,5,4,3,2,1", "--height", "3", "--check")
    assert code == 1
    assert out == "glue failed: gldim bound violated: 1, 1 vs 9\n"


def test_glue_text_builds_no_json(capsys, monkeypatch):
    # the phi/psi tables cover every module; text output prints one line
    from nakayama.gluing import Glued

    def refuse(self):
        raise AssertionError("Glued.to_json called for text output")

    monkeypatch.setattr(Glued, "to_json", refuse)
    for check in ((), ("--check",)):
        code, out = run(capsys, "glue", "--b", "4,4,4,4,4,4,3,2,1",
                        "--a", "5,5,4,3,2,1", "--height", "3", *check)
        assert code == 0 and out == "5^2,4^7,3,2,1\n"


def test_construct_nd(capsys):
    code, out = run(capsys, "construct-nd", "--n", "9", "--d", "14",
                    "--emit", "kupisch")
    assert code == 0 and out.strip() == "2^5,3^5,2^6,1"
    code, out = run(capsys, "construct-nd", "--n", "6", "--d", "7")
    assert code == 2
    code, out = run(capsys, "construct-nd", "--n", "2", "--d", "4", "--json")
    assert code == 0
    cert = json.loads(out)
    assert cert["verdict"]["ok"] and cert["gldim"] == 4


def test_complete_slice_command(capsys):
    code, out = run(capsys, "complete-slice", "--h", "5",
                    "--slice", "2,2,1,1,1", "--n", "4", "--side", "right")
    assert code == 0 and "2^3,3^5,5^8,4,3,2,1" in out
    code, out = run(capsys, "complete-slice", "--h", "5",
                    "--slice", "2,2,1,1,1", "--n", "4", "--side", "right",
                    "--json")
    data = json.loads(out)
    assert data["sides"]["right_nct"] is True


def test_fractures_command(capsys):
    code, out = run(capsys, "fractures", "--kupisch", "5,5,4^7,3,2,1",
                    "--json")
    data = json.loads(out)
    assert code == 0
    assert data["left_heights"] == [1, 2, 3, 4]
    assert data["right_heights"] == [1, 2, 3, 4, 5]
    code, out = run(capsys, "fractures", "--kupisch", "4,4,4,4,4,4,3,2,1",
                    "--side", "right", "--height", "2", "--json")
    data = json.loads(out)
    assert len(data["fractures"]) == 2  # Catalan(2)
    levels = sorted(fr["level"] for fr in data["fractures"])
    assert levels == [1, 2]


def test_ar_quiver_command(capsys):
    code, out = run(capsys, "ar-quiver", "--kupisch", "2,2,1",
                    "--format", "dot")
    assert code == 0 and out.startswith("digraph")
    code, out = run(capsys, "ar-quiver", "--kupisch", "2,2,1", "--json")
    data = json.loads(out)
    assert len(data["vertices"]) == 5


def test_ascii_quiver_too_large_is_refused(capsys, monkeypatch):
    # the ascii text grows with rows times diagonals, so its size is
    # computed before a row is listed and refused above MAX_ASCII_BYTES:
    # a text of exactly the cap is written, one byte more is refused by
    # name (exit 2), and in a stdin batch the refused line gets one error
    # record while the others still render
    want = render(parse_series("3,3,2,1"), RenderSpec())
    monkeypatch.setattr(render_module, "MAX_ASCII_BYTES", len(want))
    code, out = run(capsys, "ar-quiver", "--kupisch", "3,3,2,1")
    assert code == 0 and out == want
    monkeypatch.setattr(render_module, "MAX_ASCII_BYTES", len(want) - 1)
    small = render(parse_series("2,1"), RenderSpec())
    with monkeypatch.context() as patch:
        patch.setattr(KupischSeries, "_rows", None)  # no row is listed
        code, err = input_error(capsys, "ar-quiver", "--kupisch", "3,3,2,1")
    assert code == 2
    assert err == (f"error: the ascii quiver would take {len(want)} bytes, "
                   f"more than MAX_ASCII_BYTES = {len(want) - 1}\n")
    monkeypatch.setattr("sys.stdin", io.StringIO("2,1\n3,3,2,1\n2,1\n"))
    code = main(["ar-quiver", "--kupisch", "-"])
    out = capsys.readouterr()
    assert code == 2 and out.out == small * 2
    assert out.err.count("MAX_ASCII_BYTES") == 1


def test_byte_identical_output(capsys):
    args = ("check-nct", "--kupisch", "5,5,4^7,3,2,1", "--n", "2", "--json")
    _, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args)
    assert out1 == out2


def test_usage_error(capsys):
    assert main(["check-nct", "--kupisch", "2,2,1"]) == 2  # missing --n


def input_error(capsys, *argv):
    """Exit code and stderr of a run."""
    code = main(list(argv))
    return code, capsys.readouterr().err


def test_run_length_below_one(capsys):
    for text in ("2^-3,1", "2^0,1"):
        code, err = input_error(capsys, "validate", "--kupisch", text)
        assert code == 2 and err.startswith("error: bad Kupisch series")


def test_vertex_cap(capsys):
    code, err = input_error(capsys, "validate", "--kupisch", "2^1000001,1")
    assert code == 2 and err.startswith("error: bad Kupisch series")
    assert "MAX_VERTICES" in err


def test_fracture_cap(capsys, monkeypatch):
    # Catalan(h) fractures of height h: a height whose count exceeds
    # MAX_FRACTURES exits 2 before any fracture is built
    from nakayama import cli
    monkeypatch.setattr(cli, "MAX_FRACTURES", 100)
    argv = ("fractures", "--kupisch", "6,5,4,3,2,1", "--side", "left")
    code, err = input_error(capsys, *argv, "--height", "6")  # Catalan 132
    assert code == 2
    assert err.startswith("error: --height 6 has Catalan(6) fractures")
    assert "MAX_FRACTURES = 100" in err
    code, out = run(capsys, *argv, "--height", "5", "--json")  # Catalan 42
    assert code == 0 and len(json.loads(out)["fractures"]) == 42


def test_fracture_cap_before_foundation(capsys, monkeypatch):
    # the cap is tested before the h(h+1)/2 foundation coordinates are
    # built; a height with no abutment keeps its named error
    from nakayama import abutments

    def refuse(*args):
        raise AssertionError("foundation built")

    monkeypatch.setattr(abutments, "foundation", refuse)
    argv = ("fractures", "--kupisch", ",".join(map(str, range(12, 0, -1))),
            "--side", "left")
    code, err = input_error(capsys, *argv, "--height", "12")
    assert code == 2
    assert err.startswith("error: --height 12 has Catalan(12) fractures")
    assert "MAX_FRACTURES = 100000" in err
    code, err = input_error(capsys, *argv, "--height", "13")
    assert code == 2
    assert err.startswith("error: no left abutment of height 13")


def test_check_nct_refuses_order_before_stdin(capsys, monkeypatch):
    # --n is refused once, before a line is read: an empty batch exits 2,
    # and a bad line gets no record ahead of the error
    for stdin in ("", "foo\n2,1\n"):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code, err = input_error(capsys, "check-nct", "--kupisch", "-",
                                "--n", "0")
        assert code == 2 and err == "error: n must be >= 1, got 0\n"
        assert sys.stdin.read() == stdin  # stdin is left unread
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code, out = run(capsys, "check-nct", "--kupisch", "-", "--n", "0",
                        "--json")
        assert code == 2
        assert out == '{"error": "n must be >= 1, got 0"}\n'


def test_construct_nd_cap(capsys):
    # 3*10^6 + 1 vertices: exit 2 with a named error, before any is built
    argv = ("construct-nd", "--n", "3", "--d", "3000000")
    code, err = input_error(capsys, *argv)
    assert code == 2
    assert err.startswith("error: construct(3, 3000000) would hold 6000002 ")
    assert "MAX_VERTICES = 1000000" in err
    code, out = run(capsys, *argv, "--json")
    assert code == 2 and "MAX_VERTICES" in json.loads(out)["error"]
    # the boundary for n = 2 on the base family path: 994 extensions of
    # the 9-vertex base are accepted, 995 (1,001,983 entries) are not
    code, out = run(capsys, "construct-nd", "--n", "2", "--d", "1993")
    assert code == 0
    code, err = input_error(capsys, "construct-nd", "--n", "2", "--d", "1995")
    assert code == 2
    assert err.startswith("error: construct(2, 1995) would hold 1001983 ")



def _descending(h):
    return ",".join(str(i) for i in range(h, 0, -1))


def test_complete_slice_height_cap(capsys):
    # a slice taller than MAX_SLICE_HEIGHT: exit 2 with a named error,
    # before any step of the completion
    argv = ("complete-slice", "--h", "1500", "--slice", _descending(1500),
            "--n", "2", "--side", "right")
    code, err = input_error(capsys, *argv)
    assert code == 2
    assert err == "error: slice height 1500 is more than " \
                  "MAX_SLICE_HEIGHT = 1000\n"
    code, out = run(capsys, *argv, "--json")
    assert code == 2 and "MAX_SLICE_HEIGHT" in json.loads(out)["error"]


def test_complete_slice_needs_no_deep_stack(capsys):
    # every step of this slice is a staircase step: a completion that
    # recursed once per step would overflow a stack of 150 more frames
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 150)
    try:
        for side in ("right", "left"):
            code, out = run(capsys, "complete-slice", "--h", "300",
                            "--slice", _descending(300), "--n", "2",
                            "--side", side)
            assert code == 0 and out.endswith(
                f"({side} 2-cluster-tilting)\n")
    finally:
        sys.setrecursionlimit(limit)

SINGLE = (("check-fractured", "--n", "2"), ("fractures",))
BATCH = ("validate", "ar-quiver", "check-nct")


def test_single_input_commands_refuse_stdin(capsys, monkeypatch):
    for argv in SINGLE:
        monkeypatch.setattr("sys.stdin", io.StringIO("2,2,1\n"))
        code, err = input_error(capsys, argv[0], "--kupisch", "-", *argv[1:])
        assert code == 2
        assert err == ("error: --kupisch - reads a batch from stdin only "
                       "for validate, ar-quiver and check-nct\n")
        assert sys.stdin.read() == "2,2,1\n"  # stdin is left unread
        code, out = run(capsys, argv[0], "--kupisch", "-", *argv[1:], "--json")
        assert code == 2 and json.loads(out)["error"].startswith("--kupisch -")


def test_glue_refuses_stdin(capsys, monkeypatch):
    for option, other in (("--b", "--a"), ("--a", "--b")):
        monkeypatch.setattr("sys.stdin", io.StringIO("2,2,1\n"))
        code, err = input_error(capsys, "glue", option, "-", other, "2,1",
                                "--height", "1")
        assert code == 2
        assert err == (f"error: {option} - reads a batch from stdin only "
                       f"for validate, ar-quiver and check-nct\n")
        assert sys.stdin.read() == "2,2,1\n"


def test_help_names_stdin_for_batch_commands_only(capsys):
    for command in BATCH + tuple(argv[0] for argv in SINGLE):
        assert main([command, "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        assert ("- for stdin" in text) == (command in BATCH), command


def test_fracturing_not_an_object(capsys):
    code, err = input_error(capsys, "check-fractured", "--kupisch",
                            "5,5,4^7,3,2,1", "--n", "2",
                            "--fracturing", '{"TL": 3}')
    assert code == 2 and err.startswith("error: bad fracture 3")


def test_fracture_missing_coords(capsys):
    code, err = input_error(capsys, "check-fractured", "--kupisch",
                            "5,5,4^7,3,2,1", "--n", "2", "--fracturing",
                            '{"TL": {"side": "left", "height": 4}, "TR": 3}')
    assert code == 2 and err.startswith("error: bad fracture {'side'")


def test_fracture_missing_side(capsys):
    code, err = input_error(capsys, "check-fractured", "--kupisch",
                            "5,5,4^7,3,2,1", "--n", "2", "--fracturing",
                            '{"TL": {"height": 4, "coords": []}, "TR": 3}')
    assert code == 2 and err.startswith("error: bad fracture {'height'")


def test_fracturing_missing_side_key(capsys):
    code, err = input_error(capsys, "check-fractured", "--kupisch",
                            "5,5,4^7,3,2,1", "--n", "2", "--fracturing",
                            '{"TR": {"side": "right", "height": 5, '
                            '"coords": []}}')
    assert code == 2 and err.startswith("error: bad fracture None")


def test_candidate_short_coordinate(capsys):
    code, err = input_error(capsys, "check-fractured", "--kupisch",
                            "5,5,4^7,3,2,1", "--n", "2",
                            "--candidate", "[[1]]")
    assert code == 2 and err.startswith("error: bad coordinate [1]")


def test_highlight_long_coordinate(capsys):
    code, err = input_error(capsys, "ar-quiver", "--kupisch", "3,3,2,1",
                            "--highlight", "[[1, 2, 3]]")
    assert code == 2 and err.startswith("error: bad coordinate [1, 2, 3]")


def test_fracture_zero_coordinate(capsys):
    code, err = input_error(capsys, "check-fractured", "--kupisch",
                            "5^8,4,3,2,1", "--n", "4", "--fracturing",
                            '{"TL": {"side": "left", "height": 4, '
                            '"coords": [null, [1,1]]}, "TR": {"side": '
                            '"right", "height": 5, "coords": []}}')
    assert code == 2 and err.startswith("error: the zero module")


def test_repeated_fracture_summand_refused(capsys):
    # a summand listed twice is an input error, not the smaller fracture
    code, err = input_error(capsys, "check-fractured", "--kupisch", "3,2,1",
                            "--n", "2", "--fracturing",
                            '{"TL": {"side": "left", "height": 3, "coords": '
                            '[[1,1],[1,2],[1,3]]}, "TR": {"side": "right", '
                            '"height": 3, "coords": [[1,3],[2,2],[3,1],'
                            '[3,1]]}}')
    assert code == 2
    assert err == "error: repeated summand (3, 1) in a right fracture\n"


def test_json_series_missing_key_named(capsys):
    code, err = input_error(capsys, "check-nct", "--kupisch",
                            '{"nope":[2,1]}', "--n", "1")
    assert code == 2
    assert err == ("error: bad Kupisch series '{\"nope\":[2,1]}': "
                   "missing key 'kupisch'\n")


def test_json_series_not_reinterpreted(capsys):
    for text in ('{"kupisch": [2.5, 2, 1]}', '{"kupisch": "21"}',
                 '{"kupisch": [true, 1]}'):
        code, err = input_error(capsys, "validate", "--kupisch", text)
        assert code == 2 and err.startswith("error: bad Kupisch series")


@pytest.mark.parametrize("argv, message", [
    (["check-fractured", "--kupisch", "2,1", "--n", "1",
      "--candidate", "foo"], "bad --candidate 'foo': "),
    (["check-fractured", "--kupisch", "2,1", "--n", "1",
      "--fracturing", "x"], "bad --fracturing 'x': "),
    (["ar-quiver", "--kupisch", "2,1", "--highlight", "{"],
     "bad --highlight '{': "),
    (["complete-slice", "--h", "3", "--slice", "1,,1", "--n", "2",
      "--side", "right"], "bad --slice '1,,1': "),
    (["fractures", "--kupisch", "3,2,1", "--side", "left"],
     "--side left needs --height"),
    (["fractures", "--kupisch", "3,2,1", "--height", "0"],
     "--height 0 needs --side"),
    (["fractures", "--kupisch", "3,2,1", "--side", "left", "--height", "0"],
     "no left abutment of height 0"),
    (["validate", "--kupisch", "2,,1"],
     "bad Kupisch series '2,,1': empty part at position 2"),
    (["check-fractured", "--kupisch", "2,1", "--n", "1",
      "--fracturing", "[1]"], "bad fracturing [1]: "),
    (["ar-quiver", "--kupisch", "2,1", "--highlight", '{"a": 1}'],
     "bad coordinate list {'a': 1}: "),
    (["validate", "--kupisch", '{"kupisch": %s}' % DEEP],
     "bad Kupisch series '{\"kupisch\": [[["),
    (["ar-quiver", "--kupisch", "2,1", "--highlight", DEEP],
     "bad --highlight '[[["),
    (["check-fractured", "--kupisch", "2,1", "--n", "1",
      "--candidate", DEEP], "bad --candidate '[[["),
    (["check-fractured", "--kupisch", "2,1", "--n", "1",
      "--fracturing", DEEP], "bad --fracturing '[[["),
])
def test_malformed_option_named(capsys, argv, message):
    # a malformed option value exits 2 with an error naming the option
    # and the value it got
    code = main(argv)
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err.startswith("error: " + message)


@pytest.mark.parametrize("argv, message", [
    (["validate", "--kupisch", "1_0,9,8,7,6,5,4,3,2,1"],
     "error: bad Kupisch series '1_0,9,8,7,6,5,4,3,2,1': "
     "not a decimal integer: '1_0'\n"),
    (["validate", "--kupisch", "2^1_0,1"],
     "error: bad Kupisch series '2^1_0,1': not a decimal integer: '1_0'\n"),
    (["validate", "--kupisch", "+2,1"],
     "error: bad Kupisch series '+2,1': not a decimal integer: '+2'\n"),
    (["validate", "--kupisch", "\uff12,1"],
     "error: bad Kupisch series '\uff12,1': not a decimal integer: "
     "'\uff12'\n"),
    (["complete-slice", "--h", "3", "--slice", "\u0662,1,1", "--n", "2",
      "--side", "right"],
     "error: bad --slice '\u0662,1,1': expected integers i_1,...,i_h\n"),
    (["check-nct", "--kupisch", "3,2,1", "--n", "1_0"],
     "argument --n: invalid _decimal value: '1_0'"),
    (["construct-nd", "--n", "2", "--d", "+4"],
     "argument --d: invalid _decimal value: '+4'"),
    (["complete-slice", "--h", "\u0663", "--slice", "1,1,1", "--n", "2",
      "--side", "right"], "argument --h: invalid _decimal value: '\u0663'"),
    (["glue", "--b", "2,1", "--a", "2,1", "--height", "1_0"],
     "argument --height: invalid _decimal value: '1_0'"),
    (["fractures", "--kupisch", "3,2,1", "--side", "left",
      "--height", "\uff11"],
     "argument --height: invalid _decimal value: '\uff11'"),
    # a negative value is an integer and reaches its named error
    (["validate", "--kupisch", "2^-3,1"],
     "error: bad Kupisch series '2^-3,1': run length -3 < 1 in '2^-3'\n"),
    (["fractures", "--kupisch", "3,2,1", "--side", "left", "--height", "-1"],
     "error: no left abutment of height -1 on KupischSeries([3, 2, 1])\n"),
])
def test_integers_are_ascii_decimal(capsys, argv, message):
    # an integer is an optional '-' and ASCII digits: '1_0', '+2' and
    # non-ASCII digits exit 2 instead of being read as another number
    code = main(argv)
    out = capsys.readouterr()
    assert code == 2 and out.out == "" and message in out.err


@pytest.mark.parametrize("argv", [
    ["check-nct", "--kupisch", "4^6,3,2,1", "--n", "3"],
    ["check-fractured", "--kupisch", "4^6,3,2,1", "--n", "3"]])
def test_text_line_reads_first_failure_only(capsys, monkeypatch, argv):
    # the text line takes the first record from the stream; only --json
    # reads every failure
    from nakayama.cluster import Verdict

    def unread(self):
        raise AssertionError("text mode read every failure")

    monkeypatch.setattr(Verdict, "failures", property(unread))
    code, out = run(capsys, *argv)
    assert code == 1 and out.startswith("4^6,3,2,1 n=3: not ok (tau_n(")
