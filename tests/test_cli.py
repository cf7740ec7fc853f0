import io
import json

from nakayama.cli import main


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


def test_check_nct_batch_worst_exit(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("2,2,1\n2,2,2,1\n"))
    code, out = run(capsys, "check-nct", "--kupisch", "-", "--n", "2")
    assert code == 1  # (2,2,2,1) is not 2-cluster-tilting


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


def test_fracturing_not_an_object(capsys):
    code, err = input_error(capsys, "check-fractured", "--kupisch",
                            "5,5,4^7,3,2,1", "--n", "2",
                            "--fracturing", '{"TL": 3}')
    assert code == 2 and err.startswith("error: bad fracture 3")


def test_candidate_short_coordinate(capsys):
    code, err = input_error(capsys, "check-fractured", "--kupisch",
                            "5,5,4^7,3,2,1", "--n", "2",
                            "--candidate", "[[1]]")
    assert code == 2 and err.startswith("error: bad coordinate [1]")


def test_highlight_long_coordinate(capsys):
    code, err = input_error(capsys, "ar-quiver", "--kupisch", "3,3,2,1",
                            "--highlight", "[[1, 2, 3]]")
    assert code == 2 and err.startswith("error: bad coordinate [1, 2, 3]")
