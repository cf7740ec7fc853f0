"""Byte-exact CLI outputs on a fixed corpus.

Each case runs one subcommand in text and in ``--json`` mode.  Its golden
file under ``tests/golden/`` holds the exit code on the first line
(``exit N``) followed by the exact stdout.  Refactors must leave every
file unchanged; after a deliberate change of output, re-record with

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
import sys
from pathlib import Path

import pytest

from nakayama.cli import main

GOLDEN = Path(__file__).parent / "golden"

OK_CANDIDATE = json.dumps([[1, 1], [1, 2], [1, 3], [1, 4], [2, 4], [3, 3],
                           [3, 4], [4, 2], [4, 4], [5, 1], [5, 4], [6, 4],
                           [7, 1], [7, 2], [7, 3], [7, 4], [7, 5], [8, 5],
                           [9, 4], [10, 3], [11, 2], [12, 1]])
FRACTURING = json.dumps({
    "TL": {"side": "left", "height": 5,
           "coords": [[2, 1], [2, 2], [1, 3], [1, 4], [1, 5]]},
    "TR": {"side": "right", "height": 5,
           "coords": [[11, 1], [10, 2], [10, 3], [9, 4], [8, 5]]},
})

# name -> (argv without --json, stdin); every case also runs with --json
CASES = {
    "validate_batch": (["validate", "--kupisch", "-"],
                       "2,2,1\n2,1,1\n2^3,1\n3,3,1\n5,5,4^7,3,2,1\n"),
    "check_nct_ok": (["check-nct", "--kupisch", "5,5,4^7,3,2,1",
                      "--n", "2"], ""),
    # failures with condition 2, 3 and 4 records
    "check_nct_321_n3": (["check-nct", "--kupisch", "3,2,1", "--n", "3"], ""),
    "check_nct_2321_n3": (["check-nct", "--kupisch", "2,3,2,1",
                           "--n", "3"], ""),
    "check_nct_4x6_n2": (["check-nct", "--kupisch", "4^6,3,2,1",
                          "--n", "2"], ""),
    "check_nct_batch": (["check-nct", "--kupisch", "-", "--n", "3"],
                        "3,2,1\n2,2,2,1\n2,3,3,3,3,3,3,3,3,3,3,3,2,2,1\n"
                        "4,4,4,3,2,1\n"),
    "check_fractured_candidate": (["check-fractured",
                                   "--kupisch", "5,5,4^7,3,2,1", "--n", "2",
                                   "--candidate", OK_CANDIDATE], ""),
    # condition 1: the fractured projectives are missing
    "check_fractured_candidate_partial": (
        ["check-fractured", "--kupisch", "5,5,4^7,3,2,1", "--n", "2",
         "--candidate", "[[9, 4], [10, 3], [11, 2], [12, 1]]"], ""),
    # a coordinate that names no module is an input error
    "check_fractured_candidate_absent": (
        ["check-fractured", "--kupisch", "5,5,4^7,3,2,1", "--n", "2",
         "--candidate", "[[1, 1], [1, 5]]"], ""),
    "check_fractured_fracturing": (["check-fractured",
                                    "--kupisch", "5^8,4,3,2,1", "--n", "4",
                                    "--fracturing", FRACTURING], ""),
    "glue_check": (["glue", "--b", "4,4,4,4,4,4,3,2,1", "--a", "5,5,4,3,2,1",
                    "--height", "3", "--check"], ""),
    "fractures_left_h3": (["fractures", "--kupisch", "5,5,4^7,3,2,1",
                           "--side", "left", "--height", "3"], ""),
    "fractures_right_h3": (["fractures", "--kupisch", "4^6,3,2,1",
                            "--side", "right", "--height", "3"], ""),
    "complete_slice_right": (["complete-slice", "--h", "5",
                              "--slice", "2,2,1,1,1", "--n", "4",
                              "--side", "right"], ""),
    "complete_slice_left": (["complete-slice", "--h", "4",
                             "--slice", "2,1,1,1", "--n", "3",
                             "--side", "left"], ""),
    "construct_nd_kupisch": (["construct-nd", "--n", "3", "--d", "5",
                              "--emit", "kupisch"], ""),
    "construct_nd_quiver": (["construct-nd", "--n", "2", "--d", "4",
                             "--emit", "quiver"], ""),
    "construct_nd_certificate": (["construct-nd", "--n", "9", "--d", "14",
                                  "--emit", "certificate"], ""),
    # base-even, then two extend steps
    "construct_nd_extended": (["construct-nd", "--n", "4", "--d", "14",
                               "--emit", "certificate"], ""),
    "ar_quiver_ascii": (["ar-quiver", "--kupisch", "3,3,2,1",
                         "--highlight", "[[1, 3], [2, 2]]"], ""),
    "ar_quiver_dot": (["ar-quiver", "--kupisch", "3,3,2,1",
                       "--format", "dot", "--labels", "dims"], ""),
    "ar_quiver_tikz": (["ar-quiver", "--kupisch", "2,3,2,1",
                        "--format", "tikz", "--highlight", "[[1, 2]]"], ""),
    "ar_quiver_json": (["ar-quiver", "--kupisch", "2,3,2,1",
                        "--format", "json", "--labels", "none"], ""),
}

RUNS = {f"{name}{suffix}": (argv + extra, stdin)
        for name, (argv, stdin) in CASES.items()
        for suffix, extra in (("", []), ("_json", ["--json"]))}


def run_case(name):
    """Exit code and stdout of one run, in the golden file's format."""
    argv, stdin = RUNS[name]
    old_in, old_out = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(stdin), io.StringIO()
    try:
        code = main(list(argv))
        out = sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = old_in, old_out
    return f"exit {code}\n{out}"


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden(name):
    expected = (GOLDEN / f"{name}.txt").read_bytes()
    assert run_case(name).encode() == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(RUNS):
        (GOLDEN / f"{name}.txt").write_bytes(run_case(name).encode())
