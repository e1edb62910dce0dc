"""Golden output of the ``wdbounds`` subcommands.

Each case runs the command in-process and compares the sha256 of its stdout
with a recorded digest, so any change to the rows, their order or their
formatting (``.17g``, ``-0.0`` written as ``0``, an empty kappa field where
no exact curvature was solved) shows up here.  ``CASES`` pins
``curvature``; ``OTHER_CASES`` pins ``bounds``, ``w1`` and ``aggregate``.
For ``--model`` cases the file path in the metadata line is replaced by
``<model>`` before hashing; ``<toy-part>`` and ``<box8-part>`` name partition
files written next to the model.

To record a new digest after a deliberate output change, run
``PYTHONPATH=src python tests/test_cli_golden.py`` and paste what it prints.
The output must not depend on the BLAS thread count; one test runs that
script under ``OPENBLAS_NUM_THREADS=1`` and ``=2`` and compares.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import wdbounds
from wdbounds.cli import main

TOY_P = [[0.75, 0.0, 0.25], [0.25, 0.0, 0.75], [0.0, 0.5, 0.5]]
TOY_D = [[0.0, 1.0, 5.0], [1.0, 0.0, 4.0], [5.0, 4.0, 0.0]]
DTMC_DOC = {"n": 3, "dtmc": TOY_P, "metric": {"kind": "explicit", "dist": TOY_D}}

JUMPS_2D = json.dumps([[[1, 0], 0.25], [[-1, 0], 0.25], [[0, 1], 0.25], [[0, -1], 0.25]])
JUMPS_LINE = json.dumps([[[1], 0.25], [[-1], 0.25], [[2], 0.25], [[-2], 0.25]])
BOX5 = ["--builtin", "grid", "--grid-lo", "0,0", "--grid-hi", "4,4", "--grid-jumps", JUMPS_2D]
BOX20 = ["--builtin", "grid", "--grid-lo", "0,0", "--grid-hi", "19,19", "--grid-jumps", JUMPS_2D]
LINE24 = ["--builtin", "grid", "--grid-lo", "0", "--grid-hi", "23", "--grid-jumps", JUMPS_LINE]
BOX8 = ["--builtin", "grid", "--grid-lo", "0,0", "--grid-hi", "7,7", "--grid-jumps", JUMPS_2D]

#: partition files: the toy chain's {1,2},{3}, and the 8x8 box (states
#: numbered row by row from 1) in 2x2 blocks
PARTITIONS = {
    "<toy-part>": [[1, 2], [3]],
    "<box8-part>": [
        [8 * i + j + 1 for i in (bi, bi + 1) for j in (bj, bj + 1)]
        for bi in range(0, 8, 2)
        for bj in range(0, 8, 2)
    ],
}
ALL_VARIANTS = "linear,timevarying,exp-k,exp-kappa,local,hybrid,hybrid-kappa"

CASES: dict[str, list[str]] = {
    "toy_all": ["--builtin", "toy", "--pairs", "all"],
    "toy_min": ["--builtin", "toy", "--pairs", "min"],
    "toy_pair_1_3": ["--builtin", "toy", "--pairs", "1,3"],
    "toy_k_only": ["--builtin", "toy", "--pairs", "all", "--k-only"],
    "box5_k_only": BOX5 + ["--k-only"],
    "box5_all": BOX5 + ["--pairs", "all"],
    "box20_k_only": BOX20 + ["--grid-rate", "1.125", "--k-only"],
    "line24_min": LINE24 + ["--pairs", "min"],
    "line24_rooted_min": LINE24
    + ["--grid-root", "1", "--grid-root-rate", "0.05", "--pairs", "min"],
    "dtmc_all": ["--model", "<model>", "--pairs", "all"],
    "dtmc_min": ["--model", "<model>", "--pairs", "min"],
    "dtmc_pair_2_3": ["--model", "<model>", "--pairs", "2,3"],
}

#: full command lines of the other subcommands
OTHER_CASES: dict[str, list[str]] = {
    "bounds_toy_all_variants": [
        "bounds", "--builtin", "toy", "--p0", "dirac:1", "--partition-from-file", "<toy-part>",
        "--variants", ALL_VARIANTS, "--exact", "--grid", "5",
    ],
    "bounds_box8_2x2": ["bounds"] + BOX8 + [
        "--p0", "dirac:1", "--partition-from-file", "<box8-part>", "--grid", "200",
    ],
    "w1_toy_coupling_potential": [
        "w1", "--builtin", "toy", "--p", "dirac:1", "--q", "dirac:3", "--coupling", "--potential",
    ],
    "aggregate_toy_partition": [
        "aggregate", "--builtin", "toy", "--partition-from-file", "<toy-part>",
    ],
}  # fmt: skip

#: sha256 of each case's stdout.
GOLDEN = {
    "toy_all": "f35bb80890e2f913f32105eccfad83a8573299330606ab92a5bd706d34a6921d",
    "toy_min": "8acd4eb666c81744c58025c26202cc35219b53c3351bced51020879a033eab7d",
    "toy_pair_1_3": "e72835a47fbe15f4200b5eaf4519c37b1c2d34fdd7207c9ed8c2a775056abe3f",
    "toy_k_only": "a4117ed29e1cceaa7af66c5a3fafa6326833e12e5ab505df95dfb179054dc757",
    "box5_k_only": "2cdd305517183f657541c1474e5df715ecaad8f21d39c5c945296318d856d4ba",
    "box5_all": "e8b30ee02fad56aa9f0efdc20777d6f8b70ae574e23cdfbf6a8d8cf06506a2d0",
    "box20_k_only": "374f7cf835d8d9a36b34ed643dc42c8fc0991e68930f2c5c06a478491757dfd9",
    "line24_min": "eb72974801538030a257de041af8f76c8910eaee81cacb154d2d7e7d95894956",
    "line24_rooted_min": "1d18dd150df5165a4f3c1a87bd9973e328a775555476dbbac20de55ed870f660",
    "dtmc_all": "d23a7755418a3543765704f7b21aa95e1db449631b9cd909438148ff82dce64c",
    "dtmc_min": "2a43dfafeaa40ae2f8cf6ac20959cd5a08e5be9c28a2310f0ccf0b890f5b3d96",
    "dtmc_pair_2_3": "de66eab2497bdf17d744bc637c22f6cf570b7e1ff2f123bb7ed96f34530df945",
}

#: sha256 of each other case's stdout.
OTHER_GOLDEN = {
    "bounds_toy_all_variants": "347df347801e95c1f36575882be56faf32e2ae50a771dbc6418a22f2336afd91",
    "bounds_box8_2x2": "1bd5cc7410d64bda2699a8da042258a5903677a8d89cfc546bc4d35a1ac01ce3",
    "w1_toy_coupling_potential": "b8170f9d037724fcda2e6ae4c6bd2015038123740092daf2c3806fd077d6f703",
    "aggregate_toy_partition": "f36685d29f6a0e25ff53b0cb1a164a352365cbc55ab8cbc21bfa054b9c694cbb",
}


def run_stdout(argv: list[str], workdir: Path) -> str:
    """Stdout of ``wdbounds argv`` with its placeholders filled; the exit code must be 0."""
    files = {"<model>": workdir / "dtmc.json"}
    files["<model>"].write_text(json.dumps(DTMC_DOC))
    for name, blocks in PARTITIONS.items():
        files[name] = workdir / f"{name.strip('<>')}.json"
        files[name].write_text(json.dumps(blocks))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(files[a]) if a in files else a for a in argv])
    assert code == 0, f"{argv}: exit code {code}"
    return out.getvalue().replace(str(files["<model>"]), "<model>")


def curvature_stdout(case: str, workdir: Path) -> str:
    return run_stdout(["curvature"] + CASES[case], workdir)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_curvature_stdout_matches_golden(case, tmp_path) -> None:
    assert digest(curvature_stdout(case, tmp_path)) == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(OTHER_CASES))
def test_other_subcommand_stdout_matches_golden(case, tmp_path) -> None:
    assert digest(run_stdout(OTHER_CASES[case], tmp_path)) == OTHER_GOLDEN[case]


def test_curvature_stdout_does_not_depend_on_blas_threads() -> None:
    """Every golden case prints the same bytes with one and two BLAS threads."""
    src = str(Path(wdbounds.__file__).parents[1])
    printed = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, __file__], env=env, capture_output=True, text=True, check=True
        )
        printed.append(run.stdout)
    assert printed[0] == printed[1]
    assert len(printed[0].splitlines()) == len(CASES) + len(OTHER_CASES)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name in CASES:
            print(f'    "{name}": "{digest(curvature_stdout(name, Path(tmp)))}",')
        for name, argv in OTHER_CASES.items():
            print(f'    "{name}": "{digest(run_stdout(argv, Path(tmp)))}",')
