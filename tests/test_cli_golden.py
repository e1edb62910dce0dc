"""Golden output of ``wdbounds curvature``.

Each case runs the command in-process and compares the sha256 of its stdout
with a recorded digest, so any change to the rows, their order or their
formatting (``.17g``, ``-0.0`` written as ``0``, an empty kappa field where
no exact curvature was solved) shows up here.  For
``--model`` cases the file path in the metadata line is replaced by
``<model>`` before hashing.

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

#: sha256 of each case's stdout.
GOLDEN = {
    "toy_all": "c774bbcd33a49cc0f872a126af094a09aaa60785628ddc2763f73c8d01cc7d71",
    "toy_min": "bfba1671e00a3f15dbbcd1d23b34c50e6ee792edfb28c82197177cd1bc0d9690",
    "toy_pair_1_3": "229842433b8c282b5a1f94fa859e0825995980431cd89d5cdc2a2919275c9aac",
    "toy_k_only": "2217ffb0998297dfdce8294ef525784739604fcb152434b03e93c19a514aa8de",
    "box5_k_only": "6a6a6606bff5d4bf6bd59a550f640c4d9802e1cd5fb0d84357c32d6c65856961",
    "box5_all": "91eea48c45599453e91e16a12ccf68b60d0710613289c1c30f5609b99eadb58c",
    "box20_k_only": "58dee67b50dfc95ba61cdccce4ccf9a83f4ada9d2bf1568522d6b1a598395510",
    "line24_min": "a32e498519b1175c362468a8b6b969e259900ee281eec3a7a92c73d42f60d02c",
    "line24_rooted_min": "67d0b150d86d5375313e0185822d5de79b942b496001ba466dd1f9ea81deb70a",
    "dtmc_all": "50ef9c1129e1ab0d80314a57cb7ad858eec50b200b4372e05fbbd0b6365feecf",
    "dtmc_min": "bdcc3a523afbe4a3227eb804d9bede3b8e739c3c3f87a4792035501d0b89f1ea",
    "dtmc_pair_2_3": "cf218572e40fe34a9872fd14f8dc6475208691bfd9f511f57695f6648ae3c0c5",
}


def curvature_stdout(case: str, workdir: Path) -> str:
    """Stdout of ``wdbounds curvature`` for ``case``; the exit code must be 0."""
    model = workdir / "dtmc.json"
    model.write_text(json.dumps(DTMC_DOC))
    argv = ["curvature"] + [str(model) if a == "<model>" else a for a in CASES[case]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, f"{case}: exit code {code}"
    return out.getvalue().replace(str(model), "<model>")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_curvature_stdout_matches_golden(case, tmp_path) -> None:
    assert digest(curvature_stdout(case, tmp_path)) == GOLDEN[case]


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
    assert len(printed[0].splitlines()) == len(CASES)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name in CASES:
            print(f'    "{name}": "{digest(curvature_stdout(name, Path(tmp)))}",')
