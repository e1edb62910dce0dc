"""Golden output of ``wdbounds curvature``.

Each case runs the command in-process and compares the sha256 of its stdout
with a recorded digest, so any change to the rows, their order or their
formatting (``.17g``, ``-0.0`` written as ``0``, an empty kappa field where
no exact curvature was solved) shows up here.  For
``--model`` cases the file path in the metadata line is replaced by
``<model>`` before hashing.

To record a new digest after a deliberate output change, run
``PYTHONPATH=src python tests/test_cli_golden.py`` and paste what it prints.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

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
    "dtmc_pair_2_3": ["--model", "<model>", "--pairs", "2,3"],
}

#: sha256 of each case's stdout.
GOLDEN = {
    "toy_all": "c774bbcd33a49cc0f872a126af094a09aaa60785628ddc2763f73c8d01cc7d71",
    "toy_min": "bfba1671e00a3f15dbbcd1d23b34c50e6ee792edfb28c82197177cd1bc0d9690",
    "toy_pair_1_3": "229842433b8c282b5a1f94fa859e0825995980431cd89d5cdc2a2919275c9aac",
    "toy_k_only": "2217ffb0998297dfdce8294ef525784739604fcb152434b03e93c19a514aa8de",
    "box5_k_only": "7df96b6e542938e845c1bd8dbf29df04521fff4a9f04f2fe0815e03ac1135b65",
    "box5_all": "53ad5cc2b3d56578c091ccd470a6b26d6bedb1a792b5fe78df9d5da7038e98ca",
    "box20_k_only": "6001bb9abf3872e761eff060e63a1ddaaf92a5aad111166f7b8024240d9d1c53",
    "line24_min": "154bd0eed36157b6f3840b7b80b778f8bc26f8e1dbbd125cec357defcc718a4e",
    "line24_rooted_min": "f4076553a84b9c3e043eeda3dd9815df10640a2b97023d814edeabb6af197b73",
    "dtmc_all": "50ef9c1129e1ab0d80314a57cb7ad858eec50b200b4372e05fbbd0b6365feecf",
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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name in CASES:
            print(f'    "{name}": "{digest(curvature_stdout(name, Path(tmp)))}",')
