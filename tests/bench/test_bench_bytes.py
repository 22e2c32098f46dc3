"""The serving engine's BENCH files regenerate byte for byte.

Each case runs the commands CI runs for one committed file, writing to
a scratch path through ``repro.__main__.main``, and compares the bytes
with the committed file.  ``BENCH_cluster.json`` is two commands on one
path: ``clusterchaos`` writes it and ``clusterbench --sweep`` merges its
``sweep`` key in.  ``keyscale`` takes about 25 s, so tier-1 pins its
``--smoke`` grid (every policy's key-miss cycles at 100 and 1,000
domains) in a small fixture beside this file instead of
``BENCH_keyscale.json``.  Running these in tier-1 checks the files on
every interpreter the suite runs on, not only the one the CI BENCH jobs
use.
"""

from __future__ import annotations

import difflib
import pathlib

import pytest

from repro.__main__ import main

ROOT = pathlib.Path(__file__).resolve().parents[2]

CASES = {
    "BENCH_serving.json": [["servebench"]],
    "BENCH_chaos.json": [["servechaos"]],
    "BENCH_cluster.json": [["clusterchaos"], ["clusterbench", "--sweep"]],
    "tests/bench/keyscale_smoke.json": [["keyscale", "--smoke"]],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_regenerates_the_committed_file(name, tmp_path, capsys):
    out = tmp_path / pathlib.Path(name).name
    commands = CASES[name]
    for argv in commands:
        assert main([*argv, "--output", str(out)]) == 0
    capsys.readouterr()
    committed = (ROOT / name).read_bytes()
    fresh = out.read_bytes()
    if fresh != committed:
        diff = difflib.unified_diff(committed.decode().splitlines(),
                                    fresh.decode().splitlines(),
                                    "committed", "fresh", lineterm="")
        regenerate = " && ".join(
            f"PYTHONPATH=src python -m repro {' '.join(argv)} "
            f"--output {name}" for argv in commands)
        pytest.fail(f"{name} no longer regenerates byte for byte:\n"
                    + "\n".join(list(diff)[:40])
                    + f"\nif the change is intended, regenerate it with "
                    f"`{regenerate}`")
