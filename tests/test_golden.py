"""Golden outputs: a short `run` and a 12-point `sweep` must reproduce byte for byte.

The reference files in tests/data/golden/ were written by the CLI itself. A
refactor that is meant to leave results alone proves it here; a change that
moves results on purpose regenerates them with

    PYTHONPATH=src python3 tests/test_golden.py

and says in CHANGES.md which outputs moved and why.
"""

import os

import pytest

from onebitlink import cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden")
RUN_CFG = "system.n_symbols = 2000\n"
SWEEP_CFG = (RUN_CFG
             + "grid.ibo = 0.1, 1\n"
             + "grid.bbpf = 0.8, 1.2\n"
             + "grid.systems = sys1, sys2, sys3\n")
SWEEP_FILES = ("grid.csv", "failures.log", "fig4.csv", "fig5.csv", "fig6.csv",
               "fig7.csv", "fig8.csv")
CASES = (("run", RUN_CFG, ("run.csv",)), ("sweep", SWEEP_CFG, SWEEP_FILES))


def _produce(command, cfg_text, work, out, jobs=1):
    cfg = os.path.join(work, f"{command}.cfg")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(cfg_text)
    argv = [command, "--config", cfg, "--out", out]
    if command == "sweep":
        argv += ["--jobs", str(jobs)]
    assert cli.main(argv) == 0


# The sweep also runs in a two-worker pool, whose output must match the
# serial files: the pool path keeps the grid's order.
@pytest.mark.parametrize("command,cfg_text,names,jobs",
                         [case + (1,) for case in CASES] + [CASES[1] + (2,)],
                         ids=[c[0] for c in CASES] + ["sweep-jobs2"])
def test_outputs_are_byte_identical(command, cfg_text, names, jobs, tmp_path, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    out = tmp_path / command
    _produce(command, cfg_text, str(tmp_path), str(out), jobs)
    for name in names:
        with open(os.path.join(GOLDEN, command, name), "rb") as fh:
            expected = fh.read()
        assert (out / name).read_bytes() == expected, f"{command}/{name} differs"


if __name__ == "__main__":
    for command, cfg_text, _ in CASES:
        os.makedirs(os.path.join(GOLDEN, command), exist_ok=True)
        _produce(command, cfg_text, GOLDEN, os.path.join(GOLDEN, command))
