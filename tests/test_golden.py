"""Golden outputs: two short `run`s, two short `sweep`s and `amam` must reproduce byte for byte,
whatever BLAS kernel the CPU picks.

The reference files in tests/data/golden/ were written by the CLI itself. A
refactor that is meant to leave results alone proves it here; a change that
moves results on purpose regenerates them with

    PYTHONPATH=src python3 tests/test_golden.py

and says in CHANGES.md which outputs moved and why.
"""

import os
import subprocess
import sys

import pytest

from onebitlink import cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden")
RUN_CFG = "system.n_symbols = 2000\n"
SWEEP_CFG = (RUN_CFG
             + "grid.ibo = 0.1, 1\n"
             + "grid.bbpf = 0.8, 1.2\n"
             + "grid.systems = sys1, sys2, sys3\n")
# 61 B around the 30 B carrier reaches 0 Hz, so one width fails at every
# point: failures.log holds one line per system.
FAILED_CFG = (RUN_CFG
              + "grid.ibo = 0.1\n"
              + "grid.bbpf = 0.9, 61\n"
              + "grid.systems = sys2, sys3\n")
# Off the default rate: the Welch segment is 32 symbols, 8192 samples here.
RATE_CFG = RUN_CFG + "system.analog_sps = 256\n"
SWEEP_FILES = ("grid.csv", "failures.log", "fig4.csv", "fig5.csv", "fig6.csv",
               "fig7.csv", "fig8.csv")
# (golden directory, sub-command, config text or None, files compared)
CASES = (("run", "run", RUN_CFG, ("run.csv",)),
         ("sweep", "sweep", SWEEP_CFG, SWEEP_FILES),
         ("sweep-failed", "sweep", FAILED_CFG, SWEEP_FILES),
         ("amam", "amam", None, ("fig3.csv",)),
         ("run-256", "run", RATE_CFG, ("run.csv",)))


def _produce(name, command, cfg_text, work, out, jobs=1):
    argv = [command, "--out", out]
    if cfg_text is not None:
        cfg = os.path.join(work, f"{name}.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(cfg_text)
        argv += ["--config", cfg]
    if command == "sweep":
        argv += ["--jobs", str(jobs)]
    assert cli.main(argv) == 0


# The sweep also runs in a two-worker pool, whose output must match the
# serial files: the pool path keeps the grid's order.
@pytest.mark.parametrize("name,command,cfg_text,files,jobs",
                         [case + (1,) for case in CASES] + [CASES[1] + (2,)],
                         ids=[c[0] for c in CASES] + ["sweep-jobs2"])
def test_outputs_are_byte_identical(name, command, cfg_text, files, jobs, tmp_path,
                                    monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    out = tmp_path / name
    _produce(name, command, cfg_text, str(tmp_path), str(out), jobs)
    for file in files:
        with open(os.path.join(GOLDEN, name, file), "rb") as fh:
            expected = fh.read()
        assert (out / file).read_bytes() == expected, f"{name}/{file} differs"


# OpenBLAS picks its kernels for the CPU when it loads, and OPENBLAS_CORETYPE
# overrides that pick in a new process. The kernels sum in different orders,
# so a result that hangs on rounding shows here. An OpenBLAS built without
# DYNAMIC_ARCH ignores the variable: the subprocess then runs the default
# kernel and the test passes trivially.
@pytest.mark.parametrize("coretype", ["Sandybridge", "Nehalem"])
def test_run_does_not_depend_on_the_blas_kernel(coretype, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(RUN_CFG, encoding="utf-8")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-m", "onebitlink.cli", "run", "--config", str(cfg),
                    "--out", str(tmp_path / "run")], env=env, capture_output=True, timeout=120,
                   check=True)
    with open(os.path.join(GOLDEN, "run", "run.csv"), "rb") as fh:
        assert (tmp_path / "run" / "run.csv").read_bytes() == fh.read()


if __name__ == "__main__":
    for name, command, cfg_text, _ in CASES:
        os.makedirs(os.path.join(GOLDEN, name), exist_ok=True)
        _produce(name, command, cfg_text, GOLDEN, os.path.join(GOLDEN, name))
