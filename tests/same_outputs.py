"""The byte-identity proof of a refactor: this tree and PARENT_DIR give the
same output files and the same warnings at the defaults.

For each tree it runs, each in a fresh process with that tree's src/ on
PYTHONPATH, the default `onebitlink run` and the default `onebitlink sweep`
at --jobs 1 and at --jobs 2. It then compares run.csv, grid.csv,
failures.log and fig4-fig8 byte for byte, and the count of each warning
(category and message) on stderr. It prints every difference and exits 1 on
any, else 0. Pytest does not collect it; run it from anywhere:

    python tests/same_outputs.py PARENT_DIR
"""

import collections
import filecmp
import os
import re
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SWEEP_FILES = ["grid.csv", "failures.log"] + [f"fig{k}.csv" for k in range(4, 9)]
COMMANDS = {
    "run": (["run"], ["run.csv"]),
    "sweep --jobs 1": (["sweep", "--jobs", "1"], SWEEP_FILES),
    "sweep --jobs 2": (["sweep", "--jobs", "2"], SWEEP_FILES),
}
# A warning as Python prints it: "path:line: Category: message".
_WARNING = re.compile(r"^\S.*:\d+: (\w+): (.*)$")


def warnings_on(stderr):
    """{(category, message): count} of the warnings printed on stderr."""
    return collections.Counter(m.groups() for m in map(_WARNING.match, stderr.splitlines()) if m)


def run(tree, args, out):
    """`onebitlink ARGS --out OUT` with tree's src/ on PYTHONPATH: its warnings."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    done = subprocess.run([sys.executable, "-m", "onebitlink.cli", *args, "--out", out],
                          env=env, capture_output=True, text=True, check=True)
    return warnings_on(done.stderr)


def main(parent):
    differences = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, (args, files) in COMMANDS.items():
            outs = [os.path.join(tmp, side, name.replace(" ", "_")) for side in ("this", "parent")]
            warned = [run(tree, args, out) for tree, out in zip((HERE, parent), outs)]
            for file in files:
                if not filecmp.cmp(*(os.path.join(out, file) for out in outs), shallow=False):
                    differences.append(f"{name}: {file} differs")
            if warned[0] != warned[1]:
                differences.append(f"{name}: warnings {dict(warned[0])} against {dict(warned[1])}")
            print(f"{name}: {len(files)} files compared, {sum(warned[0].values())} warnings")
    for line in differences:
        print(line)
    return 1 if differences else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(os.path.abspath(sys.argv[1])))
