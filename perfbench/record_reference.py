"""Record the sha256 of each workload command's stdout at the default seed.

Usage, from the root of a percolab checkout:

    python3 perfbench/record_reference.py

Runs every command through the plain ``python3 -m percolab.cli`` entry point
(not the benchmark's timing launcher) and writes perfbench/reference.json.
The benchmark then requires byte-identical output at that seed, which is the
README's promise that identical command lines print identical bytes.  Re-run
only when a change is meant to alter the CLI's output.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import workloads
from run import CHILD_ENV, DEFAULT_SEED, HERE, ROOT, SRC


def main() -> int:
    env = dict(CHILD_ENV, PYTHONPATH=str(SRC))
    digests = {}
    for name in workloads.WHY:
        digests[name] = []
        for argv in workloads.commands(name, DEFAULT_SEED):
            proc = subprocess.run([sys.executable, "-m", "percolab.cli", *argv],
                                  stdin=subprocess.DEVNULL, capture_output=True,
                                  env=env, cwd=ROOT, check=True)
            digests[name].append(hashlib.sha256(proc.stdout).hexdigest())
            print(f"{name}: percolab {' '.join(argv)}", file=sys.stderr)
    out = {"seed": DEFAULT_SEED, "sha256": digests}
    (HERE / "reference.json").write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
