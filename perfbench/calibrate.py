"""Fixed reference work, run in its own interpreter before every command.

It starts the way a percolab command does (fresh interpreter, numpy import)
and then does a fixed mix of exact-rational and uint64-array work.  It
imports nothing from percolab, so a change to percolab cannot change its
time: only the machine's speed can.  run.py divides each round's times by
the round's reference time to cancel the host's speed drift (see README.md,
"Drift correction").
"""

from fractions import Fraction

import numpy as np


def main() -> None:
    total = Fraction(0)
    for i in range(1, 2500):
        total += Fraction(i % 7 + 1, i * (i + 1))
    z = np.arange(1 << 20, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for _ in range(4):
            z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    print(total.denominator % 1000, int(z[-1] % np.uint64(1000)))


if __name__ == "__main__":
    main()
