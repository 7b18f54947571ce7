"""Seeded command lists for the three benchmark workloads.

A pass is one list of octo-so8 argv lists; the same workload and seed
always give the same list.  Print one with

    python3 perfbench/workloads.py <audit|rotate|spinor> <seed>
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from oracle import PLANES, Oracle

READINGS = ("sigma", "tensor")

# Fixed spinor inputs whose spectral radius is at least 1000 under
# both readings, so e^X overflows binary64.  They do not depend on the
# seed, so every pass holds exactly these two.
OVERFLOW_F = ("1000,0,0,0,0,0,0,0", "0,0,0,0,0,0,0,-1500")

README_ROTATE = ["rotate", "1", "2", "--theta=1/4", "--f=1,0,0,0,0,0,0,0"]


def _dyadic(rng, den_exps=(0, 1, 2), span=4, nonzero=False) -> str:
    while True:
        num, den = rng.randint(-span, span), 2 ** rng.choice(den_exps)
        if num or not nonzero:
            break
    return str(Fraction(num, den))


def audit(rng, oracle) -> list:
    """verify under both readings in both formats, plus tables, gram and
    dump-beta under each reading, in seeded formats and order."""
    cmds = []
    for r in READINGS:
        var = ["--beta-variant", r]
        cmds += [["verify"] + var, ["verify"] + var + ["--format", "json"],
                 ["tables"] + var + ["--format", rng.choice(("md", "json"))],
                 ["gram"] + var + ["--format", rng.choice(("md", "json"))],
                 ["dump-beta", str(rng.randint(1, 8))] + var
                 + ["--format", rng.choice(("md", "json"))]]
    rng.shuffle(cmds)
    return cmds


def rotate(rng, oracle) -> list:
    """Sigma reading.  Symbolic and exact rotations on one plane whose
    product squares to -I and one that squares to +I each, the package
    README's example, and one singular rotation (theta = +-1 on a +I
    plane).  Seeded theta is positive: a negative one makes the program
    print a negative first-order residual maximum."""
    minus = [p for p in PLANES if oracle.plane_square_sign(*p) < 0]
    plus = [p for p in PLANES if oracle.plane_square_sign(*p) > 0]
    cmds = []
    for fmt, pool in (("md", minus), ("json", plus)):
        k, l = rng.choice(pool)
        cmds.append(["rotate", str(k), str(l), "--format", fmt])
    for fmt, pool in (("json", minus), ("md", plus)):
        k, l = rng.choice(pool)
        theta = _dyadic(rng, den_exps=(1, 2, 3), span=7, nonzero=True)
        if theta in ("1", "-1"):
            theta = "1/2"
        theta = theta.lstrip("-")
        f = ",".join(_dyadic(rng) for _ in range(8))
        cmds.append(["rotate", str(k), str(l), f"--theta={theta}", f"--f={f}",
                     "--format", fmt])
    k, l = rng.choice(plus)
    f = ",".join(_dyadic(rng) for _ in range(8))
    cmds.append(["rotate", str(k), str(l), f"--theta={rng.choice(('1', '-1'))}",
                 f"--f={f}"])
    cmds.append(list(README_ROTATE))
    rng.shuffle(cmds)
    return cmds


def spinor(rng, oracle) -> list:
    """Both readings, with and without --split, four inputs each; two
    of the sixteen are the fixed overflowing inputs."""
    cmds = []
    for r in READINGS:
        for split in (False, True):
            for slot in range(4):
                f = ",".join(f"{rng.gauss(0, 1) * rng.uniform(0.05, 4):.6g}"
                             for _ in range(8))
                if slot == 0 and (r, split) in (("sigma", False), ("tensor", True)):
                    f = OVERFLOW_F[r == "tensor"]
                cmds.append(["spinor", "--beta-variant", r, f"--f={f}"]
                            + (["--split"] if split else [])
                            + ["--format", ("md", "json")[slot % 2]])
    rng.shuffle(cmds)
    return cmds


def known_fault(argv) -> bool:
    """The overflowing spinor inputs: today the program prints NaN for
    them and exits 0, so they fail their oracle on every run."""
    return argv[0] == "spinor" and any(f"--f={f}" in argv for f in OVERFLOW_F)


WORKLOADS = {"audit": audit, "rotate": rotate, "spinor": spinor}

# Warm calls per cold call of each command in a round.  A warm spinor
# call takes about a tenth of a fresh process, so eight of them take
# about as long as one cold call.  A warm audit call takes most of a
# cold one; rotate repeats three times, so that the median of each of its
# commands drops a call the host slowed, and its single round is long
# enough to average over the host's short swings.
REPEATS = {"audit": 1, "rotate": 3, "spinor": 8}


def commands(workload: str, seed: int, oracle: Oracle) -> list:
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](rng, oracle)


if __name__ == "__main__":
    data = Path(__file__).resolve().parent.parent / "src" / "octo_so8" / "data"
    for argv in commands(sys.argv[1], int(sys.argv[2]), Oracle(data)):
        print(json.dumps(argv))
