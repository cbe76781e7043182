"""Every document of a fixed sweep of commands keeps its bytes.

``commands()`` builds a fixed list of ``wblowup`` argument lists: the
README's commands, hand-picked cases (every error code the command line
can reach, zero tails, leading-minus polynomials, ``symbolic --gens``
ideals that are saturated, equal though unsaturated, and not equal,
documents with lists longer than the renderers' block, and blow-up
verdicts whose charts move two, three and four twists), and a seeded draw
of every subcommand in each of its modes.  Each command runs in-process
through ``cli.main`` three times: plain, with ``--json`` and with
``--json --strict``.  ``cli_digests.json`` next to this file holds
one SHA-256 per run, over stdout, stderr and the exit status, and the test
names every run whose digest changed.  Only runs that reach ``main``'s
document are swept: argparse's usage errors word themselves differently
from one Python version to the next, and the explicit tests in
``test_cli.py`` cover them.

A change that alters a document on purpose regenerates the file with

    PYTHONPATH=src python tests/test_cli_digests.py

and lists the commands whose digests changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import shlex
import sys
from pathlib import Path

from wblowup.cli import main

DIGESTS = Path(__file__).resolve().parent / "cli_digests.json"
SEED = 2012

# The commands of the README's command-line section.
README = [
    'wt --weight 10,14,35 --n 3 "x1^5*x2^4*x3"',
    "ideal --weight 1,1,2 --n 3 --d 2",
    "normality --weight 10,14,35 --n 3 --L 70 --d 2",
    "normality --weight 1,1,3 --n 3 --d-max 3 --L-max 10",
    'symbolic --gens "x1^2,x1*x2" --n 2 --t 2',
    "charts --weight 10,14,35 --n 3",
    "terminal --r 3 --twists 2,2,1",
    "terminal --weight 1,1,2 --n 3",
    'push --weight 10,14,35 --n 3 --d 140 "x1^5*x2^4*x3"',
    'wt --weight 1,1 --n 2 -- "-x1"',
    "profile --n 3 --r 1 --b 2",
]

FIXED = [
    # Zero tails: entries listed up to n, explicit zeros, and a long tail.
    "ideal --weight 1,2 --n 5 --d 4",
    "ideal --weight 1,1,0,0 --n 4 --d 3",
    "charts --weight 2,3 --n 4",
    "terminal --weight 1,1 --n 9",
    "profile --n 9 --r 0 --b 1",
    "wt --weight 3,5 --n 4 x3*x4^2+x1",
    # Leading-minus polynomials, after `--`, and one with a blank.
    'wt --weight 1,2 --n 3 -- "-x1+x2"',
    'wt --weight 1,2 --n 3 -- "-3/2*x2^2 - x3 + 7"',
    'push --weight 2,3 --n 2 --d 5 -- "-x1^3+x2^2"',
    'push --weight 2,3 --n 2 --d 7 -- "-x1*x2"',
    'wt --weight 1,1 --n 2 "-x1 + x2"',
    "terminal --r 5 --twists=-1,1,2",
    # symbolic --gens: saturated (EQUAL, nothing outside the radical), equal
    # although saturation drops a generator, and three NOT_EQUAL cases, the
    # last of which walks a 41-generator symbolic power.
    'symbolic --gens "x1^2,x2^3" --n 2 --t 3',
    'symbolic --gens "x1^2,x1*x2,x2^2" --n 3 --t 2',
    'symbolic --gens "x1^4,x1^3*x2,x1*x2^3,x2^4,x1^2*x2^2*x3" --n 3 --t 2',
    'symbolic --gens "x1^4,x1^3*x2,x1*x2^3,x2^4,x1^2*x2^2*x3" --n 3 --t 3',
    'symbolic --gens "x1^2,x1*x2" --n 2 --t 1',
    'symbolic --gens "x2,x1*x3,x3^2" --n 3 --t 2',
    'symbolic --gens "x1^6,x2^5,x3^4,x1^2*x4^12,x2*x3*x5^11,x1*x2*x4^3*x5^7" --n 5 --t 4',
    "symbolic --weight 1,1,2 --n 4 --L 2 --t 2",
    # The error codes the command line reaches.
    'wt --weight 1,1 --n 2 "2x1"',
    'symbolic --gens "x1^2, x2^0" --n 2 --t 2',
    'symbolic --gens "x1^2,2*x2" --n 2 --t 2',
    "ideal --weight 2,4 --n 2 --d 3",
    "ideal --weight 1,-1 --n 2 --d 2",
    "charts --weight 1,1,1 --n 2",
    "ideal --weight 1,,2 --n 3 --d 2",
    'push --weight 1,1 --n 2 --d 2 "x1 - x1"',
    'symbolic --gens "x1*x2" --n 2 --t 2',
    'symbolic --gens "x3*x4,x1^3*x2" --n 4 --t 2',
    "terminal --r 4 --twists 2,2",
    "terminal --r 3 --twists 1,0,0",
    "profile --n 3 --r 2 --b 1",
    "ideal --weight 1,1 --n 0 --d 2",
    "ideal --weight 1,1 --n 2 --d -1",
    "normality --weight 1,1 --n 2 --L 3",
    "normality --weight 1,1 --n 2 --L 3 --d 2 --d-max 3",
    "normality --weight 1,1 --n 2",
    "normality --weight 1,1 --n 2 --L 0 --d 2",
    "normality --weight 1,1 --n 2 --d-max 1 --L-max 4",
    "symbolic --gens x1 --weight 1,1 --n 2 --t 2",
    "symbolic --gens x1 --t 2",
    'symbolic --gens "x1^2" --n 2 --t 0',
    'symbolic --gens "1" --n 2 --t 2',
    "terminal --r 3 --twists a,b",
    "terminal --r 0 --twists 1,1",
    "terminal --weight 1,1",
    "push --weight 1,1 --n 2 --d -1 x1",
    # Lists that cross the renderers' block of 4,096 items: 8,192 ages
    # (two blocks), 10,006 ages and the C(33, 3) = 5,456 generators of
    # (1, 1, 1, 1) at d = 30.
    "terminal --r 8193 --twists 1,1,8191",
    "terminal --r 10007 --twists 1,2,3",
    "ideal --weight 1,1,1,1 --n 4 --d 30",
    # Blow-up verdicts by the number of twists a chart moves: two (chart 2
    # of (1, 2) is 1/2(1, 1, 0)), three (the family's b charts, of order
    # 30,013 and 2,003) and four (every chart of (2, 3, 5, 7)).
    "terminal --weight 1,2 --n 3",
    "terminal --weight 1,1,30013,30013 --n 5",
    "profile --n 12 --r 10 --b 2003",
    "terminal --weight 2,3,5,7 --n 4",
]


def _weight(rng: random.Random) -> tuple[str, int]:
    """``--weight`` text and ``--n``: up to three positive entries and a zero tail."""
    entries = [rng.randint(1, 6) for _ in range(rng.randint(1, 3))]
    if math.gcd(*entries) != 1:
        entries[0] = 1
    return ",".join(map(str, entries)), len(entries) + rng.randint(0, 2)


def _polynomial(rng: random.Random, n: int) -> str:
    """A polynomial text of one to three terms, some with a coefficient or a minus."""
    text = ""
    for pos in range(rng.randint(1, 3)):
        exps = [rng.randint(0, 2) for _ in range(n)]
        factors = [f"x{i}^{e}" if e > 1 else f"x{i}" for i, e in enumerate(exps, 1) if e]
        c = rng.choice(["", "", "3/2*", "2*", "-", "-1/3*"])
        term = "*".join(factors) or "5"
        sign = "" if c.startswith("-") or not pos else "+"
        text += sign + c + term
    return text


def _gens(rng: random.Random, n: int) -> str:
    """Pure powers of some variables, and mixed generators, as ``--gens`` text."""
    pure = rng.sample(range(1, n + 1), rng.randint(1, n))
    gens = [f"x{i}^{rng.randint(1, 3)}" for i in pure]
    for _ in range(rng.randint(0, 3)):
        exps = [rng.randint(0, 2) for _ in range(n)]
        exps[rng.choice(pure) - 1] += 1
        gens.append("*".join(f"x{i}^{e}" for i, e in enumerate(exps, 1) if e))
    return ",".join(gens)


def _drawn(rng: random.Random) -> list[list[str]]:
    """Ten draws of each subcommand in each of its modes."""
    out = []
    for _ in range(10):
        w, n = _weight(rng)
        weighted = ["--weight", w, "--n", str(n)]
        polynomial = _polynomial(rng, n)
        positional = ["--", polynomial] if polynomial.startswith("-") else [polynomial]
        out.append(["wt", *weighted, *positional])
        out.append(["push", *weighted, "--d", str(rng.randint(0, 12)), *positional])
        out.append(["ideal", *weighted, "--d", str(rng.randint(0, 9))])
        check = ["--L", str(rng.randint(1, 8)), "--d", str(rng.randint(2, 3))]
        out.append(["normality", *weighted, *check])
        find = ["--d-max", str(rng.randint(2, 3)), "--L-max", str(rng.randint(1, 12))]
        out.append(["normality", *weighted, *find])
        power = ["--L", str(rng.randint(1, 5)), "--t", str(rng.randint(1, 3))]
        out.append(["symbolic", *weighted, *power])
        g = rng.randint(2, 4)
        gens = ["--gens", _gens(rng, g), "--n", str(g), "--t", str(rng.randint(1, 3))]
        out.append(["symbolic", *gens])
        out.append(["charts", *weighted])
        out.append(["terminal", *weighted])
        r = rng.randint(1, 12)
        twists = ",".join(str(rng.randint(-1, r)) for _ in range(rng.randint(2, 4)))
        out.append(["terminal", "--r", str(r), f"--twists={twists}"])
        size = [str(rng.randint(lo, hi)) for lo, hi in ((2, 6), (0, 3), (1, 4))]
        out.append(["profile", "--n", size[0], "--r", size[1], "--b", size[2]])
    return out


def commands() -> list[list[str]]:
    """The distinct swept commands, each without ``--json`` and ``--strict``."""
    drawn = map(shlex.join, _drawn(random.Random(SEED)))
    return [shlex.split(line) for line in dict.fromkeys([*README, *FIXED, *drawn])]


def runs() -> list[list[str]]:
    """Each command plain, with ``--json`` and with ``--json --strict``; flags go first."""
    return [
        [argv[0], *flags, *argv[1:]]
        for argv in commands()
        for flags in ([], ["--json"], ["--json", "--strict"])
    ]


def digest(argv: list[str]) -> str:
    """SHA-256 over the stdout, stderr and exit status of ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit:
            raise AssertionError(f"{shlex.join(argv)} stops in argparse; test it in test_cli.py")
    record = json.dumps([out.getvalue(), err.getvalue(), status])
    return hashlib.sha256(record.encode()).hexdigest()


def sweep() -> dict[str, str]:
    return {shlex.join(argv): digest(argv) for argv in runs()}


def test_documents_keep_their_bytes():
    expected = json.loads(DIGESTS.read_text())
    got = sweep()
    changed = [run for run in got if expected.get(run) != got[run]]
    gone = [run for run in expected if run not in got]
    assert not changed and not gone, (
        f"{len(changed)} runs changed or are new, {len(gone)} are gone; "
        f"changed: {changed}; gone: {gone}"
    )
    assert len(got) == 3 * len(commands())


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(sweep(), indent=1) + "\n")
    print(f"wrote {DIGESTS}", file=sys.stderr)
