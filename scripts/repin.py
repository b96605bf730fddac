#!/usr/bin/env python
"""Run the pin table (``tests/golden/pins.json``) and say what moved.

Each pin runs on the production kernel through the runner
``tests/test_pins.py`` uses (``tests/pins.py``).  One row is printed
per pin whose output moved, with each fingerprint field that moved,
old → new (the digest alone when no field did):

    case4-ccfit-adaptive-flap  cfq_alloc_failures 5,717 → 0, ...

``--check`` (the default) exits 1 when a pin moved; ``--write``
records what the cells give today.  A change that moves pins pastes
these rows into CHANGES.md (docs/performance.md, "Pins").

Usage:  python scripts/repin.py [--check | --write] [--only GLOB]
"""

from __future__ import annotations

import argparse
import fnmatch
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from tests import pins  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true", help="exit 1 if a pin moved (default)")
    mode.add_argument("--write", action="store_true", help="record the pins that moved")
    ap.add_argument("--only", metavar="GLOB", default="*", help="the pins whose names match")
    args = ap.parse_args(argv)
    try:
        table = pins.load(pins.TABLE)
    except ValueError as exc:
        ap.error(str(exc))
    names = fnmatch.filter(sorted(table), args.only)
    if not names:
        ap.error(f"no pin matches {args.only!r}")
    moved = 0
    for name in names:
        new = pins.run(table[name])
        if new != table[name]:
            moved += 1
            print(pins.row(name, table[name], new), flush=True)
            table[name] = new
    print(f"{moved} of {len(names)} pins moved", file=sys.stderr)
    if args.write:
        pins.TABLE.write_text(pins.dump(table))
        return 0
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
