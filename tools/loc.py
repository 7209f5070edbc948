"""Count the source lines of each src/surfcluster module at a git revision
and in the working tree.

    python3 tools/loc.py [REV]

REV defaults to HEAD.  For every `src/surfcluster/*.py` module at either
side, prints its count at REV, its count in the working tree and the
difference, then the totals.  A line counts when it is not empty, as
`cat src/surfcluster/*.py | grep -c .` counts them.  Stdlib only; REV is
read with `git show`.
"""

from __future__ import annotations

import argparse
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/surfcluster"


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout


def _count(text: str) -> int:
    return sum(1 for line in text.splitlines() if line)


def counts_at(rev: str) -> dict:
    names = _git("ls-tree", "--name-only", f"{rev}:{PACKAGE}").split()
    return {name: _count(_git("show", f"{rev}:{PACKAGE}/{name}"))
            for name in names if name.endswith(".py")}


def counts_in_tree() -> dict:
    return {p.name: _count(p.read_text(encoding="utf-8"))
            for p in (ROOT / PACKAGE).glob("*.py")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", nargs="?", default="HEAD")
    args = ap.parse_args(argv)
    try:
        old = counts_at(args.rev)
    except subprocess.CalledProcessError as exc:
        ap.error(f"cannot read {args.rev}: {exc.stderr.strip()}")
    new = counts_in_tree()
    rows = [(name, old.get(name, 0), new.get(name, 0))
            for name in sorted(old.keys() | new.keys())]
    rows.append(("total", sum(old.values()), sum(new.values())))
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module':<{width}} {args.rev[:12]:>12} {'tree':>6} {'diff':>6}")
    for name, a, b in rows:
        print(f"{name:<{width}} {a:>12} {b:>6} {b - a:>+6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
