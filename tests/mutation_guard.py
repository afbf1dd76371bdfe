"""Three known bugs of the localization kernel, each planted in a copy of the tree, and the tier-1 failures each causes.

    python3 tests/mutation_guard.py

Each mutation is one exact substitution in ``sgw/localize.py``:

  double-graph       ``_evaluate_once`` doubles the parts of every graph (a, b) = (0, 2), A = {1};
  m04-flag-weight    the flag weight of an m04 locus (k = 3, every mark at one end) changes sign;
  point-flag-weight  the flag weight of a point locus with every mark at one end changes sign.

The script copies the tree (without ``.git`` and caches) to a temporary directory, plants one
mutation at a time there and runs the tier-1 suite on the copy; the tree it was started from is
never written.  It prints the number of failed tests of each mutation, exits 2 if a target text
does not occur exactly once in ``localize.py`` (the mutation would test nothing), and exits 1 if
some mutation fails no test.  A test deleted as a duplicate may lower a count, but no count may
reach 0: that bug would then pass unseen.  The counts assume an unmutated tree that passes.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TARGET = Path("src", "sgw", "localize.py")
MUTATIONS = [
    ("double-graph", "            rows.append(graph_contribution(g, codegrees, tau, h))",
     "            rows.append({c: v * (1 + ((g.a, g.b, g.A) == (0, 2, {1})))"
     " for c, v in graph_contribution(g, codegrees, tau, h).items()})"),
    ("m04-flag-weight", "w = u if marks else -u", "w = -u if marks else u"),
    ("point-flag-weight", "else u if marks else -u", "else -u if marks else u"),
]
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks")


def failures(tree: Path) -> int:
    """The number of failed and erroring tests of one tier-1 run in ``tree``."""
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
                          "-p", "no:cacheprovider"], cwd=tree, capture_output=True, text=True)
    summary = run.stdout.strip().splitlines()[-1] if run.stdout.strip() else ""
    return sum(int(count) for count in re.findall(r"(\d+) (?:failed|errors?)\b", summary))


if __name__ == "__main__":
    source = (ROOT / TARGET).read_text()
    missing = [name for name, old, _ in MUTATIONS if source.count(old) != 1]
    for name in missing:
        print(f"{name}: target text not found exactly once in {TARGET}")
    if missing:
        sys.exit(2)
    uncaught = []
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(scratch, "tree")
        shutil.copytree(ROOT, tree, ignore=IGNORE)
        for name, old, new in MUTATIONS:
            (tree / TARGET).write_text(source.replace(old, new))
            count = failures(tree)
            print(f"{name}: {count} failed", flush=True)
            if not count:
                uncaught.append(name)
    print(f"{len(MUTATIONS)} mutations, {len(uncaught)} caught by no test")
    sys.exit(1 if uncaught else 0)
