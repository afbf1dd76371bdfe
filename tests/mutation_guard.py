"""Nine known bugs, each planted in a copy of the tree, and the tier-1 failures each causes.

    python3 tests/mutation_guard.py

Each mutation is one exact substitution in one file of ``src/sgw``:

  double-graph       localize.py  ``_evaluate_once`` doubles the parts of every graph (a, b) = (0, 2), A = {1};
  m04-flag-weight    localize.py  the flag weight of an m04 locus (k = 3, every mark at one end) changes sign;
  point-flag-weight  localize.py  the flag weight of a point locus with every mark at one end changes sign;
  kappa0-scalar      taut.py      ``_push`` reads kappa_0 on l - 1 points as l - 2, not l - 3;
  negative-exponent  taut.py      ``integrate_monomial`` takes an exponent of -1;
  one-sample         localize.py  localization takes a single sample, so no second point checks the first;
  kappa-exp-check    point.py     ``Invariant`` takes a kappa exponent that is not an int;
  flag-value         cli.py       the parser takes ``--trace=1``, a value for a flag;
  extra-args         cli.py       the parser drops arguments left over after a command's options.

The first four are kernel bugs; the next three are refusals whose only tests are rows of ``test_contract.py``,
and the last two are parser refusals whose only tests are rows of ``REFUSALS`` in ``test_cli.py``.
The script copies the tree (without ``.git`` and caches) to a temporary directory, plants one mutation at a
time there, runs the tier-1 suite on the copy and restores the file; the tree it was started from is never
written.  It prints the number of failed tests of each mutation and then the names of the mutations no test
caught, exits 2 if a target text does not occur exactly once in its file (the mutation would test nothing), and
exits 1 if some mutation fails no test.  A test deleted as a duplicate may lower a count, but no count may reach
0: that bug would then pass unseen.  The counts assume an unmutated tree that passes.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTATIONS = [
    ("double-graph", "localize.py", "            rows.append(graph_contribution(g, codegrees, tau, h))",
     "            rows.append({c: v * (1 + ((g.a, g.b, g.A) == (0, 2, {1})))"
     " for c, v in graph_contribution(g, codegrees, tau, h).items()})"),
    ("m04-flag-weight", "localize.py", "w = u if marks else -u", "w = -u if marks else u"),
    ("point-flag-weight", "localize.py", "else u if marks else -u", "else -u if marks else u"),
    ("kappa0-scalar", "taut.py", "    m = l - 3\n", "    m = l - 2\n"),
    ("negative-exponent", "taut.py", "        if e < 0:\n", "        if e < -1:\n"),
    ("one-sample", "localize.py", 'if integer(samples, "samples") < 2:', 'if integer(samples, "samples") < 1:'),
    ("kappa-exp-check", "point.py", '        integer(kappa_exp, "kappa_exp")\n', ""),
    ("flag-value", "cli.py", "            if flag and eq:", "            if False:"),
    ("extra-args", "cli.py", "        if extra:", "        if False:"),
]
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks")


def failures(tree: Path) -> int:
    """The number of failed and erroring tests of one tier-1 run in ``tree``."""
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
                          "-p", "no:cacheprovider"], cwd=tree, capture_output=True, text=True)
    summary = run.stdout.strip().splitlines()[-1] if run.stdout.strip() else ""
    return sum(int(count) for count in re.findall(r"(\d+) (?:failed|errors?)\b", summary))


if __name__ == "__main__":
    sources = {target: (ROOT / "src" / "sgw" / target).read_text() for _, target, _, _ in MUTATIONS}
    missing = [(name, target) for name, target, old, _ in MUTATIONS if sources[target].count(old) != 1]
    for name, target in missing:
        print(f"{name}: target text not found exactly once in src/sgw/{target}")
    if missing:
        sys.exit(2)
    uncaught = []
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(scratch, "tree")
        shutil.copytree(ROOT, tree, ignore=IGNORE)
        for name, target, old, new in MUTATIONS:
            path = tree / "src" / "sgw" / target
            path.write_text(sources[target].replace(old, new))
            count = failures(tree)
            path.write_text(sources[target])
            print(f"{name}: {count} failed", flush=True)
            if not count:
                uncaught.append(name)
    print(f"{len(MUTATIONS)} mutations, caught by no test: {', '.join(uncaught) or 'none'}")
    sys.exit(1 if uncaught else 0)
