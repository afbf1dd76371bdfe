"""Write ``output_digests.txt``: one digest line per CLI command of the corpus.

    PYTHONPATH=src python3 tests/make_output_digests.py

Each command runs in process through click's runner at ``SGW_SEED=1729``.
Its line holds the arguments, the exit code and the SHA-256 of stdout,
and of stderr too when the exit code is not 0.  ``test_output_digests.py``
recomputes the lines and names the first one that differs.  A change that
means to change bytes reruns this script and lists the changed lines.
"""

from __future__ import annotations

import hashlib
from itertools import product
from pathlib import Path

from click.testing import CliRunner

from sgw.cli import main
from sgw.tables import TAUT_ENTRIES

DIGESTS = Path(__file__).with_name("output_digests.txt")
SEED = "1729"


def commands() -> list[list[str]]:
    """The argument lists of the corpus, in the order of the file."""
    runs = [["reproduce-paper"]]
    for n in range(1, 11):
        runs += [["quantum", "--n", str(n)], ["quantum", "--n", str(n), "--format", "json"]]
    for n, k in product(range(1, 4), range(1, 4)):
        for classes in product(range(n + 1), repeat=k):
            base = ["invariant", "--format", "json", "--n", str(n), "--k", str(k), "--classes", ",".join(map(str, classes))]
            strategies = [[], ["--strategy", "symbolic"]] if n <= 2 else [[]]
            runs += [base + strategy + trace for strategy in strategies for trace in ([], ["--trace"])]
    for k in range(3, 25):
        runs += [["point", "--k", str(k)], ["point", "--k", str(k), "--format", "json"]]
    for entry in TAUT_ENTRIES:
        base = ["taut", "--k", str(entry.k), "--exps", ",".join(map(str, entry.exps))]
        runs += [base, base + ["--format", "json"]]
    runs += [  # refused input: exit 2 and one stderr line
        ["point", "--k", "2"],
        ["point", "--k", "25"],
        ["taut", "--k", "5", "--exps", "-1,3"],
        ["taut", "--k", "5", "--exps", "1"],
        ["quantum", "--n", "0"],
        ["invariant", "--n", "1", "--k", "4", "--classes", "1,1,1,1"],
        ["invariant", "--n", "2", "--k", "2", "--classes", "3,0"],
        ["invariant", "--n", "3", "--k", "2", "--classes", "1,1", "--strategy", "symbolic"],
        ["invariant", "--n", "2", "--k", "2", "--classes", "1,1", "--samples", "1"],
        ["invariant", "--n", "2", "--k", "2", "--classes", "1,x"],
    ]
    return runs


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest_lines() -> list[str]:
    """``<command> | <digests>`` for every command of ``commands``."""
    runner = CliRunner(env={"SGW_SEED": SEED})
    lines = []
    for args in commands():
        result = runner.invoke(main, args)
        digest = f"exit={result.exit_code} stdout={_sha(result.stdout)}"
        if result.exit_code:
            digest += f" stderr={_sha(result.stderr)}"
        lines.append(f"sgw {' '.join(args)} | {digest}")
    return lines


if __name__ == "__main__":
    DIGESTS.write_text("".join(line + "\n" for line in digest_lines()))
