"""Same output: every command of the corpus still gives the committed digests."""

from .make_output_digests import DIGESTS, digest_lines


def test_outputs_match_the_committed_digests():
    committed = DIGESTS.read_text().splitlines()
    fresh = digest_lines()
    for old, new in zip(committed, fresh):
        assert new == old, f"first differing line: {old.split(' | ')[0]}"
    assert len(fresh) == len(committed), "the corpus changed size: rerun tests/make_output_digests.py"
