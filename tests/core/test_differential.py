"""Cross-tier differential fuzz harness (see ``differential_harness.py``).

Every committed corpus case — a seeded draw over (algorithm x network
condition x server quirk x probe seed) — is replayed through both probe
engines (the scalar per-ACK reference and the batched production engine)
and must produce bit-identical traces and rng-stream states, matching the
case's committed digest in ``differential_expected.json``. ``pytest
--fuzz N`` additionally
draws N fresh cases (``--fuzz-seed`` picks the stream); a failure prints the
offending case dict, which can be appended to the corpus to pin the
regression.
"""

import pytest

from repro.tcp.registry import ALL_ALGORITHM_NAMES
from tests.core.differential_harness import (
    CORPUS_SEED,
    CORPUS_SIZE,
    assert_case_parity,
    build_corpus,
    load_corpus,
    load_expected,
)

CORPUS = load_corpus()

EXPECTED = load_expected()


def test_committed_corpus_matches_generator():
    """The corpus file is exactly ``build_corpus(CORPUS_SIZE, CORPUS_SEED)``.

    Guards both directions: an edited corpus file (hand-tweaked cases would
    no longer be reproducible from the seed) and a drifted generator (which
    would silently change what the committed cases mean).
    """
    assert CORPUS == build_corpus(CORPUS_SIZE, CORPUS_SEED)


def test_expected_digests_cover_the_corpus():
    """One committed digest per corpus case, so no case runs unpinned."""
    assert len(EXPECTED) == len(CORPUS)


def test_corpus_covers_every_algorithm():
    """Cycling the registry guarantees full algorithm coverage."""
    assert {case["algorithm"] for case in CORPUS} == set(ALL_ALGORITHM_NAMES)


@pytest.mark.parametrize("index", range(len(CORPUS)),
                         ids=[f"case{i:03d}-{c['algorithm']}"
                              for i, c in enumerate(CORPUS)])
def test_corpus_case_parity(index):
    """Both tiers reproduce this committed case's digest, traces and rng."""
    assert_case_parity(CORPUS[index], EXPECTED[index])


def test_fuzz_cases(request):
    """Opt-in breadth: ``--fuzz N`` draws N fresh cases beyond the corpus."""
    count = request.config.getoption("--fuzz")
    if not count:
        pytest.skip("pass --fuzz N to draw fresh differential cases")
    seed = request.config.getoption("--fuzz-seed")
    # Offset the stream so --fuzz-seed 0 does not replay the committed
    # corpus's draws (CORPUS_SEED) or overlap other seeds trivially.
    for case in build_corpus(count, master_seed=seed + CORPUS_SEED + 1):
        assert_case_parity(case)
