"""Repository-level pytest configuration.

Puts ``src/`` on ``sys.path``, so the suite imports ``repro`` from the
checkout exactly as ``PYTHONPATH=src`` does everywhere else; the package is
never installed.
"""

import pathlib
import sys

_SRC = pathlib.Path(__file__).parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


def pytest_addoption(parser):
    """Opt-in knobs of the cross-tier differential fuzz harness.

    ``pytest tests/core/test_differential.py --fuzz 500`` draws 500 fresh
    cases beyond the committed corpus; ``--fuzz-seed`` picks the stream
    (vary it across runs to explore new ground).
    """
    parser.addoption("--fuzz", type=int, default=0, metavar="N",
                     help="differential harness: run N freshly drawn fuzz "
                          "cases in addition to the committed corpus")
    parser.addoption("--fuzz-seed", type=int, default=0,
                     help="differential harness: seed of the --fuzz draws")
