"""``tools/check_doc_links.py`` resolves package paths relative to ``src/``."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_doc_links", ROOT / "tools" / "check_doc_links.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_stale_package_path_fails(tmp_path, monkeypatch):
    checker = load_checker()
    monkeypatch.setattr(checker, "REPO_ROOT", tmp_path)
    (tmp_path / "src" / "repro" / "core").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "core" / "gather.py").write_text("")
    (tmp_path / "docs").mkdir()
    doc = tmp_path / "docs" / "GUIDE.md"
    doc.write_text("See `repro/core/gather.py` and `src/repro/core/`.\n"
                   "The link is `repro/scenarios/link.py`.\n")
    assert checker.check_file(doc) == [
        "docs/GUIDE.md:2: broken inline-code path reference "
        "`repro/scenarios/link.py` (no such file under src/)"]
