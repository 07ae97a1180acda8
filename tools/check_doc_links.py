"""CI check: every relative link in the documentation resolves.

Scans ``README.md`` and ``docs/*.md`` for Markdown links, **inline-code
path references** (backtick spans that name a repository path, e.g.
```` `src/repro/experiments/` ````, or a package path relative to ``src/``,
e.g. ```` `repro/core/gather.py` ````) and **command-line entry points**
(``python -m repro.<name>`` must name a ``src/repro/<name>/__main__.py``,
so a deleted CLI cannot linger in the docs), and fails with the full
offender list if any of them points at a file that does not exist.
External (``http``/``https``/``mailto``) links are not fetched — CI must
not depend on the network.

Usage::

    python tools/check_doc_links.py
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: ``[text](target)`` Markdown links; images share the syntax.
LINK_PATTERN = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: Backtick spans whose content is a repository path: they must start with
#: one of the repo's top-level directories and contain only path characters.
#: Spans with glob characters or spaces (shell commands) are not checked.
#: ``benchmarks`` is gone; it stays listed so that a stale mention fails.
CODE_PATH_PATTERN = re.compile(
    r"`((?:src|docs|tests|tools|perfbench|benchmarks|examples)/"
    r"[A-Za-z0-9_./-]+)`")

#: Backtick spans naming a path inside the package the short way, relative
#: to ``src/`` (``repro/...``).
PACKAGE_PATH_PATTERN = re.compile(r"`(repro/[A-Za-z0-9_./-]+)`")

#: (pattern, directory its spans are relative to, where that is).
CODE_PATH_CHECKS = ((CODE_PATH_PATTERN, Path("."), "in the repository"),
                    (PACKAGE_PATH_PATTERN, Path("src"), "under src/"))

#: ``python -m repro.<name>`` invocations; the group is the package name.
ENTRY_POINT_PATTERN = re.compile(r"python3? -m repro\.([A-Za-z_]\w*)")

EXTERNAL_PREFIXES = ("http://", "https://", "mailto:", "#")


def documentation_files() -> list[Path]:
    files = [REPO_ROOT / "README.md"]
    files.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return [path for path in files if path.exists()]


def check_file(path: Path) -> list[str]:
    problems = []
    text = path.read_text(encoding="utf-8")
    for line_number, line in enumerate(text.splitlines(), start=1):
        for match in LINK_PATTERN.finditer(line):
            target = match.group(1)
            if target.startswith(EXTERNAL_PREFIXES):
                continue
            relative = target.split("#", 1)[0]
            if not relative:
                continue
            resolved = (path.parent / relative).resolve()
            if not resolved.exists():
                problems.append(
                    f"{path.relative_to(REPO_ROOT)}:{line_number}: broken "
                    f"link {target!r} (no such file {relative!r})")
        for pattern, base, where in CODE_PATH_CHECKS:
            for match in pattern.finditer(line):
                reference = match.group(1)
                # Inline-code paths resolve from the repo root (or src/)
                # regardless of which document mentions them.
                if not (REPO_ROOT / base / reference).exists():
                    problems.append(
                        f"{path.relative_to(REPO_ROOT)}:{line_number}: broken "
                        f"inline-code path reference `{reference}` "
                        f"(no such file {where})")
        for match in ENTRY_POINT_PATTERN.finditer(line):
            main = Path("src", "repro", match.group(1), "__main__.py")
            if not (REPO_ROOT / main).exists():
                problems.append(
                    f"{path.relative_to(REPO_ROOT)}:{line_number}: "
                    f"`{match.group(0)}` names no command line "
                    f"(no {main.as_posix()})")
    return problems


def main() -> int:
    files = documentation_files()
    if len(files) < 2:
        print("error: expected README.md plus docs/*.md, found "
              f"{[str(f) for f in files]}", file=sys.stderr)
        return 1
    problems = []
    for path in files:
        problems.extend(check_file(path))
    if problems:
        print("\n".join(problems), file=sys.stderr)
        print(f"\n{len(problems)} broken documentation link(s)",
              file=sys.stderr)
        return 1
    print(f"OK: all relative links and entry points in {len(files)} "
          "documentation files resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
