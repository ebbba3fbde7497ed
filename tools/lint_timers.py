#!/usr/bin/env python
"""Forbid raw stdlib timers in the engine and serving packages.

All engine and serving-layer timing must go through
:mod:`repro.obs.clock` — the single timing source that traces, metrics,
``CascadeStats``, and the benchmark history share.  A raw
``time.perf_counter()`` (or ``time.time()`` / ``time.monotonic()``)
call sneaking into a linted package would produce timings that can
drift from what the observability layer reports, so this grep-style
lint fails CI when one appears outside a comment or docstring.

Usage::

    python tools/lint_timers.py [ROOT]

ROOT defaults to the repository root (the parent of this file's
directory).  Exit status 0 = clean, 1 = violations (printed one per
line as ``path:lineno: matched call``).
"""

from __future__ import annotations

import pathlib
import re
import sys
import tokenize

#: Packages in which raw timers are forbidden.
LINTED_DIRS = ("src/repro/engine", "src/repro/serve", "src/repro/shard",
               "src/repro/store", "src/repro/ingest")

#: The allowed home of the timer wrappers.
ALLOWED_FILES = ("src/repro/obs/clock.py",)

_TIMER_CALL = re.compile(r"\btime\.(?:perf_counter|monotonic|time)\s*\(")


def find_violations(root: pathlib.Path) -> list[tuple[pathlib.Path, int, str]]:
    """All raw-timer call sites in the linted packages under *root*.

    Tokenises each file so matches inside comments and strings (e.g.
    docstrings that *mention* the forbidden call) are ignored — only
    real code hits count.
    """
    violations = []
    allowed = {root / rel for rel in ALLOWED_FILES}
    for rel in LINTED_DIRS:
        for path in sorted((root / rel).rglob("*.py")):
            if path in allowed:
                continue
            with tokenize.open(path) as handle:
                tokens = list(tokenize.generate_tokens(handle.readline))
            code_lines: dict[int, list[str]] = {}
            for tok in tokens:
                if tok.type in (tokenize.COMMENT, tokenize.STRING):
                    continue
                code_lines.setdefault(tok.start[0], []).append(tok.string)
            for lineno in sorted(code_lines):
                joined = "".join(code_lines[lineno])
                match = _TIMER_CALL.search(joined)
                if match:
                    violations.append((path, lineno, match.group(0) + ")"))
    return violations


def main(argv: list[str]) -> int:
    root = pathlib.Path(argv[1]) if len(argv) > 1 else (
        pathlib.Path(__file__).resolve().parent.parent
    )
    violations = find_violations(root)
    for path, lineno, call in violations:
        print(f"{path.relative_to(root)}:{lineno}: raw timer {call} — "
              f"use repro.obs.clock instead")
    if violations:
        return 1
    print(f"timer lint clean: {', '.join(LINTED_DIRS)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
