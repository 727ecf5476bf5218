"""The ``repro lint`` verb.

::

    repro lint src/repro                  # all passes, text output
    repro lint --select REC001 src/repro  # recursion cycles only
    repro lint --select CC,RB src/repro   # whole rule families by prefix
    repro lint --ignore BAN003 path/      # everything but float-weights
    repro lint --list-passes              # what runs, with descriptions
    repro lint --format json src/repro    # machine-readable findings

Exit status: 0 clean, 1 violations found, 2 usage or analysis error.
The test suite gates on ``repro lint src/repro`` exiting 0, so every
change runs under the analyzer; there is no baseline of accepted
findings.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from repro.analysis.passes import (
    Violation,
    available_passes,
    code_matches,
    run_lint,
)
from repro.errors import ReproError

EXIT_CLEAN = 0
EXIT_VIOLATIONS = 1
EXIT_ERROR = 2


def _split_codes(raw: Optional[str]) -> Optional[list[str]]:
    if raw is None:
        return None
    return [code.strip() for code in raw.split(",") if code.strip()]


def _render_report(
    fmt: str, violations: list[Violation], files_checked: int, passes_run: int
) -> str:
    if fmt == "json":
        return json.dumps(
            {
                "files_checked": files_checked,
                "passes_run": passes_run,
                "violations": [
                    {
                        "path": v.path,
                        "line": v.lineno,
                        "code": v.code,
                        "message": v.message,
                    }
                    for v in violations
                ],
            },
            indent=2,
        )
    lines = [v.render() for v in violations]
    if violations:
        lines.append(f"{len(violations)} violation(s) in {files_checked} file(s)")
    else:
        lines.append(f"clean: {files_checked} file(s), {passes_run} pass(es)")
    return "\n".join(lines)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("paths", nargs="*", help="files or directories to analyze")
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated pass codes or family prefixes (CC, RB) to run",
    )
    parser.add_argument(
        "--ignore",
        metavar="CODES",
        help="comma-separated pass codes or family prefixes to skip",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format",
    )
    parser.add_argument(
        "--list-passes", action="store_true", help="list registered passes and exit"
    )
    parser.set_defaults(usage=parser.format_usage())


def run(args: argparse.Namespace) -> int:
    if args.list_passes:
        for cls in available_passes():
            print(f"{cls.code}  {cls.name}")
            print(f"        {cls.description}")
        return EXIT_CLEAN

    if not args.paths:
        sys.stderr.write(args.usage)
        print("repro lint: error: no paths given", file=sys.stderr)
        return EXIT_ERROR

    # A typo'd code must not turn the lint gate into a vacuous pass.
    known = {cls.code for cls in available_passes()}
    select = _split_codes(args.select)
    ignore = _split_codes(args.ignore)
    unknown = [
        pattern
        for pattern in (select or []) + (ignore or [])
        if not any(code_matches(code, [pattern]) for code in known)
    ]
    if unknown:
        print(
            f"repro lint: error: unknown pass code(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(known))})",
            file=sys.stderr,
        )
        return EXIT_ERROR

    try:
        result = run_lint(args.paths, select=select, ignore=ignore)
    except (ReproError, OSError, SyntaxError) as exc:
        print(f"repro lint: error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    print(
        _render_report(
            args.format, result.violations, result.files_checked, result.passes_run
        )
    )
    return EXIT_VIOLATIONS if result.violations else EXIT_CLEAN
