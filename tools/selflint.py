#!/usr/bin/env python
"""Repo self-lint: mechanical rules the test suite cannot express.

Two rules, each walking the AST of every ``.py`` file under the given
directories (default: ``benchmarks/`` and ``src/``):

**Wall-clock gating** (``benchmarks/`` only).  The dev and CI containers
frequently run on a single, heavily shared CPU, so any benchmark that
passes or fails based on elapsed time is flaky by construction.  The repo
rule is: benchmarks gate on *verdict equality* (and solver-internal
counters such as conflicts); wall-clock numbers are reported for
information only.  Flagged: each comparison whose operands mention a
timing quantity — an identifier, attribute, or string key matching
``seconds``, ``elapsed``, ``wall``, ``runtime``, ``duration``,
``speedup`` or ``perf_counter``.  The rule is scoped to benchmark roots:
``src/`` code may legitimately compare runtimes for *reporting* (e.g. the
figure harnesses' rendered tables).

Exemptions:

* comparisons against a literal ``0`` — the ``entry["seconds"] > 0``
  division-guard idiom measures nothing;
* lines carrying a ``# selflint: allow-wallclock`` comment — for
  comparisons that gate nothing (e.g. ``perfbench/run.py``'s pass loop,
  which reads the clock only to decide how many passes fit the run
  length).

**Environment reads** (everywhere).  Process-default knobs must resolve in
one designated config module per subsystem, so a knob's precedence
(explicit argument > environment > default) is auditable in one place.
The ``REPRO_*`` selectors are process-wide: forked ``TaskPool`` workers
inherit them from the parent's environment, and the resolver in each
worker reads the same value.  Flagged: any ``os.environ`` / ``os.getenv``
use outside the allowlisted config modules.  Lines carrying a
``# selflint: allow-env`` comment are exempt — for reads that genuinely
belong where they are (document why at the site).

Exit status: 0 when clean, 1 with a ``file:line`` listing otherwise.

Usage::

    python tools/selflint.py            # lints benchmarks/ and src/
    python tools/selflint.py benchmarks src tools
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

#: Deliberately excludes the bare word "time": it would false-positive on
#: ``timeout`` knobs and the ``time`` module name in non-gating code.
TIMING = re.compile(
    r"(seconds|elapsed|wall|runtime|duration|speedup|perf_counter)",
    re.IGNORECASE,
)

ALLOW_COMMENT = "selflint: allow-wallclock"
ALLOW_ENV_COMMENT = "selflint: allow-env"

#: Modules allowed to read the environment: one config resolver per
#: subsystem (compilation pipeline, SAT backend, kernel sanitizer).
#: Matched as path suffixes.
ENV_ALLOWED_SUFFIXES = (
    "solve/pipeline.py",
    "solve/backend.py",
    "sat/sanitize.py",
)


def _timing_words(node: ast.AST) -> list[str]:
    """Timing-flavoured identifiers/attributes/string keys under ``node``."""
    words: list[str] = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and TIMING.search(sub.id):
            words.append(sub.id)
        elif isinstance(sub, ast.Attribute) and TIMING.search(sub.attr):
            words.append(sub.attr)
        elif (
            isinstance(sub, ast.Constant)
            and isinstance(sub.value, str)
            and TIMING.search(sub.value)
        ):
            words.append(sub.value)
    return words


def _is_zero_literal(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
        and node.value == 0
    )


def _check_wallclock(
    tree: ast.AST, lines: list[str]
) -> list[tuple[int, str]]:
    violations: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        words = _timing_words(node)
        if not words:
            continue
        if any(_is_zero_literal(c) for c in [node.left, *node.comparators]):
            continue  # division/emptiness guard, not a gate
        line_text = lines[node.lineno - 1] if node.lineno <= len(lines) else ""
        if ALLOW_COMMENT in line_text:
            continue
        unique = sorted(set(words))
        violations.append(
            (
                node.lineno,
                f"comparison gates on wall-clock quantity {unique}; "
                "benchmarks must gate on verdicts, never timing "
                f"(suppress with '# {ALLOW_COMMENT}' if self-guarded)",
            )
        )
    return violations


def _is_os_env_use(node: ast.AST) -> bool:
    """``os.environ`` (any use: .get, subscript, ``in``) or ``os.getenv``."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr in ("environ", "getenv")
        and isinstance(node.value, ast.Name)
        and node.value.id == "os"
    )


def _check_env_reads(
    tree: ast.AST, lines: list[str], path: Path
) -> list[tuple[int, str]]:
    posix = path.as_posix()
    if any(posix.endswith(suffix) for suffix in ENV_ALLOWED_SUFFIXES):
        return []
    violations: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if not _is_os_env_use(node):
            continue
        line_text = lines[node.lineno - 1] if node.lineno <= len(lines) else ""
        if ALLOW_ENV_COMMENT in line_text:
            continue
        violations.append(
            (
                node.lineno,
                "direct environment read outside a config module; resolve "
                "the knob in its subsystem's config resolver "
                f"({', '.join(ENV_ALLOWED_SUFFIXES)}) or suppress with "
                f"'# {ALLOW_ENV_COMMENT}'",
            )
        )
    return violations


def _check_file(path: Path, wallclock: bool) -> list[tuple[int, str]]:
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [(exc.lineno or 0, f"syntax error: {exc.msg}")]
    lines = source.splitlines()

    violations: list[tuple[int, str]] = []
    if wallclock:
        violations.extend(_check_wallclock(tree, lines))
    violations.extend(_check_env_reads(tree, lines, path))
    return sorted(violations)


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    roots = [Path(a) for a in args] or [Path("benchmarks"), Path("src")]

    files: list[tuple[Path, bool]] = []
    for root in roots:
        # The wall-clock rule only applies to benchmark code; everything
        # else is still subject to the environment-read rule.
        wallclock = "src" not in root.parts
        if root.is_file():
            files.append((root, wallclock))
        elif root.is_dir():
            files.extend((p, wallclock) for p in sorted(root.rglob("*.py")))
        else:
            print(f"selflint: no such path: {root}", file=sys.stderr)
            return 2

    total = 0
    for path, wallclock in files:
        for lineno, message in _check_file(path, wallclock):
            print(f"{path}:{lineno}: {message}")
            total += 1
    if total:
        print(f"selflint: {total} violation(s)", file=sys.stderr)
        return 1
    print(f"selflint: {len(files)} file(s) clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
