"""Non-blank, non-comment line counts of a Python package, per module.

Run from the repository root:

    python3 tools/sloc.py [PACKAGE_DIR]

PACKAGE_DIR defaults to src/pdra.  A line counts unless it is empty or
whitespace, or its first non-blank character is ``#``; docstrings and code
with a trailing comment count.  Each module prints as ``COUNT PATH``, sorted
by path, and the last line is ``COUNT total``.
"""

from __future__ import annotations

import argparse
import pathlib


def count_lines(text: str) -> int:
    """Lines of text that are neither blank nor a comment alone."""
    return sum(1 for line in text.splitlines()
               if line.strip() and not line.lstrip().startswith("#"))


def module_counts(package: pathlib.Path) -> dict[str, int]:
    """Line count of each .py file under package, keyed by its relative path."""
    return {path.relative_to(package).as_posix(): count_lines(path.read_text(encoding="utf-8"))
            for path in sorted(package.rglob("*.py"))}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", nargs="?", default="src/pdra",
                        help="package directory (default: src/pdra)")
    package = pathlib.Path(parser.parse_args(argv).package)
    if not package.is_dir():
        parser.error(f"{package} is not a directory")
    counts = module_counts(package)
    for name, count in counts.items():
        print(f"{count:6d} {package.as_posix()}/{name}")
    print(f"{sum(counts.values()):6d} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
