"""Find the checkout root and import `cartanfree` from its `src` tree.

The benchmark must measure the code in the checkout it runs from, never a
copy installed elsewhere, so the import is pinned to `<root>/src` and
verified afterwards.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"  # run outputs; ignored by git


class MissingPackage(RuntimeError):
    """The checkout does not hold the `cartanfree` sources."""


def import_package() -> None:
    """Import `cartanfree` and `cartanfree.cli` from `<root>/src`."""
    if not (SRC / "cartanfree" / "__init__.py").is_file():
        raise MissingPackage(f"no cartanfree sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cartanfree
    import cartanfree.cli

    where = Path(cartanfree.__file__).resolve()
    if SRC not in where.parents:
        raise MissingPackage(f"cartanfree was imported from {where}, not from {SRC}")
