"""Importing the package generates no code and loads no code-introspection modules.

A CLI call pays the package import every time, so the import stays plain:
no class is a dataclass (whose decorator builds methods through ``exec``
and imports ``inspect``, ``ast``, ``dis`` and ``tokenize``).
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")

PROBE = f"""
import sys
import cartanfree, cartanfree.cli
print(sorted(m for m in {HEAVY!r} if m in sys.modules))
print(sorted(
    f"{{name}}.{{attr}}"
    for name, mod in list(sys.modules.items())
    if name.startswith("cartanfree")
    for attr, obj in vars(mod).items()
    if isinstance(obj, type) and obj.__module__ == name and "__dataclass_fields__" in dir(obj)
))
"""


def test_import_loads_no_introspection_module_and_no_dataclass():
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "[]\n[]\n"
