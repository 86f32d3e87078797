"""Start-up guard: importing bicircle.cli must import neither dataclasses nor inspect.

Together they cost 10-14 ms of every fresh process. Run this in a fresh
interpreter, against whichever bicircle that interpreter finds:

    PYTHONPATH=src python tests/startup_guard.py

It exits 0 when the import added neither module, and 1 naming those it added.
"""

import sys

before = set(sys.modules)
import bicircle.cli  # noqa: E402,F401

added = sorted(({"dataclasses", "inspect"} - before) & set(sys.modules))
if added:
    sys.exit(f"importing bicircle.cli imported {' and '.join(added)}")
print("importing bicircle.cli imported neither dataclasses nor inspect")
