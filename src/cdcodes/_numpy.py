"""`np`, the numpy module, imported on first use: `from ._numpy import np`.

If numpy is not loaded yet, it is installed in sys.modules through
importlib.util.LazyLoader, so its __init__ runs at the first attribute
access, and commands that touch no array (`cdc bound`, `cdc table`)
never pay numpy's import.  A later `import numpy` gets the same module.
"""

import importlib.util
import sys

np = sys.modules.get("numpy")
if np is None:
    _spec = importlib.util.find_spec("numpy")
    if _spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = sys.modules["numpy"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(np)
