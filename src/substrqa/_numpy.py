"""numpy, bound here and loaded on the first attribute access.

Classification, parsing and the limits of nonprimitive and periodic forms
are integer arithmetic, so a process that runs only those never pays
numpy's import.  A numpy that is already loaded is reused as it is; a
missing one fails at import.
"""

import importlib.util
import sys

np = sys.modules.get("numpy")
if np is None:
    _spec = importlib.util.find_spec("numpy")
    if _spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = importlib.util.module_from_spec(_spec)
    sys.modules["numpy"] = np
    _spec.loader.exec_module(np)
