"""numpy for the package's array code, loaded on its first attribute access.

bound, remainder and sweep compute closed forms with math and integers and
never touch an array, so an invocation of theirs never pays numpy's import,
most of the package's import time.  The first ``np.`` lookup anywhere
loads numpy in full, and from then on ``np`` is the plain module.  A numpy
already imported is reused as is; one that cannot be imported still fails
at ``import hapticsched``, with the ModuleNotFoundError ``import numpy``
gives.
"""

from __future__ import annotations

import importlib.util
import sys


def _numpy_on_first_use():
    if "numpy" in sys.modules:
        # a loaded numpy is returned; a None entry raises here, as import does
        import numpy

        return numpy
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = _numpy_on_first_use()
