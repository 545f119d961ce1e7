"""The four LAPACK routines the package calls, from SciPy's compiled
`_flapack` extension, loaded without running `scipy.linalg`'s package init.

Only the top-level `scipy` package is imported, which on wheels makes the
bundled OpenBLAS loadable; `scipy.linalg/__init__` (its array-API shim
pulls in `numpy.f2py` and more) is never run.  The extension is registered
under its real name, so a later `import scipy.linalg` shares this module
object, and one imported first is reused here.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from pathlib import Path

import scipy

__all__ = ["dgtsv", "dpttrf", "dpttrs", "dstevd"]

_NAME = "scipy.linalg._flapack"


def _load_flapack():
    module = sys.modules.get(_NAME)
    if module is not None:
        return module
    path = Path(scipy.__path__[0], "linalg",
                "_flapack" + importlib.machinery.EXTENSION_SUFFIXES[0])
    if not path.is_file():
        raise ImportError(f"SciPy's LAPACK extension is missing: {path}", name=_NAME)
    loader = importlib.machinery.ExtensionFileLoader(_NAME, str(path))
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(_NAME, path, loader=loader))
    loader.exec_module(module)
    sys.modules[_NAME] = module
    return module


_flapack = _load_flapack()
dgtsv, dpttrf, dpttrs, dstevd = (_flapack.dgtsv, _flapack.dpttrf,
                                 _flapack.dpttrs, _flapack.dstevd)
