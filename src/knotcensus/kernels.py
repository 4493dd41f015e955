"""Public face of the exact segment-pair crossing kernel.

The kernel itself is the pure-Python, arbitrary-precision scan in
`_pykernels`; this module re-exports its status codes and entry point
under the names the rest of the package, the benchmarks and the tests
use.
"""

from __future__ import annotations

from . import _pykernels
from ._pykernels import (
    FAIL_DEGENERATE_SEGMENT,
    FAIL_INTERSECT_3D,
    FAIL_VERTEX_COINCIDE,
    FAIL_VERTEX_ON_SEGMENT,
    OK,
)


def find_crossings(polys, u, v, d):
    """Scan the projected segment pairs of one or two closed polygons.

    See `_pykernels.find_crossings` for the arguments and the result.
    """
    return _pykernels.find_crossings(polys, u, v, d)


def backend_name() -> str:
    """Name of the kernel every scan runs on: always "pure"."""
    return "pure"


def backends() -> dict[str, object]:
    """Callable kernels by name, for benchmarks."""
    return {"pure": _pykernels.find_crossings}
