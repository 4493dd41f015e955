"""Name of the crossing kernel, for the benchmark harness.

Nothing in the package imports this module: the kernel is
`_pykernels.scan_segments`, called by `projection.crossing_table`.  It
stays only because `perfbench/probe.py` reads `backends()` and
`backend_name()` on every benchmark run, and it goes with that harness's
next change.
"""

from __future__ import annotations

from . import _pykernels


def backend_name() -> str:
    """Name of the kernel every scan runs on: always "pure"."""
    return "pure"


def backends() -> dict[str, object]:
    """Callable kernels by name."""
    return {"pure": _pykernels.scan_segments}
