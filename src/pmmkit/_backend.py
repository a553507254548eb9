"""The kernel module and backend name, under the paths the benchmark reads."""

from __future__ import annotations

# Kept for pmmbench: its provenance calls backend_name(), its traced run wraps
# kernels.  No kernel has a caller in the package, only the tests' references.
from . import _kernels_py as kernels  # noqa: F401


def backend_name() -> str:
    """The kernel implementation; numpy is the only one."""
    return "python"
