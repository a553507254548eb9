"""The kernel module and backend name, under the paths the benchmark reads."""

from __future__ import annotations

# Kept for pmmbench: its provenance calls backend_name(), its traced run wraps
# kernels.  simulate_block and batch_filter_means are called only there and by
# the tests' simulate-and-filter reference.
from . import _kernels_py as kernels  # noqa: F401


def backend_name() -> str:
    """The kernel implementation; numpy is the only one."""
    return "python"
