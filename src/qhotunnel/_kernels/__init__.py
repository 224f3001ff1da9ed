"""Hot-loop kernel: the block-renormalised numpy recurrence."""

from ._hermite_py import psi_scaled_grid

BACKEND = "python"

__all__ = ["psi_scaled_grid", "BACKEND"]
