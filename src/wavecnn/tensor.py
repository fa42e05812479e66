"""Array conventions shared by every other module.

Arrays are plain numpy ndarrays kept in row-major (C) order.  Training state
uses float32; gradient checking uses float64, because central differences at
step 1e-5 drown in float32 rounding noise.
"""

from __future__ import annotations

import numpy as np

Tensor = np.ndarray

DTYPE = np.float32        # training precision
CHECK_DTYPE = np.float64  # finite-difference precision


class ShapeError(ValueError):
    """An operation received arrays of incompatible or invalid shape."""
