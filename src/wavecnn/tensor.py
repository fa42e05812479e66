"""Array conventions and the error classes shared by every other module.

Arrays are plain numpy ndarrays kept in row-major (C) order.  Training state
uses float32; gradient checking uses float64, because central differences at
step 1e-5 drown in float32 rounding noise.

What a user's input, settings or files can cause raises a :class:`WavecnnError`
that keeps the builtin base a caller expects; the command line reports these
and ``OSError`` as the user's.  A library caller's misuse (say a bad
``gemm_acc`` layout) raises a plain builtin, which it reports as a bug.
"""

from __future__ import annotations

import numpy as np

DTYPE = np.float32        # training precision
CHECK_DTYPE = np.float64  # finite-difference precision


class WavecnnError(Exception):
    """Root of the package's typed errors: bad input, settings or run state."""

    __str__ = BaseException.__str__  # the message, even under a KeyError base


class ConfigError(WavecnnError, ValueError):
    """A bad setting, flag or config file; the command line exits 2 on it."""


class NonFiniteError(WavecnnError, FloatingPointError):
    """A NaN or inf reached a value that must be finite."""


class ShapeError(WavecnnError, ValueError):
    """An operation received arrays of incompatible or invalid shape."""
