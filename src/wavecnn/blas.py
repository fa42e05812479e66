"""``c += a @ b`` inside BLAS, through the OpenBLAS that numpy already loads,
and the name of the kernel family that library runs.

numpy's wheels bundle an ILP64 OpenBLAS (``numpy.libs/libscipy_openblas64_*``)
whose CBLAS entry points take a leading dimension per operand, so a strided
row-major block (a column window of a wider array) goes in as it is, and
``beta = 1`` accumulates into ``c`` without a temporary.  ctypes releases the
GIL for the call, so threads overlap as they do inside ``np.matmul``.

Where that library or its symbols are missing (another numpy build),
:func:`gemm_acc` computes ``c += a @ b``: the same bits, because an
accumulating GEMM adds the finished product of each output element to ``c``
once, exactly as a product into a temporary followed by an add.
"""

from __future__ import annotations

import ctypes
import functools
from pathlib import Path

import numpy as np

_ROW_MAJOR, _NO_TRANS, _TRANS = 101, 111, 112
_SYMBOLS = {np.dtype(np.float32): ("scipy_cblas_sgemm64_", ctypes.c_float),
            np.dtype(np.float64): ("scipy_cblas_dgemm64_", ctypes.c_double)}


@functools.cache
def _library():
    """numpy's bundled OpenBLAS, or None where numpy bundles no such library."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob(
        "libscipy_openblas64_*.so"))
    try:
        return ctypes.CDLL(str(libs[0])) if libs else None
    except OSError:
        return None


@functools.cache
def core_name() -> str | None:
    """OpenBLAS's kernel family (``SkylakeX``, ``Haswell``, ...), as picked for
    this CPU or forced by ``OPENBLAS_CORETYPE``; a float32 GEMM's bits depend
    on it.  None where the library or the symbol is missing."""
    getter = getattr(_library(), "scipy_openblas_get_corename64_", None)
    if getter is None:
        return None
    getter.argtypes, getter.restype = [], ctypes.c_char_p
    return getter().decode()


@functools.cache
def _gemm_functions() -> dict:
    """dtype -> bound CBLAS gemm; empty when numpy bundles no such library."""
    try:  # getattr(None, name) raises AttributeError as a missing symbol does
        bound = {dtype: (getattr(_library(), name), scalar)
                 for dtype, (name, scalar) in _SYMBOLS.items()}
    except AttributeError:
        return {}
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    for fn, scalar in bound.values():
        # ILP64 CBLAS: enums are C ints, sizes and leading dimensions int64
        fn.argtypes = [ctypes.c_int, ctypes.c_int, ctypes.c_int, i64, i64, i64,
                       scalar, ptr, i64, ptr, i64, scalar, ptr, i64]
        fn.restype = None
    return {dtype: (fn, scalar(1)) for dtype, (fn, scalar) in bound.items()}


def _leading_dim(arr: np.ndarray, name: str) -> int:
    """Row stride in elements of a row-major block with unit inner stride."""
    rows, cols = arr.shape
    step = arr.itemsize
    if cols > 1 and arr.strides[1] != step:
        raise ValueError(f"gemm_acc: {name} needs a unit inner stride, "
                         f"got strides {arr.strides}")
    if rows <= 1:
        return max(1, cols)
    ld, rem = divmod(arr.strides[0], step)
    if rem or ld < max(1, cols):
        raise ValueError(f"gemm_acc: {name} row stride {arr.strides[0]} bytes "
                         f"is not a whole number of rows of {cols} elements")
    return ld


def gemm_acc(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> None:
    """``c += a @ b`` in place, for 2-D float32 or float64 operands.

    ``b`` and ``c`` are row-major blocks: unit inner stride, any row stride
    at least their width.  ``a`` is such a block or the transposed view of
    one.  Raises ValueError, before touching ``c``, on any other layout, on
    mixed or non-native dtypes, on disagreeing shapes, on a read-only or
    misaligned operand, and when ``c`` overlaps an input.
    """
    for name, arr in (("a", a), ("b", b), ("c", c)):
        if not isinstance(arr, np.ndarray) or arr.ndim != 2:
            raise ValueError(f"gemm_acc: {name} must be a 2-D array")
        if not arr.flags.aligned:
            raise ValueError(f"gemm_acc: {name} is not aligned")
    dtype = c.dtype
    if dtype not in _SYMBOLS or not dtype.isnative or a.dtype != dtype or b.dtype != dtype:
        raise ValueError(f"gemm_acc: needs one native float32 or float64 dtype, "
                         f"got {a.dtype}, {b.dtype}, {c.dtype}")
    (m, k), (k2, n) = a.shape, b.shape
    if k2 != k or c.shape != (m, n):
        raise ValueError(f"gemm_acc: shapes {a.shape} @ {b.shape} -> {c.shape} disagree")
    if not c.flags.writeable:
        raise ValueError("gemm_acc: c is read-only")
    if m * n * k == 0:
        return
    if np.may_share_memory(c, a) or np.may_share_memory(c, b):
        raise ValueError("gemm_acc: c overlaps an input")
    if k == 1 or a.strides[1] == a.itemsize:
        trans, lda = _NO_TRANS, _leading_dim(a, "a")
    else:
        trans, lda = _TRANS, _leading_dim(a.T, "a.T")
    ldb, ldc = _leading_dim(b, "b"), _leading_dim(c, "c")
    bound = _gemm_functions().get(dtype)
    if bound is None:
        c += a @ b
        return
    fn, one = bound
    fn(_ROW_MAJOR, trans, _NO_TRANS, m, n, k, one, a.ctypes.data, lda,
       b.ctypes.data, ldb, one, c.ctypes.data, ldc)
