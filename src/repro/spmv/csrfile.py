"""Binary CRS file format for sub-matrix storage.

Layout (little-endian):

=========  ======  =====================================
offset     dtype   field
=========  ======  =====================================
0          8s      magic ``b"DOOCCSR1"``
8          i64     nrows
16         i64     ncols
24         i64     nnz
32         i64[n+1]  indptr
...        i64[nnz]  indices
...        f64[nnz]  values
=========  ======  =====================================

The same byte layout doubles as the in-memory serialization used to park a
sub-matrix in a DOoC global array (one uint8 block), so the storage layer
stays agnostic of matrix structure — it only ever moves untyped bytes, as
DataCutter intends.  On disk the serialized bytes are one uint8 array
written by :func:`repro.core.iofilter.write_array`, raw or in its chunk
container, like any other array.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.spmv.csr import CSRBlock, CSRError

MAGIC = b"DOOCCSR1"
_HEADER = struct.Struct("<8sqqq")


def csr_nbytes(nrows: int, nnz: int) -> int:
    """Size in bytes of the serialized form."""
    return _HEADER.size + 8 * (nrows + 1) + 8 * nnz + 8 * nnz


def serialize_csr(block: CSRBlock) -> bytes:
    """Serialize to the binary CRS layout."""
    header = _HEADER.pack(MAGIC, block.nrows, block.ncols, block.nnz)
    return b"".join(
        [
            header,
            np.ascontiguousarray(block.indptr, dtype="<i8").tobytes(),
            np.ascontiguousarray(block.indices, dtype="<i8").tobytes(),
            np.ascontiguousarray(block.values, dtype="<f8").tobytes(),
        ]
    )


def deserialize_csr(raw) -> CSRBlock:
    """Parse the binary CRS layout (accepts bytes or a uint8 ndarray).

    Array views are taken zero-copy when the buffer alignment allows.
    """
    buf = memoryview(np.asarray(raw, dtype=np.uint8)).cast("B") \
        if isinstance(raw, np.ndarray) else memoryview(raw)
    if len(buf) < _HEADER.size:
        raise CSRError("buffer too short for a CRS header")
    magic, nrows, ncols, nnz = _HEADER.unpack_from(buf, 0)
    if magic != MAGIC:
        raise CSRError(f"bad magic {magic!r}; not a binary CRS buffer")
    expected = csr_nbytes(nrows, nnz)
    if len(buf) < expected:
        raise CSRError(
            f"buffer has {len(buf)} bytes; header promises {expected}"
        )
    off = _HEADER.size
    indptr = np.frombuffer(buf, dtype="<i8", count=nrows + 1, offset=off)
    off += 8 * (nrows + 1)
    indices = np.frombuffer(buf, dtype="<i8", count=nnz, offset=off)
    off += 8 * nnz
    values = np.frombuffer(buf, dtype="<f8", count=nnz, offset=off)
    return CSRBlock(nrows=nrows, ncols=ncols,
                    indptr=indptr, indices=indices, values=values)

