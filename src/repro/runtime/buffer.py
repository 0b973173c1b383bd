"""Message buffers: functional (numpy-backed) and timing-only.

Collectives operate on :class:`BufferView` windows — ``(buffer,
offset, nbytes)`` — so algorithm code is identical whether bytes
really move or not:

* :class:`ArrayBuffer` wraps a numpy array; reads/writes touch real
  memory, so correctness is checkable byte-for-byte.
* :class:`NullBuffer` tracks only sizes; reads return ``None`` and
  writes are dropped.  Full-scale benchmark runs (2304 ranks ×
  allgather would need gigabytes) use this mode — the cost model is
  unaffected because all modeled costs depend only on sizes.
"""

from __future__ import annotations

import itertools
from typing import Optional

import numpy as np

from .datatypes import Datatype
from .errors import DatatypeError

_buffer_ids = itertools.count(1)


class BaseBuffer:
    """Common interface of functional and null buffers."""

    __slots__ = ("nbytes", "key")

    def __init__(self, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        self.nbytes = nbytes
        #: stable identity for transport attach caches (XPMEM)
        self.key = next(_buffer_ids)

    # -- byte-level access (overridden) ---------------------------------
    def read_bytes(self, offset: int, nbytes: int) -> Optional[np.ndarray]:
        raise NotImplementedError

    def slice_bytes(self, offset: int, nbytes: int) -> Optional[np.ndarray]:
        """A zero-copy window (``None`` for timing-only buffers).

        Unlike :meth:`read_bytes` this is a *live view* of the buffer's
        memory — mutating it mutates the buffer.  Used for single-copy
        data movement (``BufferView.copy_from``); anything needing a
        stable snapshot (message payloads) must use :meth:`read_bytes`.
        """
        raise NotImplementedError

    def write_bytes(self, offset: int, data: Optional[np.ndarray]) -> None:
        raise NotImplementedError

    def _check_range(self, offset: int, nbytes: int) -> None:
        if offset < 0 or nbytes < 0 or offset + nbytes > self.nbytes:
            raise IndexError(
                f"range [{offset}, {offset + nbytes}) outside buffer of {self.nbytes} B"
            )

    # -- views -----------------------------------------------------------
    def view(self, offset: int = 0, nbytes: Optional[int] = None) -> "BufferView":
        """A window onto this buffer."""
        if nbytes is None:
            nbytes = self.nbytes - offset
        return BufferView(self, offset, nbytes)  # range-checked there


class ArrayBuffer(BaseBuffer):
    """A numpy-backed buffer; the byte image is authoritative."""

    __slots__ = ("array", "_flat")

    def __init__(self, array: np.ndarray) -> None:
        array = np.ascontiguousarray(array)
        super().__init__(array.nbytes)
        self.array = array
        # The flat uint8 image is computed once; every byte-level
        # operation below is a plain numpy slice on it (no per-call
        # reshape/view allocations).
        self._flat = array.reshape(-1).view(np.uint8)

    @classmethod
    def zeros(cls, nbytes: int) -> "ArrayBuffer":
        """A zero-filled byte buffer."""
        return cls(np.zeros(nbytes, dtype=np.uint8))

    @classmethod
    def from_array(cls, array: np.ndarray) -> "ArrayBuffer":
        """Wrap (a contiguous copy of, if needed) an existing array."""
        return cls(array)

    @property
    def bytes_view(self) -> np.ndarray:
        """The whole buffer as a flat uint8 array (a view, not a copy)."""
        return self._flat

    def read_bytes(self, offset: int, nbytes: int) -> np.ndarray:
        """Copy out ``nbytes`` starting at ``offset`` (a snapshot)."""
        self._check_range(offset, nbytes)
        return self._flat[offset : offset + nbytes].copy()

    def slice_bytes(self, offset: int, nbytes: int) -> np.ndarray:
        """Zero-copy live window (see :meth:`BaseBuffer.slice_bytes`)."""
        self._check_range(offset, nbytes)
        return self._flat[offset : offset + nbytes]

    def write_bytes(self, offset: int, data: Optional[np.ndarray]) -> None:
        """Copy ``data`` into the buffer at ``offset``."""
        if data is None:
            return  # timing-only payload arriving in a functional buffer
        self._check_range(offset, data.nbytes)
        self._flat[offset : offset + data.nbytes] = data.reshape(-1).view(np.uint8)

    def typed(self, datatype: Datatype) -> np.ndarray:
        """The whole buffer viewed as ``datatype`` elements."""
        if self.nbytes % datatype.size:
            raise DatatypeError(
                f"buffer of {self.nbytes} B is not a whole number of {datatype.name}"
            )
        return self.bytes_view.view(datatype.np_dtype)


class NullBuffer(BaseBuffer):
    """Sizes only — for full-scale timing runs."""

    __slots__ = ()

    def read_bytes(self, offset: int, nbytes: int) -> None:
        self._check_range(offset, nbytes)
        return None

    def slice_bytes(self, offset: int, nbytes: int) -> None:
        self._check_range(offset, nbytes)
        return None

    def write_bytes(self, offset: int, data: Optional[np.ndarray]) -> None:
        if data is not None:
            self._check_range(offset, data.nbytes)

    def typed(self, datatype: Datatype) -> None:
        """Timing-only buffers have no element image."""
        return None


class BufferView:
    """A ``(buffer, offset, nbytes)`` window — what send/recv take."""

    __slots__ = ("buffer", "offset", "nbytes")

    def __init__(self, buffer: BaseBuffer, offset: int, nbytes: int) -> None:
        buffer._check_range(offset, nbytes)
        self.buffer = buffer
        self.offset = offset
        self.nbytes = nbytes

    def sub(self, offset: int, nbytes: int) -> "BufferView":
        """A narrower window, relative to this one."""
        if offset < 0 or nbytes < 0 or offset + nbytes > self.nbytes:
            raise IndexError(
                f"sub-range [{offset}, {offset + nbytes}) outside view of {self.nbytes} B"
            )
        return BufferView(self.buffer, self.offset + offset, nbytes)

    def read(self) -> Optional[np.ndarray]:
        """Snapshot the window's bytes (``None`` for null buffers)."""
        return self.buffer.read_bytes(self.offset, self.nbytes)

    def write(self, data: Optional[np.ndarray]) -> None:
        """Write ``data`` (at most the window's size) into the window."""
        if data is not None and data.nbytes > self.nbytes:
            raise IndexError(f"writing {data.nbytes} B into a {self.nbytes} B view")
        self.buffer.write_bytes(self.offset, data)

    def raw(self) -> Optional[np.ndarray]:
        """Zero-copy live window onto the underlying bytes.

        ``None`` for timing-only buffers.  Mutating the returned array
        mutates the buffer — use :meth:`read` for snapshots.
        """
        return self.buffer.slice_bytes(self.offset, self.nbytes)

    def copy_from(self, other: "BufferView") -> None:
        """Functional copy ``other → self`` (sizes must match).

        A single memcpy when both sides are functional: the source is
        taken as a zero-copy slice and written straight into the
        destination, instead of snapshot-then-write (two copies).
        Overlapping windows of the same buffer fall back to the
        snapshot path (numpy slice assignment does not define overlap).
        """
        nbytes = self.nbytes
        if other.nbytes != nbytes:
            raise ValueError(f"size mismatch: {other.nbytes} != {nbytes}")
        if other.buffer is self.buffer:
            lo, hi = self.offset, self.offset + nbytes
            if other.offset < hi and lo < other.offset + nbytes:
                self.write(other.read())
                return
        self.buffer.write_bytes(
            self.offset, other.buffer.slice_bytes(other.offset, nbytes))

    @property
    def key(self):
        """The underlying buffer's identity (for attach caches)."""
        return self.buffer.key

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = type(self.buffer).__name__
        return f"<BufferView {kind}[{self.offset}:{self.offset + self.nbytes}]>"


def alloc(nbytes: int, functional: bool = True) -> BaseBuffer:
    """Allocate a buffer of ``nbytes`` in the requested mode."""
    return ArrayBuffer.zeros(nbytes) if functional else NullBuffer(nbytes)
