"""The instrumented device-array view handed out under the sanitizer.

When a :class:`~repro.sanitize.sanitizer.DeviceSanitizer` is active,
``DeviceArray.data`` returns a :class:`SanitizedView` instead of the raw
NumPy buffer.  The view mirrors the slice of ndarray surface the block
programs actually use and reports every element-exact access back to the
sanitizer:

* **basic indexing** (ints/slices) returns a smaller ``SanitizedView``
  *without* recording a read — taking ``workspace.data[block]`` is
  pointer arithmetic, not a load — except that a fully-scalar index is
  an immediate read;
* **advanced indexing** (index arrays) records the exact elements read
  and returns a raw copy, like a gather;
* ``__setitem__`` records the exact elements written (scatter);
* arithmetic/reduction use (``@``, ``*``, ``+=``, ``.sum()``,
  ``np.asarray`` via ``__array__``, ...) records a read of the whole
  view and then delegates to the raw buffer.

Element addresses are exact, not collapsed to spans: every view carries
an ``addr`` companion — an ``int64`` array of flat offsets into the
owning allocation, sliced by the *same* index expressions as the data —
so block-cyclic ``thread_range`` access patterns do not produce false
inter-block overlaps.  Results of consuming operations are plain
ndarrays; instrumentation never changes a computed value, only observes
the accesses (numerical bit-identity is property-tested).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError

__all__ = ["SanitizedView"]

_BASIC_TYPES = (int, np.integer, slice, type(Ellipsis), type(None))


def _is_basic(key) -> bool:
    """True for indexing that yields a view (ints/slices/Ellipsis/None)."""
    parts = key if isinstance(key, tuple) else (key,)
    return all(isinstance(part, _BASIC_TYPES) for part in parts)


class SanitizedView:
    """Instrumented window onto one :class:`DeviceArray` allocation."""

    __slots__ = ("_san", "_shadow", "_arr", "_addr")

    def __init__(self, san, shadow, arr: np.ndarray, addr: np.ndarray):
        self._san = san
        self._shadow = shadow
        self._arr = arr
        self._addr = addr

    # -- metadata delegation -------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self._arr.shape

    @property
    def dtype(self) -> np.dtype:
        return self._arr.dtype

    @property
    def ndim(self) -> int:
        return self._arr.ndim

    @property
    def size(self) -> int:
        return int(self._arr.size)

    @property
    def T(self) -> "SanitizedView":
        return SanitizedView(self._san, self._shadow, self._arr.T, self._addr.T)

    def __len__(self) -> int:
        return len(self._arr)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SanitizedView({self._shadow.name!r}, shape={self._arr.shape}, "
            f"dtype={self._arr.dtype})"
        )

    # -- access recording ----------------------------------------------
    def _consume(self) -> np.ndarray:
        """Record a read of the whole view; return the raw buffer."""
        self._san.on_read(self._shadow, self._addr.reshape(-1))
        return self._arr

    def __array__(self, dtype=None, copy=None):
        """NumPy's array protocol, with its ``copy=`` semantics.

        ``copy=True`` returns a fresh array, ``copy=None`` copies only to
        convert, and ``copy=False`` raises a ``ValueError``
        (:class:`~repro.errors.ValidationError`) where a conversion
        would need a copy, as for a plain ndarray.
        """
        raw = self._consume()
        if dtype is None or raw.dtype == np.dtype(dtype):
            return raw.copy() if copy else raw
        if copy is False:
            raise ValidationError(
                f"converting {raw.dtype} to {np.dtype(dtype)} needs a copy, "
                "but copy=False"
            )
        return raw.astype(dtype)

    def _check_slices(self, key) -> None:
        """Report slices reaching past an axis (NumPy silently clamps)."""
        parts = key if isinstance(key, tuple) else (key,)
        shape = self._arr.shape
        consuming = sum(1 for p in parts if p is not None and p is not Ellipsis)
        axis = 0
        for part in parts:
            if part is None:
                continue
            if part is Ellipsis:
                axis += len(shape) - consuming
                continue
            if isinstance(part, slice) and axis < len(shape):
                dim = shape[axis]
                for bound in (part.start, part.stop):
                    if isinstance(bound, (int, np.integer)) and not (
                        -dim <= int(bound) <= dim
                    ):
                        self._san.on_oob(
                            self._shadow,
                            f"slice bound {int(bound)} out of range for axis "
                            f"{axis} with size {dim}",
                        )
            axis += 1

    def __getitem__(self, key):
        raw_key = self._san.unwrap_key(key)
        self._check_slices(raw_key)
        try:
            sub = self._arr[raw_key]
            addr = self._addr[raw_key]
        except IndexError:
            self._san.on_oob(self._shadow, f"index {raw_key!r} out of bounds")
            raise
        if _is_basic(raw_key) and isinstance(sub, np.ndarray):
            return SanitizedView(self._san, self._shadow, sub, addr)
        # Scalar or gather: the elements are materialized -> a read.
        self._san.on_read(self._shadow, np.reshape(addr, -1))
        return sub

    def __setitem__(self, key, value) -> None:
        if isinstance(value, SanitizedView):
            value = value._consume()
        raw_key = self._san.unwrap_key(key)
        self._check_slices(raw_key)
        try:
            addr = self._addr[raw_key]
        except IndexError:
            self._san.on_oob(self._shadow, f"index {raw_key!r} out of bounds")
            raise
        self._san.on_write(self._shadow, np.reshape(addr, -1))
        self._arr[raw_key] = value

    def __iter__(self):
        return iter(self._consume())

    # -- arithmetic (consume, then delegate to the raw buffer) ---------
    def __neg__(self):
        return -self._consume()

    def __abs__(self):
        return abs(self._consume())

    def __add__(self, other):
        return self._consume() + self._san.unwrap_value(other)

    def __radd__(self, other):
        return self._san.unwrap_value(other) + self._consume()

    def __sub__(self, other):
        return self._consume() - self._san.unwrap_value(other)

    def __rsub__(self, other):
        return self._san.unwrap_value(other) - self._consume()

    def __mul__(self, other):
        return self._consume() * self._san.unwrap_value(other)

    def __rmul__(self, other):
        return self._san.unwrap_value(other) * self._consume()

    def __truediv__(self, other):
        return self._consume() / self._san.unwrap_value(other)

    def __rtruediv__(self, other):
        return self._san.unwrap_value(other) / self._consume()

    def __pow__(self, other):
        return self._consume() ** self._san.unwrap_value(other)

    def __matmul__(self, other):
        return self._consume() @ self._san.unwrap_value(other)

    def __rmatmul__(self, other):
        return self._san.unwrap_value(other) @ self._consume()

    # -- in-place arithmetic (read + write of the whole view) ----------
    def _inplace(self, other, op) -> "SanitizedView":
        raw = self._consume()
        self._san.on_write(self._shadow, self._addr.reshape(-1))
        op(raw, self._san.unwrap_value(other))
        return self

    def __iadd__(self, other):
        return self._inplace(other, np.ndarray.__iadd__)

    def __isub__(self, other):
        return self._inplace(other, np.ndarray.__isub__)

    def __imul__(self, other):
        return self._inplace(other, np.ndarray.__imul__)

    def __itruediv__(self, other):
        return self._inplace(other, np.ndarray.__itruediv__)

    # -- reductions / conversions --------------------------------------
    def mean(self, *args, **kwargs):
        return self._consume().mean(*args, **kwargs)

    def sum(self, *args, **kwargs):
        return self._consume().sum(*args, **kwargs)

    def copy(self):
        return self._consume().copy()

    def astype(self, dtype):
        return self._consume().astype(dtype)

    def ravel(self):
        return self._consume().ravel()
