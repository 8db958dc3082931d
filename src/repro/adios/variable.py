"""Variables, attributes, and block metadata.

A :class:`Variable` mirrors ADIOS2's: a name, a dtype, a *global* shape,
and a per-rank (start, count) selection describing the block this rank
contributes. Scalars have an empty shape. An :class:`Attribute` is a
named constant recorded once (the paper's provenance record in
Listing 1 is attributes: Du, Dv, F, k, noise, dt, plus the
visualization schemas). A :class:`BlockInfo` is the metadata of one
written block: placement in the global array, byte location in a
subfile, min/max statistics, and a CRC for corruption detection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.errors import VariableError

_DTYPE_NAMES = {
    "float64": "double",
    "float32": "float",
    "int32": "int32_t",
    "int64": "int64_t",
    "uint64": "uint64_t",
}


def dtype_display_name(dtype: np.dtype) -> str:
    """The C-style dtype names bpls prints (Listing 1)."""
    return _DTYPE_NAMES.get(np.dtype(dtype).name, np.dtype(dtype).name)


class Variable:
    """A variable definition within an IO group."""

    def __init__(
        self,
        name: str,
        dtype,
        shape: tuple[int, ...] = (),
        start: tuple[int, ...] = (),
        count: tuple[int, ...] = (),
    ):
        if not name:
            raise VariableError("variable name must be non-empty")
        self.name = name
        self.dtype = np.dtype(dtype)
        self.shape = tuple(int(s) for s in shape)
        self._start: tuple[int, ...] = ()
        self._count: tuple[int, ...] = ()
        #: (codec, params) from add_operation(); None = store raw
        self.operation: tuple[str, dict] | None = None
        if self.shape:
            if any(s <= 0 for s in self.shape):
                raise VariableError(f"{name}: global shape must be positive: {shape}")
            self.set_selection(start or (0,) * len(self.shape), count or self.shape)

    @property
    def is_scalar(self) -> bool:
        return not self.shape

    @property
    def start(self) -> tuple[int, ...]:
        return self._start

    @property
    def count(self) -> tuple[int, ...]:
        return self._count

    def set_selection(self, start, count) -> None:
        """Set this rank's block within the global array."""
        if self.is_scalar:
            raise VariableError(f"{self.name}: scalars have no selection")
        start = tuple(int(s) for s in start)
        count = tuple(int(c) for c in count)
        if len(start) != len(self.shape) or len(count) != len(self.shape):
            raise VariableError(
                f"{self.name}: selection rank mismatch (shape {self.shape}, "
                f"start {start}, count {count})"
            )
        if any(c <= 0 for c in count):
            raise VariableError(f"{self.name}: counts must be positive: {count}")
        for s, c, n in zip(start, count, self.shape):
            if s < 0 or s + c > n:
                raise VariableError(
                    f"{self.name}: block [{start}, {count}) outside global "
                    f"shape {self.shape}"
                )
        self._start = start
        self._count = count

    def add_operation(self, codec: str, params: dict | None = None) -> None:
        """Attach a compression operator (ADIOS2 ``AddOperation``).

        Supported codecs: ``"zlib"`` (params: ``{"level": 1..9}``).
        Blocks of this variable are stored compressed; the reader
        decompresses transparently.
        """
        from repro.adios.operators import validate_operation

        self.operation = validate_operation(codec, params or {})

    def validate_data(self, data: np.ndarray) -> np.ndarray:
        """Check a put() payload against the selection; returns as array."""
        arr = np.asarray(data, dtype=self.dtype)
        if self.is_scalar:
            if arr.shape not in ((), (1,)):
                raise VariableError(
                    f"{self.name}: scalar variable got array of shape {arr.shape}"
                )
            return arr.reshape(())
        if tuple(arr.shape) != self._count:
            raise VariableError(
                f"{self.name}: put() data shape {arr.shape} does not match "
                f"selection count {self._count}"
            )
        return arr

    def __repr__(self) -> str:  # pragma: no cover
        return f"Variable({self.name!r}, {self.dtype}, shape={self.shape})"


@dataclass(frozen=True)
class Attribute:
    """A named constant stored in the dataset metadata."""

    name: str
    value: object

    def display_value(self) -> str:
        if isinstance(self.value, float):
            return f"{self.value:g}"
        if isinstance(self.value, (list, tuple)):
            return ", ".join(str(v) for v in self.value)
        return str(self.value)

    def dtype_name(self) -> str:
        if isinstance(self.value, bool):
            return "int8_t"
        if isinstance(self.value, int):
            return "int64_t"
        if isinstance(self.value, float):
            return "double"
        if isinstance(self.value, str):
            return "string"
        if isinstance(self.value, (list, tuple)):
            return "string array" if all(isinstance(v, str) for v in self.value) else "double array"
        raise VariableError(f"unsupported attribute type: {type(self.value).__name__}")


@dataclass(frozen=True)
class BlockInfo:
    """Metadata of one block written by one rank at one step.

    Frozen: the index caches each block's encoded JSON (see
    :meth:`repro.adios.bp5.Bp5Index.to_text`), so a block never changes
    after it is created.
    """

    var: str
    step: int
    writer_rank: int
    subfile: int
    offset: int
    nbytes: int
    start: tuple[int, ...]
    count: tuple[int, ...]
    vmin: float
    vmax: float
    crc32: int
    #: inline value for scalar blocks (kept out of the data subfiles)
    value: object = None
    #: compression codec applied to the stored bytes (None = raw)
    codec: str | None = None
    #: uncompressed size when a codec is set
    raw_nbytes: int = 0

    def to_json(self) -> dict:
        return {
            "var": self.var,
            "step": self.step,
            "writer_rank": self.writer_rank,
            "subfile": self.subfile,
            "offset": self.offset,
            "nbytes": self.nbytes,
            "start": list(self.start),
            "count": list(self.count),
            "min": self.vmin,
            "max": self.vmax,
            "crc32": self.crc32,
            "value": self.value,
            "codec": self.codec,
            "raw_nbytes": self.raw_nbytes,
        }

    @classmethod
    def from_json(cls, data: dict) -> "BlockInfo":
        return cls(
            var=data["var"],
            step=int(data["step"]),
            writer_rank=int(data["writer_rank"]),
            subfile=int(data["subfile"]),
            offset=int(data["offset"]),
            nbytes=int(data["nbytes"]),
            start=tuple(data["start"]),
            count=tuple(data["count"]),
            vmin=data["min"],
            vmax=data["max"],
            crc32=int(data["crc32"]),
            value=data.get("value"),
            codec=data.get("codec"),
            raw_nbytes=int(data.get("raw_nbytes", 0)),
        )

    def intersection(self, start, count):
        """Overlap of this block with a box selection, or None.

        Returns (global_start, extent) of the overlapping box.
        """
        lo, extent = [], []
        for bs, bc, ss, sc in zip(self.start, self.count, start, count):
            a = max(bs, ss)
            b = min(bs + bc, ss + sc)
            if a >= b:
                return None
            lo.append(a)
            extent.append(b - a)
        return tuple(lo), tuple(extent)
