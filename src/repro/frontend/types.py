"""The front end's tiny type system: INT, REAL and arrays of them."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ScalarType:
    """``int`` (INTEGER*4) or ``real`` (REAL*8)."""

    kind: str  # "int" | "real"

    @property
    def elemsize(self) -> int:
        """Byte size when stored in memory (the §4.2 example needs 4 vs 8)."""
        return 4 if self.kind == "int" else 8

    def __str__(self) -> str:
        return self.kind


INT = ScalarType("int")
REAL = ScalarType("real")


@dataclass(frozen=True)
class ArrayType:
    """A 1- or 2-dimensional array, column-major, 1-based (FORTRAN)."""

    element: ScalarType
    dims: tuple[int, ...]

    @property
    def elemsize(self) -> int:
        return self.element.elemsize

    def __str__(self) -> str:
        dims = ",".join(str(d) for d in self.dims)
        return f"{self.element}[{dims}]"
