"""Variable frames: ordered complex coordinates plus ordered real coordinates.

A frame C^n (+) R^r carries two indexings used throughout:

  slots      index the formal polynomial variables, two per complex
             coordinate (z_j at 2j, conj(z_j) at 2j+1) followed by one
             per real coordinate;
  real axes  index the m = 2n + r directions of the underlying real
             space, (Re z_j, Im z_j) pairs first, real coordinates last.

Both ranges happen to have size 2n + r; they mean different things.
"""

from __future__ import annotations

RESERVED = {"i", "conj", "frame", "family", "complex", "real", "param", "expect", "true", "false"}


def _check_name(name: str):
    if not name.isidentifier():
        raise ValueError(f"bad coordinate name {name!r}")
    if name in RESERVED:
        raise ValueError(f"coordinate name {name!r} is reserved")


class VariableFrame:
    __slots__ = ("complex_names", "real_names", "_index")

    def __init__(self, complex_names, real_names=()):
        complex_names = tuple(complex_names)
        real_names = tuple(real_names)
        seen = set()
        for name in complex_names + real_names:
            _check_name(name)
            if name in seen:
                raise ValueError(f"duplicate coordinate name {name!r}")
            seen.add(name)
        object.__setattr__(self, "complex_names", complex_names)
        object.__setattr__(self, "real_names", real_names)
        index = {}
        for j, name in enumerate(complex_names):
            index[name] = ("c", j)
        for k, name in enumerate(real_names):
            index[name] = ("r", k)
        object.__setattr__(self, "_index", index)

    def __setattr__(self, name, value):
        raise AttributeError("VariableFrame is immutable")

    # -- sizes ---------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.complex_names)

    @property
    def r(self) -> int:
        return len(self.real_names)

    @property
    def m(self) -> int:
        "Real dimension of the underlying flat space."
        return 2 * self.n + self.r

    @property
    def num_slots(self) -> int:
        return 2 * self.n + self.r

    # -- protocol ------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, VariableFrame):
            return NotImplemented
        return (
            self.complex_names == other.complex_names
            and self.real_names == other.real_names
        )

    def __hash__(self):
        return hash((self.complex_names, self.real_names))

    def __repr__(self):
        parts = "complex " + " ".join(self.complex_names) if self.complex_names else "complex"
        if self.real_names:
            parts += "; real " + " ".join(self.real_names)
        return f"VariableFrame({parts})"

    def __contains__(self, name):
        return name in self._index

    # -- slot lookups --------------------------------------------------

    def kind_of(self, name: str):
        "('c', j) for the j-th complex coordinate, ('r', k) for a real one."
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"no coordinate {name!r} in {self!r}") from None

    def z_slot(self, name: str) -> int:
        kind, j = self.kind_of(name)
        if kind != "c":
            raise ValueError(f"{name!r} is not a complex coordinate")
        return 2 * j

    def zbar_slot(self, name: str) -> int:
        return self.z_slot(name) + 1

    def real_slot(self, name: str) -> int:
        kind, k = self.kind_of(name)
        if kind != "r":
            raise ValueError(f"{name!r} is not a real coordinate")
        return 2 * self.n + k

    def slot_label(self, slot: int) -> str:
        "Text form of one slot: z, conj(z) or t."
        if slot < 2 * self.n:
            name = self.complex_names[slot // 2]
            return name if slot % 2 == 0 else f"conj({name})"
        return self.real_names[slot - 2 * self.n]

    # -- real axes -----------------------------------------------------

    def axis_label(self, axis: int) -> str:
        if axis < 2 * self.n:
            name = self.complex_names[axis // 2]
            return f"Re({name})" if axis % 2 == 0 else f"Im({name})"
        return self.real_names[axis - 2 * self.n]

    def axis_labels(self):
        return [self.axis_label(a) for a in range(self.m)]

    # -- derived frames ------------------------------------------------

    def drop_complex(self, name: str) -> "VariableFrame":
        self.z_slot(name)  # validates
        return VariableFrame(
            tuple(c for c in self.complex_names if c != name), self.real_names
        )

    def insert_complex(self, name: str, index: int = 0) -> "VariableFrame":
        if name in self._index:
            raise ValueError(f"coordinate {name!r} already present")
        names = list(self.complex_names)
        if not 0 <= index <= len(names):
            raise ValueError(f"insertion index {index} out of range")
        names.insert(index, name)
        return VariableFrame(tuple(names), self.real_names)
