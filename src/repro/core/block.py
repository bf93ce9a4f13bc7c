"""Memory words and block values.

A *memory word* is "the data unit retrieved from or stored in a memory bank
within one memory access" (§1.2); a *block* is "each set of memory locations
with the same offset in all the memory banks of a memory module" (§3.1.1).

Words carry a ``version`` tag identifying the write that produced them, so
the Chapter 4 consistency property — every completed read returns words of a
*single* version — is directly checkable, and the Fig 4.1 corruption (a
block mixing versions) is directly observable when access control is off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple


class Word(NamedTuple):
    """One bank-resident word: a value plus the version tag of its writer.

    An immutable named tuple: the engines build one per word stored, and a
    tuple costs a fraction of a frozen dataclass to construct."""

    value: int = 0
    version: Optional[str] = None

    def __repr__(self) -> str:
        return f"Word({self.value!r}, v={self.version!r})"


@dataclass(frozen=True)
class Block:
    """A block value: one word per bank of the module, bank-indexed."""

    words: Tuple[Word, ...]

    @classmethod
    def of_values(cls, values: Sequence[int], version: Optional[str] = None) -> "Block":
        return cls(tuple(Word(v, version) for v in values))

    @classmethod
    def zeros(cls, n_words: int) -> "Block":
        return cls.of_values([0] * n_words, version="init")

    def __len__(self) -> int:
        return len(self.words)

    def __getitem__(self, i: int) -> Word:
        return self.words[i]

    @property
    def values(self) -> List[int]:
        return [w.value for w in self.words]

    @property
    def versions(self) -> List[Optional[str]]:
        return [w.version for w in self.words]

    def is_single_version(self) -> bool:
        """True when every word was produced by the same write."""
        return len(set(self.versions)) <= 1

    def with_word(self, i: int, word: Word) -> "Block":
        ws = list(self.words)
        ws[i] = word
        return Block(tuple(ws))


def pack_bitmap(bits: Iterable[int]) -> int:
    """Pack an MSB-first bit sequence into an int (Fig 5.5 lock bitmaps)."""
    out = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {b}")
        out = (out << 1) | b
    return out


def unpack_bitmap(value: int, width: int) -> List[int]:
    """Unpack an int into an MSB-first bit list of ``width`` bits."""
    if value < 0:
        raise ValueError("bitmap value must be non-negative")
    if value >= (1 << width):
        raise ValueError(f"value {value} does not fit in {width} bits")
    return [(value >> (width - 1 - i)) & 1 for i in range(width)]
