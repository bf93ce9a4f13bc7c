"""Per-processor cache directories and processor–memory coupling (§5.2.1).

Each processor owns a direct-mapped cache; its directory (state + tag per
line) is *shared* with the memory bank it is coupled to through the
wrap-around control connection of Fig 5.1.  A primitive operation visiting
that bank can therefore read and update the processor's coherence state in
passing — the CFM's substitute for bus snooping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.block import Block
from repro.cache.state import CacheLineState


@dataclass
class CacheLine:
    """One direct-mapped cache line: directory entry (state + tag) + data.

    ``tag`` is set exactly while ``state`` is not INVALID (``fill`` sets
    both, ``invalidate`` clears both), so a tag match alone means the line
    holds the block."""

    state: CacheLineState = CacheLineState.INVALID
    tag: Optional[int] = None  # the block offset cached here
    data: Optional[Block] = None
    wb_disabled: bool = False  # sync op in progress: refuse triggered WB


class CacheDirectory:
    """A processor's direct-mapped cache with directory-style inspection."""

    def __init__(self, proc: int, n_lines: int = 64):
        if n_lines <= 0:
            raise ValueError("n_lines must be positive")
        self.proc = proc
        self.n_lines = n_lines
        self.lines: List[CacheLine] = [CacheLine() for _ in range(n_lines)]
        self.invalidations_received = 0

    def line_index(self, offset: int) -> int:
        return offset % self.n_lines

    def line_for(self, offset: int) -> CacheLine:
        return self.lines[self.line_index(offset)]

    def lookup(self, offset: int) -> Optional[CacheLine]:
        """The line holding ``offset``, or None on a miss.

        One index and a tag compare (see :class:`CacheLine`): the protocol
        asks this at every coupled-bank visit and every processor step."""
        line = self.lines[offset % self.n_lines]
        return line if line.tag == offset else None

    def state_of(self, offset: int) -> CacheLineState:
        line = self.lines[offset % self.n_lines]
        return line.state if line.tag == offset else CacheLineState.INVALID

    def fill(self, offset: int, data: Block, state: CacheLineState) -> CacheLine:
        """Install a block (the caller handles any dirty victim first)."""
        if state is CacheLineState.INVALID:
            raise ValueError("fill installs a valid block; use invalidate")
        line = self.line_for(offset)
        line.state = state
        line.tag = offset
        line.data = data
        line.wb_disabled = False
        return line

    def invalidate(self, offset: int) -> bool:
        """Remote invalidation; True if a copy was actually dropped."""
        line = self.lookup(offset)
        if line is None:
            return False
        line.state = CacheLineState.INVALID
        line.tag = None
        line.data = None
        line.wb_disabled = False
        self.invalidations_received += 1
        return True

    def dirty_offsets(self) -> List[int]:
        return [
            line.tag
            for line in self.lines
            if line.state is CacheLineState.DIRTY and line.tag is not None
        ]
