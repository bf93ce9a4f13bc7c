"""Random address mapping: the Monarch approach (§2.1.2).

"The Monarch ... applies random mapping on memory addresses to reduce
memory and network contention."  Interleaving by low-order address bits
collapses under strided access (a stride equal to the module count lands
every reference on one module); a pseudo-random hash spreads *any* fixed
pattern — improving the average case without ever being conflict-*free*,
which is the CFM's contrast.

:func:`module_conflicts` counts same-module collisions for one
synchronized batch of references under each policy; the related-work
benchmark sweeps strides.
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass
from typing import Dict, List, Sequence


class MappingPolicy(enum.Enum):
    """Address-to-module mapping policies of §2.1.2."""
    INTERLEAVED = "interleaved"  # module = address mod m
    RANDOM = "random"  # module = hash(address) mod m


def map_address(address: int, n_modules: int, policy: MappingPolicy,
                salt: int = 0) -> int:
    """The memory module an address lives in under ``policy``."""
    if n_modules <= 0:
        raise ValueError("n_modules must be positive")
    if address < 0:
        raise ValueError("address must be >= 0")
    if policy is MappingPolicy.INTERLEAVED:
        return address % n_modules
    digest = zlib.crc32(f"{salt}:{address}".encode("ascii"))
    return digest % n_modules


@dataclass
class ConflictCount:
    references: int
    max_per_module: int  # depth of the worst module queue
    conflicts: int  # references beyond the first at each module

    @property
    def spread(self) -> float:
        """1.0 = perfectly spread; → 0 as everything piles on one module."""
        if self.references == 0:
            return 1.0
        return 1.0 - self.conflicts / self.references


def module_conflicts(
    addresses: Sequence[int], n_modules: int, policy: MappingPolicy,
    salt: int = 0,
) -> ConflictCount:
    """Collisions when ``addresses`` are referenced in one batch."""
    per: Dict[int, int] = {}
    for a in addresses:
        m = map_address(a, n_modules, policy, salt)
        per[m] = per.get(m, 0) + 1
    if not per:
        return ConflictCount(0, 0, 0)
    return ConflictCount(
        references=len(addresses),
        max_per_module=max(per.values()),
        conflicts=sum(v - 1 for v in per.values()),
    )


def strided_addresses(n: int, stride: int, base: int = 0) -> List[int]:
    """The vector-access pattern of §2.1.2's mapping literature."""
    if n <= 0 or stride <= 0:
        raise ValueError("n and stride must be positive")
    return [base + i * stride for i in range(n)]


def stride_sweep(
    n_modules: int = 16,
    n_refs: int = 16,
    strides: Sequence[int] = (1, 2, 4, 8, 16, 17),
    salt: int = 7,
) -> Dict[int, Dict[str, ConflictCount]]:
    """Conflicts per stride under both policies (the Monarch argument)."""
    out: Dict[int, Dict[str, ConflictCount]] = {}
    for s in strides:
        addrs = strided_addresses(n_refs, s)
        out[s] = {
            "interleaved": module_conflicts(
                addrs, n_modules, MappingPolicy.INTERLEAVED
            ),
            "random": module_conflicts(
                addrs, n_modules, MappingPolicy.RANDOM, salt
            ),
        }
    return out
