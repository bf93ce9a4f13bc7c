"""The paper's primary contribution: the Conflict-Free Memory architecture.

* :mod:`repro.core.config` — the CFM configuration algebra of §3.1.4
  (processors *n*, banks *b*, word width *w*, bank cycle *c*, block size
  ``ℓ = b·w``, block access time ``β = b + c − 1``) and the tradeoff tables.
* :mod:`repro.core.atspace` — the address-time space of §3.1.1–3.1.2 and its
  mutually exclusive partitioning among processors.
* :mod:`repro.core.switch` — the clock-driven synchronous switch box
  (Fig 3.4); no routing decode, no setup delay.
* :mod:`repro.core.block` — memory words and block values with version tags
  so single-version reads are checkable (Chapter 4).
* :mod:`repro.core.cfm` — the slot-accurate CFM memory engine: pipelined
  block accesses over interleaved banks (Figs 3.2/3.5/3.6, Table 3.1), with
  a pluggable access controller hook used by the Chapter 4 address-tracking
  logic and the Chapter 5 cache protocol.
* :mod:`repro.core.clusters` — multiple conflict-free clusters exchanging
  remote accesses through free time slots (§3.3, Fig 3.12).
* :mod:`repro.core.multimodule` — several CFM modules behind a partially
  synchronous omega network (§3.2.2).

The multi-module system loads :mod:`repro.network`, so its names are
exported lazily (:mod:`repro._lazy`); ``import repro.core`` loads only the
single-module CFM and its clusters.
"""

from repro._lazy import lazy_exports
from repro.core.atspace import ATSpace
from repro.core.block import Block, Word
from repro.core.cfm import (
    AccessKind,
    AccessState,
    BlockAccess,
    CFMemory,
    ConflictError,
    ControlAction,
    PermissiveController,
)
from repro.core.clusters import ClusterSystem, ConflictFreeCluster
from repro.core.config import CFMConfig, tradeoff_table
from repro.core.switch import SynchronousSwitchBox

__all__ = [
    "CFMConfig",
    "tradeoff_table",
    "ATSpace",
    "SynchronousSwitchBox",
    "Word",
    "Block",
    "CFMemory",
    "BlockAccess",
    "AccessKind",
    "AccessState",
    "ControlAction",
    "PermissiveController",
    "ConflictError",
    "ConflictFreeCluster",
    "ClusterSystem",
    "MultiModuleCFM",
    "MultiModuleWorkloadDriver",
]

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".multimodule": ("MultiModuleCFM", "MultiModuleWorkloadDriver"),
})
