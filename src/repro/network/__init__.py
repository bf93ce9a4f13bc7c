"""Interconnection networks (§3.2).

* :mod:`repro.network.omega` — the classic omega MIN topology (Fig 3.7):
  perfect-shuffle wiring, destination-bit circuit-switched routing, and
  blocking analysis.
* :mod:`repro.network.synchronous` — clock-driven synchronous omega
  networks realizing ``i → (t + i) mod N`` contention-free every slot
  (§3.2.1, Fig 3.8, Table 3.4).
* :mod:`repro.network.partial` — partially synchronous omega networks:
  the first columns circuit-switched on the module number, the rest
  clock-driven; contention sets and conflict-free clusters (§3.2.2,
  Fig 3.11, Table 3.5).
* :mod:`repro.network.messages` — memory-access message headers and the
  overhead reduction of dropping routing fields (Figs 3.9/3.10, §3.4.3).
* :mod:`repro.network.crossbar` — a conventional arbitrated crossbar and a
  circuit-switching retry model (BBN-style) as baselines.

The partially synchronous network is built on :mod:`repro.core`'s
configuration, so its names are exported lazily (:mod:`repro._lazy`);
``import repro.network`` loads only the network models themselves.
"""

from repro._lazy import lazy_exports
from repro.network.crossbar import ArbitratedCrossbar, CircuitSwitchRetryModel
from repro.network.messages import (
    MessageHeader,
    circuit_switching_header,
    header_overhead_ratio,
    partially_synchronous_header,
    synchronous_header,
)
from repro.network.omega import OmegaNetwork, RoutingConflict, perfect_shuffle
from repro.network.synchronous import SynchronousOmegaNetwork

__all__ = [
    "perfect_shuffle",
    "OmegaNetwork",
    "RoutingConflict",
    "SynchronousOmegaNetwork",
    "PartiallySynchronousOmega",
    "PartialCFSystem",
    "MessageHeader",
    "circuit_switching_header",
    "synchronous_header",
    "partially_synchronous_header",
    "header_overhead_ratio",
    "ArbitratedCrossbar",
    "CircuitSwitchRetryModel",
]

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".partial": ("PartiallySynchronousOmega", "PartialCFSystem"),
})
