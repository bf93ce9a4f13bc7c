"""Criticality tiers shared by every QoS-aware layer.

The paper's AT-space schedule guarantees every processor a bank slot,
but it treats all accesses as equal.  Production traffic is not equal:
some requests stall processors (and users) while others are background
sweeps that only care about throughput.  This module defines the shared
three-tier vocabulary — ``latency_critical`` / ``normal`` / ``bulk`` —
used by workload generators (:mod:`repro.sim.workload`), AT-space entry
arbitration (:class:`repro.core.cfm.CFMemory`), NC queueing
(:mod:`repro.hierarchy.controller`), the serving layer
(:mod:`repro.serve`), and the per-tier SLA instruments
(``<name>[<tier>]`` histograms, rendered by
:func:`repro.obs.metrics.sla_section`).

It lives at the bottom of the layer stack (no ``repro.*`` imports) so
any layer can consult it without cycles.  A tier is carried as its
string name at API boundaries (JSON specs, workload events) and mapped
to an integer *rank* for arbitration: lower rank wins a contended grant.
Untagged work (``None``) arbitrates as ``normal`` — the default rank —
so legacy call sites are unaffected.
"""

from __future__ import annotations

from typing import Optional, Tuple

#: Tier names, best (most urgent) first.  The index of a tier in this
#: tuple is its arbitration rank: lower wins a contended grant.
LATENCY_CRITICAL = "latency_critical"
NORMAL = "normal"
BULK = "bulk"

TIERS: Tuple[str, ...] = (LATENCY_CRITICAL, NORMAL, BULK)

#: Rank used for untagged (``None``) work: the ``normal`` tier.
DEFAULT_RANK = TIERS.index(NORMAL)

_RANKS = {tier: rank for rank, tier in enumerate(TIERS)}


def parse_tier(value: Optional[str]) -> Optional[str]:
    """Validate a tier name; ``None`` passes through (meaning untagged).

    Raises a typed ``ValueError`` naming the valid tiers, so API layers
    (serve spec validation, CLI) reject bad tags at the boundary.
    """
    if value is None:
        return None
    if value not in _RANKS:
        raise ValueError(
            f"unknown criticality {value!r} (valid: {' '.join(TIERS)})"
        )
    return value


def rank_of(tier: Optional[str]) -> int:
    """The arbitration rank of ``tier`` (lower wins); ``None`` -> normal."""
    if tier is None:
        return DEFAULT_RANK
    try:
        return _RANKS[tier]
    except KeyError:
        raise ValueError(
            f"unknown criticality {tier!r} (valid: {' '.join(TIERS)})"
        ) from None
