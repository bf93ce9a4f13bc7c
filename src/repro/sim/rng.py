"""Seeded, splittable randomness.

Every stochastic experiment in the reproduction takes an explicit seed and
derives independent substreams per component (per processor, per workload)
with :func:`derive_rng`, so that adding a component never perturbs the draws
seen by another — runs are bitwise reproducible and comparisons between
architectures use common random numbers.

numpy is imported by the first call, not by this module: a cfm run draws
no random numbers (its schedule is static), so it never pays for numpy.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:
    import numpy as np

SeedLike = Union[int, "np.random.Generator"]


def make_rng(seed: SeedLike = 0) -> np.random.Generator:
    """Return a numpy Generator for ``seed`` (pass-through if already one)."""
    import numpy as np

    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def derive_rng(seed: SeedLike, *keys: object) -> np.random.Generator:
    """Derive an independent substream identified by ``keys``.

    ``derive_rng(42, "proc", 3)`` always yields the same stream, and streams
    for distinct key tuples are statistically independent (distinct
    ``SeedSequence`` spawn keys).  If ``seed`` is itself a Generator we fold
    one draw from it into the derivation so repeated calls differ.
    """
    import numpy as np

    if isinstance(seed, np.random.Generator):
        base = int(seed.integers(0, 2**31 - 1))
    else:
        base = int(seed)
    digest = zlib.crc32(repr(keys).encode("utf-8"))
    ss = np.random.SeedSequence([base, digest])
    return np.random.default_rng(ss)
