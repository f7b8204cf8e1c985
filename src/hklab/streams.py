"""Counter-based random streams.

All Monte-Carlo code draws from Philox generators keyed by ``(seed, stream
index)`` (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
SC 2011).  Streams are independent of each other and of how work is
chunked, and a stream yields the same numbers whichever thread draws it,
so a sampling experiment produces the same numbers for any worker count.
``densities.mc_volume_oracle`` runs its two slab widths at the same time,
each on its own stream.
"""

import numpy as np


def substream(seed, index=0):
    """Return a ``numpy.random.Generator`` for stream ``index`` of ``seed``."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))

