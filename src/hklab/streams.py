"""Counter-based random streams.

All Monte-Carlo code draws from Philox generators keyed by ``(seed, stream
index)`` (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
SC 2011), independent of each other and of how work is chunked.  The slab
widths ``eta`` and ``eta/2`` of ``densities.mc_volume_oracle`` draw streams 0 and 1.
"""

import numpy as np


def substream(seed, index=0):
    """Return a ``numpy.random.Generator`` for stream ``index`` of ``seed``."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))

