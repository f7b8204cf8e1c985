"""Counter-based random streams.

All Monte-Carlo code draws from Philox generators keyed by ``(seed, stream
index)``.  Streams are independent of each other and of how work is chunked,
so a sampling experiment produces the same numbers for any worker count.
"""

import numpy as np


def substream(seed, index=0):
    """Return a ``numpy.random.Generator`` for stream ``index`` of ``seed``."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))

