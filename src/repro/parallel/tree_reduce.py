"""Fixed-order pairwise combination of float partial results.

Float addition is not associative, so a total assembled from partials
(one per chunk of a batch, per worker, per resumed run) has reproducible
bits only if the partials are always added in the same grouping.
:func:`combine_partials` fixes that grouping as a function of the number
of partials alone::

    partials:  p0   p1   p2   p3   p4
    level 1:   p0+=p1    p2+=p3    p4
    level 2:   p0+=p2              p4
    level 3:   p0+=p4
"""

from __future__ import annotations

import numpy as np

__all__ = ["combine_partials"]


def combine_partials(partials: list[np.ndarray]) -> np.ndarray:
    """Combine partials pairwise, adjacent-first, in index order (in place).

    Level by level: ``p[i] += p[i+step]`` for the fixed step doubling
    schedule shown in the module docstring.  The grouping depends only on
    ``len(partials)``.  Returns ``partials[0]``, which accumulates the
    total; the other buffers are left dirty.
    """
    k = len(partials)
    step = 1
    while step < k:
        for i in range(0, k - step, 2 * step):
            np.add(partials[i], partials[i + step], out=partials[i])
        step *= 2
    return partials[0]
