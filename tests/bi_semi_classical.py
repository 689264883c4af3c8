"""The bi-semi-classical gluing test, read on the vertex subsets of one
diagram (``gddkit.classify._Subsets``).

No shape tag and no search step asks it, so it lives with its tests:
``test_classify`` and ``test_recognition_subsets``, which hold it to the
build-and-recognize version in ``reference.py``.
"""

from gddkit import classify
from gddkit.core import components_of


def is_bi_semi_classical(g, all_deletions_arithmetic):
    """Two semi-classical diagrams sharing their tail vertex, with every
    single-vertex deletion arithmetic (decided by the injected callable).
    Classical diagrams are arithmetic and never count as this gluing."""
    s = classify._connected(g)
    if s.readings(s.all):
        return False
    for t in range(g.rank):
        parts = components_of(s.nbrs, s.all & ~(1 << t))
        if len(parts) != 2:
            continue
        sides = [part | 1 << t for part in parts]
        if all(
            s.is_semi_classical(side) and s.has_quasi_tail(side, t)
            for side in sides
        ) and all_deletions_arithmetic(g):
            return True
    return False
