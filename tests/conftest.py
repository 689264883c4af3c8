"""Session-wide fixtures.

The restricted rank-6 search over one base and the from-scratch loop it is
compared with take several seconds together; two tests check that pair, so
it is computed once.
"""

import pytest

from brute import (
    bf_canon_gdd_raw,
    brute_classical_keys,
    independent_quasi_affine_extensions,
)
from db_rows import DATA, parse_db_rows_independently, row11_gdd1
from gddkit.search import enumerate_quasi_affine
from gddkit.tables import load


@pytest.fixture(scope="session")
def restricted_vs_independent():
    """(library keys, independent keys) for the extensions of row 11 gdd 1,
    both in the brute-force canonical form of ``brute.py``."""
    report = enumerate_quasi_affine(6, 6, load(DATA), bases=[row11_gdd1()],
                                    collect_shapes=False)
    lib_keys = {bf_canon_gdd_raw(g) for g in report.found.values()}
    arith5 = brute_classical_keys(5, 6) | parse_db_rows_independently(5, 6)
    arith6 = parse_db_rows_independently(6, 6)
    indep = independent_quasi_affine_extensions(
        (2, 2, 3, 2, 2), {(i, i + 1): 4 for i in range(4)}, 6, arith5, arith6
    )
    return lib_keys, indep
