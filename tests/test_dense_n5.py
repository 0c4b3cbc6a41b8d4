"""The claims on a dense dimension-5 connection (seed 2, density 40).

These take minutes, so they are deselected by default; run them with
``python -m pytest -m slow``.
"""

import pytest

from natforms.exactla import flatten
from natforms.geometry import ext_cov_deriv_endo
from natforms.verify import (
    Derived,
    RandomConnectionSpec,
    random_connections,
    verify_schemes,
    verify_thm_3_2,
)
from reference_loops import kernel_basis_bareiss


@pytest.mark.slow
def test_dense_n5_thm_3_2_kernel_matches_bareiss_and_schemes_pass():
    conn = random_connections(RandomConnectionSpec(seed=2, dimension=5, density=40), 1)[0]
    d = Derived(conn)
    verdict = verify_thm_3_2(d)
    assert verdict.passed
    differentials = [ext_cov_deriv_endo(conn, e.form).tensor for e in d.family.entries]
    _, matrix = flatten(differentials)
    assert verdict.certificate["matrix_rows"] == matrix.rows
    assert verdict.certificate["kernel_vectors"] == [
        list(v) for v in kernel_basis_bareiss(matrix)
    ]
    assert verify_schemes(d).passed
