"""Property tests: the minimal number of Lindblad terms is the rank of the
Gram matrix M, whatever the units of the rates."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lindblad2 import (
    FormA,
    FormB,
    dissipation_matrix,
    form_a_from_form_b,
    form_a_to_form_b,
    gks_matrix,
    gks_minimal,
    is_completely_positive,
    reduce_terms,
)

# Smallest singular value of the matrix of unit axes: the terms of a drawn
# dissipator are well separated, so its rank is not in doubt.
AXES_SIGMA_MIN = 0.05


@st.composite
def rank_r_dissipators(draw):
    """(r, FormB) with r independent unit axes and rates of one scale."""
    r = draw(st.integers(1, 3))
    component = st.floats(-1.0, 1.0)
    axes = np.array([[draw(component) for _ in range(3)] for _ in range(r)])
    lengths = np.linalg.norm(axes, axis=1)
    assume(np.min(lengths) >= 0.1)
    axes = axes / lengths[:, None]
    assume(np.linalg.svd(axes, compute_uv=False)[-1] >= AXES_SIGMA_MIN)
    scale = 10.0 ** draw(st.floats(-300.0, 300.0))
    rates = [scale * draw(st.floats(0.1, 2.0)) for _ in range(r)]
    return r, FormB(terms=list(zip(rates, axes)))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(rank_r_dissipators())
def test_index_equals_rank_at_every_scale(case):
    r, fb = case
    assert reduce_terms(fb)[1] == r
    verdict, certificate = is_completely_positive(dissipation_matrix(fb))
    assert verdict.cp and len(certificate.terms) == r
    ops = gks_minimal(gks_matrix(form_a_from_form_b(fb)))
    assert len(ops) == r
    assert len(form_a_to_form_b(FormA(operators=tuple(ops))).terms) == r
