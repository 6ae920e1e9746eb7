"""Property-based cross-checks (hypothesis; skipped when it is absent)."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from kleinepw import group  # noqa: E402
from kleinepw.groebner import FPoly, buchberger, normal_form  # noqa: E402

P = 32003


def _is_unitary(m):
    return group.mat_is_identity(group.mat_mul(group.mat_conj_transpose(m), m))


@settings(deadline=None, max_examples=40)
@given(word=st.lists(st.integers(0, 2), max_size=12))
def test_words_have_unitary_images(word, generators):
    m = group.mat_identity()
    for k in word:
        m = group.mat_mul(m, generators[k])
    assert _is_unitary(m)
    assert _is_unitary(group.functor_wedge2().matrix(m))


@st.composite
def _homogeneous(draw):
    """A nonzero homogeneous polynomial of degree 1..3 in three variables."""
    d = draw(st.integers(1, 3))
    monomials = [(a, b, d - a - b) for a in range(d + 1) for b in range(d + 1 - a)]
    chosen = draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=4, unique=True))
    coeffs = draw(st.lists(st.integers(1, P - 1), min_size=len(chosen), max_size=len(chosen)))
    return FPoly(P, 3, dict(zip(chosen, coeffs)))


@settings(deadline=None, max_examples=40)
@given(gens=st.lists(_homogeneous(), min_size=1, max_size=4), data=st.data())
def test_redundant_input_keeps_the_reduced_basis(gens, data):
    basis = buchberger(gens)
    # sums of multiples of the generators lie in the ideal: the input
    # reduction must drop them or keep them without changing the basis
    extra = []
    for _ in range(data.draw(st.integers(0, 4))):
        combo = FPoly.zero(P, 3)
        for _ in range(data.draw(st.integers(1, 3))):
            k = data.draw(st.integers(0, len(gens) - 1))
            combo = combo + gens[k] * data.draw(_homogeneous())
        extra.append(combo)
    shuffled = data.draw(st.permutations(gens))
    again = buchberger(shuffled + extra)
    assert [g.terms for g in again] == [g.terms for g in basis]
    for g in gens:
        assert normal_form(g, basis).is_zero()
