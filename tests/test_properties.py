"""Property-based cross-checks (hypothesis; skipped when it is absent)."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from kleinepw import group  # noqa: E402


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
