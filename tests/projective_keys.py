"""The tests' oracle for projective classes of cyclotomic matrices, which
GroupTable.projective_class_count is checked against."""


def projective_key(m):
    """Canonical key of the projective class: scale so the first nonzero
    entry is 1."""
    lead = next(e for row in m for e in row if not e.is_zero())
    inv = lead.inverse()
    return tuple((x.num, x.den) for row in m for e in row for x in (inv * e,))
