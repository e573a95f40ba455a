"""The result records are immutable values.

Most are ``typing.NamedTuple``s: they compare, hash and print by their
fields, and ``_replace`` copies one with some fields changed.  ``GrrContext``
and ``UpstairsTerm`` check their fields on every construction, ``_replace``
included.  ``RelationFamily`` and ``ChernData`` carry memos that take no
part in ``==``, ``hash`` or ``repr`` (see test_relations.py and
test_grr.py).
"""

import copy

import pytest

from jacrel.combinat import verify_identity4
from jacrel.grr import GrrContext, GrrElement, UpstairsTerm, ch_vk, chern_classes, gamma_extract
from jacrel.relations import (compare_ideals, epsilon_series, gen_family,
                              verify_implication_chain)


def records():
    f6, f8 = gen_family("vdgk6", 3, 4, 2), gen_family("strong8", 3, 4, 2)
    comparison = compare_ideals(f6, f8)
    chain = verify_implication_chain(3, 4, 2)
    ctx = GrrContext(2, 3, 2)
    data = ch_vk(2, 3, 2)
    chern_classes(data, 3)  # fills the memo
    return [verify_identity4(3, 2), f6.items[0], f8, comparison.cells[0], comparison,
            epsilon_series(2, 4), chain.scalar_checks[0], chain.degree_bounds[0], chain,
            ctx, UpstairsTerm(ctx, 0, 0, 0, GrrElement.one(ctx)), data,
            gamma_extract(2, 3, 2, 3)]


def test_no_field_or_memo_can_be_assigned():
    # a RelationFamily is no tuple: its fields are named here
    extra = ("family_id", "items", "_span", "_route", "_tower", "extra")
    for record in records():
        for name in getattr(record, "_fields", ()) + extra:
            with pytest.raises(AttributeError):
                setattr(record, name, None)


def test_a_copy_equals_its_record():
    for record in records():
        assert copy.copy(record) == record


def test_grr_records_check_their_fields_on_every_construction():
    for args in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
        with pytest.raises(ValueError, match="g, d, r must all be >= 1"):
            GrrContext(*args)
    ctx = GrrContext(2, 3, 2)
    assert ctx._replace(d=4) == GrrContext(2, 4, 2) == (2, 4, 2)
    with pytest.raises(ValueError, match="g, d, r must all be >= 1"):
        ctx._replace(g=0)
    term = UpstairsTerm(ctx, 1, 0, 0, GrrElement.one(ctx))
    assert term._replace(rho=1).rho == 1
    with pytest.raises(ValueError, match="rho exponent"):
        term._replace(rho=2)
    with pytest.raises(ValueError, match="free of xi and FC"):
        term._replace(coeff=GrrElement.xi(ctx))
