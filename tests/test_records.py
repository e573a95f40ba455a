"""The result records, and the kernel values they hold, are immutable values.

Most records are ``typing.NamedTuple``s: they compare, hash and print by
their fields, and ``_replace`` copies one with some fields changed.
``GrrContext`` and ``UpstairsTerm`` check their fields on every
construction, ``_replace`` included.  ``RelationFamily``, ``ChernData`` and
the kernel values derive from ``rings.Value``.  ``RelationFamily`` and
``ChernData`` carry memos that take no part in ``==``, ``hash`` or ``repr``
(see test_relations.py and test_grr.py).  Every value copies, deep-copies and
pickles to an equal value.
"""

import copy
import pickle

import pytest

from jacrel.combinat import p_poly, verify_identity4
from jacrel.grr import GrrContext, GrrElement, UpstairsTerm, ch_vk, chern_classes, gamma_extract
from jacrel.relations import (compare_ideals, epsilon_series, family_from_json,
                              family_to_json, gen_family, verify_implication_chain)
from jacrel.rings import LaurentSeries
from jacrel.tautalg import TautElement, build_h_poly
from oracles import grr_monomial

ROUND_TRIPS = (copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value)))


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


def kernel_values():
    ctx = GrrContext(2, 3, 2)
    return [LaurentSeries(-1, (1, 0, 2), 4), p_poly(4), TautElement.monomial(3, (2, 0), 5),
            grr_monomial(ctx, xi=1) + GrrElement.scalar(ctx, 3), build_h_poly(3)]


def test_no_field_or_memo_can_be_assigned():
    # a slotted value is no tuple: its fields are named here
    extra = ("family_id", "items", "_span", "_route", "ctx", "ch", "_tower", "series", "nums",
             "trunc", "terms", "ambient", "g", "t_trunc", "extra")
    for record in records() + kernel_values():
        for name in getattr(record, "_fields", ()) + extra:
            with pytest.raises(AttributeError):
                setattr(record, name, None)


def test_a_copy_equals_its_record():
    for record in records() + kernel_values():
        assert copy.copy(record) == record
        for round_trip in ROUND_TRIPS:
            clone = round_trip(record)
            assert clone == record and repr(clone) == repr(record)
            try:
                expected = hash(record)
            except TypeError:  # a dict field, or BivarPoly
                continue
            assert hash(clone) == expected


def test_a_copied_family_starts_without_its_memos():
    # a routed family is its parameters: its copy is routed again
    f6, f8 = gen_family("vdgk6", 5, 7, 3), gen_family("strong8", 5, 7, 3)
    report = compare_ideals(f6, f8)
    assert f8._span is not None and f8._route == ("strong8", 4)
    for round_trip in ROUND_TRIPS:
        clone = round_trip(f8)
        assert clone == f8
        assert clone._span is None and clone._route == f8._route
        assert compare_ideals(f6, clone) == report
    # a family read from JSON has no route: its copy keeps the items and
    # drops the span
    plain = family_from_json(family_to_json(f8))
    assert compare_ideals(f6, plain) == report
    assert plain._span is not None and plain._route is None
    for round_trip in ROUND_TRIPS:
        clone = round_trip(plain)
        assert clone == plain
        assert clone._span is None and clone._route is None
        assert compare_ideals(f6, clone) == report


def test_a_copied_chern_data_starts_without_its_tower():
    data = ch_vk(2, 3, 2)
    classes = chern_classes(data, 3)
    assert data._tower is not None
    for round_trip in ROUND_TRIPS:
        clone = round_trip(data)
        assert clone == data and clone._tower is None
        assert chern_classes(clone, 3) == classes


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
        term._replace(coeff=grr_monomial(ctx, xi=1))
