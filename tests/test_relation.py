"""Relation wrapper tests: validation, projection, backends."""

import pytest

from repro.storage.relation import Relation
from repro.util.counters import OpCounters


class TestValidation:
    def test_schema_arity_mismatch(self):
        with pytest.raises(ValueError):
            Relation("R", ["A", "B"], [(1,)])

    def test_duplicate_attributes(self):
        with pytest.raises(ValueError):
            Relation("R", ["A", "A"], [(1, 2)])

    def test_empty_name(self):
        with pytest.raises(ValueError):
            Relation("", ["A"], [(1,)])

    def test_empty_schema(self):
        with pytest.raises(ValueError):
            Relation("R", [], [])

    def test_unknown_backend(self):
        """No tier name is accepted: ``Relation`` has no such argument."""
        with pytest.raises(TypeError):
            Relation("R", ["A"], [(1,)], backend="rocksdb")

    def test_set_semantics(self):
        r = Relation("R", ["A"], [(1,), (1,), (2,)])
        assert len(r) == 2


class TestBehaviour:
    def test_contains(self):
        r = Relation("R", ["A", "B"], [(1, 2)])
        assert (1, 2) in r
        assert (2, 1) not in r

    def test_tuples_sorted(self):
        r = Relation("R", ["A", "B"], [(2, 1), (1, 5)])
        assert r.tuples() == [(1, 5), (2, 1)]

    def test_projection(self):
        r = Relation("R", ["B", "D"], [(1, 2)])
        gao = ["A", "B", "C", "D"]
        assert r.projection((9, 7, 8, 6), gao) == (7, 6)

    def test_counters_shared_with_index(self):
        c = OpCounters()
        r = Relation("R", ["A"], [(1,), (5,)], counters=c)
        r.index.find_gap((), 3)
        assert c.findgap == 1

    def test_rebind_counters(self):
        r = Relation("R", ["A"], [(1,)])
        c = OpCounters()
        r.rebind_counters(c)
        r.index.find_gap((), 0)
        assert c.findgap == 1

    def test_repr_mentions_schema(self):
        r = Relation("R", ["A", "B"], [(1, 2)])
        assert "R(A, B)" in repr(r)
