"""Certificate machinery tests (Section 2.2, Proposition 2.6)."""

import random

import pytest

from repro.certificates.builder import build_certificate, certificate_upper_bound
from repro.certificates.comparisons import (
    Argument,
    Comparison,
    Variable,
    enumerate_variables,
    variable_value,
    witnesses,
)
from repro.certificates.verifier import check_certificate, sample_satisfying_instance
from repro.core.engine import ExecSpec
from repro.core.query import Query
from repro.parallel.certify import certify_sharded
from repro.storage.relation import Relation


def prepared(*rels, gao):
    return Query(
        [Relation(name, attrs, rows) for name, attrs, rows in rels]
    ).with_gao(gao)


class TestComparisons:
    def test_normalization(self):
        a = Variable("R", (1,))
        b = Variable("S", (2,))
        assert Comparison(a, ">", b).normalized() == Comparison(b, "<", a)

    def test_bad_operator(self):
        with pytest.raises(ValueError):
            Comparison(Variable("R", (1,)), "!=", Variable("S", (1,)))

    def test_argument_dedupes(self):
        a = Variable("R", (1,))
        b = Variable("S", (1,))
        arg = Argument([Comparison(a, "<", b), Comparison(b, ">", a)])
        assert len(arg) == 1

    def test_variables_collected(self):
        a, b = Variable("R", (1,)), Variable("S", (1,))
        arg = Argument([Comparison(a, "=", b)])
        assert arg.variables() == {a, b}

    def test_satisfied_by(self):
        q = prepared(
            ("R", ["A"], [(1,), (5,)]),
            ("S", ["A"], [(5,)]),
            gao=["A"],
        )
        good = Argument(
            [Comparison(Variable("R", (2,)), "=", Variable("S", (1,)))]
        )
        bad = Argument(
            [Comparison(Variable("R", (1,)), "=", Variable("S", (1,)))]
        )
        assert good.satisfied_by(q)
        assert not bad.satisfied_by(q)

    def test_variable_value(self):
        q = prepared(("R", ["A", "B"], [(1, 7), (2, 9)]), gao=["A", "B"])
        assert variable_value(q, Variable("R", (2,))) == 2
        assert variable_value(q, Variable("R", (1, 1))) == 7

    def test_enumerate_variables_counts(self):
        q = prepared(("R", ["A", "B"], [(1, 7), (1, 9), (2, 9)]), gao=["A", "B"])
        coords = enumerate_variables(q.relation("R").index)
        # 2 level-1 variables + 3 level-2 variables
        assert len(coords) == 5
        assert all(len(c) <= 2 for c in coords)


class TestWitnesses:
    def test_example_2_1_witnesses(self):
        """Example 2.4: witnesses are {1,(1,i)} and {2,(2,i)}."""
        n = 4
        q = prepared(
            ("R", ["A"], [(i,) for i in range(1, n + 1)]),
            (
                "T",
                ["A", "B"],
                [(1, 2 * i) for i in range(1, n + 1)]
                + [(2, 3 * i) for i in range(1, n + 1)],
            ),
            gao=["A", "B"],
        )
        wit = witnesses(q)
        assert len(wit) == 2 * n
        assert frozenset({("R", (1,)), ("T", (1, 1))}) in wit

    def test_empty_output_no_witnesses(self):
        q = prepared(("R", ["A"], [(1,)]), ("S", ["A"], [(2,)]), gao=["A"])
        assert witnesses(q) == set()


class TestBuilder:
    def test_satisfied_by_own_instance(self):
        q = prepared(
            ("R", ["A", "B"], [(1, 2), (3, 4)]),
            ("S", ["B", "C"], [(2, 2), (4, 1)]),
            gao=["A", "B", "C"],
        )
        cert = build_certificate(q)
        assert cert.satisfied_by(q)

    def test_size_within_rn_bound(self):
        rng = random.Random(0)
        for _ in range(20):
            rows_r = {
                (rng.randint(0, 5), rng.randint(0, 5)) for _ in range(6)
            }
            rows_s = {
                (rng.randint(0, 5), rng.randint(0, 5)) for _ in range(6)
            }
            q = prepared(
                ("R", ["A", "B"], rows_r),
                ("S", ["B", "C"], rows_s),
                gao=["A", "B", "C"],
            )
            cert = build_certificate(q)
            assert len(cert) <= certificate_upper_bound(q)

    def test_is_certificate_randomized(self):
        rng = random.Random(1)
        for trial in range(8):
            rows_r = {
                (rng.randint(0, 4), rng.randint(0, 4)) for _ in range(5)
            }
            rows_s = {
                (rng.randint(0, 4), rng.randint(0, 4)) for _ in range(5)
            }
            q = prepared(
                ("R", ["A", "B"], rows_r),
                ("S", ["B", "C"], rows_s),
                gao=["A", "B", "C"],
            )
            cert = build_certificate(q)
            assert check_certificate(q, cert, samples=10, seed=trial) is None


class TestVerifier:
    def test_sampler_preserves_shape_and_argument(self):
        q = prepared(
            ("R", ["A", "B"], [(1, 2), (3, 4)]),
            ("S", ["B"], [(2,), (4,)]),
            gao=["A", "B"],
        )
        cert = build_certificate(q)
        rng = random.Random(0)
        sample = sample_satisfying_instance(q, cert, rng)
        assert sample is not None
        assert cert.satisfied_by(sample)
        for old, new in zip(q.relations, sample.relations):
            assert len(old) == len(new)

    def test_rejects_unsatisfied_argument(self):
        q = prepared(("R", ["A"], [(1,), (2,)]), gao=["A"])
        bogus = Argument(
            [Comparison(Variable("R", (2,)), "<", Variable("R", (1,)))]
        )
        with pytest.raises(ValueError):
            check_certificate(q, bogus)

    def test_refutes_empty_argument_with_output(self):
        q = prepared(
            ("R", ["A"], [(1,), (3,)]),
            ("S", ["A"], [(1,), (2,)]),
            gao=["A"],
        )
        counterexample = check_certificate(q, Argument(), samples=30, seed=0)
        assert counterexample is not None

    @pytest.mark.parametrize("samples", [0, -1])
    def test_zero_refutation_attempts_is_an_error(self, samples):
        """An empty argument does not certify an instance with output;
        zero samples would never find out, so they must not pass."""
        q = prepared(
            ("R", ["A"], [(1,), (3,)]),
            ("S", ["A"], [(1,), (2,)]),
            gao=["A"],
        )
        message = f"samples must be >= 1, got {samples}"
        with pytest.raises(ValueError, match=message):
            check_certificate(q, Argument(), samples=samples)
        for workers in (0, 2):
            with pytest.raises(ValueError, match=message):
                certify_sharded(
                    q, ExecSpec(shards=2, workers=workers), samples=samples
                )

    def test_accepts_trivially_certified_instances(self):
        """A single relation's output is fully determined by shape."""
        q = prepared(("R", ["A"], [(1,), (5,)]), gao=["A"])
        assert check_certificate(q, Argument(), samples=10, seed=0) is None
