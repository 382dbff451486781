"""Integration tests asserting the *shape* of the paper's claims.

Each test corresponds to a numbered claim in DESIGN.md §1 and is the
test-sized version of an EXPERIMENTS.md benchmark.
"""

import pytest

from repro.baselines.leapfrog import leapfrog_triejoin
from repro.baselines.yannakakis import yannakakis_join
from repro.certificates.builder import build_certificate
from repro.core.engine import join
from repro.core.generic_join import generic_join
from repro.datasets.instances import (
    appendix_j_path,
    constant_certificate_empty,
    constant_certificate_large_output,
    example_2_1,
    interleaved_parity,
    prop_5_3,
)
from repro.datasets.graphs import uniform_graph
from repro.datasets.workloads import star_query, input_size
from repro.util.counters import OpCounters


class TestR6ConstantCertificates:
    """Examples B.1/B.2: Minesweeper's work is O(1) on growing inputs."""

    def test_b1_probe_count_constant(self):
        counts = []
        for n in (100, 1000):
            inst = constant_certificate_empty(n)
            res = join(inst.query, gao=inst.gao)
            assert res.rows == []
            counts.append(res.counters.probes)
        assert counts[0] == counts[1] <= 5

    def test_b2_work_is_output_dominated(self):
        for n in (50, 400):
            inst = constant_certificate_large_output(n)
            res = join(inst.query, gao=inst.gao)
            assert len(res) == n
            # probes ≈ 2Z + O(1) (one probe per output + one per skip)
            assert res.counters.probes <= 2 * n + 8

    def test_baselines_scan_everything_on_b1(self):
        inst = constant_certificate_empty(1000)
        counters = OpCounters()
        prepared = inst.query.with_gao(inst.gao)
        leapfrog_triejoin(prepared, counters)
        # LFTJ's very first intersection already seeks; but Yannakakis'
        # semijoin pass must touch all 2000 tuples.
        y = OpCounters()
        yannakakis_join(inst.query, inst.gao, y)
        assert y.comparisons >= 2000


class TestR2BetaAcyclicLinearity:
    """Theorem 2.7: probes ~ |C| + Z on beta-acyclic queries with a NEO."""

    def test_probe_count_tracks_certificate_bound(self):
        for n in (20, 60):
            inst = example_2_1(n)
            res = join(inst.query, gao=inst.gao)
            z = len(res)
            # Theorem 3.2: probes <= O(2^r (|C| + Z)); here r = 2.
            bound = 16 * (inst.certificate_size + z) + 16
            assert res.counters.probes <= bound

    def test_probes_below_built_certificate(self):
        """The Prop 2.6 certificate upper-bounds the optimal one; total
        probes stay within a constant factor of it plus output."""
        inst = example_2_1(25)
        prepared = inst.query.with_gao(inst.gao)
        cert = build_certificate(prepared)
        res = join(inst.query, gao=inst.gao)
        assert res.counters.probes <= 4 * (len(cert) + len(res)) + 8


class TestR7GaoDependence:
    """Examples B.3/B.4: the NEO GAO is quadratically cheaper here."""

    def test_work_gap_between_gaos(self):
        n = 8
        bad = interleaved_parity(n, ["A", "B", "C"])
        good = interleaved_parity(n, ["C", "A", "B"])
        res_bad = join(bad.query, gao=bad.gao)
        res_good = join(good.query, gao=good.gao)
        assert res_bad.rows == res_good.rows == []
        assert (
            res_good.counters.total_work() * 4
            < res_bad.counters.total_work()
        )

    def test_auto_gao_picks_the_cheap_order(self):
        inst = interleaved_parity(6)
        gao, kind = inst.query.choose_gao()
        assert kind == "neo"
        assert gao[0] == "C"  # the shared attribute leads


class TestR8WorstCaseOptimalCounterexample:
    """Appendix J: Minesweeper beats Yannakakis/LFTJ/NPRR by ~block×."""

    def test_gap_on_path_family(self):
        """The paper notes the embedding needs a 5-path (App. J end)."""
        inst = appendix_j_path(5, 16)
        res = join(inst.query, gao=inst.gao)
        assert res.rows == []
        ms_work = res.counters.total_work()

        prepared = inst.query.with_gao(inst.gao)
        lftj = OpCounters()
        assert leapfrog_triejoin(prepared, lftj) == []
        nprr = OpCounters()
        assert generic_join(prepared, nprr) == []
        yan = OpCounters()
        assert yannakakis_join(inst.query, inst.gao, yan) == []

        assert lftj.total_work() > 3 * ms_work
        assert nprr.total_work() > 3 * ms_work
        assert yan.total_work() > 1.2 * ms_work

    def test_gap_grows_with_block_size(self):
        def ratio(block):
            inst = appendix_j_path(5, block)
            res = join(inst.query, gao=inst.gao)
            prepared = inst.query.with_gao(inst.gao)
            lftj = OpCounters()
            leapfrog_triejoin(prepared, lftj)
            return lftj.total_work() / max(res.counters.total_work(), 1)

        assert ratio(16) > 2 * ratio(8)


class TestR4TreewidthLowerBound:
    """Prop 5.3: Minesweeper pays Ω(m^w) on Q_w while |C| = O(w·m)."""

    def test_superlinear_growth_in_m(self):
        """The Ω(m^w) cost surfaces as probe-search backtracks: the CDS
        must dismiss every (t1, t2) prefix individually (= m² + m of
        them for w = 2), while |C| = O(w·m)."""

        def backtracks(m):
            inst = prop_5_3(2, m)
            res = join(inst.query, gao=inst.gao)
            assert res.rows == []
            return res.counters.backtracks

        assert backtracks(4) == 4 * 4 + 4
        assert backtracks(8) == 8 * 8 + 8


class TestR10Figure2Shape:
    """Figure 2: certificate estimate orders of magnitude below N."""

    def test_certificate_much_smaller_than_input(self):
        edges = uniform_graph(400, 3000, seed=0)
        query = star_query(edges, probability=0.01, seed=1)
        res = join(query)
        n = input_size(query)
        assert res.certificate_estimate < n / 5
        assert res.certificate_estimate > 0
