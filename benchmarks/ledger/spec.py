"""What the ledger measures: names, instance sizes, rates, op counts.

The driver-facing contract (workload and metric names, units, bounds)
lives in the root ``BENCHMARK.json``; this module holds what that file
has no key for — the default seed, the instance sizes, the frozen
open-loop rates — and loads the contract so the two cannot drift.
"""

from __future__ import annotations

import functools
import json
import os
from typing import Dict, List

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(LEDGER_DIR))
CONTRACT_PATH = os.path.join(REPO_ROOT, "BENCHMARK.json")
SRC_DIR = os.path.join(REPO_ROOT, "src")
DEFAULT_OUT = os.path.join(REPO_ROOT, "benchmarks", "results", "ledger")

DEFAULT_SEED = 11
TENANT = "t0"
FSYNC = "batch"  # stated, and identical on both sides of any A/B

WORKLOADS = (
    "engine_paper",
    "serve_read_hot",
    "serve_read_cyclic",
    "serve_write",
    "mixed_rw",
)

#: Share of ``--seconds`` the closed-loop capacity phase is sized for;
#: the open-loop latency phase gets the rest.
CAPACITY_SHARE = 0.3
#: Set-ups timed per run (the median is reported as ``setup_s``).
SETUP_REPEATS = 3
#: A percentile is printed as supported only with this many samples
#: (ten beyond p95).
P95_MIN_SAMPLES = 200
#: A run whose generator lag p95 exceeds this share of the median op
#: latency is reported invalid.
MAX_LAG_SHARE = 0.10

#: Seconds the calibration kernel (``harness.kernel_seconds``) takes on the
#: reference box in a quiet spell.  Times are reported scaled by
#: ``KERNEL_REF_S / measured``.
KERNEL_REF_S = 0.0056

#: Instance sizes.  ``smoke`` is the tier-1 self-test profile.
SIZES: Dict[str, Dict[str, object]] = {
    "full": {
        "bowtie": 1600,
        "path5": 28,
        "star5": 30,
        "tri_general": 32,
        "dyadic_hard": 32,
        "dyadic_planted": (120, 30),
        "intersect": 10000,
        "sharded": (150, 40),
        "ring": 60,
        "G": (30, 70),
        "H": (24, 48),
        "tri": (40, 200),
        "L": (60, 150),
    },
    "smoke": {
        "bowtie": 60,
        "path5": 8,
        "star5": 6,
        "tri_general": 5,
        "dyadic_hard": 5,
        "dyadic_planted": (20, 5),
        "intersect": 200,
        "sharded": (24, 6),
        "ring": 12,
        "G": (10, 20),
        "H": (8, 14),
        "tri": (10, 30),
        "L": (12, 20),
    },
}

#: Per serving workload: the op mix (weights per aligned block), the
#: frozen open-loop rate, and the nominal closed-loop capacity the
#: capacity phase's fixed op count is sized from.  Rates were set once
#: to about half the capacity measured at the seed commit on the
#: 2-core reference box (README, "Calibration") and are not re-tuned.
TRAFFIC: Dict[str, Dict[str, object]] = {
    "serve_read_hot": {
        "mix": (("path2", 1), ("path3_proj", 1), ("count_tri", 1)),
        "rate_ops_s": 70.0,
        "nominal_capacity_ops_s": 230.0,
    },
    "serve_read_cyclic": {
        "mix": (("cycle4", 1), ("tri_rows", 1)),
        "rate_ops_s": 14.0,
        "nominal_capacity_ops_s": 44.0,
    },
    "serve_write": {
        # 3 view-less : 2 view-backed keeps the median inside the
        # view-less mode and p95 inside the view-backed one (a 50/50
        # split would park the median between two modes).
        "mix": (("write_viewless", 3), ("write_viewed", 2)),
        "rate_ops_s": 40.0,
        "nominal_capacity_ops_s": 120.0,
        "batch_size": 8,
        "flush_every": 50,
        "compact_every": 200,
        "snapshot_before_last": 150,
    },
    "mixed_rw": {
        # Blocks of one write then nine reads, opening write, count_tri,
        # path2, count_tri.  Every write bumps the catalog generation, which
        # invalidates both cached plans, so exactly two reads per block
        # re-plan: the block's median is a hot read beside writes, its
        # p95 the costlier re-plan.  The
        # issue's third hot read (path3_proj, ~0.5 s to re-plan) and
        # its 80/20 split are left out on purpose: with them a write
        # costs over a second of planning, a run holds a dozen ops,
        # and no median resolves (README, "Deviations").
        "mix": (("write", 1), ("path2", 5), ("count_tri", 4)),
        "rate_ops_s": 8.0,
        "nominal_capacity_ops_s": 24.0,
    },
}

#: Fixed op counts of the smoke profile (independent of ``--seconds``).
SMOKE_OPS = {"capacity": 12, "latency": 20, "passes": 2, "trace": 6,
             "snapshot_before_last": 10}
SMOKE_RATE_OPS_S = 40.0

#: Ops the traced run re-drives per workload (first N of the sequence).
TRACE_OPS = {
    "engine_paper": 3,  # passes
    "serve_read_hot": 90,
    "serve_read_cyclic": 30,
    "serve_write": 90,
    "mixed_rw": 40,
}


@functools.lru_cache(maxsize=None)
def load_contract() -> Dict[str, object]:
    with open(CONTRACT_PATH) as handle:
        return json.load(handle)


def metric_names(kind: str) -> List[str]:
    """``end_to_end`` or ``per_layer`` metric names, in contract order."""
    return [m["name"] for m in load_contract()[kind]]
