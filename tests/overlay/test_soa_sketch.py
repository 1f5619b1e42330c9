"""Golden test: the SoA engine's count-min cells at every sketch depth.

The engine hashes all rows of a count then in one ``mix64`` call. Its
cells must stay exactly the per-row formula
``mix64(e, seed=r + 1) % width + r * width``, so that the sketch's
collisions, and with them DD-POLICE's judgments, do not move.
"""

import numpy as np
import pytest

from repro.core.config import DDPoliceConfig
from repro.evidence import EvidenceConfig
from repro.evidence.hashing import mix64
from repro.experiments.runner import DESConfig
from repro.overlay.network import NetworkConfig
from repro.overlay.soa_network import SoaFloodEngine
from repro.overlay.topology import TopologyConfig


def _engine(depth, width):
    return SoaFloodEngine(
        DESConfig(
            n=60,
            duration_s=1.0,
            seed=5,
            topology=TopologyConfig(n=60, seed=5),
            network=NetworkConfig(hop_latency_jitter_s=0.0),
            defense="ddpolice",
            police=DDPoliceConfig(
                evidence=EvidenceConfig(backend="sketch", cm_width=width, cm_depth=depth)
            ),
        )
    )


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
@pytest.mark.parametrize("width", [7, 2048])
def test_fused_cells_equal_the_per_row_formula(depth, width):
    engine = _engine(depth, width)
    rng = np.random.default_rng(depth * 1000 + width)
    eids = np.concatenate([
        rng.integers(0, 2**40, size=500),
        np.arange(engine._E),
        [0, 2**63 - 1],
    ]).astype(np.int64)
    want = np.stack([
        (mix64(eids.astype(np.uint64), seed=r + 1) % np.uint64(width)).astype(np.int64)
        + r * width
        for r in range(depth)
    ])
    assert engine._cm_cells(eids).tolist() == want.tolist()
    assert engine.evidence_bytes() == 2 * depth * width * 4


def test_counts_land_in_one_cell_per_row_and_estimate_never_undercounts():
    engine = _engine(3, 16)
    eids = np.array([0, 1, 1, 5, 5, 5], dtype=np.int64)
    engine._count_in(eids)
    assert int(engine._cm_in.sum()) == 3 * len(eids)
    est = engine._cm_estimate_all(engine._cm_in)
    assert est.dtype == np.int64 and len(est) == engine._E
    assert est[0] >= 1 and est[1] >= 2 and est[5] >= 3
