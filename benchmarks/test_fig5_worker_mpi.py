"""Figure 5: worker MPI time, collective vs point-to-point, three configs.

Paper shapes asserted:

* worker MPI time is almost entirely collective (weight broadcast
  participation, gradient/curvature reductions); its only p2p is the
  one-time load_data receive;
* straggler coupling: fast workers accumulate wait time inside
  collectives (cg_bcast wait while the slowest curvature product
  finishes), so collective time per worker is far above the pure wire
  cost.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from common import breakdown_runs

from repro.harness import render_mpi_split
from repro.obs.attrib import ordered_sum


def test_fig5_worker_mpi(benchmark):
    runs = benchmark.pedantic(breakdown_runs, rounds=1, iterations=1)
    print()
    for cb in runs:
        print(
            render_mpi_split(
                cb.worker_mean.collective,
                cb.worker_mean.p2p,
                title=f"Fig 5 [{cb.label}] mean worker MPI time (s)",
            )
        )
        print()

    for cb in runs:
        w = cb.worker_mean
        coll = ordered_sum(w.collective)
        p2p = ordered_sum(w.p2p)
        # collectives dominate worker MPI time
        assert coll > p2p
        # the expected functions appear
        assert "sync_weights" in w.collective
        assert "reduce_gradient" in w.collective
        assert "cg_bcast" in w.collective
        assert "load_data" in w.p2p
