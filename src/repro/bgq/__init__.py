"""Blue Gene/Q machine model.

The pieces of Section III (and the tuning facts of Section V) as an
explicit, testable model: the A2 core and its issue rules, the node
memory hierarchy, the 5-D torus with production partition shapes, a
torus-aware network cost model for the virtual MPI layer, cycle-counter
accounting for the Figs 2-3 breakdowns, and the CNK/Linux noise
contrast.
"""

from repro.bgq.a2 import A2Core, BGQ_CORE
from repro.bgq.cycles import CycleCategories, CycleModel, KERNEL_CLASSES
from repro.bgq.kernel import CnkNoise, LinuxJitter, NoiseModel, expected_sync_inflation
from repro.bgq.memory import BGQ_MEMORY, MemoryHierarchy
from repro.bgq.network import TorusNetworkModel
from repro.bgq.node import BGQ_NODE, NodeSpec, RunShape
from repro.bgq.torus import KNOWN_SHAPES, TorusShape, torus_shape_for_nodes

__all__ = [
    "A2Core",
    "BGQ_CORE",
    "CycleCategories",
    "CycleModel",
    "KERNEL_CLASSES",
    "CnkNoise",
    "LinuxJitter",
    "NoiseModel",
    "expected_sync_inflation",
    "BGQ_MEMORY",
    "MemoryHierarchy",
    "TorusNetworkModel",
    "BGQ_NODE",
    "NodeSpec",
    "RunShape",
    "KNOWN_SHAPES",
    "TorusShape",
    "torus_shape_for_nodes",
]
