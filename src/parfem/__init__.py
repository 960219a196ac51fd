"""Desk-scale parallel finite element core.

Mapped Q1/Q2 elements on hierarchical quadrilateral meshes, a topological
d.o.f. manager, simulated SPMD domain decomposition with consistency-tagged
distributed linear algebra, and a flexible GMRES solver preconditioned by a
parallel geometric multigrid V-cycle.
"""

from .comm import ConsistencyLevel, Relation, Transport, spmd_run
from .dlinalg import DistMatrix, DistVector, axpy, dot, fgmres, matvec, norm2
from .mesh import build_hemker_mesh, build_rect_mesh, refine_uniform

__all__ = [
    "ConsistencyLevel",
    "Relation",
    "Transport",
    "spmd_run",
    "DistMatrix",
    "DistVector",
    "axpy",
    "dot",
    "fgmres",
    "matvec",
    "norm2",
    "build_hemker_mesh",
    "build_rect_mesh",
    "refine_uniform",
]
