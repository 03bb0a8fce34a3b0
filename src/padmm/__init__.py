"""Preconditioned ADMM for convex problems with nonlinear operator
constraints, with a dual-first primal-dual specialization and a joint
parallel-MRI reconstruction experiment pipeline.

Import each name from its module: ``from padmm.admm import run``."""

__version__ = "0.1.0"
