"""Preconditioned ADMM for convex problems with nonlinear operator
constraints, with a dual-first primal-dual specialization and a joint
parallel-MRI reconstruction experiment pipeline."""

from .admm import (AdmmSolver, ConvergenceReport, Problem, SolverConfig,
                   SolverDivergence, SolverState, run)
from .blocks import BlockVector, random_like
from .constraint import LinearMap, NonlinearConstraint
from .fields import dft2, grad, grad_adjoint, idft2
from .mri import (CoilGradOperator, MriProblem, assemble_prox_j,
                  coil_jacobian, coil_op, initial_unknowns, separable_problem)
from .opnorm import estimate_opnorm
from .pdhgm import (PdhgmSolver, SeparableConstraint, SeparableOperator,
                    SeparableProblem, equivalence_check)
from .phantom import (PhantomSpec, SamplingSpec, TissueParams, TISSUES,
                      build_phantom, flair_signal, make_coil_maps,
                      simulate_kspace, spiral_mask)
from .prox import (FourierFidelityProx, GlobalShrinkProx, GroupShrinkProx,
                   IdentityProx, ProxOp, SeparableSumProx,
                   conjugate_apply)

__version__ = "0.1.0"
