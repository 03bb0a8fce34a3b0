"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them).
The two full-scale reconstructions are shared through a session fixture
so the suite stays within its runtime budget.
"""

import math
import sys
import time

import numpy as np
import pytest

from padmm.admm import AdmmSolver, SolverConfig, SolverState, run
from padmm.blocks import BlockVector, random_like
from padmm.cli import EXIT_OK, main
from padmm.dataset import Dataset
from padmm.fields import dft2, grad, grad_adjoint, idft2
from padmm.mri import CoilGradOperator, coil_jacobian, separable_problem
from padmm.pdhgm import PdhgmSolver, equivalence_check
from padmm.phantom import flair_signal
from padmm.pipeline import (config_from_dict, evaluate, mri_problem,
                            reconstruct, simulate)
from padmm.prox import (FourierFidelityProx, GlobalShrinkProx, GroupShrinkProx,
                        IdentityProx, conjugate_apply)

from oracles import (QuadraticAnchorProx, adjoint_check, affine_constraint,
                     fd_jacobian_check, random_field, random_gradient)
from test_admm import scalar_consensus


def report(num, label, ok, detail=""):
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}",
          file=sys.stderr)
    assert ok, f"criterion {num} ({label}) failed{': ' + detail if detail else ''}"


# --- acceptance configs: full runs for criterion 7, one step for criterion 8 ---

LOW_NOISE = {
    "phantom": {"size": 96},
    "coils": {"count": 4, "seed": 11},
    "sampling": {"fraction": 0.25, "turns": 12.0, "sigma": 0.05, "seed": 7},
    "solver": {"delta": 0.2, "iterations": 1500},
    "weights": {"lam": 0.0621, "alpha0": 0.062, "alpha": 0.9317},
}
HIGH_NOISE = {
    **LOW_NOISE,
    "sampling": {**LOW_NOISE["sampling"], "sigma": 0.95},
    "solver": {"delta": 1.0, "iterations": 1500},
    "weights": {"lam": 0.0149, "alpha0": 0.0135, "alpha": 0.9716},
}


@pytest.fixture(scope="session")
def experiment_runs():
    out = {}
    t0 = time.perf_counter()
    for name, raw in (("low", LOW_NOISE), ("high", HIGH_NOISE)):
        cfg = config_from_dict(raw)
        dataset = simulate(cfg)
        record, _ = reconstruct(dataset, cfg)
        out[name] = (dataset, record, evaluate(record, dataset))
    out["wall_s"] = time.perf_counter() - t0
    return out


class TestCriterion1:
    def test_adjoints_and_jacobians(self):
        rng = np.random.default_rng(0)
        t0 = time.perf_counter()
        ok = True

        for h, w in ((7, 5), (16, 16), (32, 32)):
            u = random_field(rng, h, w)
            g = random_gradient(rng, h, w)
            lhs, rhs = np.vdot(g, grad(u)), np.vdot(grad_adjoint(g), u)
            ok &= abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

            x, y = random_field(rng, h, w), random_field(rng, h, w)
            lhs, rhs = np.vdot(y, dft2(x)), np.vdot(idft2(y), x)
            ok &= abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

        for n_coils, size in ((2, 16), (4, 32)):
            u0 = random_field(rng, size, size)
            coils = [random_field(rng, size, size) for _ in range(n_coils)]
            ok &= adjoint_check(coil_jacobian(u0, coils), rng) <= 1e-10

            op = CoilGradOperator(n_coils, (size, size))
            u = random_like(BlockVector.zeros(op.u_shapes), rng)
            jac = op.jac(u)
            ok &= adjoint_check(jac, rng) <= 1e-10
            d = random_like(BlockVector.zeros(op.u_shapes), rng)
            ok &= fd_jacobian_check(op.evaluate, jac, u, d, eps=1e-6) <= 1e-6

        ok &= (time.perf_counter() - t0) < 10.0
        report(1, "adjoint/jacobian suite", ok)


class TestCriterion2:
    @staticmethod
    def _instances(rng):
        mask = (rng.uniform(size=(4, 4)) < 0.5).astype(float)
        mask[0, 0] = 1.0
        f = mask * random_field(rng, 4, 4)
        anchor = random_field(rng, 4, 4)
        return [
            (IdentityProx(), random_field(rng, 4, 4)),
            (QuadraticAnchorProx(anchor, 1.3), random_field(rng, 4, 4)),
            (FourierFidelityProx(0.7, mask, f), random_field(rng, 4, 4)),
            (GroupShrinkProx(0.8), random_gradient(rng)),
            (GlobalShrinkProx(0.8), random_gradient(rng)),
        ]

    def test_prox_suite(self):
        rng = np.random.default_rng(1)
        t0 = time.perf_counter()
        ok = True
        tau = 0.6

        def objective(p, x, w):
            return 0.5 * np.sum(np.abs(np.asarray(x) - np.asarray(w)) ** 2) \
                + tau * p.penalty(x)

        for prox, w in self._instances(rng):
            x = np.asarray(prox.apply(w, tau))
            base = objective(prox, x, w)
            for _ in range(60):
                d = rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape)
                d /= np.linalg.norm(d.ravel())
                ok &= objective(prox, x + 1e-3 * d, w) >= base - 1e-12

            w2 = np.asarray(w) + 0.3 * (rng.standard_normal(x.shape)
                                        + 1j * rng.standard_normal(x.shape))
            pa, pb = np.asarray(prox.apply(w, tau)), np.asarray(prox.apply(w2, tau))
            lhs = np.sum(np.abs(pa - pb) ** 2)
            rhs = np.real(np.sum((pa - pb) * np.conj(np.asarray(w) - w2)))
            ok &= lhs <= rhs + 1e-10

            for delta in (0.4, 1.0, 2.5):
                b = np.asarray(w)
                moreau = prox.apply(b, 1.0 / delta) \
                    + (1.0 / delta) * conjugate_apply(prox, delta * b, delta)
                ok &= np.allclose(moreau, b, atol=1e-12)

        # independent quadratic-solve oracle for the k-space fidelity prox
        from scipy.sparse.linalg import LinearOperator, cg
        prox = self._instances(rng)[2][0]
        w = random_field(rng, 4, 4)
        s = tau * prox.lam
        op = LinearOperator(
            (16, 16),
            matvec=lambda xf: (xf.reshape(4, 4)
                               + s * idft2(prox.mask * dft2(xf.reshape(4, 4)))
                               ).ravel(),
            dtype=complex,
        )
        sol, info = cg(op, (w + s * idft2(prox.data)).ravel(),
                       rtol=1e-13, maxiter=500)
        ok &= info == 0
        ok &= np.linalg.norm(prox.apply(w, tau).ravel() - sol) \
            <= 1e-8 * np.linalg.norm(sol)

        ok &= (time.perf_counter() - t0) < 30.0
        report(2, "prox suite", ok)


class TestCriterion3:
    def test_dense_surrogate_algebra(self):
        rng = np.random.default_rng(2)
        n = 6
        k = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        shapes = ((n,),)
        c = random_like(BlockVector.zeros(shapes), rng)
        F = affine_constraint(k, c)
        wh, wj = 0.8, 1.3
        anchor_u = random_like(BlockVector.zeros(shapes), rng)
        anchor_v = random_like(BlockVector.zeros(shapes), rng)

        u_k = random_like(BlockVector.zeros(shapes), rng)
        v_k = random_like(BlockVector.zeros(shapes), rng)
        mu_prev = random_like(BlockVector.zeros(shapes), rng)
        delta = 0.7
        mu_k = mu_prev + delta * (F.evaluate(u_k, v_k) - c)
        mu_bar = 2.0 * mu_k - mu_prev

        solver = AdmmSolver(
            F, QuadraticAnchorProx(anchor_u, wh),
            QuadraticAnchorProx(anchor_v, wj),
            SolverConfig(delta=delta, theta=0.9, max_iterations=1,
                         power_iter_tol=1e-14, power_iter_max=5000),
        )
        state = solver.step(SolverState(u=u_k, v=v_k, mu=mu_k, mu_bar=mu_bar))

        eye = np.eye(n, dtype=complex)
        khk = k.conj().T @ k
        q1 = (1.0 / state.tau1) * eye - delta * khk
        m_u = delta * khk + wh * eye + q1
        rhs_u = (delta * k.conj().T @ (c + v_k).ravel()
                 - k.conj().T @ mu_k.ravel()
                 + wh * anchor_u.ravel() + q1 @ u_k.ravel())
        u_direct = np.linalg.solve(m_u, rhs_u)
        ok = np.linalg.norm(state.u.ravel() - u_direct) \
            <= 1e-10 * max(np.linalg.norm(u_direct), 1.0)

        q2 = (1.0 / state.tau2 - delta) * eye
        c2 = (c - BlockVector.from_ravel(k @ state.u.ravel(), shapes)).ravel()
        m_v = (delta + wj) * eye + q2
        rhs_v = (-delta * c2 + mu_k.ravel()
                 + wj * anchor_v.ravel() + q2 @ v_k.ravel())
        v_direct = np.linalg.solve(m_v, rhs_v)
        ok &= np.linalg.norm(state.v.ravel() - v_direct) \
            <= 1e-10 * max(np.linalg.norm(v_direct), 1.0)

        report(3, "dense surrogate algebra pin", ok)


class TestCriterion4:
    def test_quadratic_toy_kkt(self):
        problem, a, b = scalar_consensus()
        state, rep = run(problem, SolverConfig(max_iterations=500))
        problem2, _, _ = scalar_consensus()
        state2, _ = run(problem2, SolverConfig(max_iterations=500))
        ok = abs(state.u[0][0] - 0.5 * (a + b)) < 1e-8
        ok &= abs(state.v[0][0] - 0.5 * (a + b)) < 1e-8
        ok &= abs(state.mu[0][0] - 0.5 * (a - b)) < 1e-8
        ok &= rep.final_residual < 1e-8
        ok &= np.array_equal(state.u[0], state2.u[0])
        report(4, "quadratic toy KKT oracle", ok)


class TestCriterion5:
    def test_admm_pdhgm_equivalence(self):
        t0 = time.perf_counter()

        # (a) quadratic consensus toy, rewritten as a separable problem
        rng = np.random.default_rng(3)
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        from test_pdhgm import matrix_operator
        from padmm.pdhgm import SeparableProblem
        g, dom, cod = matrix_operator(m)
        toy = SeparableProblem(
            g=g, prox_h=IdentityProx(),
            prox_j=QuadraticAnchorProx(random_like(BlockVector.zeros(cod), rng), 1.0),
            u0=random_like(BlockVector.zeros(dom), rng),
            mu0=random_like(BlockVector.zeros(cod), rng),
        )
        cfg = SolverConfig(delta=0.8, max_iterations=60,
                           power_iter_tol=1e-12, power_iter_max=2000)
        dev_toy = equivalence_check(toy, cfg, 60)
        ok = dev_toy <= 1e-8

        # (b) 16x16, 2-coil reconstruction instance
        raw = {
            "phantom": {"size": 16},
            "coils": {"count": 2, "seed": 1},
            "sampling": {"fraction": 0.3, "turns": 3.0, "sigma": 0.05,
                         "seed": 0},
            "solver": {"delta": 0.5, "iterations": 50,
                       "power_iter_tol": 1e-9, "power_iter_max": 300},
            "weights": {"lam": 0.0621, "alpha0": 0.062, "alpha": 0.9317},
        }
        exp = config_from_dict(raw)
        dataset = simulate(exp)
        problem = separable_problem(mri_problem(dataset, exp))
        dev_mri = equivalence_check(problem, exp.solver, 50)
        ok &= dev_mri <= 1e-8

        ok &= (time.perf_counter() - t0) < 120.0
        report(5, "dual-first equivalence", ok)


class TestCriterion6:
    def test_flair_nulling(self):
        rho, t1 = 1.0, 2569.0
        s = flair_signal(rho, t1, 329.0, tr=10000.0, te=90.0, ti=1781.0)
        ok = abs(s) < 1e-3 * rho
        # the inversion factor cancels exactly at ti = t1 ln 2
        ok &= (1.0 - 2.0 * np.exp(-(t1 * math.log(2.0)) / t1)) == 0.0
        report(6, "inversion-recovery signal nulling", ok)


class TestCriterion7:
    def test_reconstruction_gains(self, experiment_runs):
        low = experiment_runs["low"][2]
        high = experiment_runs["high"][2]
        ok = low["psnr_recon_db"] >= low["psnr_zerofill_db"] + 5.0
        ok &= high["psnr_recon_db"] >= high["psnr_zerofill_db"] + 2.0
        ok &= low["psnr_recon_db"] > high["psnr_recon_db"]
        ok &= experiment_runs["wall_s"] < 15 * 60
        print(f"  low noise: recon {low['psnr_recon_db']:.2f} dB, "
              f"zero-fill {low['psnr_zerofill_db']:.2f} dB", file=sys.stderr)
        print(f"  high noise: recon {high['psnr_recon_db']:.2f} dB, "
              f"zero-fill {high['psnr_zerofill_db']:.2f} dB", file=sys.stderr)
        report(7, "end-to-end reconstruction gains", ok)


class TestCriterion8:
    """The data never move a coil pixel where the spin density vanishes.

    The coil rows of the bilinear Jacobian's adjoint are conj(u0) * w_j,
    so a step whose coil-gradient multiplier is zero changes the coils
    only where u0 is nonzero.  The 1500-iteration result is not the
    subject: the coil smoothness term continues the foreground coils
    into the background, where the data cannot identify them.
    """

    @staticmethod
    def _coil_change(u_old, u_new):
        return [np.abs(u_new[j] - u_old[j]) for j in range(1, len(u_old))]

    def _one_step(self, problem, cfg, u):
        """Coil changes of one PDHGM and one matching ADMM step from u."""
        mu0 = BlockVector.zeros_like(problem.mu0)
        pd = PdhgmSolver(problem, cfg).step(
            SolverState(u=u, v=None, mu=mu0, mu_bar=mu0))
        ap = problem.as_admm_problem()
        admm = AdmmSolver(ap.constraint, ap.prox_h, ap.prox_j, cfg)
        state = admm.step(SolverState(u=u, v=problem.g.evaluate(u),
                                      mu=pd.mu, mu_bar=pd.mu_bar))
        return (pd.mu_bar, self._coil_change(u, pd.u),
                self._coil_change(u, state.u))

    def test_coils_untouched_where_signal_vanishes(self):
        cfg = config_from_dict(LOW_NOISE)
        dataset = simulate(cfg)
        problem = separable_problem(mri_problem(dataset, cfg))
        n = dataset.n_coils
        background = np.abs(dataset.phantom) == 0

        # spin density zero on the background, flat coils, mu = 0: the
        # coil-gradient multiplier is zero, only the fidelity rows act
        u = BlockVector([np.abs(dataset.phantom).astype(np.complex128)]
                        + list(problem.u0.blocks[1:]))
        mu_bar, pd_change, admm_change = self._one_step(problem, cfg.solver, u)
        deviation = max(np.max(d[background])
                        for d in pd_change + admm_change)
        ok = deviation <= 1e-6

        # guards against a vacuous pass: the data act on the background
        # multiplier and on the foreground coils, and they do move the
        # background coils when the spin density is nonzero there
        grad_mu = max(np.max(np.abs(mu_bar[n + 1 + j])) for j in range(n))
        fidelity_mu = min(np.max(np.abs(mu_bar[j][background]))
                          for j in range(n))
        foreground = min(np.max(d[~background])
                         for d in pd_change + admm_change)
        _, pd_ones, admm_ones = self._one_step(
            problem, cfg.solver, problem.u0)
        ones_change = min(np.max(d[background]) for d in pd_ones + admm_ones)
        ok &= grad_mu == 0.0
        ok &= fidelity_mu > 1e-2 and foreground > 1e-2 and ones_change > 1e-2

        print(f"  max background coil change: {deviation:.2e}; "
              f"background fidelity multiplier {fidelity_mu:.2e}, "
              f"foreground coil change {foreground:.2e}, "
              f"background coil change from all-ones {ones_change:.2e}",
              file=sys.stderr)
        report(
            8, "null-signal coil behavior", ok,
            detail=(
                "one step from a spin density that vanishes on the "
                f"background moved a background coil pixel by "
                f"{deviation:.2e} (bound 1e-6); coil-gradient multiplier "
                f"{grad_mu:.2e} (must be 0); background fidelity "
                f"multiplier {fidelity_mu:.2e}, foreground coil change "
                f"{foreground:.2e} and all-ones background coil change "
                f"{ones_change:.2e} (each must exceed 1e-2)"
            ),
        )


class TestCriterion9:
    CONFIG = {
        "phantom": {"size": 32},
        "coils": {"count": 2, "seed": 1},
        "sampling": {"fraction": 0.25, "turns": 4.0, "sigma": 0.05,
                     "seed": 0},
        "solver": {"delta": 0.5, "iterations": 15},
        "weights": {"lam": 0.0621, "alpha0": 0.062, "alpha": 0.9317},
    }

    @staticmethod
    def _mask_wall(text):
        return "\n".join(line for line in text.splitlines()
                         if not line.startswith("wall_ms:"))

    def test_determinism_and_round_trip(self, tmp_path):
        import yaml
        ok = True
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            cfg_path = tmp_path / f"{name}.yaml"
            cfg_path.write_text(yaml.safe_dump(
                {**self.CONFIG, "output": str(out)}))
            for cmd in ("simulate", "reconstruct", "eval"):
                ok &= main([cmd, "--config", str(cfg_path)]) == EXIT_OK
            outputs.append(out)

        a, b = outputs
        ok &= (a / "dataset.pad").read_bytes() == (b / "dataset.pad").read_bytes()
        # wall-clock time is the one legitimately run-dependent field
        ok &= self._mask_wall((a / "metrics.txt").read_text()) \
            == self._mask_wall((b / "metrics.txt").read_text())

        round_trip = tmp_path / "round.pad"
        Dataset.load(a / "dataset.pad").save(round_trip)
        ok &= round_trip.read_bytes() == (a / "dataset.pad").read_bytes()
        report(9, "determinism and container round-trip", ok)
