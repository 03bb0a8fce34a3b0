"""Oracles and toy problem parts that only the tests use: random block
vectors, signed-zero inputs and a bit-for-bit comparison, slice-based
reference kernels, the hypot reference norm, flattening and dense maps,
finite-difference and adjoint checks, callable constraints and
operators, a closed-form resolvent, the solver steps as BlockVector
arithmetic, a sign-flipped conjugate resolvent, a dense surrogate step
against direct solves, the interleaving ``.pad`` block codec, the
metrics-file parser and the stamp-per-thickness spiral mask search."""

import math

import numpy as np

from padmm.admm import AdmmSolver, SolverConfig, SolverState
from padmm.blocks import BlockVector
from padmm.constraint import (ExplicitV, LinearMap, NonlinearConstraint,
                              SeparableOperator)
from padmm.fields import grad, grad_adjoint
from padmm.phantom import FRACTION_TOL, MaskFractionError
from padmm.prox import ProxOp


def random_like(bv: BlockVector, rng: np.random.Generator) -> BlockVector:
    """Standard complex Gaussian vector with the layout of ``bv``."""
    return BlockVector([rng.standard_normal(s) + 1j * rng.standard_normal(s)
                        for s in bv.shapes])


def random_field(rng, h=4, w=4):
    return rng.standard_normal((h, w)) + 1j * rng.standard_normal((h, w))


def random_gradient(rng, h=4, w=4):
    return rng.standard_normal((2, h, w)) + 1j * rng.standard_normal((2, h, w))


def bit_identical(a, b):
    """Equal values, dtype and shape, and equal signs of zero."""
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.array_equal(a, b)
            and np.array_equal(np.signbit(a.real), np.signbit(b.real))
            and np.array_equal(np.signbit(a.imag), np.signbit(b.imag)))


def same_bits(a, b):
    """Equal dtype, shape and bytes: NaN payloads and signs of zero
    included, where :func:`bit_identical` takes no NaN."""
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.ascontiguousarray(a).tobytes()
            == np.ascontiguousarray(b).tobytes())


def signed_zero_field(rng, shape, kind):
    """A real, complex or non-contiguous field with signed zeros mixed in."""
    wide = shape[:-1] + (2 * shape[-1],) if kind == "strided" else shape
    x = np.empty(wide, dtype=np.complex128)
    # zeroing about half the parts leaves -0.0 where a part was negative
    x.real = rng.standard_normal(wide) * rng.integers(0, 2, wide)
    x.imag = rng.standard_normal(wide) * rng.integers(0, 2, wide)
    if kind == "real":
        return x.real.copy()
    if kind == "strided":
        x = x[..., ::2]
        assert x.size == 1 or not x.flags.c_contiguous
    return x


def grad_slices(img):
    """Reference :func:`padmm.fields.grad` on 2-D slices, the same
    operations in the same order, so results agree bit for bit."""
    g = np.zeros((2,) + img.shape, dtype=np.complex128)
    g[0, :, :-1] = img[:, 1:] - img[:, :-1]
    g[1, :-1, :] = img[1:, :] - img[:-1, :]
    return g


def grad_adjoint_slices(g):
    """Reference :func:`padmm.fields.grad_adjoint` on 2-D slices."""
    gx, gy = g[0], g[1]
    out = np.zeros(gx.shape, dtype=np.complex128)
    out[:, :-1] -= gx[:, :-1]
    out[:, 1:] += gx[:, :-1]
    out[:-1, :] -= gy[:-1, :]
    out[1:, :] += gy[:-1, :]
    return out


def coil_jac_rows(u, h, w):
    """Reference rows of ``CoilGradOperator.jac(u)``: the coil rows of
    ``apply(h)`` and every row of ``adjoint(w)``, by the formulas
    h0 c_j + u0 h_j, sum_j conj(c_j) w_j + grad* w_n and
    conj(u0) w_j + grad* w_{n+1+j}."""
    u0, coils, n = u[0], u.blocks[1:], len(u) - 1
    apply_rows = [h[0] * c + u0 * h[1 + j] for j, c in enumerate(coils)]
    h0 = sum(np.conj(c) * w[j] for j, c in enumerate(coils))
    adjoint_rows = ([h0 + grad_adjoint_slices(w[n])]
                    + [np.conj(u0) * w[j] + grad_adjoint_slices(w[n + 1 + j])
                       for j in range(n)])
    return apply_rows, adjoint_rows


def norm_hypot(x: BlockVector) -> float:
    """Reference ``BlockVector.norm``: sqrt of the summed |b|**2, each
    modulus taken with ``hypot``."""
    return float(np.sqrt(sum(np.sum(np.abs(b) ** 2) for b in x.blocks)))


def ravel(x: BlockVector) -> np.ndarray:
    """Flatten to one complex vector (dense test oracles)."""
    return np.concatenate([b.ravel() for b in x.blocks])


def from_ravel(flat: np.ndarray, shapes) -> BlockVector:
    """Inverse of :func:`ravel` for the layout ``shapes``."""
    blocks, pos = [], 0
    for s in shapes:
        n = int(np.prod(s))
        blocks.append(np.asarray(flat[pos : pos + n]).reshape(s))
        pos += n
    return BlockVector(blocks)


def dense_map(m):
    """The matrix ``m`` as a LinearMap between single flat blocks."""
    dom = ((m.shape[1],),)
    cod = ((m.shape[0],),)
    return LinearMap(
        apply=lambda x: from_ravel(m @ ravel(x), cod),
        adjoint=lambda y: from_ravel(m.conj().T @ ravel(y), dom),
        domain_shapes=dom, codomain_shapes=cod,
    )


def grad_map(h, w):
    """:func:`padmm.fields.grad` on an (h, w) grid as a LinearMap."""
    return LinearMap(
        apply=lambda x: BlockVector([grad(x[0])]),
        adjoint=lambda g: BlockVector([grad_adjoint(g[0])]),
        domain_shapes=((h, w),), codomain_shapes=((2, h, w),),
    )


def materialize(lm: LinearMap) -> np.ndarray:
    """Dense matrix of ``lm``, one applied unit vector per column."""
    n = sum(int(np.prod(s)) for s in lm.domain_shapes)
    cols = []
    for k in range(n):
        e = np.zeros(n, dtype=np.complex128)
        e[k] = 1.0
        x = from_ravel(e, lm.domain_shapes)
        cols.append(ravel(lm.apply(x)))
    return np.stack(cols, axis=1)


class CallableConstraint(NonlinearConstraint):
    """Constraint assembled from plain callables."""

    def __init__(self, evaluate, jac_u, jac_v):
        self._evaluate = evaluate
        self._jac_u = jac_u
        self._jac_v = jac_v

    def evaluate(self, u, v):
        return self._evaluate(u, v)

    def jac_u(self, u, v):
        return self._jac_u(u, v)

    def jac_v(self, u, v):
        return self._jac_v(u, v)


def affine_constraint(k, c, m=None):
    """F(u, v) = K u + M v - c; dense K and M, M = -I by default."""
    kmap = dense_map(k)
    cod = kmap.codomain_shapes
    mmap = (LinearMap(lambda h: -h, lambda w: -w, cod, cod) if m is None
            else dense_map(m))
    return CallableConstraint(
        evaluate=lambda u, v: kmap.apply(u) + mmap.apply(v) - c,
        jac_u=lambda u, v: kmap,
        jac_v=lambda u, v: mmap,
    )


class CallableOperator(SeparableOperator):
    """Separable operator G assembled from plain callables."""

    def __init__(self, evaluate, jac):
        self._evaluate = evaluate
        self._jac = jac

    def evaluate(self, u):
        return self._evaluate(u)

    def jac(self, u):
        return self._jac(u)


def fd_jacobian_check(op, jac: LinearMap, base: BlockVector,
                      direction: BlockVector, eps: float = 1e-6) -> float:
    """Relative error of ``jac`` against a central finite difference.

    ||(op(base + eps d) - op(base - eps d)) / (2 eps) - J d||
    / max(||J d||, 1e-300).
    """
    fwd = op(base + eps * direction)
    bwd = op(base - eps * direction)
    fd = (1.0 / (2.0 * eps)) * (fwd - bwd)
    jd = jac.apply(direction)
    return (fd - jd).norm() / max(jd.norm(), 1e-300)


def adjoint_check(jac: LinearMap, rng: np.random.Generator) -> float:
    """Relative error of <J h, w> = <h, J* w> on random directions."""
    h = random_like(BlockVector.zeros(jac.domain_shapes), rng)
    w = random_like(BlockVector.zeros(jac.codomain_shapes), rng)
    lhs = jac.apply(h).inner(w)
    rhs = h.inner(jac.adjoint(w))
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)


class QuadraticAnchorProx(ProxOp):
    """E(x) = weight/2 ||x - anchor||^2, whose resolvent is a closed form."""

    def __init__(self, anchor, weight: float = 1.0):
        self.anchor = anchor
        self.weight = float(weight)

    def apply(self, w, tau):
        s = tau * self.weight
        return (1.0 / (1.0 + s)) * (w + s * self.anchor)

    def penalty(self, x):
        d = x - self.anchor
        if isinstance(d, BlockVector):
            return 0.5 * self.weight * d.norm() ** 2
        return 0.5 * self.weight * float(np.sum(np.abs(d) ** 2))


def dense_surrogate_step():
    """One ADMM step on a dense affine instance, F(u, v) = K u - v - c
    with quadratic H and J (seed 2), and the direct linear solves of the
    stationarity systems of its two linearized subproblems,

        delta/2 ||K u - v_k - c||^2 + <mu_k, K u> + H(u) + 1/2 ||u - u_k||_Q1^2
        delta/2 ||K u+ - v - c||^2 - <mu_k, v> + J(v) + 1/2 ||v - v_k||_Q2^2

    with Q1 = (1/tau1) I - delta K*K and Q2 = (1/tau2) I - delta I.
    Returns the state, mu_k, both solutions as flat vectors and the
    multiplier update mu_k + delta F(u+, v+) as BlockVector arithmetic."""
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
    # consistent dual pair: mu_k produced by the multiplier update
    mu_k = mu_prev + delta * F.evaluate(u_k, v_k)

    cfg = SolverConfig(delta=delta, theta=0.9, max_iterations=1,
                       power_iter_tol=1e-14, power_iter_max=5000)
    solver = AdmmSolver(F, QuadraticAnchorProx(anchor_u, wh),
                        QuadraticAnchorProx(anchor_v, wj), cfg)
    state = solver.step(SolverState(u=u_k, v=v_k, mu=mu_k, mu_prev=mu_prev))

    eye = np.eye(n, dtype=complex)
    khk = k.conj().T @ k
    q1 = (1.0 / state.tau1) * eye - delta * khk
    m_u = delta * khk + wh * eye + q1
    rhs_u = (delta * k.conj().T @ ravel(c + v_k) - k.conj().T @ ravel(mu_k)
             + wh * ravel(anchor_u) + q1 @ ravel(u_k))

    q2 = (1.0 / state.tau2) * eye - delta * eye
    c2 = ravel(c - from_ravel(k @ ravel(state.u), shapes))
    m_v = delta * eye + wj * eye + q2
    rhs_v = (-delta * c2 + ravel(mu_k)
             + wj * ravel(anchor_v) + q2 @ ravel(v_k))

    mu_direct = mu_k + delta * F.evaluate(state.u, state.v)
    return (state, mu_k, np.linalg.solve(m_u, rhs_u),
            np.linalg.solve(m_v, rhs_v), mu_direct)


def reference_admm_step(solver, state: SolverState) -> SolverState:
    """Reference ``AdmmSolver.step``: each update as BlockVector
    arithmetic, the same operations in the same order, so the states
    agree bit for bit.  On a separable G it is the u-step, then the
    reference dual-first mu-half at G(u^{k+1}); on ``ExplicitV`` its
    tau2 is 1/delta."""
    cfg = solver.cfg
    F = solver.constraint
    separable = isinstance(F, SeparableOperator)

    a = F.jac(state.u) if separable else F.jac_u(state.u, state.v)
    tau1, eig_a = solver.step_size(a, state.eig_a)
    mu_bar = (state.mu if state.mu_prev is None
              else 2.0 * state.mu - state.mu_prev)
    u_new = solver.prox_h.apply(state.u - tau1 * a.adjoint(mu_bar), tau1)
    del a

    if separable:
        mu_new, residual = reference_ascend(
            solver.prox_j, cfg.delta, F.evaluate(u_new), state.mu)
        return SolverState(
            u=u_new, v=None, mu=mu_new, mu_prev=state.mu, k=state.k + 1,
            tau1=tau1, tau2=1.0 / cfg.delta, residual=residual, eig_a=eig_a,
        )

    b = F.jac_v(u_new, state.v)
    if isinstance(F, ExplicitV):
        tau2, eig_b = 1.0 / cfg.delta, None
    else:
        tau2, eig_b = solver.step_size(b, state.eig_b)
    v_new = solver.prox_j.apply(
        state.v - tau2 * b.adjoint(
            state.mu + cfg.delta * F.evaluate(u_new, state.v)),
        tau2,
    )

    full_res = F.evaluate(u_new, v_new)
    mu_new = state.mu + cfg.delta * full_res
    return SolverState(
        u=u_new, v=v_new, mu=mu_new, mu_prev=state.mu,
        k=state.k + 1, tau1=tau1, tau2=tau2, residual=full_res.norm(),
        eig_a=eig_a, eig_b=eig_b,
    )


def reference_ascend(prox_j, delta, g_u, mu):
    """Reference :func:`padmm.pdhgm.ascend` at g_u = G(u), with the
    conjugate resolvent written out as w - delta prox(w / delta)."""
    b = mu + delta * g_u
    mu_new = b - delta * prox_j.apply((1.0 / delta) * b, 1.0 / delta)
    return mu_new, (mu_new - mu).norm() / delta


def sign_flipped_conjugate_apply(prox, w, delta):
    """:func:`padmm.prox.conjugate_apply` with Moreau's step mistaken,
    w + delta prox(w / delta) in place of w - delta prox(w / delta): a
    wrong dual-first mu-half that the ADMM on ``ExplicitV`` never runs."""
    p = prox.apply((1.0 / delta) * w, 1.0 / delta)
    for wi, pi in zip(w.blocks, p.blocks):
        wi += delta * pi
    return w


def reference_pdhgm_step(solver, state: SolverState) -> SolverState:
    """Reference ``PdhgmSolver.step``: the mu-half, then the u-step."""
    p, cfg = solver.problem, solver.cfg
    mu_new, residual = reference_ascend(
        p.prox_j, cfg.delta, p.g.evaluate(state.u), state.mu)

    jac = p.g.jac(state.u)
    tau1, eig_a = solver.step_size(jac, state.eig_a)
    mu_bar = 2.0 * mu_new - state.mu
    u_new = p.prox_h.apply(state.u - tau1 * jac.adjoint(mu_bar), tau1)
    return SolverState(
        u=u_new, v=None, mu=mu_new, mu_prev=None, k=state.k + 1,
        tau1=tau1, tau2=1.0 / cfg.delta, residual=residual, eig_a=eig_a,
    )


def encode_interleaved(arr) -> bytes:
    """Reference ``.pad`` block encoder: real and imaginary parts
    interleaved by hand through a little-endian float64 buffer."""
    arr = np.asarray(arr, dtype=np.complex128)
    inter = np.empty(arr.size * 2, dtype="<f8")
    inter[0::2] = arr.real.ravel()
    inter[1::2] = arr.imag.ravel()
    return inter.tobytes()


def decode_interleaved(buf: bytes, shape) -> np.ndarray:
    """Reference ``.pad`` block decoder; the parts are assigned, never
    formed as re + 1j*im, which would flip the sign of negative zeros."""
    inter = np.frombuffer(buf, dtype="<f8")
    out = np.empty(inter.size // 2, dtype=np.complex128)
    out.real = inter[0::2]
    out.imag = inter[1::2]
    return out.reshape(shape)


def parse_metrics(text: str) -> dict:
    """``key: value`` lines of a metrics report, values as strings."""
    out = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition(": ")
        out[key] = value
    return out


def stamp_spiral(size: int, turns: float, thickness: float) -> np.ndarray:
    """Centered one-armed Archimedean spiral with given line thickness,
    stamped offset by offset: the reference for the distance field that
    :func:`padmm.phantom.spiral_mask` thresholds."""
    center = (size - 1) / 2.0
    r_max = math.sqrt(2.0) * size / 2.0
    theta_max = 2.0 * math.pi * turns
    half = thickness / 2.0
    win = max(int(math.ceil(half)), 0)

    # uniform theta sampling fine enough for ~0.3 px arc steps outermost
    n_samples = max(int(theta_max * r_max / 0.3), 64)
    theta = np.linspace(0.0, theta_max, n_samples)
    r = r_max * theta / theta_max
    px = center + r * np.cos(theta)
    py = center + r * np.sin(theta)
    i0 = np.rint(py).astype(np.int64)
    j0 = np.rint(px).astype(np.int64)

    mask = np.zeros((size, size), dtype=bool)
    for di in range(-win, win + 1):
        for dj in range(-win, win + 1):
            i, j = i0 + di, j0 + dj
            close = ((i - py) ** 2 + (j - px) ** 2) <= half ** 2 + 0.25
            keep = close & (i >= 0) & (i < size) & (j >= 0) & (j < size)
            mask[i[keep], j[keep]] = True
    mask[int(round(center)), int(round(center))] = True
    return mask


def stamped_spiral_mask(spec, size: int) -> np.ndarray:
    """Reference :func:`padmm.phantom.spiral_mask`: the same bisection on
    the thickness, with every trial thickness stamped afresh."""
    if spec.fraction >= 1.0:
        return np.ones((size, size), dtype=np.float64)

    lo, hi = 0.0, 1.0
    for _ in range(20):
        if stamp_spiral(size, spec.turns, hi).mean() >= spec.fraction:
            break
        hi *= 2.0
    else:
        raise MaskFractionError("spiral cannot reach the requested fraction")

    for _ in range(40):
        mid = 0.5 * (lo + hi)
        centered = stamp_spiral(size, spec.turns, mid)
        frac = centered.mean()
        if abs(frac - spec.fraction) <= FRACTION_TOL:
            return np.fft.ifftshift(centered.astype(np.float64))
        if frac < spec.fraction:
            lo = mid
        else:
            hi = mid
    raise MaskFractionError(
        f"search ended {abs(frac - spec.fraction):.3f} away from target")
