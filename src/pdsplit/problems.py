"""Reproducible benchmark instances and tiny analytic problems for oracle tests.

Instance generation is pure given (sizes, seed): sampling uses numpy's PCG64
generator with a fixed stream order (design matrix row-major, then the ground
truth, then the noise), so regenerating with the same seed is bit-identical
across runs and machines.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import json
import os
import stat
import sys
import tempfile
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .algorithms import AlgorithmId, StepSizes, solve
from .core import INF, ProblemSpec, SmoothTerm, zero_conjugate_smooth
from .linops import DenseMatrixOp, DifferenceOp, IdentityOp, ScaledIdentityOp
from .algorithms import estimate_norm_AAt  # noqa: F401 -- bench/tracer.py rebinds this name
from .prox import l1, squared_l2, zero_prox

CACHE_ENV_VAR = "PDSPLIT_CACHE_DIR"


def quadratic_distance_term(c) -> SmoothTerm:
    """f(x) = ||x - c||^2 / 2; the gradient is x - c, cocoercive with beta = 1."""
    c = np.asarray(c, dtype=float)
    return SmoothTerm(
        value=lambda x: 0.5 * float(np.vdot(x - c, x - c)),
        gradient=lambda x: x - c,
        beta=1.0,
    )


def least_squares_term(A, b, ridge: float = 0.0) -> SmoothTerm:
    """f(x) = ||A x - b||^2 / 2 + ridge * ||x||^2, with a declared beta.

    beta is 1 / (B + 2*ridge), with B the certified upper bound on ||A^T A||
    from ``DenseMatrixOp.norm_AAt_bound``, so the declared cocoercivity holds.

    The gradient keeps the bytes of its latest point with its residual
    r = A x - b.  ``residual`` returns the stored r at a point with exactly
    those bytes and computes A x - b otherwise, and ``value`` is
    ``value_from_residual(residual(x), x)``, so f at the iterate whose
    gradient a solver just took costs no matvec.  The reused r is the array
    the same expression produced from the same input, so values are
    bit-identical to a fresh evaluation.
    """
    A = np.ascontiguousarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    beta = 1.0 / (DenseMatrixOp(A).norm_AAt_bound() + 2.0 * ridge)
    # (bytes, residual) of the latest gradient point; replaced whole, never edited
    memo = (None, None)

    def residual(x):
        key, r = memo
        if np.asarray(x, dtype=float).tobytes() == key:
            return r
        return A @ x - b

    def value_from_residual(r, x):
        out = 0.5 * float(np.vdot(r, r))
        if ridge:
            out += ridge * float(np.vdot(x, x))
        return out

    def gradient(x):
        nonlocal memo
        r = A @ x - b
        memo = (np.asarray(x, dtype=float).tobytes(), r)
        g = A.T @ r
        if ridge:
            g = g + 2.0 * ridge * x
        return g

    return SmoothTerm(value=lambda x: value_from_residual(residual(x), x),
                      gradient=gradient, beta=beta, residual=residual,
                      value_from_residual=value_from_residual)


def _instance_key(descriptor: dict) -> str:
    payload = json.dumps(descriptor, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


@dataclass(frozen=True)
class ProblemInstance:
    """A generated benchmark problem plus the constants solvers need."""

    spec: ProblemSpec
    beta: float
    norm_AAt: float  # of the operator coupled to h
    descriptor: dict
    instance_key: str


@dataclass(frozen=True)
class FusedLassoInstance(ProblemInstance):
    A: np.ndarray
    b: np.ndarray
    x_true: np.ndarray
    mu1: float
    mu2: float
    seed: int


@dataclass(frozen=True)
class ElasticNetInstance(ProblemInstance):
    A: np.ndarray
    b: np.ndarray
    mu1: float
    mu2: float
    a_scale: float
    seed: int
    tau_f: float
    tau_g: float
    tau_lstar: float
    L_g: float

    def tau_hstar(self, gamma: float, delta: float) -> float:
        """Strong-monotonicity modulus of h* measured in the dual metric.

        h* = ||.||^2 / 2 is 1-strongly monotone in the Euclidean norm; the
        metric rescales that to delta / (gamma * (1 - gamma*delta*a_scale^2)),
        which requires the metric to be positive definite.
        """
        margin = 1.0 - gamma * delta * self.a_scale**2
        if margin <= 0:
            raise ValueError("dual metric is singular: gamma*delta*||AA^T|| >= 1")
        return delta / (gamma * margin)

    def analytic_solution(self) -> tuple[np.ndarray, np.ndarray]:
        """Exact primal/dual optimum; only available for the smooth case mu1 = 0.

        Solves (A^T A + (2*mu2 + a_scale^2) I) x = A^T b directly, with the
        dual s = a_scale * x.
        """
        if self.mu1 != 0.0:
            raise ValueError("closed form requires mu1 = 0")
        gram = self.A.T @ self.A + (2.0 * self.mu2 + self.a_scale**2) * np.eye(
            self.A.shape[1]
        )
        x = np.linalg.solve(gram, self.A.T @ self.b)
        return x, self.a_scale * x


@dataclass(frozen=True)
class ToyQuadraticInstance(ProblemInstance):
    c: np.ndarray
    seed: int


def gen_fused_lasso(
    n: int = 500,
    p: int = 10000,
    seed: int = 0,
    noise_var: float = 0.01,
    mu1: float = 20.0,
    mu2: float = 200.0,
) -> FusedLassoInstance:
    """Least squares + l1 on coefficients + l1 on consecutive differences.

    The design matrix is iid standard Gaussian.  The ground truth is piecewise
    constant over 20 equal blocks with values drawn from {-1, 0, 1} (zero with
    probability 1/2, each sign 1/4), and b = A x_true + Gaussian noise of the
    given variance.  The declared beta is the reciprocal of a certified upper
    bound on ||A^T A||, and ``norm_AAt`` is the closed-form ||D D^T|| of the
    difference operator, rounded up (``LinearMap.norm_AAt_bound``).
    """
    if n < 2 or p < 2:
        raise ValueError("need n, p >= 2")
    if not (0 < noise_var < INF and 0 < mu1 < INF and 0 < mu2 < INF):
        raise ValueError("noise_var, mu1, mu2 must be finite and positive")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, p))
    n_blocks = min(20, p)
    values = rng.choice(np.array([-1.0, 0.0, 1.0]), size=n_blocks, p=(0.25, 0.5, 0.25))
    base, rem = divmod(p, n_blocks)
    lengths = [base + 1] * rem + [base] * (n_blocks - rem)
    x_true = np.repeat(values, lengths)
    b = A @ x_true + rng.normal(0.0, np.sqrt(noise_var), size=n)

    f = least_squares_term(A, b)
    D = DifferenceOp(p)
    norm_D = D.norm_AAt_bound()
    descriptor = {
        "kind": "fused-lasso", "n": n, "p": p, "seed": seed,
        "noise_var": noise_var, "mu1": mu1, "mu2": mu2,
    }
    spec = ProblemSpec(f=f, g=l1(mu1), h=l1(mu2), lstar=zero_conjugate_smooth(), A=D)
    return FusedLassoInstance(
        spec=spec, beta=f.beta, norm_AAt=norm_D, descriptor=descriptor,
        instance_key=_instance_key(descriptor), A=A, b=b, x_true=x_true,
        mu1=mu1, mu2=mu2, seed=seed,
    )


def gen_elastic_net_strongly_convex(
    n: int = 50,
    p: int = 50,
    seed: int = 0,
    mu1: float = 0.0,
    mu2: float = 1.0,
    a_scale: float = 1.0,
) -> ElasticNetInstance:
    """Ridge-regularized least squares with an l1 term and a quadratic dual term.

    f = ||A x - b||^2 / 2 + mu2 * ||x||^2 is strongly convex with
    tau_f = lambda_min(A^T A) + 2*mu2 (dense eigensolve; this generator is for
    desk scale) and the beta of ``least_squares_term``, the reciprocal of a
    certified bound on ||A^T A|| plus 2*mu2.  g = mu1 * ||.||_1, and
    h = ||.||^2 / 2 composed with a_scale * I so the dual block contracts too.
    The moduli needed by the linear-rate factor are attached.  g has a
    Lipschitz gradient only when mu1 = 0; for mu1 > 0 the declared L_g is
    infinite and no linear-rate certificate is claimed.
    """
    if n < 2 or p < 2:
        raise ValueError("need n, p >= 2")
    if not (0 <= mu1 < INF and 0 <= mu2 < INF and 0 < a_scale < INF):
        raise ValueError("need finite mu1, mu2 >= 0 and a finite a_scale > 0")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, p))
    x_true = rng.standard_normal(p)
    b = A @ x_true + 0.1 * rng.standard_normal(n)

    lam_min = max(float(np.linalg.eigvalsh(A.T @ A)[0]), 0.0)
    f = least_squares_term(A, b, ridge=mu2)
    g = l1(mu1) if mu1 > 0 else zero_prox()
    descriptor = {
        "kind": "elastic-net", "n": n, "p": p, "seed": seed,
        "mu1": mu1, "mu2": mu2, "a_scale": a_scale,
    }
    spec = ProblemSpec(
        f=f, g=g, h=squared_l2(0.5), lstar=zero_conjugate_smooth(),
        A=ScaledIdentityOp(p, a_scale),
    )
    return ElasticNetInstance(
        spec=spec, beta=f.beta, norm_AAt=spec.A.norm_AAt_bound(), descriptor=descriptor,
        instance_key=_instance_key(descriptor), A=A, b=b, mu1=mu1, mu2=mu2,
        a_scale=a_scale, seed=seed,
        tau_f=lam_min + 2.0 * mu2, tau_g=0.0, tau_lstar=0.0,
        L_g=0.0 if mu1 == 0 else INF,
    )


def gen_toy_quadratic(dim: int = 10, seed: int = 0) -> ToyQuadraticInstance:
    """Unconstrained quadratic ||x - c||^2 / 2 with g = h = 0 and A = I."""
    if dim < 1:
        raise ValueError("dim must be positive")
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(dim)
    descriptor = {"kind": "toy-quadratic", "n": dim, "seed": seed}
    spec = ProblemSpec(
        f=quadratic_distance_term(c), g=zero_prox(), h=zero_prox(),
        lstar=zero_conjugate_smooth(), A=IdentityOp(dim),
    )
    return ToyQuadraticInstance(
        spec=spec, beta=1.0, norm_AAt=spec.A.norm_AAt_bound(), descriptor=descriptor,
        instance_key=_instance_key(descriptor), c=c, seed=seed,
    )


# --- long-run reference solutions with a disk cache ----------------------------


@dataclass(frozen=True)
class ReferenceSolution:
    x: np.ndarray
    s: np.ndarray
    objective: float


AT_FDCWD = -100
RENAME_EXCHANGE = 2
# libc's renameat2, or None off Linux or in a libc without it
_renameat2 = (getattr(ctypes.CDLL(None, use_errno=True), "renameat2", None)
              if sys.platform == "linux" else None)
if _renameat2 is not None:
    _renameat2.argtypes = (ctypes.c_int, ctypes.c_char_p) * 2 + (ctypes.c_uint,)
    _renameat2.restype = ctypes.c_int


def _exchange(tmp: str, path: Path) -> bool:
    """Swap the names ``tmp`` and ``path`` in one step if ``path`` is a
    regular file; False, with nothing moved, where that cannot be done."""
    try:
        if _renameat2 is None or not stat.S_ISREG(os.lstat(path).st_mode):
            return False
    except OSError:  # nothing at path
        return False
    return _renameat2(AT_FDCWD, os.fsencode(tmp), AT_FDCWD, os.fsencode(path),
                      RENAME_EXCHANGE) == 0


@contextlib.contextmanager
def atomic_file(path: Path, mode: str = "w"):
    """A temporary file in ``path``'s directory that takes ``path``'s place
    when the block ends, so that ``path`` always holds one complete version;
    if the block or the rename fails, the temporary file is removed.

    Over an existing regular file the names are swapped in one step (Linux
    ``renameat2`` with ``RENAME_EXCHANGE``) and the old file, now at the
    temporary name, is unlinked: a rename over a file makes ext4
    (``auto_da_alloc``) write the new data out first, tens of milliseconds a
    file, and an exchange does not.  Anything else (a new path, a directory,
    a symlink, no ``renameat2``, a refused exchange) takes ``os.replace``.
    Nothing is fsynced, so after a power loss a file rewritten just before
    may be empty; a cache load counts that as a miss.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, mode) as fh:
            yield fh
        if _exchange(tmp, path):
            os.unlink(tmp)  # the old file
        else:
            os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def cache_directory(cache_dir=None) -> Path:
    if cache_dir is not None:
        return Path(cache_dir)
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "pdsplit"


def _load_reference(path: Path, instance_key: str) -> ReferenceSolution | None:
    """The cached reference at ``path``, or None if the file is missing, is
    for another instance, or is corrupt or truncated."""
    try:
        with open(path, "rb") as fh, np.load(fh) as data:
            if str(data["instance_key"]) != instance_key:
                return None
            return ReferenceSolution(x=data["x"], s=data["s"],
                                     objective=float(data["objective"]))
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
        return None


def reference_solution(
    instance: ProblemInstance, iters: int = 20000, cache_dir=None
) -> ReferenceSolution:
    """Near-optimal primal-dual pair from a long run, cached to disk.

    Uses gamma = 1.5*beta and gamma*delta*||A A^T|| = 0.5 internally, runs the
    plain iteration for ``iters`` iterations, and stores (x, s, objective) in
    an .npz keyed by the instance hash and iteration count.  A cache file
    that cannot be read counts as a miss and is rebuilt.  The cache write
    goes through ``atomic_file``: a concurrent reader finds the old file or
    the new one, never no file, so concurrent generation is safe.
    """
    if iters < 1:
        raise ValueError("iters must be positive")
    path = cache_directory(cache_dir) / f"ref-{instance.instance_key}-{iters}.npz"

    gamma = 1.5 * instance.beta
    norm = instance.norm_AAt
    delta = 0.5 / (gamma * norm) if norm > 0 else 1.0 / gamma

    cached = _load_reference(path, instance.instance_key)
    if cached is not None:
        return cached

    record = solve(instance.spec, AlgorithmId.PD3O, StepSizes(gamma, delta),
                   max_iters=iters, residual_tol=0.0, norm_AAt=norm, log_every=0)
    state = record.final_state
    ref = ReferenceSolution(x=state.x, s=state.s, objective=record.metadata["final_objective"])
    with atomic_file(path, "wb") as fh:
        np.savez(fh, x=ref.x, s=ref.s, objective=ref.objective, iters=iters,
                 gamma=gamma, delta=delta, instance_key=instance.instance_key)
    return ref
