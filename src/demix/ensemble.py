"""Problem instances for joint blind deconvolution / blind demixing.

An instance couples r "users". User i has a tall subspace matrix B_i
(L x K_i, complex, orthonormal columns), a coding matrix A_i (L x N_i,
real), and ground-truth vectors h_i (K_i) and x_i (N_i). The observation
is the single length-L vector

    y = sum_i diag(B_i h_i) A_i x_i + noise,

i.e. component-wise products of B_i h_i and A_i x_i summed over users.

Conventions
-----------
* The partial DFT matrix uses 1-based frequency labels:
  B[l, k] = exp(-2*pi*i * l * k / L) / sqrt(L) with l = 1..L, k = 1..K
  (stored 0-based, so row s holds label l = s + 1). Its columns are
  orthonormal exactly, not just in the limit.
* b_{i,l} denotes the l-th column of B_i^* (the conjugate of row l of
  B_i), so that (B_i h)_l = b_{i,l}^* h.
* RNG streams are split deterministically from one 64-bit master seed:
  every sub-object draws from default_rng(SeedSequence([seed, TAG, i]))
  with a fixed small TAG per role. Scheduling order can never change
  what gets generated.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError

# B kinds
PARTIAL_DFT = "dft"
GENERIC_ORTHO = "ortho"
# A kinds
GAUSSIAN = "gaussian"
RAND_HADAMARD = "hadamard"

B_KINDS = (PARTIAL_DFT, GENERIC_ORTHO)
A_KINDS = (GAUSSIAN, RAND_HADAMARD)

# RNG stream tags (documented, fixed forever; see module docstring)
TAG_B = 1
TAG_A = 2
TAG_H = 3
TAG_X = 4
TAG_NOISE = 5
TAG_TRIAL = 7

_MASK64 = (1 << 64) - 1


def substream(seed, *key):
    """Deterministic child generator for (seed, key...).

    Counter-based splitting: the child stream is seeded by the entropy
    sequence [seed, key...], so distinct keys give independent streams
    and the same key always reproduces the same stream.
    """
    entropy = [int(seed) & _MASK64] + [int(k) & _MASK64 for k in key]
    return np.random.default_rng(np.random.SeedSequence(entropy))


# ----------------------------------------------------------------------
# Partial DFT with 1-based labels.


def partial_dft_matrix(L, K):
    """Dense L x K unitary partial DFT, B[l,k] = w^(lk)/sqrt(L), 1-based."""
    if not (1 <= K <= L):
        raise DimensionError(f"need 1 <= K <= L, got K={K}, L={L}")
    l = np.arange(1, L + 1).reshape(-1, 1)
    k = np.arange(1, K + 1).reshape(1, -1)
    return np.exp((-2j * np.pi / L) * (l * k)) / math.sqrt(L)


# ----------------------------------------------------------------------
# Walsh–Hadamard


def fwht(v):
    """Fast Walsh–Hadamard transform along axis 0 (Sylvester ordering).

    Input length must be a power of two. Works on vectors or matrices
    (each column transformed). Returns H_L @ v without forming H_L.
    """
    a = np.array(v, dtype=np.result_type(v, np.float64), copy=True)
    L = a.shape[0]
    if L & (L - 1) or L == 0:
        raise DimensionError(f"length {L} is not a power of two")
    tail = a.shape[1:]
    h = 1
    while h < L:
        a = a.reshape(-1, 2, h, *tail)
        top = a[:, 0] + a[:, 1]
        bot = a[:, 0] - a[:, 1]
        a = np.stack((top, bot), axis=1).reshape(L, *tail)
        h *= 2
    return a


def walsh_hadamard_columns(L, N):
    """First N columns of the L x L Walsh–Hadamard matrix (entries +-1)."""
    if not (1 <= N <= L):
        raise DimensionError(f"need 1 <= N <= L, got N={N}, L={L}")
    E = np.zeros((L, N))
    E[np.arange(N), np.arange(N)] = 1.0
    return fwht(E)


# ----------------------------------------------------------------------
# Matrix factories


def make_partial_dft_B(L, K, seed=None):
    """Partial DFT subspace matrix (deterministic; seed ignored)."""
    return partial_dft_matrix(L, K)


def make_generic_ortho_B(L, K, rng):
    """Orthonormal L x K basis from QR of a complex Gaussian draw.

    Columns are phase-fixed (diagonal of R made real positive) so the
    output is a deterministic function of the stream.
    """
    if not (1 <= K <= L):
        raise DimensionError(f"need 1 <= K <= L, got K={K}, L={L}")
    Z = (rng.standard_normal((L, K)) + 1j * rng.standard_normal((L, K))) / math.sqrt(2)
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R)
    absd = np.abs(d)
    phase = np.where(absd > 0, d / np.where(absd > 0, absd, 1.0), 1.0)
    return Q * phase[None, :]


def make_gaussian_A(L, N, rng):
    """Real i.i.d. standard-normal coding matrix."""
    if L < 1 or N < 1:
        raise DimensionError(f"need positive dims, got L={L}, N={N}")
    return rng.standard_normal((L, N))


def make_rand_hadamard_A(L, N, rng):
    """D @ H coding matrix: H = first N Walsh–Hadamard columns, D random +-1 diagonal."""
    if L & (L - 1) or L == 0:
        raise DimensionError(f"Hadamard coding needs L a power of two, got L={L}")
    H = walsh_hadamard_columns(L, N)
    D = rng.integers(0, 2, size=L) * 2.0 - 1.0
    return D[:, None] * H


# ----------------------------------------------------------------------
# Instances


@dataclass(frozen=True)
class EnsembleSpec:
    """Recipe for a random instance (everything but the seed)."""

    L: int
    dims: tuple  # ((K_1, N_1), ..., (K_r, N_r))
    b_kind: str = PARTIAL_DFT
    a_kind: str = GAUSSIAN
    eta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple((int(k), int(n)) for k, n in self.dims))
        if self.L < 1:
            raise DimensionError(f"L must be positive, got {self.L}")
        for k, n in self.dims:
            if k < 1 or n < 1:
                raise DimensionError(f"user dims must be positive, got ({k}, {n})")
        if self.b_kind not in B_KINDS:
            raise ConfigError(f"unknown B kind {self.b_kind!r}; choose from {B_KINDS}")
        if self.a_kind not in A_KINDS:
            raise ConfigError(f"unknown A kind {self.a_kind!r}; choose from {A_KINDS}")
        check_eta(self.eta)


@dataclass
class Ensemble:
    """A concrete problem instance. Treat as immutable once built."""

    L: int
    dims: tuple
    b_kind: str | None
    a_kind: str | None
    B: list
    A: list
    truth: list | None
    y: np.ndarray
    eta: float
    seed: int | None
    truth_overridden: bool = False

    @property
    def r(self):
        return len(self.dims)

    @property
    def sum_kn(self):
        return sum(k * n for k, n in self.dims)


def check_finite(**groups):
    """Raise ConfigError naming the first group of arrays with a NaN or an infinity."""
    for name, arrays in groups.items():
        if not all(np.isfinite(a).all() for a in arrays):
            raise ConfigError(f"{name} holds non-finite values")


def check_eta(eta):
    """Raise ConfigError unless the noise norm / ball radius eta is finite and >= 0."""
    if not (math.isfinite(eta) and eta >= 0):
        raise ConfigError(f"eta must be finite and nonnegative, got {eta}")


def add_noise(y, eta, seed):
    """y plus a complex noise vector of norm eta drawn from substream(seed,
    TAG_NOISE) (real and imaginary parts from one 2L standard normal draw);
    y itself when eta is 0."""
    if eta == 0:
        return y
    L = len(y)
    w = substream(seed, TAG_NOISE).standard_normal(2 * L)
    w = w[:L] + 1j * w[L:]
    return y + w * (eta / np.linalg.norm(w))


def noiseless_synthesis(B, A, truth, L=None):
    """sum_i (B_i h_i) .* (A_i conj(x_i)) as a complex L-vector.

    This is the image of the lifted truth under the measurement map: row l
    reads b_l^* (h_i x_i^*) a_l = (B_i h_i)_l (A_i conj(x_i))_l.  For the
    real x_i of the standard ensembles the conjugate is a no-op and the
    formula is literally sum_i diag(B_i h_i) A_i x_i.
    """
    if L is None:
        if not B:
            raise DimensionError("need L for an instance with no users")
        L = B[0].shape[0]
    y = np.zeros(L, dtype=complex)
    for Bi, Ai, (h, x) in zip(B, A, truth):
        y = y + (Bi @ h) * (Ai @ np.conj(x))
    return y


def _check_truth(truth, dims):
    """Raise DimensionError unless truth holds one (K_i,), (N_i,) pair per user."""
    if len(truth) != len(dims):
        raise DimensionError(f"truth has {len(truth)} users, dims has {len(dims)}")
    for (h, x), (K, N) in zip(truth, dims):
        if h.shape != (K,) or x.shape != (N,):
            raise DimensionError(
                f"truth shapes {h.shape}/{x.shape} do not match dims ({K}, {N})"
            )


def synthesize(spec, seed, truth=None):
    """Draw a full instance from a spec and a 64-bit master seed.

    `truth` overrides the random ground truth with caller-supplied
    (h_i, x_i) pairs; matrices and noise still come from the seed.
    """
    if not isinstance(spec, EnsembleSpec):
        spec = EnsembleSpec(**spec)
    seed = int(seed)
    B, A = [], []
    for i, (K, N) in enumerate(spec.dims):
        if spec.b_kind == PARTIAL_DFT:
            B.append(make_partial_dft_B(spec.L, K))
        else:
            B.append(make_generic_ortho_B(spec.L, K, substream(seed, TAG_B, i)))
        if spec.a_kind == GAUSSIAN:
            A.append(make_gaussian_A(spec.L, N, substream(seed, TAG_A, i)))
        else:
            A.append(make_rand_hadamard_A(spec.L, N, substream(seed, TAG_A, i)))
    overridden = truth is not None
    if overridden:
        truth = [(np.asarray(h), np.asarray(x)) for h, x in truth]
        _check_truth(truth, spec.dims)
    else:
        truth = [
            (
                substream(seed, TAG_H, i).standard_normal(K),
                substream(seed, TAG_X, i).standard_normal(N),
            )
            for i, (K, N) in enumerate(spec.dims)
        ]
    y = add_noise(noiseless_synthesis(B, A, truth, L=spec.L), spec.eta, seed)
    return Ensemble(
        L=spec.L,
        dims=spec.dims,
        b_kind=spec.b_kind,
        a_kind=spec.a_kind,
        B=B,
        A=A,
        truth=truth,
        y=y,
        eta=float(spec.eta),
        seed=seed,
        truth_overridden=overridden,
    )


def make_ensemble(L, dims, b_kind=PARTIAL_DFT, a_kind=GAUSSIAN, eta=0.0, seed=0, truth=None):
    """Convenience wrapper: build the spec and synthesize in one call."""
    return synthesize(EnsembleSpec(L=L, dims=tuple(dims), b_kind=b_kind, a_kind=a_kind, eta=eta), seed, truth=truth)


def from_matrices(B, A, truth, eta=0.0, seed=None):
    """Instance from explicit matrices (for synthetic constructions).

    No orthonormality is enforced on B here; diagnostics that assume
    B^* B = I will simply report what they see.
    """
    B = [np.asarray(Bi) for Bi in B]
    A = [np.asarray(Ai) for Ai in A]
    if len(B) != len(A) or len(B) != len(truth):
        raise DimensionError("B, A, truth must have one entry per user")
    if not B:
        raise DimensionError("need at least one user")
    L = B[0].shape[0]
    dims = []
    for Bi, Ai, (h, x) in zip(B, A, truth):
        if Bi.shape[0] != L or Ai.shape[0] != L:
            raise DimensionError("all matrices must have L rows")
        if Bi.shape[1] != len(h) or Ai.shape[1] != len(x):
            raise DimensionError("truth lengths must match matrix widths")
        dims.append((Bi.shape[1], Ai.shape[1]))
    truth = [(np.asarray(h), np.asarray(x)) for h, x in truth]
    check_finite(B=B, A=A, truth=[v for pair in truth for v in pair])
    check_eta(eta)
    y = add_noise(noiseless_synthesis(B, A, truth, L=L), eta, 0 if seed is None else seed)
    return Ensemble(
        L=L,
        dims=tuple(dims),
        b_kind=None,
        a_kind=None,
        B=B,
        A=A,
        truth=truth,
        y=y,
        eta=float(eta),
        seed=seed,
        truth_overridden=True,
    )


# ----------------------------------------------------------------------
# Serialization (JSON; lossless round-trip)


def _arr_to_json(a):
    a = np.asarray(a)
    entry = {"shape": list(a.shape)}
    if np.iscomplexobj(a):
        entry["re"] = a.real.reshape(-1).tolist()
        entry["im"] = a.imag.reshape(-1).tolist()
    else:
        entry["re"] = a.astype(float).reshape(-1).tolist()
    return entry


def _arr_from_json(entry):
    re = np.array(entry["re"], dtype=float)
    if "im" in entry:
        a = re + 1j * np.array(entry["im"], dtype=float)
    else:
        a = re
    return a.reshape(entry["shape"])


def save_ensemble(ens, path):
    """Write an instance to JSON. Seeded instances store the recipe only."""
    doc = {
        "format": "demix-ensemble",
        "version": 1,
        "L": ens.L,
        "dims": [list(d) for d in ens.dims],
        "b_kind": ens.b_kind,
        "a_kind": ens.a_kind,
        "eta": ens.eta,
        "seed": ens.seed,
    }
    explicit = ens.b_kind is None or ens.a_kind is None or ens.seed is None
    doc["explicit"] = explicit
    if explicit:
        doc["B"] = [_arr_to_json(Bi) for Bi in ens.B]
        doc["A"] = [_arr_to_json(Ai) for Ai in ens.A]
        doc["y"] = _arr_to_json(ens.y)
        if ens.truth is not None:
            doc["truth"] = [[_arr_to_json(h), _arr_to_json(x)] for h, x in ens.truth]
    elif ens.truth_overridden:
        doc["truth"] = [[_arr_to_json(h), _arr_to_json(x)] for h, x in ens.truth]
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _check_explicit_shapes(L, dims, B, A, y, truth):
    """Raise DimensionError unless an explicit file's arrays agree with L and dims."""
    if not len(dims) == len(B) == len(A):
        raise DimensionError(
            f"user counts disagree: dims {len(dims)}, B {len(B)}, A {len(A)}"
        )
    for i, (K, N) in enumerate(dims):
        if B[i].shape != (L, K) or A[i].shape != (L, N):
            raise DimensionError(
                f"user {i}: B is {B[i].shape} and A is {A[i].shape}, "
                f"expected ({L}, {K}) and ({L}, {N})"
            )
    if truth is not None:
        _check_truth(truth, dims)
    if y.shape != (L,):
        raise DimensionError(f"y has shape {y.shape}, expected ({L},)")


def load_ensemble(path):
    """Inverse of save_ensemble: regenerate (seeded) or rebuild (explicit)."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("format") != "demix-ensemble":
        raise ConfigError(f"{path} is not an ensemble file")
    dims = tuple((int(k), int(n)) for k, n in doc["dims"])
    try:
        eta = float(doc["eta"])
    except (TypeError, ValueError):
        raise ConfigError(f"{path}: eta must be a number, got {doc['eta']!r}") from None
    if doc.get("explicit"):
        B = [_arr_from_json(e) for e in doc["B"]]
        A = [_arr_from_json(e) for e in doc["A"]]
        truth = None
        if "truth" in doc:
            truth = [(_arr_from_json(h), _arr_from_json(x)) for h, x in doc["truth"]]
        y = _arr_from_json(doc["y"])
        L = int(doc["L"])
        _check_explicit_shapes(L, dims, B, A, y, truth)
        check_finite(B=B, A=A, y=[y], truth=[v for pair in truth or () for v in pair])
        check_eta(eta)
        return Ensemble(
            L=L,
            dims=dims,
            b_kind=doc["b_kind"],
            a_kind=doc["a_kind"],
            B=B,
            A=A,
            truth=truth,
            y=y,
            eta=eta,
            seed=doc["seed"],
            truth_overridden=True,
        )
    spec = EnsembleSpec(
        L=int(doc["L"]),
        dims=dims,
        b_kind=doc["b_kind"],
        a_kind=doc["a_kind"],
        eta=eta,
    )
    truth = None
    if "truth" in doc:
        truth = [(_arr_from_json(h), _arr_from_json(x)) for h, x in doc["truth"]]
    return synthesize(spec, doc["seed"], truth=truth)
