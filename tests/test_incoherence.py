import numpy as np
import pytest

import demix
from demix import incoherence as inc
from demix import lifting as lf
from demix.errors import ConfigError, DimensionError, SingularGramError

from _oracles import (contiguous_partition, slow_local_isometry, slow_mutual_incoherence,
                      slow_phi)

RNG = np.random.default_rng(77)


def crandn(*shape):
    return RNG.standard_normal(shape) + 1j * RNG.standard_normal(shape)


def test_dft_partition_layout():
    part = inc.dft_partition(8, 2)
    assert part.P == 2 and part.Q == 4
    assert np.array_equal(part.block(0) + 1, [1, 3, 5, 7])
    assert np.array_equal(part.block(1) + 1, [2, 4, 6, 8])
    p1 = inc.dft_partition(10, 1)
    assert np.array_equal(p1.block(0), np.arange(10))
    with pytest.raises(DimensionError):
        inc.dft_partition(10, 3)
    with pytest.raises(DimensionError):
        inc.Partition(L=4, P=2, Q=2, blocks=(np.array([0, 1]), np.array([1, 3])))
    with pytest.raises(IndexError):
        part.block(2)


def test_default_partition():
    # largest P dividing L with Q >= max K
    part = inc.default_partition(64, 15)
    assert part.P == 4 and part.Q == 16
    part = inc.default_partition(50, 30)
    assert part.P == 1 and part.Q == 50
    part = inc.default_partition(128, 8)
    assert part.P == 16


def test_verify_partition():
    e = demix.make_ensemble(64, [(8, 4), (5, 6)], seed=1)
    for P in (1, 2, 4, 8):
        dev, ok = inc.verify_partition(e, inc.dft_partition(64, P))
        assert ok and dev <= 1e-12
    # contiguous blocks on a DFT instance concentrate energy; report only
    e2 = demix.make_ensemble(32, [(8, 4)], seed=2)
    dev, ok = inc.verify_partition(e2, contiguous_partition(32, 4))
    assert np.isfinite(dev) and isinstance(ok, bool)
    assert dev > 32 / (4 * 32) * 0.999  # far from the strided behaviour
    # blocks shorter than K: singular Grams, measured rather than rejected
    # (block_gram raises SingularGramError on them)
    e3 = demix.make_ensemble(16, [(5, 2)], seed=1)
    dev, ok = inc.verify_partition(e3, inc.dft_partition(16, 4))
    # rows 4 apart alias k = 1 and k = 5, so T has eigenvalues 0 and 2Q/L
    assert not ok and abs(dev - 4 / 16) <= 1e-12


def test_mu_max_min():
    e = demix.make_ensemble(50, [(30, 5)], seed=3)
    mx, mn = inc.mu_max_min(e)
    assert abs(mx - 1.0) < 1e-12 and abs(mn - 1.0) < 1e-12
    # concentrated orthonormal B attains the L/K ceiling
    L, K = 16, 4
    Bc = np.eye(L, dtype=complex)[:, :K]
    ec = demix.from_matrices([Bc], [np.ones((L, 2))], [(np.ones(K), np.ones(2))])
    mx, mn = inc.mu_max_min(ec)
    assert abs(mx - L / K) < 1e-12 and mn == 0.0
    # random orthonormal B: matches a direct row scan
    eo = demix.make_ensemble(32, [(4, 3)], b_kind="ortho", seed=4)
    vals = (32 / 4) * (np.abs(eo.B[0]) ** 2).sum(axis=1)
    mx, mn = inc.mu_max_min(eo)
    assert abs(mx - vals.max()) < 1e-12 and abs(mn - vals.min()) < 1e-12
    # invariant band for orthonormal columns
    assert 1.0 - 1e-9 <= mx <= 32 / 4 + 1e-9


def test_mu_h_values():
    # e_1 response on a DFT instance: flat spectrum, mu_h = 1
    e1 = demix.make_ensemble(32, [(8, 4)], seed=2, truth=[(np.eye(8)[0], np.ones(4))])
    val = inc.mu_h(e1, inc.dft_partition(32, 4))
    assert abs(val - 1.0) < 1e-9
    # m leading ones: plain branch peaks at the full-sum row, value m
    for m in (3, 5, 8):
        h = np.zeros(8)
        h[:m] = 1.0
        em = demix.make_ensemble(32, [(8, 4)], seed=2, truth=[(h, np.ones(4))])
        tot, b_part, b_plain = inc.mu_h(em, inc.dft_partition(32, 4), return_branches=True)
        assert abs(b_plain - m) < 1e-9
        assert abs(tot - m) < 1e-9
    with pytest.raises(SingularGramError):
        inc.mu_h(demix.make_ensemble(16, [(5, 2)], seed=1), inc.dft_partition(16, 4))


def test_mu_h_range_on_verified_draws():
    # 1 <= mu_h^2 <= (16/9) mu_max^2 K whenever the partition verifies
    rng = np.random.default_rng(6)
    checked = 0
    for t in range(60):
        L = int(rng.choice([16, 24, 32, 48, 64]))
        P = int(rng.choice([p for p in (1, 2, 4) if L % p == 0]))
        K = int(rng.integers(1, L // P + 1))
        kind = "dft" if t % 2 == 0 else "ortho"
        part = inc.dft_partition(L, P) if kind == "dft" else inc.dft_partition(L, 1)
        e = demix.make_ensemble(L, [(K, 2)], b_kind=kind, seed=900 + t)
        dev, ok = inc.verify_partition(e, part)
        if not ok:
            continue
        checked += 1
        mu_max_sq, _ = inc.mu_max_min(e)
        val = inc.mu_h(e, part)
        assert val >= 1.0 - 1e-9
        assert val <= (16.0 / 9.0) * mu_max_sq * K * (1 + 1e-9)
    assert checked >= 40


def test_projections():
    h = crandn(4)
    x = crandn(5)
    ts = inc.TangentSpace.from_vectors(0, h, x)
    Z = crandn(4, 5)
    pt = inc.project_T(ts, Z)
    pp = inc.project_Tperp(ts, Z)
    # complementary, idempotent, mutually annihilating, Pythagorean
    assert np.abs(pt + pp - Z).max() < 1e-12
    assert np.abs(inc.project_T(ts, pt) - pt).max() < 1e-12
    assert np.abs(inc.project_Tperp(ts, pp) - pp).max() < 1e-12
    assert np.abs(inc.project_T(ts, pp)).max() < 1e-12
    assert abs(np.linalg.norm(Z) ** 2 - np.linalg.norm(pt) ** 2 - np.linalg.norm(pp) ** 2) < 1e-12 * np.linalg.norm(Z) ** 2
    # h x^* lives in T
    hx = np.outer(ts.h, ts.x.conj())
    assert np.abs(inc.project_T(ts, hx) - hx).max() < 1e-12
    assert np.abs(inc.project_Tperp(ts, hx)).max() < 1e-12
    # axis-aligned example
    ts2 = inc.TangentSpace(0, np.eye(2, dtype=complex)[0], np.eye(2, dtype=complex)[0])
    Z2 = np.outer(np.eye(2)[1], np.eye(2)[1])
    assert np.abs(inc.project_T(ts2, Z2)).max() == 0.0
    assert np.abs(inc.project_Tperp(ts2, Z2) - Z2).max() == 0.0
    with pytest.raises(ConfigError):
        inc.TangentSpace(0, 2.0 * np.eye(2, dtype=complex)[0], np.eye(2, dtype=complex)[0])


def test_local_isometry_norm():
    # against the matrixized operator on all of C^{K x N}, also past K*N = 64
    for L, dims, seed in ((8, [(2, 2)], 3), (64, [(9, 8)], 4)):
        e = demix.make_ensemble(L, dims, seed=seed)
        (h, x), = e.truth
        want = slow_local_isometry(e.B[0], e.A[0], h, x)
        assert abs(inc.local_isometry_norm(e, 0) - want) <= 1e-10 * max(want, 1.0)
    e = demix.make_ensemble(8, [(2, 2)], seed=3)
    # synthetic exact isometry: rows of the lifted map form an orthonormal basis
    K, N = 3, 4
    L = K * N
    B = np.zeros((L, K), dtype=complex)
    A = np.zeros((L, N))
    for l, (k, n) in enumerate((k, n) for k in range(K) for n in range(N)):
        B[l, k] = 1 / np.sqrt(N)
        A[l, n] = np.sqrt(N)
    es = demix.from_matrices([B], [A], [(RNG.standard_normal(K), RNG.standard_normal(N))])
    assert inc.local_isometry_norm(es, 0) < 1e-10
    # per-block variant with S = I (P=1) equals the plain variant
    part1 = inc.dft_partition(8, 1)
    a = inc.local_isometry_norm(e, 0)
    b = inc.local_isometry_norm(e, 0, p=0, partition=part1)
    assert abs(a - b) < 1e-8
    with pytest.raises(ConfigError):
        inc.local_isometry_norm(e, 0, p=0)
    # S-weighted block form with S != I: generic orthonormal B, whose
    # strided block Grams are not (Q/L) I; K*N = 72
    eo = demix.make_ensemble(128, [(9, 8)], b_kind="ortho", seed=5)
    part = inc.dft_partition(128, 4)
    (h, x), = eo.truth
    for p in (1, 3):
        rows = part.block(p)
        assert np.abs(lf.rows_gram(eo, 0, rows) - (part.Q / eo.L) * np.eye(9)).max() > 1e-3
        want = slow_local_isometry(eo.B[0], eo.A[0], h, x, rows)
        got = inc.local_isometry_norm(eo, 0, p=p, partition=part)
        assert abs(got - want) <= 1e-10 * max(want, 1.0)


def test_mutual_incoherence():
    e1 = demix.make_ensemble(16, [(2, 2)], seed=5)
    assert inc.mutual_incoherence(e1) == 0.0
    e2 = demix.make_ensemble(8, [(2, 2), (2, 2)], seed=6)
    got = inc.mutual_incoherence(e2)
    assert abs(got - slow_mutual_incoherence(e2.B, e2.A, e2.truth)) <= 1e-10 * max(got, 1.0)
    # label-swap invariance: the dense cross-operator and its adjoint agree
    spaces = inc.truth_spaces(e2)
    def cross(j, k, Z):
        return inc.project_T(spaces[j], lf.apply_adjoint(e2, j, lf.apply_op(e2, k, inc.project_T(spaces[k], Z))))
    M_jk = np.stack([cross(0, 1, E).reshape(-1) for E in np.eye(4).reshape(4, 2, 2).astype(complex)], axis=1)
    M_kj = np.stack([cross(1, 0, E).reshape(-1) for E in np.eye(4).reshape(4, 2, 2).astype(complex)], axis=1)
    s_jk = np.linalg.svd(M_jk, compute_uv=False)[0]
    s_kj = np.linalg.svd(M_kj, compute_uv=False)[0]
    assert abs(s_jk - s_kj) < 1e-10
    assert abs(got - s_jk) < 1e-10
    # three users, K*N past 64
    e3 = demix.make_ensemble(64, [(9, 8), (8, 9), (3, 4)], seed=6)
    want = slow_mutual_incoherence(e3.B, e3.A, e3.truth)
    assert abs(inc.mutual_incoherence(e3) - want) <= 1e-10 * max(want, 1.0)


def test_tangent_diagnostics_complex():
    # complex B, A, h and x in an explicit instance: the closed-form image
    # conjugates x (and neither B nor A) exactly where the map does
    L, dims = 24, [(3, 4), (2, 3)]
    B = [crandn(L, K) for K, _ in dims]
    A = [crandn(L, N) for _, N in dims]
    truth = [(crandn(K), crandn(N)) for K, N in dims]
    e = demix.from_matrices(B, A, truth)
    part = inc.dft_partition(L, 4)
    for i, (h, x) in enumerate(truth):
        want = slow_local_isometry(B[i], A[i], h, x)
        assert abs(inc.local_isometry_norm(e, i) - want) <= 1e-10 * max(want, 1.0)
        for p in (0, 3):
            want = slow_local_isometry(B[i], A[i], h, x, part.block(p))
            got = inc.local_isometry_norm(e, i, p=p, partition=part)
            assert abs(got - want) <= 1e-10 * max(want, 1.0)
    want = slow_mutual_incoherence(B, A, truth)
    assert abs(inc.mutual_incoherence(e) - want) <= 1e-10 * max(want, 1.0)


def test_operator_gamma():
    # sigma_max of the dense map, also past K*N = 64 and below K*N = 3
    for L, dims, seed in ((8, [(2, 2), (2, 3)], 7), (128, [(10, 10), (4, 4)], 8),
                          (16, [(1, 2), (1, 1)], 9)):
        e = demix.make_ensemble(L, dims, seed=seed)
        got = inc.operator_gamma(e)
        want = max(np.linalg.svd(slow_phi(B, A), compute_uv=False)[0] for B, A in zip(e.B, e.A))
        assert abs(got - want) <= 1e-10 * want
        # Lanczos starts from one fixed vector: a second call repeats every bit
        assert inc.operator_gamma(e) == got
    # homogeneity in A
    e = demix.make_ensemble(8, [(2, 2), (2, 3)], seed=7)
    got = inc.operator_gamma(e)
    e2 = demix.from_matrices(e.B, [2.5 * a for a in e.A], e.truth)
    assert abs(inc.operator_gamma(e2) - 2.5 * got) < 1e-6
    # Gaussian-case ceiling sqrt(N log(NL/2) + log L), checked over seeds
    L, K, N = 256, 8, 8
    bound = np.sqrt(N * np.log(N * L / 2) + np.log(L))
    hits = sum(
        inc.operator_gamma(demix.make_ensemble(L, [(K, N)], seed=400 + t)) <= bound
        for t in range(10)
    )
    assert hits >= 9


_DIAGNOSTICS = {
    "operator_gamma": inc.operator_gamma,
    "local_isometry_norm": lambda e: inc.local_isometry_norm(e, 0),
    "mutual_incoherence": inc.mutual_incoherence,
}


@pytest.mark.parametrize("dims", [[(4, 4)], [(10, 10)], [(4, 4), (10, 10)]])
@pytest.mark.parametrize("name", sorted(_DIAGNOSTICS))
def test_diagnostics_reject_non_finite_input(name, dims):
    ens = demix.make_ensemble(64, dims, seed=1)
    ens.A[0][3, 1] = np.nan
    with pytest.raises(ConfigError, match="A holds"):
        _DIAGNOSTICS[name](ens)


def test_incoherence_report():
    e = demix.make_ensemble(32, [(4, 3), (4, 3)], seed=8)
    rep = inc.incoherence_report(e)
    assert abs(rep.mu_max_sq - 1.0) < 1e-12 and abs(rep.mu_min_sq - 1.0) < 1e-12
    assert rep.iso_pass and rep.partition_status == "verified"
    assert rep.mu_h_sq >= 1.0 - 1e-9
    assert rep.P * rep.Q == 32 and rep.Q >= 4
    assert len(rep.local_iso) == 2 and all(v >= 0 for v in rep.local_iso)
    assert rep.mutual_mu >= 0 and rep.gamma > 0
    # deterministic: same instance, identical serialized values
    rep2 = inc.incoherence_report(e)
    assert rep.csv_row() == rep2.csv_row()
    # ortho B with a partition it cannot verify gets labeled
    eo = demix.make_ensemble(24, [(4, 3)], b_kind="ortho", seed=9)
    dev, ok = inc.verify_partition(eo, inc.dft_partition(24, 4))
    if not ok:
        rep3 = inc.incoherence_report(eo, inc.dft_partition(24, 4))
        assert rep3.partition_status == "unverified-partition"


def test_incoherence_report_rejects_non_finite_input():
    ens = demix.make_ensemble(64, [(4, 4)], seed=1)
    ens.A[0][3, 1] = np.nan
    with pytest.raises(ConfigError, match="A holds"):
        inc.incoherence_report(ens)
