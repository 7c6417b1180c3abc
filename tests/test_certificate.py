import dataclasses

import numpy as np
import pytest

import demix
from demix import certificate as ct
from demix import incoherence as inc
from demix.errors import ConfigError, DimensionError, SingularGramError
from demix.lifting import pack

from _oracles import slow_adjoint

RNG = np.random.default_rng(20240608)


def _slow_project_T(h, x, Z):
    h = h / np.linalg.norm(h)
    x = x / np.linalg.norm(x)
    hh = np.outer(h, h.conj())
    xx = np.outer(x, x.conj())
    return hh @ Z + Z @ xx - hh @ Z @ xx


def test_w0_is_unit_truth():
    ens = demix.make_ensemble(64, [(4, 4), (4, 4)], seed=201)
    part = inc.dft_partition(64, 2)
    rep = ct.golfing_run(ens, part)
    assert rep.w_norms.shape == (part.P + 1, 2)
    assert np.abs(rep.w_norms[0] - 1.0).max() < 1e-12


def test_exact_isometry_step_annihilates_w(monkeypatch):
    # replace the block measurement by its conditional expectation
    # E[A_{i,q}^* lambda_q | W] = W_i: one step then kills the residual
    def exact_step(ens, partition, q, W_list, SW_list):
        return np.zeros(partition.Q, dtype=complex), [W.copy() for W in W_list]

    monkeypatch.setattr(ct, "_measurement_step", exact_step)
    ens = demix.make_ensemble(64, [(5, 5)], seed=202)
    part = inc.dft_partition(64, 2)
    rep = ct.golfing_run(ens, part, P=1)
    assert rep.w_norms[1, 0] <= 1e-12
    # the residual is dead, so the next mu vanishes with it
    rep2 = ct.golfing_run(ens, part, P=2)
    assert rep2.mu_seq[1] <= 1e-12


def test_tracked_w_matches_definition_from_y():
    # the recursion updates W in place; recomputing h x^* - P_T(Y) from the
    # accumulated Y (via the full-length lambda) must give the same trace
    ens = demix.make_ensemble(128, [(4, 4), (4, 3)], seed=203)
    part = inc.dft_partition(128, 4)
    rep = ct.golfing_run(ens, part)
    assert np.abs(rep.tangent_errors - rep.w_norms[-1]).max() < 1e-10
    # lambda aggregation: Y_i equals A_i^*(lambda) because blocks are disjoint
    for i in range(ens.r):
        direct = slow_adjoint(ens.B[i], ens.A[i], rep.lam)
        assert np.linalg.norm(rep.Y[i] - direct) < 1e-10


def test_identity_s_and_general_s_agree(monkeypatch):
    # golfing_run applies S_{i,p} = (L/Q) I in closed form for partial-DFT B
    # on a strided partition; the same matrices rebuilt by from_matrices
    # (b_kind None) take the block-Gram path, and the two runs agree
    ens = demix.make_ensemble(128, [(4, 4), (3, 5)], seed=204)
    plain = demix.from_matrices(ens.B, ens.A, ens.truth)
    assert plain.b_kind is None
    part = inc.dft_partition(128, 4)
    calls = []
    block_gram = ct.block_gram
    monkeypatch.setattr(ct, "block_gram", lambda *a: calls.append(a) or block_gram(*a))
    rep_fast = ct.golfing_run(ens, part)
    assert not calls
    rep_slow = ct.golfing_run(plain, part)
    assert len(calls) == ens.r * part.P
    assert np.abs(rep_fast.w_norms - rep_slow.w_norms).max() < 1e-12
    assert np.abs(rep_fast.mu_seq - rep_slow.mu_seq).max() < 1e-12
    assert np.abs(rep_fast.lam - rep_slow.lam).max() < 1e-12


def test_w_decay_rate_desk_scale():
    # per-step halving needs each block to act nearly isometrically on the
    # tangent spaces; Q = 512 rows per block against K = N = 8 gives the
    # contraction a comfortable margin (at Q = 128 the per-block deviation
    # sits near 0.6 and the rate fails for most seeds)
    hits = 0
    for t in range(10):
        ens = demix.make_ensemble(2048, [(8, 8), (8, 8)], seed=300 + t)
        part = inc.dft_partition(2048, 4)
        rep = ct.golfing_run(ens, part)
        hits += rep.w_rate_pass
    assert hits >= 9


def test_mu_sequence_and_halving():
    hits = 0
    for t in range(10):
        ens = demix.make_ensemble(2048, [(8, 8), (8, 8)], seed=400 + t)
        part = inc.dft_partition(2048, 4)
        rep = ct.golfing_run(ens, part)
        assert len(rep.mu_seq) == 4 and len(rep.mu_halving) == 3
        assert rep.mu_seq[0] <= rep.mu_h * (1.0 + 1e-9)
        hits += all(rep.mu_halving)
    assert hits >= 9


def test_check_dual_certificate_pass_and_margins():
    ens = demix.make_ensemble(2048, [(8, 8), (8, 8)], seed=401)
    part = inc.dft_partition(2048, 4)
    rep = ct.check_dual_certificate(ens, ct.golfing_run(ens, part))
    assert rep.passed is True
    assert rep.alpha == 1.0 / (5.0 * ens.r * rep.gamma)
    assert rep.beta == 0.5
    # gate = (1 - beta) - 2 r gamma alpha = 0.5 - 2/5 = 0.1 at these alpha/beta
    assert abs(rep.gate - 0.1) < 1e-12 and rep.gate_pass
    assert rep.cond1_margins.shape == (2,) and rep.cond2_margins.shape == (2,)
    assert rep.passed == (rep.cond1_pass and rep.cond2_pass)


def test_check_zero_lambda_fails():
    ens = demix.make_ensemble(64, [(4, 4)], seed=402)
    part = inc.dft_partition(64, 2)
    rep = ct.golfing_run(ens, part, P=0)
    assert np.abs(rep.lam).max() == 0.0
    rep = ct.check_dual_certificate(ens, rep)
    # ||h x^* - P_T(0)||_F = 1 per user
    assert np.abs(rep.tangent_errors - 1.0).max() < 1e-12
    assert rep.cond1_pass is False and rep.passed is False
    assert abs(rep.cond1_margins[0] - (rep.alpha - 1.0)) < 1e-12


def test_margins_against_dense_oracle():
    ens = demix.make_ensemble(16, [(2, 2), (2, 2)], seed=403)
    part = inc.dft_partition(16, 2)
    rep = ct.check_dual_certificate(ens, ct.golfing_run(ens, part))
    for i in range(ens.r):
        Z = slow_adjoint(ens.B[i], ens.A[i], rep.lam)
        h, x = ens.truth[i]
        hu = h / np.linalg.norm(h)
        xu = x / np.linalg.norm(x)
        PTZ = _slow_project_T(h, x, Z)
        t_err = np.linalg.norm(np.outer(hu, xu.conj()) - PTZ)
        p_norm = np.linalg.norm(Z - PTZ, 2)
        assert abs(t_err - rep.tangent_errors[i]) < 1e-8
        assert abs(p_norm - rep.perp_norms[i]) < 1e-8


def test_unbiased_single_step():
    # E[A_{i,1}^*(lambda_0)] = W_{i,0}; check the empirical mean over fresh
    # coding matrices
    L, K, N, reps = 256, 4, 4, 200
    part = inc.dft_partition(L, 2)
    base = demix.make_ensemble(L, [(K, N)], seed=404)
    h, x = base.truth[0]
    hu, xu = h / np.linalg.norm(h), x / np.linalg.norm(x)
    W0 = np.outer(hu, xu.conj())
    SW = (L / part.Q) * W0  # partial-DFT block Gram is (Q/L) I
    acc = np.zeros((K, N), dtype=complex)
    rng = np.random.default_rng(505)
    from demix.lifting import apply_restricted, restricted_adjoint

    for _ in range(reps):
        A = rng.standard_normal((L, N))
        ens = demix.from_matrices([base.B[0]], [A], [(hu, xu)])
        lam_q = apply_restricted(ens, 0, 0, part, SW)
        acc += restricted_adjoint(ens, 0, 0, part, lam_q)
    rel = np.linalg.norm(acc / reps - W0) / np.linalg.norm(W0)
    assert rel <= 0.15


def test_golfing_errors():
    ens = demix.make_ensemble(32, [(4, 4)], seed=405)
    part = inc.dft_partition(32, 2)
    with pytest.raises(DimensionError):
        ct.golfing_run(ens, part, P=3)
    ens_blind = dataclasses.replace(ens, truth=None)
    with pytest.raises(ConfigError):
        ct.golfing_run(ens_blind, part)
    # a block shorter than K makes T_{i,p} singular
    tiny = demix.make_ensemble(8, [(3, 2)], seed=406)
    with pytest.raises(SingularGramError):
        ct.golfing_run(tiny, inc.dft_partition(8, 4))
    with pytest.raises(DimensionError):
        ct.golfing_run(ens, inc.dft_partition(64, 2))


def test_certificate_csv_rows():
    ens = demix.make_ensemble(64, [(4, 4), (4, 4)], seed=407)
    part = inc.dft_partition(64, 2)
    rep = ct.check_dual_certificate(ens, ct.golfing_run(ens, part))
    rows = rep.csv_rows(trial=7)
    assert len(rows) == (rep.P + 1) * ens.r
    assert all(len(row) == len(ct.CertificateReport.CSV_FIELDS) for row in rows)
    assert rows[0][0] == "7"
    # final rows carry the check outcome, earlier rows leave it blank
    assert rows[-1][5] != "" and rows[0][5] == ""
    assert rows[0][-1] == "verified"


def test_mu0_bound_is_a_typed_check(monkeypatch):
    # mu_0 <= mu_h is checked explicitly in golfing_run (it holds under
    # python -O too)
    ens = demix.make_ensemble(64, [(4, 4)], seed=5)
    part = inc.dft_partition(64, 4)
    monkeypatch.setattr(ct, "mu_h", lambda ens, partition: 1e-6)
    with pytest.raises(ConfigError, match="mu_0"):
        ct.golfing_run(ens, part)


def test_golfing_rejects_non_finite_input():
    ens = demix.make_ensemble(64, [(4, 4)], seed=1)
    ens.A[0][3, 1] = np.nan
    with pytest.raises(ConfigError, match="A holds"):
        ct.golfing_run(ens, inc.dft_partition(64, 4))


@pytest.mark.parametrize("L,slow", [(512, True), (2048, False)])
def test_golfing_contraction_pinned_to_geometry(L, slow):
    # test_acceptance's test_09 asks for ||W_p|| <= 2^-p at L=512, P=4,
    # K=N=8, r=2, and fails by design: there a golfing step contracts W by
    # more than 1/2 (0.64-0.77 on its first five seeds).  At L=2048 the
    # same steps contract by 0.30-0.43.  A regression in the golfing code
    # would move the L=2048 ratio, not only the known L=512 failure.
    part = inc.dft_partition(L, 4)
    for t in range(5):
        seed = int(demix.ensemble.substream(1, 902, t).integers(0, 2**63))
        ens = demix.make_ensemble(L, ((8, 8), (8, 8)), seed=seed)
        w = ct.golfing_run(ens, part).w_norms
        ratio = float((w[1:] / w[:-1]).max())
        assert (ratio > 0.5) == slow, (L, t, ratio)
