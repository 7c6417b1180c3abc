import json
import math

import numpy as np
import pytest
from scipy.linalg import hadamard

import demix
from demix import ensemble as ens
from demix.errors import ConfigError, DimensionError

from _oracles import (circular_convolve, conv_form_equivalence, dense_dft_loop, dft_rmatmul,
                      idft_1based, slow_circular_conv)


def test_partial_dft_frozen_column():
    # L=4, K=1: exp(-2 pi i l/4)/2 for l=1..4 is (-i, -1, i, 1)/2
    B = ens.make_partial_dft_B(4, 1)
    expect = 0.5 * np.array([-1j, -1.0, 1j, 1.0])
    assert np.abs(B[:, 0] - expect).max() < 1e-12


def test_partial_dft_matches_entry_loop():
    for L, K in [(3, 2), (8, 5), (12, 12), (16, 7)]:
        assert np.abs(ens.partial_dft_matrix(L, K) - dense_dft_loop(L, K)).max() < 1e-12


def test_generated_B_orthonormal():
    for L, K in [(16, 4), (50, 30), (64, 15)]:
        B = ens.make_partial_dft_B(L, K)
        assert np.linalg.norm(B.conj().T @ B - np.eye(K)) < 1e-10
    for L, K in [(16, 4), (40, 25)]:
        B = ens.make_generic_ortho_B(L, K, ens.substream(3, ens.TAG_B, 0))
        assert np.linalg.norm(B.conj().T @ B - np.eye(K)) < 1e-10


def test_dft_fft_kernels_match_dense():
    rng = np.random.default_rng(7)
    for L, K in [(4, 1), (8, 3), (12, 5), (16, 16), (64, 30), (7, 4)]:
        B = ens.partial_dft_matrix(L, K)
        M = rng.standard_normal((L, 3)) + 1j * rng.standard_normal((L, 3))
        assert np.abs(dft_rmatmul(M, L, K) - B.conj().T @ M).max() < 1e-10
        # the vector variant shares the code path but exercises the reshape
        assert np.abs(dft_rmatmul(M[:, 0], L, K) - B.conj().T @ M[:, 0]).max() < 1e-10
    # full-size inverse: F^{-1} F = I
    v = rng.standard_normal(24) + 1j * rng.standard_normal(24)
    F = ens.partial_dft_matrix(24, 24)
    assert np.abs(idft_1based(F @ v) - v).max() < 1e-10


def test_fwht_matches_hadamard():
    assert np.array_equal(ens.walsh_hadamard_columns(2, 2), np.array([[1.0, 1.0], [1.0, -1.0]]))
    rng = np.random.default_rng(11)
    for L in [2, 4, 8, 16, 32, 64]:
        H = hadamard(L)
        v = rng.standard_normal((L, 3))
        assert np.abs(ens.fwht(v) - H @ v).max() < 1e-10
        assert np.abs(ens.fwht(v[:, 0]) - H @ v[:, 0]).max() < 1e-10
        n = min(5, L)
        assert np.array_equal(ens.walsh_hadamard_columns(L, n), H[:, :n].astype(float))
    with pytest.raises(DimensionError):
        ens.fwht(np.zeros(12))


def test_hadamard_A_properties():
    A = ens.make_rand_hadamard_A(16, 5, ens.substream(1, ens.TAG_A, 0))
    assert set(np.unique(A)) == {-1.0, 1.0}
    # square case: columns orthogonal with norm sqrt(L)
    A = ens.make_rand_hadamard_A(8, 8, ens.substream(2, ens.TAG_A, 0))
    assert np.abs(A.T @ A - 8 * np.eye(8)).max() < 1e-12
    A2 = ens.make_rand_hadamard_A(8, 8, ens.substream(2, ens.TAG_A, 0))
    assert np.array_equal(A, A2)
    with pytest.raises(DimensionError):
        ens.make_rand_hadamard_A(12, 4, ens.substream(0, 0))


def test_gaussian_A_moments_and_determinism():
    A = ens.make_gaussian_A(200, 100, ens.substream(5, ens.TAG_A, 1))
    assert abs(A.mean()) < 4 / np.sqrt(A.size)
    assert abs(A.std() - 1.0) < 0.05
    A2 = ens.make_gaussian_A(200, 100, ens.substream(5, ens.TAG_A, 1))
    assert np.array_equal(A, A2)


def test_substream_split():
    a = ens.substream(9, 1, 0).standard_normal(4)
    b = ens.substream(9, 1, 1).standard_normal(4)
    c = ens.substream(9, 1, 0).standard_normal(4)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, c)


def test_synthesis_consistency_noiseless():
    e = demix.make_ensemble(32, [(4, 4), (3, 5)], seed=13)
    y0 = ens.noiseless_synthesis(e.B, e.A, e.truth, L=e.L)
    assert np.linalg.norm(e.y - y0) <= 1e-12 * np.linalg.norm(e.y)
    # truth is real-valued by construction
    for h, x in e.truth:
        assert not np.iscomplexobj(h) and not np.iscomplexobj(x)


def test_unit_truth_entry_formula():
    tr = [(np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))]
    e = demix.make_ensemble(8, [(3, 3)], seed=1, truth=tr)
    assert np.abs(e.y - e.B[0][:, 0] * e.A[0][:, 0]).max() < 1e-14


def test_noise_exact_norm():
    e = demix.make_ensemble(24, [(3, 4)], eta=0.3, seed=21)
    y0 = ens.noiseless_synthesis(e.B, e.A, e.truth, L=e.L)
    assert abs(np.linalg.norm(e.y - y0) - 0.3) < 1e-12
    e0 = demix.make_ensemble(24, [(3, 4)], eta=0.0, seed=21)
    assert np.array_equal(e0.y, y0)


def test_serialization_roundtrip_seeded(tmp_path):
    p = tmp_path / "e.json"
    e = demix.make_ensemble(16, [(3, 4), (2, 5)], eta=0.25, seed=42)
    demix.save_ensemble(e, p)
    e2 = demix.load_ensemble(p)
    assert e2.dims == e.dims and e2.seed == e.seed and e2.eta == e.eta
    assert all(np.array_equal(a, b) for a, b in zip(e.B, e2.B))
    assert all(np.array_equal(a, b) for a, b in zip(e.A, e2.A))
    assert np.array_equal(e.y, e2.y)
    for (h, x), (h2, x2) in zip(e.truth, e2.truth):
        assert np.array_equal(h, h2) and np.array_equal(x, x2)
    # byte-for-byte determinism of the serialized form
    p2 = tmp_path / "e2.json"
    demix.save_ensemble(e2, p2)
    assert p.read_bytes() == p2.read_bytes()
    p3 = tmp_path / "e3.json"
    demix.save_ensemble(demix.make_ensemble(16, [(3, 4), (2, 5)], eta=0.25, seed=42), p3)
    assert p.read_bytes() == p3.read_bytes()


def test_serialization_roundtrip_overridden_truth(tmp_path):
    tr = [(np.array([1.0, 2.0]), np.array([0.5, -1.0, 3.0]))]
    e = demix.make_ensemble(8, [(2, 3)], seed=3, truth=tr)
    p = tmp_path / "t.json"
    demix.save_ensemble(e, p)
    e2 = demix.load_ensemble(p)
    assert e2.truth_overridden
    assert np.array_equal(e2.truth[0][0], tr[0][0])
    assert np.array_equal(e2.y, e.y)


def test_serialization_roundtrip_explicit(tmp_path):
    B = [np.eye(6)[:, :2].astype(complex)]
    A = [np.arange(12.0).reshape(6, 2)]
    e = demix.from_matrices(B, A, [(np.array([1.0, 1.0]), np.array([2.0, 0.0]))])
    p = tmp_path / "x.json"
    demix.save_ensemble(e, p)
    e2 = demix.load_ensemble(p)
    assert np.array_equal(e2.B[0], B[0]) and np.array_equal(e2.A[0], A[0])
    assert np.array_equal(e2.y, e.y)


def test_circular_convolve_examples():
    out = circular_convolve(np.ones(4), np.array([1.0, 0, 0, 0]))
    assert np.abs(out - np.ones(4)).max() < 1e-12
    rng = np.random.default_rng(2)
    f = rng.standard_normal(16)
    g = rng.standard_normal(16)
    assert np.abs(circular_convolve(f, g) - slow_circular_conv(f, g)).max() < 1e-10
    fc = f + 1j * rng.standard_normal(16)
    assert np.abs(circular_convolve(fc, g) - slow_circular_conv(fc, g)).max() < 1e-10
    with pytest.raises(DimensionError):
        circular_convolve(np.ones(4), np.ones(5))


def test_conv_form_equivalence():
    e = demix.make_ensemble(32, [(4, 4), (4, 4)], seed=17)
    assert conv_form_equivalence(e) <= 1e-10
    # padded-truth identity behind it: F^{-1} (B h) = (h; 0)
    h = e.truth[0][0]
    back = idft_1based(e.B[0] @ h)
    assert np.abs(back[: len(h)] - h).max() < 1e-10
    assert np.abs(back[len(h):]).max() < 1e-10
    with pytest.raises(ConfigError):
        conv_form_equivalence(demix.make_ensemble(16, [(3, 3)], b_kind="ortho", seed=1))
    # degenerate zero-user instance
    empty = demix.make_ensemble(8, [], seed=0)
    assert conv_form_equivalence(empty) == 0.0


def test_spec_validation_errors():
    with pytest.raises(ConfigError):
        demix.make_ensemble(8, [(2, 2)], b_kind="fourier", seed=0)
    with pytest.raises(ConfigError):
        demix.make_ensemble(8, [(2, 2)], a_kind="bernoulli", seed=0)
    with pytest.raises(ConfigError):
        demix.make_ensemble(8, [(2, 2)], eta=-1.0, seed=0)
    with pytest.raises(DimensionError):
        demix.make_ensemble(8, [(0, 2)], seed=0)
    with pytest.raises(DimensionError):
        demix.make_ensemble(4, [(8, 2)], seed=0)  # K > L for DFT B
    with pytest.raises(DimensionError):
        demix.make_ensemble(8, [(2, 2)], seed=0, truth=[(np.ones(3), np.ones(2))])


def test_from_matrices_rejects_non_finite():
    rng = np.random.default_rng(3)
    L, K, N = 12, 3, 2
    B = ens.make_partial_dft_B(L, K)
    A = rng.standard_normal((L, N))
    truth = [(rng.standard_normal(K), rng.standard_normal(N))]
    demix.from_matrices([B], [A], truth)  # the clean instance builds
    bad_B = B.copy()
    bad_B[2, 1] = np.nan
    bad_A = A.copy()
    bad_A[5, 0] = -np.inf
    bad_h = truth[0][0].copy()
    bad_h[1] = np.nan
    for name, args in (
        ("B", ([bad_B], [A], truth)),
        ("A", ([B], [bad_A], truth)),
        ("truth", ([B], [A], [(bad_h, truth[0][1])])),
    ):
        with pytest.raises(ConfigError, match=name):
            demix.from_matrices(*args)


def _explicit_file(path):
    B = [np.eye(6)[:, :2].astype(complex)]
    A = [np.arange(12.0).reshape(6, 2)]
    demix.save_ensemble(
        demix.from_matrices(B, A, [(np.array([1.0, 1.0]), np.array([2.0, 0.0]))]), path
    )
    return json.loads(path.read_text())


@pytest.mark.parametrize("name", ["B", "A", "y", "truth"])
def test_load_explicit_rejects_non_finite(tmp_path, name):
    p = tmp_path / "bad.json"
    doc = _explicit_file(p)
    entry = {"B": doc["B"][0], "A": doc["A"][0], "y": doc["y"],
             "truth": doc["truth"][0][0]}[name]
    entry["re"][1] = float("nan")
    p.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=name):
        demix.load_ensemble(p)


def test_non_finite_eta_rejected(tmp_path):
    # eta < 0 is False for NaN: every entry point checks eta finite too
    B, A, truth = [np.eye(6)[:, :2].astype(complex)], [np.ones((6, 2))], [(np.ones(2), np.ones(2))]
    for eta in (math.nan, math.inf, -1.0):
        with pytest.raises(ConfigError, match="eta"):
            demix.make_ensemble(8, [(2, 2)], eta=eta, seed=0)
        with pytest.raises(ConfigError, match="eta"):
            demix.from_matrices(B, A, truth, eta=eta)
    # ensemble files, seeded and explicit
    p = tmp_path / "e.json"
    demix.save_ensemble(demix.make_ensemble(8, [(2, 2)], seed=0), p)
    for doc in (json.loads(p.read_text()), _explicit_file(p)):
        doc["eta"] = math.nan
        p.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="eta"):
            demix.load_ensemble(p)
