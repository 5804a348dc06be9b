"""The LAPACK bindings of graphconc._lapack against scipy's f2py
routines, the calls they replaced, bit for bit.  scipy.linalg is
imported inside each test, so the package's own modules never see it."""

import sys
import threading

import numpy as np
import pytest

import graphconc
from graphconc import _lapack, pietsch
from graphconc.operators import LinearOp


def scipy_lapack():
    from scipy.linalg import lapack
    return lapack


def test_eigh_is_scipys_dsyevd_and_numpys_eigh_bit_for_bit():
    # the lower triangle alone is read, as a ritz_pairs basis leaves H;
    # one Eigh serves every order up to its own, as in ritz_pairs
    lapack = scipy_lapack()
    rng = np.random.default_rng(14)
    small = _lapack.Eigh(40)
    for m in [*range(1, 41), 256]:
        eigh = small if m <= 40 else _lapack.Eigh(m)
        for _ in range(3):
            H = np.tril(rng.standard_normal((m, m)))
            np.copyto(eigh.matrix(m), H)
            w, V = eigh(m)
            ref_w, ref_V, info = lapack.dsyevd(H, lower=1)
            assert info == 0
            assert np.array_equal(w, ref_w) and np.array_equal(V, ref_V), m
            np_w, np_V = np.linalg.eigh(H)
            assert np.array_equal(w, np_w) and np.array_equal(V, np_V), m


def test_bisection_is_scipys_dstebz_bit_for_bit():
    # both ends of every leading tridiagonal, as the stop test reads
    # them: random ones, and the alpha and beta of a Lanczos run, whose
    # ends cluster; one Bisection grows its workspaces as n grows
    lapack = scipy_lapack()
    rng = np.random.default_rng(15)
    M = rng.standard_normal((400, 400))
    M = M + M.T
    for k in (2, 10, 70, 300):
        d, e = rng.standard_normal(k), rng.standard_normal(k)
        d_run, e_run = np.empty(k), np.empty(k)
        q, q_prev, b = rng.standard_normal(400), np.zeros(400), 0.0
        q /= np.linalg.norm(q)
        for j in range(k):
            w = M @ q - b * q_prev
            d_run[j] = q @ w
            w -= d_run[j] * q
            e_run[j] = b = np.linalg.norm(w)
            q_prev, q = q, w / b
        for dd, ee in ((d, e), (d_run, e_run)):
            eig = _lapack.Bisection(dd, ee)
            for n in sorted({2, max(k // 2, 2), max(k - 1, 2), k}):
                for i in (1, n):
                    ref = lapack.dstebz(dd[:n], ee[:n - 1], 2, 0.0, 0.0, i,
                                        i, 0.0, "E")
                    assert ref[-1] == 0
                    assert eig(n, i) == ref[1][0], (k, n, i)


def test_band_largest_is_scipys_dsbevx_bit_for_bit():
    # the pentadiagonal Gram of _extended_sigma, on random and on
    # Lanczos-like coefficients
    lapack = scipy_lapack()
    rng = np.random.default_rng(16)
    for k in (1, 2, 3, 10, 30, 100, 300):
        for alpha, beta in ((rng.standard_normal(k), rng.random(k)),
                            (2.0 + 0.01 * rng.standard_normal(k),
                             np.ones(k))):
            band = np.zeros((3, k))
            band[2] = alpha * alpha + beta * beta
            band[2, 1:] += beta[:-1] * beta[:-1]
            band[1, 1:] = beta[:-1] * (alpha[:-1] + alpha[1:])
            band[0, 2:] = beta[:-2] * beta[1:-1]
            ref = lapack.dsbevx(band, 0.0, 0.0, k, k, compute_v=0, range=2)
            assert ref[-1] == 0
            got = _lapack.band_largest(np.asfortranarray(band))
            assert got == ref[0][0], k


@pytest.mark.parametrize("shape", [(40, 12), (120, 100), (300, 256)])
def test_norm_below_decides_as_scipys_dpotrf(shape):
    # t swept to within 1e-12 (relative) of ||B|| on both sides: the
    # decision is scipy's dpotrf's and the true one, and a failed
    # check leaves G as it was, bit for bit
    lapack = scipy_lapack()
    B = np.random.default_rng(shape[1]).standard_normal(shape)
    for G0 in (B.T @ B, B @ B.T):
        norm = np.sqrt(np.linalg.eigvalsh(G0)[-1])
        for rel in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
            for t, below in ((norm * (1 + rel), True),
                             (norm * (1 - rel), False)):
                n = G0.shape[0]
                _, info = lapack.dpotrf(t * t * np.eye(n) - G0)
                assert (info == 0) == below, (rel, below)
                G = G0.copy()
                assert pietsch._norm_below(G, t) == below, (rel, below)
                if not below:
                    assert np.array_equal(G, G0)


def test_calls_on_four_threads_match_one_thread():
    # ctypes releases the GIL in each call: four threads, each with an
    # Eigh and a Bisection of its own, switching often, give one
    # thread's results
    rng = np.random.default_rng(17)
    H = np.tril(rng.standard_normal((12, 12)))
    d, e = rng.standard_normal(70), rng.random(70)

    def run():
        eigh, eig = _lapack.Eigh(12), _lapack.Bisection(d, e)
        out = []
        for m in (12, 7) * 50:
            np.copyto(eigh.matrix(m), H[:m, :m])
            out.append(eigh(m)[1].copy())
            out.append(eig(6 * m - 2, m))
        return out

    want = run()
    got = [None] * 4

    def worker(i):
        got[i] = run()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for out in got:
        assert len(out) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(out, want))


def test_a_missing_routine_is_named_at_the_first_solver_call(monkeypatch):
    # a numpy whose LAPACK exports no form of a routine: the first call
    # that needs it raises ImportError naming it
    monkeypatch.setattr(_lapack, "_FORMS",
                        (("no_such_{}_", _lapack.ctypes.c_int64),))
    _lapack._routine.cache_clear()
    try:
        M = np.random.default_rng(18).standard_normal((40, 40))
        with pytest.raises(ImportError, match="no_such_dstebz_"):
            graphconc.spectral_norm(LinearOp.from_dense(M + M.T))
        with pytest.raises(ImportError, match="dpotrf"):
            pietsch._norm_below(np.eye(3), 2.0)
    finally:
        _lapack._routine.cache_clear()
