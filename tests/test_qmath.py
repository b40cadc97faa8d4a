import numpy as np
import pytest

from quasiwork import model, qmath
from quasiwork.qmath import DimensionMismatch, NonHermitianInput, herm_eig, unitary_exp

from conftest import random_drive, random_hermitian, twin_variants


def _loop_gauge(col):
    """Reference gauge, one column at a time: the rule herm_eig must keep."""
    best, idx = -1.0, 0
    for r, az in enumerate(np.abs(col).tolist()):
        if az > best + 1e-15:
            best, idx = az, r
    col *= col[idx].conjugate() / best
    col[idx] = best


def _gauge_cases(rng, n):
    """Random matrices plus inputs with exactly equal anchor magnitudes."""
    ref = model.reference_params()
    twins = [t for _ in range(5) for t in twin_variants(random_drive(rng))]
    return [
        *(random_hermitian(rng, scale=float(rng.uniform(0.1, 10.0))) for _ in range(n)),
        model.hamiltonian_rot(0.0, ref),
        model.hamiltonian_tilde(ref),
        *(model.hamiltonian_tilde(p) for p in twins),
        np.eye(3),
        np.diag([1.0, 1.0, 2.0]),
    ]


def test_diagonal_matrix():
    es = herm_eig(np.diag([1.0, 0.0, -1.0]))
    assert np.allclose(es.values, [-1.0, 0.0, 1.0])
    # columns are permuted identity vectors
    assert np.allclose(np.abs(es.vectors), np.eye(3)[:, [2, 1, 0]])


def test_equal_drive_hamiltonian_spectrum():
    from quasiwork.model import DriveParams, hamiltonian_rot

    omega = 13.942388196631502
    params = DriveParams.equal_drive(omega, 1.09 * omega)
    for t in (0.0, 0.037, 0.11, 0.5):
        es = herm_eig(hamiltonian_rot(t, params))
        assert np.allclose(es.values, [-omega, 0.0, omega], atol=1e-10)


def test_random_hermitian_residuals():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        h = random_hermitian(rng, scale=float(rng.uniform(0.1, 10.0)))
        es = herm_eig(h)
        norm = np.linalg.norm(h)
        assert np.linalg.norm(es.reconstruct() - h) <= 1e-10 * (1.0 + norm)
        gram = es.vectors.conj().T @ es.vectors
        assert np.max(np.abs(gram - np.eye(3))) <= 1e-10
        assert np.all(np.diff(es.values) >= 0.0)


def test_matches_lapack_eigenvalues():
    rng = np.random.default_rng(2)
    for _ in range(200):
        h = random_hermitian(rng)
        assert np.allclose(herm_eig(h).values, np.linalg.eigvalsh(h), atol=1e-12)


def test_gauge_largest_component_real_positive():
    rng = np.random.default_rng(3)
    for _ in range(100):
        es = herm_eig(random_hermitian(rng))
        for k in range(3):
            col = es.vectors[:, k]
            anchor = col[np.argmax(np.abs(col))]
            assert anchor.real > 0.0
            assert abs(anchor.imag) <= 1e-12


def test_gauge_matches_the_per_column_loop():
    rng = np.random.default_rng(12)
    for h in _gauge_cases(rng, 2000):
        _, vectors = np.linalg.eigh(h)
        for k in range(3):
            _loop_gauge(vectors[:, k])
        assert np.array_equal(herm_eig(h).vectors, vectors)


def test_stack_matches_per_matrix_calls():
    rng = np.random.default_rng(13)
    cases = _gauge_cases(rng, 200)
    stack = herm_eig(np.stack(cases))
    assert stack.values.shape == (len(cases), 3) and stack.vectors.shape == (len(cases), 3, 3)
    for k, h in enumerate(cases):
        one = herm_eig(h)
        assert np.array_equal(stack.values[k], one.values)
        assert np.array_equal(stack.vectors[k], one.vectors)
    assert np.max(np.abs(stack.reconstruct() - np.stack(cases))) <= 1e-10
    nested = herm_eig(np.stack(cases[:6]).reshape(2, 3, 3, 3))
    assert np.array_equal(nested.vectors.reshape(6, 3, 3), stack.vectors[:6])


def test_gauge_tie_prefers_lowest_index():
    # magnitudes equal to within 1e-15 anchor on the lowest index, so an
    # eigensolver's last-bit noise cannot flip which component is made real
    rng = np.random.default_rng(11)
    for _ in range(20):
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=3))
        col = np.array([1.0, 1.0 + 5e-16, 0.5]) * phases
        qmath._phase_gauge(col[:, None])
        assert col[0].imag == 0.0 and col[0].real > 0.0


def test_non_hermitian_rejected():
    m = np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]], dtype=complex)
    with pytest.raises(NonHermitianInput):
        herm_eig(m)
    # in a stack each matrix is checked against its own scale, so a large
    # neighbour cannot hide a small matrix's defect
    small = np.eye(3, dtype=complex)
    small[0, 1] = 1e-10
    with pytest.raises(NonHermitianInput):
        herm_eig(np.stack([1e6 * np.eye(3), small]))


def test_nan_rejected():
    m = np.full((3, 3), np.nan, dtype=complex)
    with pytest.raises(ValueError):
        herm_eig(m)


def test_deterministic_output():
    rng = np.random.default_rng(4)
    h = random_hermitian(rng)
    a = herm_eig(h)
    b = herm_eig(h.copy())
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.vectors, b.vectors)


def test_perturbation_stability():
    rng = np.random.default_rng(5)
    for _ in range(50):
        h = random_hermitian(rng)
        es = herm_eig(h)
        if np.min(np.diff(es.values)) < 1e-2:
            continue
        es2 = herm_eig(h + 1e-15 * random_hermitian(rng))
        assert np.max(np.abs(es.values - es2.values)) <= 1e-12
        assert np.max(np.abs(es.vectors - es2.vectors)) <= 1e-9


def test_degenerate_input_is_consistent():
    es = herm_eig(np.eye(3))
    assert np.allclose(es.values, 1.0)
    assert np.max(np.abs(es.reconstruct() - np.eye(3))) <= 1e-12


def test_unitary_exp_zero_time():
    rng = np.random.default_rng(6)
    assert np.allclose(unitary_exp(random_hermitian(rng), 0.0), np.eye(3), atol=1e-14)


def test_unitary_exp_diagonal():
    w = 2.7
    u = unitary_exp(np.diag([w, 0.0, -w]), 0.31)
    expected = np.diag([np.exp(-1j * w * 0.31), 1.0, np.exp(1j * w * 0.31)])
    assert np.allclose(u, expected, atol=1e-13)


def test_unitary_exp_inverse_product():
    rng = np.random.default_rng(7)
    for _ in range(50):
        h = random_hermitian(rng)
        t = rng.uniform(-3, 3)
        prod = unitary_exp(h, t) @ unitary_exp(h, -t)
        assert np.max(np.abs(prod - np.eye(3))) <= 1e-10


def test_unitary_exp_group_law():
    rng = np.random.default_rng(8)
    for _ in range(100):
        h = random_hermitian(rng)
        s, t = rng.uniform(-2, 2, size=2)
        lhs = unitary_exp(h, s) @ unitary_exp(h, t)
        assert np.max(np.abs(lhs - unitary_exp(h, s + t))) <= 1e-9


def test_unitary_exp_stack_matches_per_matrix_calls():
    rng = np.random.default_rng(9)
    hs = np.stack([random_hermitian(rng) for _ in range(3)])  # (3, 3, 3): no axis can be misread
    stack = unitary_exp(hs, 0.7)
    assert stack.shape == (3, 3, 3)
    for h, u in zip(hs, stack):
        assert np.max(np.abs(u - unitary_exp(h, 0.7))) <= 1e-15
    with pytest.raises(DimensionMismatch):
        unitary_exp(np.zeros((4, 2, 3)), 0.7)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        herm_eig(np.zeros((2, 3)))
    with pytest.raises(DimensionMismatch):
        herm_eig(np.zeros((4, 2, 3)))
    with pytest.raises(DimensionMismatch):
        herm_eig(np.zeros(3))
