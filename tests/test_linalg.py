"""Dense linear algebra against independent oracles: the Kronecker product by
its four-index definition, `embed` and `apply` by basis vectors, `apply` bit
for bit by the `tensordot`/`moveaxis` contraction and `embed` by the `np.dot`
kernel it replaced, `reindex` by `bits_of`/`index_of`, partial traces by
double sums; and density operators' scaled tolerance and factors."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus import random_unitary
from qcirc.circuit import QuantumCircuit, unitary_gate
from qcirc.linalg import (
    CNOT,
    DEFAULT_TOL,
    H,
    I2,
    X,
    Y,
    Z,
    DensityOperator,
    LinalgError,
    _axes,
    apply,
    basis_ket,
    block_diagonal,
    completeness_defect,
    dagger,
    embed,
    is_hermitian,
    is_unitary,
    ket_to_density,
    kron_all,
    mat_close,
    operators,
    partial_trace,
    partial_trace_matrix,
    qubits,
    reindex,
    squared_norm,
    tensor,
    trace,
)
from qcirc.semantics import track_operators
from reference_walk import apply as dot_apply


def bits_of(index: int, n: int) -> tuple[int, ...]:
    """The n bits of a basis index, register 0's first."""
    return tuple((index >> (n - 1 - k)) & 1 for k in range(n))


def index_of(bits) -> int:
    """The basis index of bits, the first most significant."""
    out = 0
    for b in bits:
        out = (out << 1) | int(b)
    return out


def random_matrix(rng, dim):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def random_density(rng, dim, scale=1.0):
    b = random_matrix(rng, dim)
    return scale * (b @ b.conj().T)


# --- tensor and dagger ------------------------------------------------------


def kron_oracle(a, b):
    """Independent four-index definition of the Kronecker product."""
    (p, q), (r, s) = a.shape, b.shape
    out = np.zeros((p * r, q * s), dtype=complex)
    for i in range(p):
        for j in range(q):
            for k in range(r):
                for m in range(s):
                    out[i * r + k, j * s + m] = a[i, j] * b[k, m]
    return out


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3), st.integers(1, 3))
def test_tensor_matches_four_index_oracle(seed, da, db):
    rng = np.random.default_rng(seed)
    a, b = random_matrix(rng, da), random_matrix(rng, db)
    assert np.allclose(tensor(a, b), kron_oracle(a, b))


def test_tensor_known_values():
    assert np.array_equal(tensor(X, I2)[:2, 2:], I2)
    zx = tensor(Z, X)
    assert zx[0, 1] == 1 and zx[2, 3] == -1


def test_kron_all_associates_with_tensor():
    rng = np.random.default_rng(0)
    mats = [random_matrix(rng, 2) for _ in range(3)]
    assert np.allclose(kron_all(mats), tensor(tensor(mats[0], mats[1]), mats[2]))


def test_dagger_distributes_over_tensor():
    rng = np.random.default_rng(1)
    a, b = random_matrix(rng, 2), random_matrix(rng, 3)
    assert np.allclose(dagger(tensor(a, b)), tensor(dagger(a), dagger(b)))


def test_trace_non_square():
    with pytest.raises(LinalgError):
        trace(np.zeros((2, 3)))


# --- predicates -------------------------------------------------------------


def test_pauli_predicates():
    for p in (X, Y, Z, H, CNOT):
        assert is_unitary(p)
    assert is_hermitian(Z) and not is_hermitian(1j * Z)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 4))
def test_qr_unitaries_are_unitary(seed, dim):
    u = random_unitary(np.random.default_rng(seed), dim)
    assert is_unitary(u)
    assert mat_close(u @ dagger(u), np.eye(dim))


# --- basis indexing ---------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 8), st.data())
def test_bits_index_roundtrip(n, data):
    i = data.draw(st.integers(0, 2**n - 1))
    bits = bits_of(i, n)
    assert len(bits) == n and index_of(bits) == i


def test_register_zero_is_most_significant():
    # |1 0 0> has index 4 on three registers
    assert index_of((1, 0, 0)) == 4
    assert bits_of(4, 3) == (1, 0, 0)
    assert basis_ket(4, 3)[4] == 1.0


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 7), st.data())
def test_reindex_is_bits_then_index(n, data):
    """`reindex` reads the bits that `bits_of` gives the registers `frm` and
    joins those of `to` with `index_of`, on an int and on an int array, for
    `to` a permutation of `frm`, a part of it, or empty."""
    frm = data.draw(st.permutations(range(n)))[: data.draw(st.integers(0, n))]
    to = data.draw(st.permutations(frm))[: data.draw(st.integers(0, len(frm)))]
    index = np.arange(2 ** len(frm))

    def composed(i):
        bit = dict(zip(frm, bits_of(i, len(frm))))
        return index_of([bit[r] for r in to])

    want = [composed(i) for i in index.tolist()]
    assert [reindex(i, frm, to) for i in index.tolist()] == want
    got = reindex(index, frm, to)
    assert isinstance(got, np.ndarray) and got.tolist() == want


def reindex_reference(index, frm, to):
    """`reindex` a register at a time, as four operations on `index` each."""
    out = index & 0
    for r in to:
        out = out << 1 | index >> (len(frm) - 1 - frm.index(r)) & 1
    return out


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10), st.data())
def test_reindex_is_the_per_register_reference(n, data):
    """The one-pass `reindex` equals the per-register reference on random
    register permutations, as the walk's placement calls it (every index of
    the registers, in an intp array) and on each int, whose result stays an int."""
    frm = data.draw(st.permutations(range(n)), label="frm")
    to = data.draw(st.permutations(range(n)), label="to")
    index = np.arange(2**n, dtype=np.intp)
    got = reindex(index, frm, to)
    assert got.dtype == np.intp and np.array_equal(got, reindex_reference(index, frm, to))
    for i in data.draw(st.lists(st.integers(0, 2**n - 1), max_size=5), label="ints"):
        assert type(reindex(i, frm, to)) is int and reindex(i, frm, to) == reindex_reference(i, frm, to)


# --- embed ------------------------------------------------------------------


def embed_oracle(op, regs, n):
    """Independent basis-action definition: apply op to the listed bit
    positions of each basis column."""
    dim, k = 2**n, len(regs)
    out = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        bits = list(bits_of(col, n))
        sub = index_of([bits[r] for r in regs])
        for sub2 in range(2**k):
            nb = list(bits)
            for t, r in enumerate(regs):
                nb[r] = bits_of(sub2, k)[t]
            out[index_of(nb), col] += op[sub2, sub]
    return out


def test_embed_single_register_is_kron_chain():
    rng = np.random.default_rng(2)
    op = random_matrix(rng, 2)
    n = 3
    for r in range(n):
        mats = [op if j == r else I2 for j in range(n)]
        assert np.allclose(embed(op, [r], n), kron_all(mats))


def test_embed_reversed_cnot():
    # CNOT with control on register 1, target on register 0
    swapped = np.array(
        [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
    )
    assert np.allclose(embed(CNOT, [1, 0], 2), swapped)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 4), st.integers(1, 2))
def test_embed_matches_basis_oracle(seed, n, k):
    k = min(k, n)
    rng = np.random.default_rng(seed)
    regs = list(rng.choice(n, size=k, replace=False))
    op = random_matrix(rng, 2**k)
    assert np.allclose(embed(op, regs, n), embed_oracle(op, regs, n))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 5), st.data())
def test_apply_matches_basis_oracle(seed, n, data):
    k = data.draw(st.integers(1, min(n, 3)))
    regs = data.draw(st.permutations(range(n)))[:k]
    m = data.draw(st.integers(1, 2**n + 3).filter(lambda m: m != 2**n))
    rng = np.random.default_rng(seed)
    op = random_matrix(rng, 2**k)
    e = embed_oracle(op, regs, n)
    t = rng.normal(size=(2**n, m)) + 1j * rng.normal(size=(2**n, m))
    assert np.allclose(kernel(op, regs, t, n), e @ t)


def kernel(op, regs, t, n):
    """`apply` on one operator and one 2^n x m block."""
    return apply(operators([op], len(regs)), _axes(tuple(regs), n), t[None])[0]


def tensordot_apply(op, regs, t, n):
    """The contraction `apply` computes, spelled with tensordot and moveaxis."""
    k = len(regs)
    out = np.tensordot(op.reshape((2,) * (2 * k)), t.reshape((2,) * n + (t.shape[1],)),
                       axes=(list(range(k, 2 * k)), list(regs)))
    return np.moveaxis(out, list(range(k)), list(regs)).reshape(t.shape)


def columns(rng, rows, m, layout):
    """A random complex rows x m array: contiguous, a transpose, or a slice."""
    if layout == "transposed":
        return random_matrix(rng, max(rows, m))[:m, :rows].T
    if layout == "sliced":
        return random_matrix(rng, max(rows, 2 * m))[:rows, ::2][:, :m]
    return rng.normal(size=(rows, m)) + 1j * rng.normal(size=(rows, m))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 7), st.data())
def test_apply_is_the_tensordot_contraction_bit_for_bit(seed, n, data):
    k = data.draw(st.integers(1, min(n, 3)))
    regs = data.draw(st.permutations(range(n)))[:k]
    m = data.draw(st.sampled_from([0, 1, 5]))
    layout = data.draw(st.sampled_from(["contiguous", "transposed", "sliced"]))
    rng = np.random.default_rng(seed)
    op, t = random_matrix(rng, 2**k), columns(rng, 2**n, m, layout)
    assert t.shape == (2**n, m)
    assert np.array_equal(kernel(op, regs, t, n), tensordot_apply(op, regs, t, n))


@pytest.mark.parametrize("regs", [(2, 1, 0), (6, 0, 3), (5, 2), (0, 6), (3,)])
@pytest.mark.parametrize("layout", ["contiguous", "transposed", "sliced"])
def test_apply_on_descending_and_spread_registers(regs, layout):
    rng = np.random.default_rng(len(regs))
    op = random_matrix(rng, 2 ** len(regs))
    for m in (0, 1, 5):
        t = columns(rng, 2**7, m, layout)
        assert np.array_equal(kernel(op, regs, t, 7), tensordot_apply(op, regs, t, 7))


@pytest.mark.parametrize(
    "op, regs, t, message",
    [
        (np.eye(4), [1, 1], np.ones((8, 2)), "duplicate register in [1, 1]"),
        (np.eye(2), [3], np.ones((8, 2)), "register index out of range in [3]"),
        (np.eye(2), [-1], np.ones((8, 2)), "register index out of range in [-1]"),
        (np.eye(2), [0, 1], np.ones((8, 2)), "operator shape (2, 2) does not match arity 2"),
        (np.eye(2), [0], np.ones((4, 2)), "expected 8 rows, got shape (4, 2)"),
        (np.eye(2), [0], np.ones(8), "expected 8 rows, got shape (8,)"),
        (np.diag([1.0, np.nan]), [0], np.ones((8, 2)), "matrix has non-finite entries"),
        (np.diag([1.0, np.inf]), [0], np.ones((8, 2)), "matrix has non-finite entries"),
        (np.ones((2, 2, 1)), [0], np.ones((8, 2)), "expected a matrix, got ndim=3"),
        (np.eye(1), [], np.ones((8, 2)), "empty register list"),
    ],
)
def test_apply_error_messages(op, regs, t, message):
    """Each error of the `np.dot` kernel that `apply` replaced, from where it
    is checked now: `embed` checks its operator (`as_matrix`, `operators`)
    and registers (`_axes`), and the walk the rows of the block it is given."""
    with pytest.raises(LinalgError) as e:
        if t.shape == (8, 2):
            embed(op, regs, 3)
        else:
            track_operators(QuantumCircuit(("a", "b", "c"), (unitary_gate("u", regs, op),)), t)
    assert str(e.value) == message


def test_operators_names_the_least_wrong_shape():
    assert operators([I2, X], 1).shape == (2, 2, 2) and operators([], 2).shape == (0, 4, 4)
    with pytest.raises(LinalgError, match=r"^operator shape \(2, 2, 1\) does not match arity 1$"):
        operators([I2, np.eye(4), np.ones((2, 2, 1))], 1)


@settings(max_examples=90, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 7), st.data())
def test_embed_is_the_dot_kernel_bit_for_bit(seed, n, data):
    k = data.draw(st.integers(1, min(n, 3)))
    regs = data.draw(st.permutations(range(n)))[:k]
    op = random_matrix(np.random.default_rng(seed), 2**k)
    want = dot_apply(op, regs, np.eye(2**n, dtype=complex), n)
    assert embed(op, regs, n).tobytes() == want.tobytes()


def test_embed_is_multiplicative():
    rng = np.random.default_rng(3)
    a, b = random_matrix(rng, 4), random_matrix(rng, 4)
    regs = [2, 0]
    assert np.allclose(
        embed(a @ b, regs, 3), embed(a, regs, 3) @ embed(b, regs, 3)
    )


def test_embed_rejects_bad_shapes():
    with pytest.raises(LinalgError):
        embed(np.eye(2), [0, 1], 3)
    with pytest.raises(LinalgError):
        embed(np.eye(4), [0, 0], 3)
    with pytest.raises(LinalgError):
        embed(np.eye(2), [5], 3)


def test_commuting_disjoint_embeds():
    rng = np.random.default_rng(4)
    a, b = random_matrix(rng, 2), random_matrix(rng, 2)
    ea, eb = embed(a, [0], 3), embed(b, [2], 3)
    assert np.allclose(ea @ eb, eb @ ea)


# --- partial trace ----------------------------------------------------------


def ptrace_oracle(mat, n, keep):
    """Independent double-sum definition of the partial trace."""
    keep = sorted(keep)
    traced = [r for r in range(n) if r not in keep]
    k = len(keep)
    out = np.zeros((2**k, 2**k), dtype=complex)
    for a in range(2**k):
        for b in range(2**k):
            abits, bbits = bits_of(a, k), bits_of(b, k)
            for j in range(2 ** len(traced)):
                jbits = bits_of(j, len(traced))
                row, col = [0] * n, [0] * n
                for t, r in enumerate(keep):
                    row[r], col[r] = abits[t], bbits[t]
                for t, r in enumerate(traced):
                    row[r] = col[r] = jbits[t]
                out[a, b] += mat[index_of(row), index_of(col)]
    return out


def test_partial_trace_bell_state():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    rho = DensityOperator.from_ket(bell)
    for keep in ([0], [1]):
        red = partial_trace(rho, keep)
        assert mat_close(red.matrix, np.eye(2) / 2)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 4), st.data())
def test_partial_trace_matches_double_sum_oracle(seed, n, data):
    keep = sorted(
        data.draw(
            st.sets(st.integers(0, n - 1), min_size=1, max_size=n)
        )
    )
    rng = np.random.default_rng(seed)
    mat = random_matrix(rng, 2**n)
    assert np.allclose(
        partial_trace_matrix(mat, n, keep), ptrace_oracle(mat, n, keep)
    )


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(5)
    rho = DensityOperator(3, random_density(rng, 8, scale=0.7))
    red = partial_trace(rho, [1])
    assert abs(trace(red.matrix) - trace(rho.matrix)) <= 1e-12


def test_partial_trace_of_product_state():
    rng = np.random.default_rng(6)
    a, b = random_density(rng, 2), random_density(rng, 2)
    rho = DensityOperator(2, np.kron(a, b))
    assert mat_close(partial_trace(rho, [0]).matrix, a * np.trace(b).real, 1e-9)


def test_partial_trace_rejects_empty_keep():
    """And a kept register out of range, or a matrix of the wrong shape."""
    for mat, keep, message in [(np.eye(4), [], "nonempty"), (np.eye(4), [2], "out of range"),
                               (np.eye(4), [-1], "out of range"), (np.eye(2), [0], "expected 4x4")]:
        with pytest.raises(LinalgError, match=message):
            partial_trace_matrix(mat, 2, keep)


# --- density operators ------------------------------------------------------


def test_density_operator_accepts_unnormalized():
    rho = DensityOperator(1, np.diag([0.3, 0.1]).astype(complex))
    assert abs(np.trace(rho.normalized()) - 1) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(-1021, 500), st.integers(0, 2**32 - 1))
@example(-530, 0)
@example(-1021, 0)
def test_normalized_state_does_not_depend_on_its_scale(k, seed):
    """A factor K whose real and imaginary parts have magnitudes in [1/2, 1),
    scaled by 2^k: every bit of the normalized state is K's, even where
    K K^dag underflows, and where ||K||^2 does (k below -537), down to the
    least k at which the parts stay normal."""
    rng = np.random.default_rng(seed)
    k0 = rng.choice([-1.0, 1.0], (2, 4, 2)) * rng.uniform(0.5, 1.0, (2, 4, 2))
    k0 = k0[0] + 1j * k0[1]
    base = DensityOperator(2, factor=k0).normalized()
    assert DensityOperator(2, factor=k0 * 2.0**k).normalized().tobytes() == base.tobytes()


def test_factor_whose_trace_underflows_is_a_state():
    """Only a zero factor has zero trace: the ket (1e-170, 0), whose
    ||K||^2 = 1e-340 underflows to 0, is a state, and `scaled` is its factor
    times a power of two whose trace is a normal float."""
    rho = DensityOperator.from_ket(np.array([1e-170, 0.0]))
    assert squared_norm(rho.factor) == 0.0
    k, e = rho.scaled
    assert np.array_equal(np.ldexp(k.real, e), rho.factor.real) and squared_norm(k) >= np.finfo(float).tiny
    assert not k.flags.writeable
    assert np.array_equal(rho.normalized(), np.diag([1.0, 0.0]))
    with pytest.raises(LinalgError, match="zero trace"):
        DensityOperator.from_ket(np.array([0.0, -0.0]))


def test_density_operator_rejects_invalid():
    with pytest.raises(LinalgError):
        DensityOperator(1, np.array([[0, 1], [0, 0]], dtype=complex))  # not Hermitian
    with pytest.raises(LinalgError):
        DensityOperator(1, Z)  # not PSD
    with pytest.raises(LinalgError):
        DensityOperator(1, np.zeros((2, 2), dtype=complex))  # zero trace
    with pytest.raises(LinalgError):
        DensityOperator(2, np.eye(2, dtype=complex))  # wrong size


def test_density_operator_tolerance_scales_with_the_entries():
    """A path of 30 fair measurements has trace 2^-30, below the absolute
    1e-9; an eigenvalue of -5e-10 next to 1e-6 is far from PSD at that scale."""
    DensityOperator(1, np.diag([2.0**-30, 0.0]).astype(complex))
    rejected = [
        (1, np.diag([1e-6, -5e-10]), "positive semidefinite"),
        (1, np.array([[0, 1], [0, 0]]), "not Hermitian"),
        (1, Z, "positive semidefinite"),
        (1, np.zeros((2, 2)), "zero trace"),
        (2, np.eye(2), "expected 4x4"),
    ]
    for n, m, message in rejected:
        with pytest.raises(LinalgError, match=message):
            DensityOperator(n, m.astype(complex))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("length", [0, 3, 6, 12])
def test_from_ket_rejects_non_power_of_two_length(length):
    with pytest.raises(LinalgError, match="power of two"):
        DensityOperator.from_ket(np.ones(length))


def test_factored_state_is_the_ket_density():
    """from_ket keeps the ket as the factor; its matrix is ket_to_density's,
    bit for bit, and the rejections are those of the dense state."""
    rng = np.random.default_rng(8)
    for n in range(5):
        v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        rho = DensityOperator.from_ket(v)
        assert rho.factor.shape == (2**n, 1)
        assert np.array_equal(rho.matrix, ket_to_density(v))
    k = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    assert np.array_equal(DensityOperator(2, factor=k).matrix, k @ k.conj().T)
    with pytest.raises(LinalgError, match="zero trace"):
        DensityOperator.from_ket(np.zeros(4))
    with pytest.raises(LinalgError, match="non-finite"):
        DensityOperator.from_ket(np.array([np.nan, 0.0]))
    with pytest.raises(LinalgError, match="expected 4x1"):
        DensityOperator(2, factor=np.ones((2, 1)))


def test_matrix_state_carries_its_eigh_factor():
    """A matrix input keeps the given array as `matrix` and carries the factor
    of its positive eigenvalues: rank 2 for I/2, rank 1 for diag(1, 0)."""
    for m, rank in ((np.eye(2, dtype=complex) / 2, 2), (np.diag([1.0, 0.0]).astype(complex), 1)):
        rho = DensityOperator(1, m)
        assert rho.factor.shape == (2, rank)
        assert np.array_equal(rho.matrix, m)
        assert np.max(np.abs(rho.factor @ rho.factor.conj().T - m)) <= 1e-15


@pytest.mark.filterwarnings("error")
def test_states_near_the_float_limit_are_checked_without_warnings():
    """A trace that overflows is rejected; a finite one is checked without
    overflowing in the Hermitian part or in the Hermiticity comparison."""
    with pytest.raises(LinalgError, match="trace overflows"):
        DensityOperator.from_ket(np.full(8, 1e154))
    with pytest.raises(LinalgError, match="trace overflows"):
        DensityOperator(3, np.diag([1e308, 1e308, 0, 0, 0, 0, 0, 0]).astype(complex))
    DensityOperator(3, np.diag([1e308, 0, 0, 0, 0, 0, 0, 0]).astype(complex))
    with pytest.raises(LinalgError, match="not Hermitian"):
        DensityOperator(1, np.array([[1, 1e308], [-1e308, 1]], dtype=complex))


def test_qubits_of_dimension():
    assert [qubits(d) for d in (0, 1, 2, 3, 4, 6, 8, 2**40)] == [None, 0, 1, None, 2, None, 3, 40]


def test_completeness_defect():
    p0, p1 = np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)
    assert completeness_defect([p0, p1]) == 0.0
    assert completeness_defect([p0]) == 1.0
    assert completeness_defect([H / np.sqrt(2), X / np.sqrt(2)]) <= 1e-15


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
def test_block_diagonal_is_exact_commutation_with_a_register_projector(k, count, seed, p):
    """`block_diagonal(ops, j)` holds iff every op commutes, bit for bit,
    with the projector |b><b| on its j-th register for b = 0 and 1, on ops
    whose entries are each 0 with probability p."""
    rng = np.random.default_rng(seed)
    d = 2**k
    ops = [(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) * (rng.random((d, d)) >= p) for _ in range(count)]
    for j in range(k):
        projectors = [embed(np.diag(e), [j], k) for e in np.eye(2)]
        commutes = all(np.array_equal(a @ q, q @ a) for a in ops for q in projectors)
        assert block_diagonal(ops, j) == commutes


def test_block_diagonal_has_no_tolerance():
    """A control register, a diagonal gate and a target register, and an
    off-block entry of 1e-17, which a tolerance would take for a zero."""
    cz = np.diag([1.0, 1, 1, -1]).astype(complex)
    assert block_diagonal([CNOT], 0) and not block_diagonal([CNOT], 1)
    assert block_diagonal([cz], 0) and block_diagonal([cz], 1)
    assert block_diagonal([cz, np.kron(I2, X)], 0) and not block_diagonal([cz, np.kron(I2, X)], 1)
    near = cz.copy()
    near[0, 2] = 1e-17
    assert not block_diagonal([near], 0) and block_diagonal([near], 1)


def test_ket_to_density_projector():
    psi = np.array([0.6, 0.8j])
    rho = ket_to_density(psi)
    assert mat_close(rho @ rho, rho, 1e-12)
    assert abs(np.trace(rho) - 1) <= 1e-12


def test_default_tolerance_value():
    assert DEFAULT_TOL == 1e-9
