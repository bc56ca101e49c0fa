"""Dense complex linear algebra on qubit registers.

All operators and states are numpy complex128 arrays. Register 0 is the
most significant bit of the computational-basis index, so the basis state
|a0 a1 ... a_{n-1}> has index sum(a_k * 2**(n-1-k)). Reshaping a 2^n x m
array to shape (2,)*n + (m,) therefore gives register r its own axis r (in
C order). `apply`, the one kernel that applies operators to states,
contracts a stack of them with just the axes of their registers; `reindex`
maps a basis index between register lists.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np

DEFAULT_TOL = 1e-9
MAX_ENTRIES = np.iinfo(np.intp).max // np.dtype(complex).itemsize  # numpy's limit on the entries of a complex array

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


class LinalgError(ValueError):
    pass


def as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise LinalgError(f"expected a matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise LinalgError("matrix has non-finite entries")
    return m


def tensor(a, b) -> np.ndarray:
    """Kronecker product a (x) b."""
    return np.kron(as_matrix(a), as_matrix(b))


def dagger(a) -> np.ndarray:
    return as_matrix(a).conj().T


def trace(a) -> complex:
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise LinalgError(f"trace of non-square matrix {a.shape}")
    return complex(np.trace(a))


def mat_close(a, b, tol: float = DEFAULT_TOL) -> bool:
    a, b = as_matrix(a), as_matrix(b)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed difference fails the comparison
        return a.shape == b.shape and bool(np.max(np.abs(a - b)) <= tol)


def is_unitary(a, tol: float = DEFAULT_TOL) -> bool:
    a = as_matrix(a)
    return a.shape[0] == a.shape[1] and bool(gram_defects(a[None], [1])[1][0] <= tol)


def is_hermitian(a, tol: float = DEFAULT_TOL) -> bool:
    a = as_matrix(a)
    return a.shape[0] == a.shape[1] and mat_close(a, a.conj().T, tol)


def basis_ket(index: int, n: int) -> np.ndarray:
    v = np.zeros(2**n, dtype=complex)
    v[index] = 1.0
    return v


def fits(*shape: int) -> tuple:
    """`shape`, or MemoryError if a complex array of it would have more than MAX_ENTRIES entries."""
    if math.prod(shape) > MAX_ENTRIES:
        raise MemoryError(f"an array of shape {shape} is too large")
    return shape


def qubits(dim: int) -> Optional[int]:
    """n when `dim` is 2^n, else None."""
    return dim.bit_length() - 1 if dim > 0 and dim & (dim - 1) == 0 else None


def gram_defects(stack: np.ndarray, counts: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """For a stack of d x d operators cut into consecutive families of `counts` (each >= 1): whether
    each operator is finite, and each family's max |sum A^dag A - I| over the entries (inf or NaN on
    overflow). Every A^dag A is one batched product, and a family's are added in order, so its sum has
    the bits of adding its products one by one; beside the stack, it holds A^dag and the products."""
    with np.errstate(over="ignore", invalid="ignore"):
        acc = products = np.matmul(stack.conj().swapaxes(1, 2), stack)
        if len(products) > len(counts):  # to each family's first product, add its others in order
            top, counts = max(counts), np.asarray(counts)
            starts = counts.cumsum() - counts
            acc = products[starts]
            for j in range(1, top):
                acc[counts > j] += products[starts[counts > j] + j]
        acc.reshape(len(acc), -1)[:, :: stack.shape[1] + 1] -= 1  # minus I
        return np.isfinite(stack).all(axis=(1, 2)), np.abs(acc).max(axis=(1, 2))


def completeness_defect(ops: Iterable[np.ndarray]) -> float:
    """max |sum A^dag A - I| over the entries, for a nonempty family of
    operators of one shape; inf or NaN when the sum overflows."""
    stack = np.stack(list(ops))
    return float(gram_defects(stack, [len(stack)])[1][0])


def squared_norm(k: np.ndarray) -> float:
    """||k||_F^2, the trace of k k^dag; inf when it overflows."""
    return float(np.vdot(k, k).real)


def rescale(k: np.ndarray, e: Optional[int] = None) -> tuple[np.ndarray, int]:
    """(k * 2^-e, e), written over k if k is writable and contiguous; by default
    e is the `np.frexp` exponent of k's largest real or imaginary part, so the
    result's ||.||_F^2 is a normal float. Exact where the parts stay normal."""
    parts = np.ascontiguousarray(k).view(float)
    e = math.frexp(np.abs(parts).max())[1] if e is None else e
    return np.ldexp(parts, -e, out=parts if parts.flags.writeable else None).view(complex), e


class DensityOperator:
    """Possibly un-normalized density operator on n qubits, held as a factor
    K (2^n x r) with rho = K K^dag.

    Hermitian and PSD within tolerance, trace strictly positive and finite;
    trace 1 is not required. A sampled path's state may be arbitrarily small,
    so the tolerance is DEFAULT_TOL times the largest entry's magnitude.

    Given a matrix, K is the eigenbasis of its positive eigenvalues scaled by
    their square roots, from the eigendecomposition that checks PSD, and
    `matrix` is the given array. Given a factor, the state is PSD by
    construction, so only K's entries are checked: finite, not all 0, and with
    a finite trace ||K||_F^2 (which may underflow). `matrix` is built from K
    when first read."""

    def __init__(self, n_qubits: int, matrix=None, *, factor=None):
        self.n_qubits = n_qubits
        m = as_matrix(matrix if factor is None else factor)
        rows, cols = 2**n_qubits, 2**n_qubits if factor is None else m.shape[1]
        if m.shape != (rows, cols):
            raise LinalgError(f"expected {rows}x{cols} matrix, got {m.shape}")
        with np.errstate(over="ignore"):
            tr = trace(m).real if factor is None else squared_norm(m)
        if not np.isfinite(tr):
            raise LinalgError("state too large: its trace overflows")
        if factor is not None:
            if tr == 0.0 and not m.any():  # a nonzero K whose trace underflows is a state
                raise LinalgError("density operator has (near-)zero trace")
            self.factor = m
            return
        tol = DEFAULT_TOL * float(np.max(np.abs(m)))
        if not is_hermitian(m, tol):
            raise LinalgError("density operator is not Hermitian")
        w, v = np.linalg.eigh(m / 2 + m.conj().T / 2)  # halves first, so finite entries cannot overflow
        if np.min(w) < -tol:
            raise LinalgError("density operator is not positive semidefinite")
        if tr <= tol:
            raise LinalgError("density operator has (near-)zero trace")
        self.factor, self.matrix = v[:, w > 0] * np.sqrt(w[w > 0]), m

    @cached_property
    def matrix(self) -> np.ndarray:
        k = self.factor
        return np.outer(k[:, 0], k[:, 0].conj()) if k.shape[1] == 1 else k @ k.conj().T

    @cached_property
    def scaled(self) -> tuple[np.ndarray, int]:
        """(2^-e K, e) of `rescale`, read-only: what the walks and
        probabilities of this state start from, so that its scale changes no bit."""
        k, e = rescale(self.factor.copy())
        k.flags.writeable = False
        return k, e

    @classmethod
    def from_ket(cls, psi) -> "DensityOperator":
        v = np.asarray(psi, dtype=complex).reshape(-1, 1)
        n = qubits(v.shape[0])
        if n is None:
            raise LinalgError("ket length is not a power of two")
        return cls(n, factor=v)

    def normalized(self) -> np.ndarray:
        """rho / tr(rho) from K as `scaled`, so rho's scale changes no bit."""
        m = DensityOperator(self.n_qubits, factor=self.scaled[0]).matrix
        return m / trace(m).real


def partial_trace_matrix(mat: np.ndarray, n: int, keep: Iterable[int]) -> np.ndarray:
    keep = sorted(set(keep))
    if not keep:
        raise LinalgError("keep set must be nonempty")
    if any(r < 0 or r >= n for r in keep):
        raise LinalgError(f"register index out of range in {keep}")
    mat = as_matrix(mat)
    if mat.shape != (2**n, 2**n):
        raise LinalgError(f"expected {2**n}x{2**n} matrix, got {mat.shape}")
    traced = [r for r in range(n) if r not in keep]
    k = len(keep)
    t = mat.reshape((2,) * (2 * n))
    order = keep + traced
    t = np.transpose(t, [*order, *[n + a for a in order]])
    t = t.reshape(2**k, 2 ** (n - k), 2**k, 2 ** (n - k))
    return np.einsum("ajbj->ab", t)


def partial_trace(rho: DensityOperator, keep: Iterable[int]) -> DensityOperator:
    """Trace out every register not in `keep`; kept registers stay in
    ascending-index order. Preserves the trace."""
    keep = sorted(set(keep))
    out = partial_trace_matrix(rho.matrix, rho.n_qubits, keep)
    return DensityOperator(len(keep), out)


@lru_cache(maxsize=256)
def _axes(registers: tuple, n: int) -> tuple[tuple, tuple]:
    """Axes of a (f,) + (2,)*n + (m,) tensor with the registers' first after
    f, and the inverse order; LinalgError for no, a repeated or an unknown register."""
    if not registers:
        raise LinalgError("empty register list")
    if len(set(registers)) != len(registers):
        raise LinalgError(f"duplicate register in {list(registers)}")
    if any(r < 0 or r >= n for r in registers):
        raise LinalgError(f"register index out of range in {list(registers)}")
    perm = (0, *(r + 1 for r in registers), *(a for a in range(1, n + 2) if a - 1 not in registers))
    return perm, tuple(sorted(range(n + 2), key=perm.__getitem__))


def apply(a: np.ndarray, axes: tuple, x: np.ndarray) -> np.ndarray:
    """Operators a on their registers' tensor axes (`axes`, from `_axes`) of
    a frontier x of f blocks (2^n, m): each block by every operator of a
    (w, d, d) stack, or block i by a[i] of an (f, 1, d, d) stack. One
    transpose brings the registers' axes to the front, and one batched
    `np.matmul` makes d x d by d x (2^n / d * m) products, bit for bit the
    contraction `np.tensordot` forms. The operators are not checked here:
    validation checks the walk's, and `embed` checks its own."""
    (f, rows, m), (w, d) = x.shape, a.shape[-3:-1]
    y = x.reshape(f, *(2,) * (rows.bit_length() - 1), m).transpose(axes[0])
    out = np.matmul(a, y.reshape(f, 1, d, rows // d * m))
    return out.reshape(f * w, *y.shape[1:]).transpose(axes[1]).reshape(f * w, rows, m)


def embed(op: np.ndarray, registers: Sequence[int], n: int) -> np.ndarray:
    """Lift a 2^k x 2^k operator acting on the listed registers (in the listed
    order) to the full 2^n x 2^n space, identity on the other registers: the
    kernel `apply` on a frontier of one identity block. LinalgError if op
    is not 2^k x 2^k for k registers."""
    a, k = as_matrix(op), len(registers)
    if a.shape != (2**k, 2**k):
        raise LinalgError(f"operator shape {a.shape} does not match arity {k}")
    return apply(np.array([a]), _axes(tuple(registers), n), np.eye(2**n, dtype=complex)[None])[0]


def reindex(index, frm: Sequence[int], to: Sequence[int]):
    """A basis index over the registers `frm` (the first one most significant)
    as an index over `to`, registers among `frm` in any order: the bits of
    `to`'s registers, in its order, in one array pass. `index` is an int or an int array, and so is the result."""
    at = np.array([len(frm) - 1 - frm.index(r) for r in to], dtype=np.intp)
    out = (np.asarray(index)[..., None] >> at & 1) @ (1 << np.arange(len(to), dtype=np.intp)[::-1])
    return out if isinstance(index, np.ndarray) else int(out)


def block_diagonal(ops: Sequence[np.ndarray], j: int) -> bool:
    """Whether every operator of ops, on the same registers, is exactly 0 (no
    tolerance) wherever row and column differ in its j-th register's bit, the
    first most significant: so it commutes with a standard measurement of it."""
    i = np.arange(len(ops[0]))
    off = ((i[:, None] ^ i) >> (len(i).bit_length() - 2 - j) & 1).astype(bool)
    return not any(a[off].any() for a in ops)
