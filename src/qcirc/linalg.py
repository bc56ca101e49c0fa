"""Dense complex linear algebra on qubit registers.

All operators and states are numpy complex128 arrays. Register 0 is the
most significant bit of the computational-basis index, so the basis state
|a0 a1 ... a_{n-1}> has index sum(a_k * 2**(n-1-k)). Reshaping a 2^n x m
array to shape (2,)*n + (m,) therefore gives register r its own axis r (in
C order), and `apply` contracts an operator with just the axes of the
registers it acts on.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np

DEFAULT_TOL = 1e-9

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


def kron_all(mats: Iterable[np.ndarray]) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


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
    if a.shape[0] != a.shape[1]:
        return False
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed product fails the comparison
        return bool(np.max(np.abs(a.conj().T @ a - np.eye(a.shape[0]))) <= tol)


def is_hermitian(a, tol: float = DEFAULT_TOL) -> bool:
    a = as_matrix(a)
    return a.shape[0] == a.shape[1] and mat_close(a, a.conj().T, tol)


def bits_of(index: int, n: int) -> tuple[int, ...]:
    return tuple((index >> (n - 1 - k)) & 1 for k in range(n))


def index_of(bits: Sequence[int]) -> int:
    out = 0
    for b in bits:
        out = (out << 1) | int(b)
    return out


def basis_ket(index: int, n: int) -> np.ndarray:
    v = np.zeros(2**n, dtype=complex)
    v[index] = 1.0
    return v


def qubits(dim: int) -> Optional[int]:
    """n when `dim` is 2^n, else None."""
    return dim.bit_length() - 1 if dim > 0 and dim & (dim - 1) == 0 else None


def completeness_defect(ops: Iterable[np.ndarray]) -> float:
    """max |sum A^dag A - I| over the entries, for a nonempty family of
    operators of one shape; inf or NaN when the sum overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        acc = sum(a.conj().T @ a for a in ops)
        return float(np.max(np.abs(acc - np.eye(acc.shape[0]))))


def ket_to_density(psi) -> np.ndarray:
    v = np.asarray(psi, dtype=complex).reshape(-1)
    return np.outer(v, v.conj())


def squared_norm(k: np.ndarray) -> float:
    """||k||_F^2, the trace of k k^dag; inf when it overflows."""
    return float(np.vdot(k, k).real)


class DensityOperator:
    """Possibly un-normalized density operator on n qubits, held as a factor
    K (2^n x r) with rho = K K^dag.

    Hermitian and PSD within tolerance, trace strictly positive and finite;
    trace 1 is not required. A sampled path's state may be arbitrarily small,
    so the tolerance is DEFAULT_TOL times the largest entry's magnitude.

    Given a matrix, K is the eigenbasis of its positive eigenvalues scaled by
    their square roots, from the eigendecomposition that checks PSD, and
    `matrix` is the given array. Given a factor, the state is PSD by
    construction, so only K's entries and its trace ||K||_F^2 are checked, and
    `matrix` is built from K when first read.
    """

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
            if tr <= 0.0:  # the largest entry of K K^dag is at most its trace
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

    @classmethod
    def from_ket(cls, psi) -> "DensityOperator":
        v = np.asarray(psi, dtype=complex).reshape(-1, 1)
        n = qubits(v.shape[0])
        if n is None:
            raise LinalgError("ket length is not a power of two")
        return cls(n, factor=v)

    def normalized(self) -> np.ndarray:
        return self.matrix / trace(self.matrix).real


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
    """Axes of a (2,)*n + (m,) tensor, the registers' first; and the inverse order."""
    perm = (*registers, *(a for a in range(n + 1) if a not in registers))
    return perm, tuple(sorted(range(n + 1), key=perm.__getitem__))


def apply(op: np.ndarray, registers: Sequence[int], t: np.ndarray, n: int) -> np.ndarray:
    """embed(op, registers, n) @ t for a 2^n x m array t, bit for bit the
    product `np.tensordot` forms: one transpose (cached by `_axes`) brings the
    registers' tensor axes to the front, and one `np.dot` contracts them."""
    op = as_matrix(op)
    regs = list(registers)
    k = len(regs)
    if len(set(regs)) != k:
        raise LinalgError(f"duplicate register in {regs}")
    if any(r < 0 or r >= n for r in regs):
        raise LinalgError(f"register index out of range in {regs}")
    if op.shape != (2**k, 2**k):
        raise LinalgError(f"operator shape {op.shape} does not match arity {k}")
    if t.ndim != 2 or t.shape[0] != 2**n:
        raise LinalgError(f"expected {2**n} rows, got shape {t.shape}")
    perm, inverse = _axes(tuple(regs), n)
    x = t.reshape((2,) * n + (t.shape[1],)).transpose(perm)
    out = np.dot(op, x.reshape(2**k, 2 ** (n - k) * t.shape[1]))
    return out.reshape(x.shape).transpose(inverse).reshape(t.shape)


def embed(op: np.ndarray, registers: Sequence[int], n: int) -> np.ndarray:
    """Lift a 2^k x 2^k operator acting on the listed registers (in the listed
    order) to the full 2^n x 2^n space, identity on the other registers."""
    return apply(op, registers, np.eye(2**n, dtype=complex), n)
