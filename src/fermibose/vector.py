"""Sparse vectors {key: amplitude}, the one vectors-to-matrix frame and
the sparse matrices built from them.

SparseVector carries the arithmetic shared by fock.FermionVector (keys are
determinants) and boson.BosonVector (keys are monomials).  frame() turns
many vectors into a CSR matrix with one column each; the isometry and
subspace-bound Gram matrices are built through it and gram() (the H2
pair terms take SparseVector.inner).  CSR is a record of numpy arrays
whose every operation, gram()'s and lowest_eigenpair's too, is one of
scipy.sparse's C kernels (csr_matvec, csr_matmat, csr_plus_csr,
csr_tocsc, csr_todense), which extension() loads from its file without
the scipy.sparse package, so they keep scipy.sparse's bytes.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys

import numpy as np

# relative amplitude drop threshold after vector arithmetic
DROP_TOL = 1e-14


def ordered_sum(values):
    """Numbers added left to right from 0.0, as sum() added floats before
    Python 3.12 and complex numbers before 3.14."""
    total = 0.0
    for v in values:
        total += v
    return total


class SparseVector:
    """Finite sparse vector {key: amplitude} with orthonormal keys.

    Instances are treated as immutable once returned; arithmetic produces
    new vectors of the same class.  Amplitudes smaller than DROP_TOL
    relative to the vector norm are dropped by pruned(), which every
    operator application calls.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = dict(terms) if terms else {}

    @classmethod
    def finish(cls, acc: dict):
        """The vector of accumulated amplitudes, pruned, so exact zeros go.

        acc becomes the vector's terms unless pruned() drops one: the
        caller hands over a fresh accumulator and keeps no reference.
        """
        vec = cls.__new__(cls)
        vec.terms = acc
        return vec.pruned()

    def norm_sq(self) -> float:
        return ordered_sum((a * a.conjugate()).real for a in self.terms.values())

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def overlaps(self, other):
        """(key, conj(a) b) over the shared keys, in the shorter vector's order."""
        a, b = self.terms, other.terms
        if len(b) < len(a):
            return ((key, a[key].conjugate() * v) for key, v in b.items() if key in a)
        return ((key, v.conjugate() * b[key]) for key, v in a.items() if key in b)

    def inner(self, other) -> complex:
        """<self|other>, antilinear in self."""
        return ordered_sum(p for _, p in self.overlaps(other))

    def __add__(self, other):
        out = dict(self.terms)
        for key, v in other.terms.items():
            out[key] = out.get(key, 0j) + v
        return type(self)(out).pruned()

    def __sub__(self, other):
        return self + -other

    def __mul__(self, c):
        c = complex(c)
        return type(self)({key: c * v for key, v in self.terms.items()})

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def pruned(self, tol: float = DROP_TOL):
        """Drops amplitudes at or below tol * norm; self when none is."""
        if not self.terms:
            return self
        cut = tol * self.norm()
        if min(map(abs, self.terms.values())) > cut:
            return self
        return type(self)({key: v for key, v in self.terms.items() if abs(v) > cut})

    def normalized(self):
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return self * (1.0 / n)

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        return f"{type(self).__name__}({len(self.terms)} terms, norm={self.norm():.6g})"


class CSR:
    """A sparse matrix by compressed rows: row i stores data[indptr[i] :
    indptr[i + 1]] at the columns indices[indptr[i] : indptr[i + 1]].

    Each operation is one of scipy.sparse's own kernels on the arrays
    scipy.sparse passes it: csr_matvec and csr_matmat for @, csr_plus_csr
    for +, csr_tocsc for T and csr_todense for toarray().  So each entry
    sums its terms from zero in stored order, and a matrix product or sum
    drops the entries that come to exactly zero, as csr_matrix's @ with
    sort_indices(), + and .T.tocsr() do.
    """

    __slots__ = ("data", "indices", "indptr", "shape")

    def __init__(self, data, indices, indptr, shape):
        self.data, self.indices, self.indptr, self.shape = data, indices, indptr, tuple(shape)

    @classmethod
    def from_counts(cls, data, indices, counts, shape):
        """The matrix of entries listed row by row, counts[i] in row i."""
        dtype = _index_dtype(*shape, len(data))
        indptr = np.zeros(shape[0] + 1, dtype=dtype)
        np.cumsum(counts, out=indptr[1:])
        return cls(data, indices.astype(dtype, copy=False), indptr, shape)

    @property
    def nnz(self) -> int:
        return len(self.data)

    def rows(self, a, b):
        """Rows a..b-1, over views of self's entries."""
        start, end = self.indptr[a], self.indptr[b]
        indptr = self.indptr[a : b + 1] - start
        return CSR(self.data[start:end], self.indices[start:end], indptr, (b - a, self.shape[1]))

    @property
    def T(self):
        """The transpose, by csr_tocsc: each row's columns ascend."""
        (m, n), dtype = self.shape, self.data.dtype
        indptr, indices = _cast(_index_dtype(m, n, self.nnz), self.indptr, self.indices)
        tp, tj = np.empty(n + 1, indptr.dtype), np.empty_like(indices)
        tx = np.empty(self.nnz, dtype)
        kernels = extension("sparse", "_sparsetools")
        kernels.csr_tocsc(m, n, indptr, indices, *_cast(dtype, self.data), tp, tj, tx)
        return CSR(tx, tj, tp, (n, m))

    def toarray(self, order="C"):
        """The dense array, by csr_todense; in Fortran order, the C-order
        array of T, transposed, as csr_matrix's toarray makes it."""
        if order == "F":
            return self.T.toarray().T
        out = np.zeros(self.shape, dtype=self.data.dtype)
        indptr, indices = _cast(_index_dtype(*self.shape, self.nnz), self.indptr, self.indices)
        kernels = extension("sparse", "_sparsetools")
        kernels.csr_todense(*self.shape, indptr, indices, *_cast(out.dtype, self.data), out)
        return out

    def __add__(self, other):
        """self + other, by csr_plus_csr on rows whose columns ascend
        without repeats (csr_has_canonical_format; ValueError otherwise):
        each entry adds its two terms, those that come to exactly zero
        are dropped, and the arrays are cut to the kept entries by a
        copy, as csr_matrix's + and its prune() make it."""
        if self.shape != other.shape:
            raise ValueError(f"a {self.shape} matrix plus a {other.shape} matrix")
        (m, n), nnz = self.shape, self.nnz + other.nnz
        dtype, index = np.result_type(self.data, other.data), _index_dtype(m, n, nnz)
        ap, aj, bp, bj = _cast(index, self.indptr, self.indices, other.indptr, other.indices)
        kernels = extension("sparse", "_sparsetools")
        if not all(kernels.csr_has_canonical_format(m, p, j) for p, j in ((ap, aj), (bp, bj))):
            raise ValueError("a sum of rows whose columns do not ascend without repeats")
        ax, bx = _cast(dtype, self.data, other.data)
        indptr, indices, data = np.empty(m + 1, index), np.empty(nnz, index), np.empty(nnz, dtype)
        kernels.csr_plus_csr(m, n, ap, aj, ax, bp, bj, bx, indptr, indices, data)
        return CSR(data[: indptr[-1]].copy(), indices[: indptr[-1]].copy(), indptr, self.shape)

    def __matmul__(self, other):
        if isinstance(other, CSR):
            return _product(self, other)
        other = np.asarray(other)
        if other.shape != self.shape[1:]:
            raise ValueError(f"a {self.shape} matrix times a vector of shape {other.shape}")
        dtype = np.result_type(self.data, other)
        out = np.zeros(self.shape[0], dtype=dtype)
        indptr, indices = _cast(_index_dtype(*self.shape, self.nnz), self.indptr, self.indices)
        data, x = _cast(dtype, self.data, other)
        extension("sparse", "_sparsetools").csr_matvec(*self.shape, indptr, indices, data, x, out)
        return out


@functools.cache
def extension(package, name):
    """scipy's compiled extension scipy.<package>.<name>, loaded from its
    file alone, or the module scipy already imported: the scipy.sparse or
    scipy.linalg package would also load scipy._lib._array_api and with
    it numpy.f2py, numpy.testing, numpy.ma and numpy.random.  It enters
    sys.modules, so a later import of its package takes this module but
    binds no package attribute (scipy.sparse._sparsetools raises
    AttributeError): reach the module through sys.modules."""
    import scipy

    full = f"scipy.{package}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    where = os.path.join(os.path.dirname(scipy.__file__), package)
    loader = (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES)
    spec = importlib.machinery.FileFinder(where, loader).find_spec(full)
    if spec is None:
        raise ImportError(f"no {full} extension in {where}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[full] = module
    return module


def _index_dtype(*sizes):
    """int32 while it holds every size, as scipy.sparse picks."""
    return np.int32 if max(sizes) < 2**31 else np.int64


def _cast(dtype, *arrays):
    """The arrays as the kernels take them: C-contiguous, of one dtype."""
    return [np.ascontiguousarray(x, dtype=dtype) for x in arrays]


_TERMS = 1 << 14  # terms per row block of hamiltonian_matrix's chain of sums


def row_blocks(terms):
    """(a, b) ranges of rows that hold about _TERMS terms each, given each
    row's terms; a row of more terms is a block of its own."""
    cum = np.cumsum(terms)
    total = int(cum[-1]) if len(cum) else 0
    cuts = np.searchsorted(cum, np.arange(_TERMS, total, _TERMS)) + 1
    cuts = distinct(np.concatenate(([0], cuts, [len(terms)]))).tolist()
    return zip(cuts[:-1], cuts[1:])


def distinct(x):
    """The distinct entries of an ascending array, in order: one mask, as
    np.unique's path without indices would, which imports numpy.ma."""
    fresh = np.ones(len(x), dtype=bool)
    fresh[1:] = x[1:] != x[:-1]
    return x[fresh]


def _product(a, b):
    """a @ b as scipy.sparse's csr_matrix @ makes it: csr_matmat_maxnnz
    bounds the entries, which set the index dtype, csr_matmat sums each
    entry, csr_sort_indices orders each row, and the arrays end at
    indptr[-1], after the entries that summed to zero."""
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"a {a.shape} matrix times a {b.shape} matrix")
    (m, _), (_, n) = a.shape, b.shape
    kernels, dtype = extension("sparse", "_sparsetools"), np.result_type(a.data, b.data)
    sizes = (*a.shape, n, a.nnz, b.nnz)
    pattern = _cast(_index_dtype(*sizes), a.indptr, a.indices, b.indptr, b.indices)
    nnz = int(kernels.csr_matmat_maxnnz(m, n, *pattern))
    ap, aj, bp, bj = _cast(_index_dtype(*sizes, nnz), *pattern)
    ax, bx = _cast(dtype, a.data, b.data)
    indptr = np.empty(m + 1, ap.dtype)
    indices, data = np.empty(nnz, ap.dtype), np.empty(nnz, dtype)
    kernels.csr_matmat(m, n, ap, aj, ax, bp, bj, bx, indptr, indices, data)
    kernels.csr_sort_indices(m, indptr, indices, data)
    end = indptr[-1]
    return CSR(data[:end], indices[:end], indptr, (m, n))


_KRYLOV, _KEPT = 20, 10  # Lanczos vectors held, and Ritz vectors kept at a restart
_CYCLES = 1000  # Lanczos cycles, the first and each restart, before giving up
_FLOOR = 1000 * np.finfo(float).eps  # residual floor, relative to max row sum |h|


def lowest_eigenpair(h, tol):
    """(energy, vector): the lowest eigenvalue of the real symmetric CSR
    h and a unit eigenvector, by Lanczos with full reorthogonalisation
    and thick restarts (Wu and Simon, SIAM J. Matrix Anal. Appl. 22, 602
    (2000)): _KRYLOV vectors at most, the _KEPT lowest Ritz vectors kept
    at each restart.

    The start vector is fixed, frac(0.6180339887498949 i) - 0.5 for i = 1
    .. n, so every call gives the same bytes.  A cycle ends in a check
    of the Ritz estimate of the residual, and the solve stops only when
    the residual recomputed as ||h @ v - E v||, the bytes
    fock.ground_state prints, is at most tol * |E|, or at most the
    rounding floor _FLOOR times h's largest absolute row sum when tol
    asks for less; it raises ValueError after _CYCLES cycles.  A Krylov
    space that closes (beta at the floor, as for a diagonal h, or n
    vectors) is invariant, and its lowest Ritz pair is returned as it
    stands.  Every product is h @ x, scipy's csr_matvec, the product of
    that printed residual too.
    """
    n = h.shape[0]
    row_sums = CSR(np.abs(h.data), h.indices, h.indptr, h.shape) @ np.ones(n)
    floor = _FLOOR * float(row_sums.max(initial=0.0))
    m = min(_KRYLOV, n)
    v = np.empty((m + 1, n))  # Lanczos vectors, by rows
    x = np.arange(1, n + 1) * 0.6180339887498949
    v[0] = x - np.floor(x) - 0.5
    v[0] /= np.linalg.norm(v[0])
    t = np.zeros((m, m))  # v^T h v: the kept Ritz values, their arrow, then tridiagonal
    kept = 0
    for _ in range(_CYCLES):
        for j in range(kept, m):
            w = v[j + 1]
            w[:] = h @ v[j]
            for _ in range(2):  # full reorthogonalisation, twice
                c = v[: j + 1] @ w
                w -= c @ v[: j + 1]
                t[j, j] += c[j]
            beta = float(np.linalg.norm(w))
            if beta <= floor or j + 1 == n:  # the Krylov space closed
                theta, s = np.linalg.eigh(t[: j + 1, : j + 1])
                return float(theta[0]), _unit(s[:, 0] @ v[: j + 1])
            w /= beta
            if j + 1 < m:
                t[j, j + 1] = t[j + 1, j] = beta
        theta, s = np.linalg.eigh(t)
        energy = float(theta[0])
        bound = max(tol * abs(energy), floor)
        if beta * abs(s[-1, 0]) <= bound:  # the Ritz estimate of the residual
            vec = _unit(s[:, 0] @ v[:m])
            if np.linalg.norm(h @ vec - energy * vec) <= bound:
                return energy, vec
        kept = _KEPT  # m == _KRYLOV < n here
        v[:kept] = s[:, :kept].T @ v[:m]
        v[kept] = v[m]
        t[:] = 0.0
        t[:kept, :kept] = np.diag(theta[:kept])
        t[kept, :kept] = t[:kept, kept] = beta * s[-1, :kept]
    raise ValueError(f"Lanczos did not converge in {_CYCLES} cycles")


def _unit(x):
    return x / np.linalg.norm(x)


def gram(p, q=None):
    """Re(P^dag Q) as a dense array in Fortran order, Q defaulting to P:
    scipy.sparse's (p.conj().T @ q).real.toarray(), by its kernels.  That
    product is (Q^T conj(P))^T: Q^T holds Q by columns, so csr_matmat
    sums entry (b, a) over the rows r in ascending order, each term
    Q[r, b] conj(P[r, a]), and the real part as a C-order n x m array is
    Re(P^dag Q) in Fortran order."""
    q = p if q is None else q
    if p.shape[0] != q.shape[0]:
        raise ValueError(f"forms of a {p.shape} and a {q.shape} matrix")
    c = q.T @ CSR(p.data.conj(), p.indices, p.indptr, p.shape)
    return CSR(c.data.real, c.indices, c.indptr, c.shape).toarray().T


def frame(vectors):
    """(keys, CSR matrix) with one column per vector, in order.

    Rows are the distinct keys in first-seen order, vector by vector, and
    each row's columns ascend: the arrays of scipy.sparse's
    coo_matrix(...).tocsr(), as the transpose of the vectors' own rows.
    """
    cols, data, counts = [], [], []
    index = {}
    for vec in vectors:
        cols.extend(index.setdefault(key, len(index)) for key in vec.terms)
        data.extend(vec.terms.values())
        counts.append(len(vec.terms))
    shape = (len(counts), len(index))
    return list(index), CSR.from_counts(np.array(data), np.array(cols), counts, shape).T
