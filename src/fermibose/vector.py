"""Sparse vectors {key: amplitude}, the one vectors-to-matrix frame and
the sparse matrices built from them.

SparseVector carries the arithmetic shared by fock.FermionVector (keys are
determinants) and boson.BosonVector (keys are monomials).  frame() turns
many vectors into a CSR matrix with one column each; the isometry and
subspace-bound Gram matrices are built through it and gram() (the H2
pair terms take SparseVector.inner).  CSR is a record of numpy arrays
whose products sum every entry in scipy.sparse's order, so they keep
scipy.sparse's bytes without importing it.
"""

from __future__ import annotations

import math

import numpy as np

# relative amplitude drop threshold after vector arithmetic
DROP_TOL = 1e-14


def ordered_sum(values) -> float:
    """Floats added left to right, as sum() did before Python 3.12."""
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

    def inner(self, other) -> complex:
        """<self|other>, antilinear in self."""
        a, b = self.terms, other.terms
        if len(b) < len(a):
            return sum(a[key].conjugate() * v for key, v in b.items() if key in a)
        return sum(v.conjugate() * b[key] for key, v in a.items() if key in b)

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

    Its products sum each entry from zero, term by term, in stored order
    (np.add.at), as scipy.sparse's csr_matvec and csr_matmat do, so they
    keep scipy's bytes, and a matrix product drops the entries that sum
    to exactly zero, as csr_matmat does.
    """

    __slots__ = ("data", "indices", "indptr", "shape")

    def __init__(self, data, indices, indptr, shape):
        self.data, self.indices, self.indptr, self.shape = data, indices, indptr, tuple(shape)

    @classmethod
    def from_counts(cls, data, indices, counts, shape):
        """The matrix of entries listed row by row, counts[i] in row i."""
        dtype = _index_dtype(shape, len(data))
        indptr = np.zeros(shape[0] + 1, dtype=dtype)
        np.cumsum(counts, out=indptr[1:])
        return cls(data, indices.astype(dtype, copy=False), indptr, shape)

    @property
    def nnz(self) -> int:
        return len(self.data)

    def rows(self, a=0, b=None):
        """The row of each stored entry of rows a..b-1."""
        b = self.shape[0] if b is None else b
        return np.repeat(np.arange(a, b), np.diff(self.indptr[a : b + 1]))

    def toarray(self, order="C"):
        out = np.zeros(self.shape, dtype=self.data.dtype, order=order)
        rows, cols = self.rows(), self.indices.astype(np.int64)
        flat = rows * self.shape[1] + cols if order == "C" else rows + cols * self.shape[0]
        np.add.at(out.reshape(-1, order=order), flat, self.data)
        return out

    def __matmul__(self, other):
        if isinstance(other, CSR):
            return _product(self, other)
        out = np.zeros(self.shape[0], dtype=np.result_type(self.data, other))
        for lo, hi in row_blocks(np.diff(self.indptr)):
            a, b = self.indptr[lo], self.indptr[hi]
            np.add.at(out, self.rows(lo, hi), self.data[a:b] * other[self.indices[a:b]])
        return out


_TERMS = 1 << 14  # terms per block of a matrix product or a Gram form


def _index_dtype(shape, nnz):
    """int32 while it holds every index and count, as scipy.sparse picks."""
    return np.int32 if max(*shape, nnz) < 2**31 else np.int64


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


def _expand(starts, counts):
    """(owner, position): the positions starts[k] .. starts[k] + counts[k]
    - 1 of each k in turn, each with its k."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - (np.cumsum(counts) - counts - starts)[owner]


def _parts(x):
    """(real part, imaginary part or None) of an array."""
    return (x.real, x.imag) if np.iscomplexobj(x) else (x, None)


def _times(ar, ai, br, bi):
    """The parts of a * b, a complex product taken as scipy.sparse takes
    it: (ar br - ai bi) + (ar bi + ai br) i, each product rounded."""
    if ai is None and bi is None:
        return [ar * br]
    if ai is None:
        return [ar * br, ar * bi]
    if bi is None:
        return [ar * br, ai * br]
    return [ar * br - ai * bi, ar * bi + ai * br]


def _product(a, b):
    """a @ b: entry (i, c) sums a[i, j] b[j, c] from zero over the stored
    entries of row i of a in order; entries that sum to zero are dropped.

    In each row block one sort of the int64 keys (entry << s) | term
    groups the terms by entry, (row - lo) * n + c, and keeps each
    entry's terms in stored order: 2**s exceeds the block's terms.  The
    term counts and each block's columns take the index dtype of the
    shape and the total term count, int32 while it holds them.
    """
    n, dtype = b.shape[1], np.result_type(a.data, b.data)
    fan = np.diff(b.indptr)[a.indices]  # the terms of each stored entry of a
    index = _index_dtype((a.shape[0], n), int(fan.sum(dtype=np.int64)))
    before = np.zeros(len(fan) + 1, dtype=index)
    np.cumsum(fan, out=before[1:])
    before = before[a.indptr]  # the terms before each row
    (ar, ai), (br, bi) = _parts(a.data), _parts(b.data)
    counts = np.zeros(a.shape[0], dtype=np.int64)
    cols, sums = [np.zeros(0, dtype=index)], [np.zeros(0, dtype=dtype)]
    for lo, hi in row_blocks(np.diff(before)):
        stored = np.arange(a.indptr[lo], a.indptr[hi])
        owner, j = _expand(b.indptr[a.indices[stored]], fan[stored])
        s = len(j).bit_length()
        if (hi - lo) * n >= 1 << (63 - s):
            raise OverflowError("product entry keys overflow int64")
        key = ((a.rows(lo, hi)[owner] - lo) * n + b.indices[j]) << s
        key |= np.arange(len(j))
        key.sort()
        term, key = key & ((1 << s) - 1), key >> s
        head = np.ones(len(key), dtype=bool)  # the first term of each entry
        head[1:] = key[1:] != key[:-1]
        at = np.cumsum(head) - 1
        total = np.zeros(int(head.sum()), dtype=dtype)
        i, j = stored[owner[term]], j[term]
        parts = _times(ar[i], None if ai is None else ai[i], br[j], None if bi is None else bi[j])
        for part, term in zip(_parts(total), parts):
            np.add.at(part, at, term)
        keep = total != 0
        labels = key[head][keep]
        row = labels // n
        counts[lo:hi] = np.bincount(row, minlength=hi - lo)
        cols.append((labels - row * n).astype(index))
        sums.append(total[keep])
    data = np.concatenate(sums)
    del sums  # each list goes as it is joined
    return CSR.from_counts(data, np.concatenate(cols), counts, (a.shape[0], n))


_KRYLOV, _KEPT = 20, 10  # Lanczos vectors held, and Ritz vectors kept at a restart
_CYCLES = 1000  # Lanczos cycles, the first and each restart, before giving up
_FLOOR = 1000 * np.finfo(float).eps  # residual floor, relative to max row sum |h|


def lowest_eigenpair(h, tol, maxiter=_CYCLES):
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
    asks for less; it raises ValueError after maxiter cycles.  A Krylov
    space that closes (beta at the floor, as for a diagonal h, or n
    vectors) is invariant, and its lowest Ritz pair is returned as it
    stands.  Inside, h @ x is a gather, a multiply and np.add.reduceat
    into one buffer of nnz floats, not the ordered sums of CSR's @.
    """
    n = h.shape[0]
    buf = np.empty(h.nnz)
    filled = np.flatnonzero(np.diff(h.indptr))  # rows with entries; the rest read 0
    starts = h.indptr[filled]

    def apply(x, out):
        np.take(x, h.indices, out=buf, mode="wrap")  # "raise" would copy through a buffer
        np.multiply(buf, h.data, out=buf)
        out[:] = 0.0
        out[filled] = np.add.reduceat(buf, starts)

    np.abs(h.data, out=buf)
    floor = _FLOOR * float(np.add.reduceat(buf, starts).max(initial=0.0))
    m = min(_KRYLOV, n)
    v = np.empty((m + 1, n))  # Lanczos vectors, by rows
    x = np.arange(1, n + 1) * 0.6180339887498949
    v[0] = x - np.floor(x) - 0.5
    v[0] /= np.linalg.norm(v[0])
    t = np.zeros((m, m))  # v^T h v: the kept Ritz values, their arrow, then tridiagonal
    kept = 0
    for _ in range(maxiter):
        for j in range(kept, m):
            w = v[j + 1]
            apply(v[j], w)
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
    raise ValueError(f"Lanczos did not converge in {maxiter} cycles")


def _unit(x):
    return x / np.linalg.norm(x)


def gram(p, q=None):
    """Re(P^dag Q) as a dense array in Fortran order, Q defaulting to P:
    entry (a, b) sums Re(Q[r, b] conj(P[r, a])) from zero over the rows r
    in ascending order, the bytes of scipy.sparse's
    (p.conj().T @ q).real.toarray()."""
    q = p if q is None else q
    m, n = p.shape[1], q.shape[1]
    (pr, pi), (qr, qi) = _parts(p.data), _parts(q.data)
    per_row = np.diff(q.indptr)
    out = np.zeros(m * n)
    for lo, hi in row_blocks(np.diff(p.indptr) * per_row):
        row = p.rows(lo, hi)
        owner, j = _expand(q.indptr[row], per_row[row])
        i = np.arange(p.indptr[lo], p.indptr[hi])[owner]
        term = qr[j] * pr[i]
        if pi is not None and qi is not None:
            term += qi[j] * pi[i]  # the real part of Q conj(P)
        np.add.at(out, p.indices[i] + m * q.indices[j].astype(np.int64), term)
    return out.reshape((m, n), order="F")


def frame(vectors):
    """(keys, CSR matrix) with one column per vector, in order.

    Rows are the distinct keys in first-seen order, vector by vector, and
    each row's columns ascend: the arrays of scipy.sparse's
    coo_matrix(...).tocsr().
    """
    rows, data, counts = [], [], []
    index = {}
    for vec in vectors:
        rows.extend(index.setdefault(key, len(index)) for key in vec.terms)
        data.extend(vec.terms.values())
        counts.append(len(vec.terms))
    rows = np.array(rows, dtype=np.int64)
    order = np.argsort(rows, kind="stable")
    cols = np.repeat(np.arange(len(counts)), counts)[order]
    shape = (len(index), len(counts))
    per_row = np.bincount(rows, minlength=len(index))
    return list(index), CSR.from_counts(np.array(data)[order], cols, per_row, shape)
