"""Sparse vectors {key: amplitude} and the one vectors-to-matrix frame.

SparseVector carries the arithmetic shared by fock.FermionVector (keys are
determinants) and boson.BosonVector (keys are monomials).  frame() turns
many vectors into a sparse matrix with one column each; the isometry and
subspace-bound Gram matrices are built through it (the H2 pair terms take
SparseVector.inner), and it is the one place here that imports scipy.
"""

from __future__ import annotations

import math

# relative amplitude drop threshold after vector arithmetic
DROP_TOL = 1e-14


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
        """The vector of accumulated amplitudes, exact zeros dropped, pruned.

        acc becomes the vector's terms unless it holds an exact zero: the
        caller hands over a fresh accumulator and keeps no reference.
        """
        if 0 in acc.values():
            acc = {key: v for key, v in acc.items() if v != 0}
        vec = cls.__new__(cls)
        vec.terms = acc
        return vec.pruned()

    def norm_sq(self) -> float:
        return sum((a * a.conjugate()).real for a in self.terms.values())

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
        out = dict(self.terms)
        for key, v in other.terms.items():
            out[key] = out.get(key, 0j) - v
        return type(self)(out).pruned()

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


def frame(vectors):
    """(keys, CSR matrix) with one column per vector, in order.

    Rows are the distinct keys in first-seen order, vector by vector.
    """
    import scipy.sparse

    rows, cols, data = [], [], []
    index = {}
    for j, vec in enumerate(vectors):
        for key, amp in vec.terms.items():
            rows.append(index.setdefault(key, len(index)))
            cols.append(j)
            data.append(amp)
    matrix = scipy.sparse.coo_matrix((data, (rows, cols)), shape=(len(index), len(vectors)))
    return list(index), matrix.tocsr()
