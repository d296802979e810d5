"""Sparse fermionic Fock engine over integer momentum modes.

States are finite linear combinations of Slater determinants.  A
determinant is a tuple of occupied momenta sorted in the global mode order
of :func:`fermibose.lattice.mode_key`; all signs below are defined by that
order.  With det = (m_0 < m_1 < ...):

    a_p det      = (-1)^i  (det minus m_i)   if p == m_i, else 0
    a_p^dag det  = (-1)^i  (det plus p)      with i the insertion index,
                                             0 if p is already occupied.

This gives the usual anticommutation relations exactly; amplitudes are
complex and every operator in this module is applied term by term, so all
algebraic identities hold to rounding.

Momentum transfer convention: rho_k = sum_p a_{p-k}^dag a_p, i.e. applying
rho_k lowers the total momentum of a determinant by k.  The quasi-bosonic
pieces b_k, b_k^dag, d_k are the restrictions of rho_k to moves across,
respectively not across, the Fermi surface; rho_k = b_k + b_{-k}^dag + d_k
for k != 0.  Every operator here and hamiltonian_matrix take their moves
from one bitmask pass, _move_pass; apply_rho_parts routes each move of
rho_k to its piece, apply_b, apply_b_dag and apply_d drop the others, and
each piece's moves are registered once, by one np.unique on image keys.

scipy is imported only inside the functions that build or solve a matrix,
so the operator applications load none of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .lattice import (
    GasConfig,
    TWO_PI_SQ,
    ball_points,
    coupling,
    crescent,
    fermi_ball,
    kinetic_ground_sum,
    mode_key,
    neg,
    norm_sq,
    particle_count,
    sub,
)
from .vector import SparseVector, ordered_sum

# ------------------------------------------------------------ determinants


def determinant(modes) -> tuple:
    """Canonical determinant from an iterable of distinct momenta."""
    out = tuple(sorted((tuple(m) for m in modes), key=mode_key))
    if len(set(out)) != len(out):
        raise ValueError("repeated mode in determinant")
    return out


# ------------------------------------------------------------- the vector


class FermionVector(SparseVector):
    """Finite sparse vector in Fock space: {determinant: amplitude}."""

    __slots__ = ()

    @classmethod
    def from_determinant(cls, det, amp=1.0):
        return cls({determinant(det): complex(amp)})

    def particle_number(self):
        for d in self.terms:
            return len(d)
        return None


def psi0(config: GasConfig) -> FermionVector:
    """The filled Fermi ball."""
    return FermionVector({fermi_ball(config): 1.0 + 0j})


_finish = FermionVector.finish


# ------------------------------------------------------------- move kernel
#
# A determinant is a bitmask: bit i of word w is rank 64 w + i of a table of
# modes in mode order, so bit order is sign order.


def _rank_table(dets, shifts):
    """(table, rank, nsq, dsts): the modes of dets and their shifts by -k,
    k in shifts, in mode order; rank inverts table, nsq[i] = |table[i]|^2
    and dsts[s][rank[p]] = rank[p - shifts[s]] for every mode p of dets."""
    if len(set(map(len, dets))) > 1:
        raise ValueError("determinants of different particle numbers")
    modes = list(set().union(*dets))
    shifted = [[sub(p, k) for p in modes] for k in shifts]
    keys = sorted(map(mode_key, set(modes).union(*shifted)))
    table = [key[1:] for key in keys]
    rank = {p: i for i, p in enumerate(table)}
    dsts = np.zeros((len(shifts), len(table)), dtype=np.int32)
    for dst, targets in zip(dsts, shifted):
        dst[[rank[p] for p in modes]] = [rank[t] for t in targets]
    return table, rank, np.array([key[0] for key in keys], dtype=np.int64), dsts


def _encode(dets, rank, width):
    """(ranks, occupied, bits, below) of dets over a table of width modes:
    ranks[row, slot] is the rank of the slot's mode, occupied[row] flags
    the held ranks, bits[row] packs them into words and below[row, w]
    counts the set bits under word w."""
    ranks = np.fromiter(map(rank.__getitem__, chain.from_iterable(dets)), dtype=np.int32)
    ranks = ranks.reshape(len(dets), len(dets[0]) if dets else 0)
    occupied = np.zeros((len(dets), 64 * ((width + 63) // 64)), dtype=bool)
    np.put_along_axis(occupied, ranks, True, axis=1)
    bits = np.packbits(occupied, axis=1, bitorder="little").view("<u8")
    below = np.zeros(bits.shape, dtype=np.int64)
    np.cumsum(np.bitwise_count(bits[:, :-1]), axis=1, out=below[:, 1:])
    return ranks, occupied, bits, below


def _move_pass(ranks, occupied, bits, below, dst, moving=None):
    """(rows, slot, j, sign, keys, src) of every free move src -> dst[src]
    of the encoded determinants, in (row, slot) order, from the sources
    flagged by moving (all when None); keys[m] holds the image's words.
    j is the target's slot in the determinant without the source: the
    occupied ranks below the target, less one if it lies above the source.
    A move from slot i has sign (-1)^(i+j); no other code computes it.  A
    target that is its own source counts as free: rho_0 keeps each
    determinant with sign +1, as then j = i and the two XORs cancel.
    """
    one, to = np.uint64(1), dst[ranks]
    free = ~np.take_along_axis(occupied, to, axis=1) | (to == ranks)
    if moving is not None:
        free &= moving[ranks]
    rows, slot = np.divmod(np.flatnonzero(free), ranks.shape[1])
    src = ranks[rows, slot]
    to = dst[src]
    word = to >> 6
    bit = one << (to & 63).astype(np.uint64)
    j = below[rows, word] + np.bitwise_count(bits[rows, word] & (bit - one)) - (to > src)
    sign = 1 - 2 * ((slot + j) & 1)
    images = bits[rows]
    at = np.arange(len(rows))
    images[at, src >> 6] ^= one << (src & 63).astype(np.uint64)
    images[at, word] ^= bit
    if images.shape[1] > 1:  # one sortable, hashable key per image
        images = images.view(f"V{8 * images.shape[1]}")
    return rows, slot, j, sign, images.ravel(), src


_ROWS = 512  # determinants per move pass: a large vector goes in blocks


# ----------------------------------------------------- operator applications


def _register(moved, keys, values, decode):
    """(decode at each image's first move, amplitudes) of the moves moved
    flags, as a move-by-move loop sums them: images in first-move order,
    each amplitude the first move's value plus the later ones in move
    order.  keys, values and decode = (rows, slot, j, to) hold each move's
    image key, amplitude, source row and slot, j and target rank."""
    pick = np.flatnonzero(moved)
    if not len(pick):
        return [a[:0] for a in decode], values[:0]
    _, first, inverse = np.unique(keys[pick], return_index=True, return_inverse=True)
    values = values[pick]
    amps = values[first]
    rest = np.ones(len(values), dtype=bool)
    rest[first] = False
    np.add.at(amps, inverse[rest], values[rest])
    seen = np.argsort(first)  # the images in order of their first move
    return [a[pick[first[seen]]] for a in decode], amps[seen]


def _decode(heads, amps, sources, table):
    """The vector of registered images, each rebuilt from its first move."""
    dets = []
    for row, i, jj, t in zip(*(a.tolist() for a in heads)):
        det, t = sources[row], table[t]
        if jj >= i:
            dets.append(det[:i] + det[i + 1 : jj + 1] + (t,) + det[jj + 1 :])
        else:
            dets.append(det[:jj] + (t,) + det[jj:i] + det[i + 1 :])
    return _finish(dict(zip(dets, amps.tolist())))


def _split(k, r, vec: FermionVector, route):
    """The parts of rho_k vec from one move pass.  A move goes to part
    route[c], c = 2 (starts inside) + (ends inside) the ball |p|^2 <= r, and
    a move routed to -1 is never built.  The moves of all blocks of _ROWS
    determinants are registered once per part, then freed before decoding."""
    dets = list(vec.terms)
    table, rank, nsq, (dst,) = _rank_table(dets, [k])
    inside = (nsq <= r).astype(np.int8)
    part = np.array(route, dtype=np.int8)[2 * inside + inside[dst]]
    amps = np.fromiter(vec.terms.values(), dtype=complex, count=len(dets))
    blocks = []
    for start in range(0, len(dets) or 1, _ROWS):  # one empty block if no dets
        encoded = _encode(dets[start : start + _ROWS], rank, len(table))
        rows, slot, j, sign, keys, src = _move_pass(*encoded, dst, part >= 0)
        rows += start
        narrow = (rows.astype(np.int32), slot.astype(np.int16), j.astype(np.int16))
        blocks.append((part[src], keys, amps[rows] * sign, *narrow, dst[src]))
    side, keys, values, *decode = map(np.concatenate, zip(*blocks))
    parts = [_register(side == i, keys, values, decode) for i in range(max(route) + 1)]
    del blocks, side, keys, values, decode
    return [_decode(*registered, dets, table) for registered in parts]


def apply_rho(k, vec: FermionVector) -> FermionVector:
    """Density mode rho_k = sum_p a_{p-k}^dag a_p; rho_0 counts particles."""
    return _split(k, 0, vec, (0, 0, 0, 0))[0]  # every side to one part


def apply_rho_parts(k, config: GasConfig, vec: FermionVector):
    """(d_k vec, b_{-k}^dag vec, b_k vec) from one pass over the moves of
    rho_k, each move sent by its sides: same side to d_k, inside to
    outside to b_{-k}^dag, outside to inside to b_k."""
    return tuple(_split(k, config.fermi_radius_sq, vec, (0, 2, 1, 0)))


def apply_b(k, config: GasConfig, vec: FermionVector) -> FermionVector:
    """Pair annihilator b_k: moves an outside particle at p to p-k inside."""
    return _split(k, config.fermi_radius_sq, vec, (-1, 0, -1, -1))[0]


def apply_b_dag(k, config: GasConfig, vec: FermionVector) -> FermionVector:
    """Pair creator b_k^dag = sum_{p in C_k} a_{p+k}^dag a_p."""
    return _split(neg(k), config.fermi_radius_sq, vec, (-1, -1, 0, -1))[0]


def apply_d(k, config: GasConfig, vec: FermionVector) -> FermionVector:
    """Surface-preserving part d_k of rho_k (both sides of the move inside,
    or both outside, the Fermi ball)."""
    return _split(k, config.fermi_radius_sq, vec, (0, -1, -1, 0))[0]


def kinetic_excess(config: GasConfig, det) -> float:
    """Eigenvalue of the normal-ordered kinetic energy on a determinant."""
    return TWO_PI_SQ * sum(norm_sq(p) for p in det) - kinetic_ground_sum(config)


def apply_normal_t(config: GasConfig, vec: FermionVector) -> FermionVector:
    acc = {
        det: amp * kinetic_excess(config, det) for det, amp in vec.terms.items()
    }
    return _finish(acc)


# ---------------------------------------------------------------- potential


class PotentialError(ValueError):
    """Invalid interaction data; .violations lists every offending entry."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = ", ".join(f"{k}: {why}" for k, why in self.violations)
        super().__init__(f"invalid potential ({lines})")


class Potential:
    """Finitely supported Fourier interaction data {k: vhat(k)}.

    vhat must be even in k and nonnegative away from k = 0.  vhat(0) is the
    integral of the potential; value_at_origin() is v(0) = sum_k vhat(k).
    """

    def __init__(self, d: int, coefficients):
        vhat = {}
        violations = []
        for k, v in dict(coefficients).items():
            k = tuple(int(c) for c in k)
            if len(k) != d:
                violations.append((k, f"expected {d} components"))
                continue
            vhat[k] = float(v)
        for k, v in sorted(vhat.items(), key=lambda kv: mode_key(kv[0])):
            mirror = vhat.get(neg(k))
            if mirror is None:
                violations.append((k, "missing opposite mode -k"))
            elif mirror != v:
                violations.append((k, f"vhat(k)={v} != vhat(-k)={mirror}"))
            if v < 0 and any(k):
                violations.append((k, f"negative coefficient {v} at k != 0"))
        if violations:
            raise PotentialError(violations)
        self.d = d
        self.vhat = vhat

    def integral(self) -> float:
        """vhat(0), the zero mode."""
        return self.vhat.get((0,) * self.d, 0.0)

    def value_at_origin(self) -> float:
        """v(0) = sum over all modes of vhat(k)."""
        return ordered_sum(self.vhat.values())

    def nonzero_items(self):
        """(k, vhat(k)) for k != 0 with vhat(k) != 0, in mode order."""
        return [
            (k, v)
            for k, v in sorted(self.vhat.items(), key=lambda kv: mode_key(kv[0]))
            if any(k) and v != 0.0
        ]

    def __repr__(self):
        return f"Potential(d={self.d}, {len(self.vhat)} modes)"


def unit_potential(d: int, radius_sq: int = 1, zero_mode: float = 0.0) -> Potential:
    """vhat = 1 on every nonzero mode with |k|^2 <= radius_sq."""
    coeff = {k: 1.0 for k in ball_points(d, radius_sq) if any(k)}
    coeff[(0,) * d] = zero_mode
    return Potential(d, coeff)


def load_potential(path, d=None) -> Potential:
    """Read "k_1 ... k_d value" lines; '#' starts a comment.

    All format problems are collected and raised together so a bad file
    reports every offending entry at once.
    """
    entries = {}
    violations = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            toks = line.split()
            if d is None:
                if len(toks) < 2:
                    violations.append((f"line {lineno}", "expected k components and a value"))
                    continue
                d = len(toks) - 1
            if len(toks) != d + 1:
                violations.append((f"line {lineno}", f"expected {d} components and a value"))
                continue
            try:
                k = tuple(int(t) for t in toks[:-1])
            except ValueError:
                violations.append((f"line {lineno}", f"non-integer mode {toks[:-1]}"))
                continue
            try:
                v = float(toks[-1])
            except ValueError:
                violations.append((f"line {lineno}", f"non-numeric value {toks[-1]!r}"))
                continue
            if k in entries:
                violations.append((k, "duplicate entry"))
                continue
            entries[k] = v
    if d is None:
        violations.append(("file", "no data lines"))
    if violations:
        raise PotentialError(violations)
    return Potential(d, entries)


# ------------------------------------------------------------- Hamiltonian


def e_n0(config: GasConfig, pot: Potential) -> float:
    """Energy of the filled ball through first order in the pair terms."""
    n = particle_count(config)
    return (
        kinetic_ground_sum(config)
        + 0.5 * n ** (2 - config.alpha) * pot.integral()
        - 0.5 * n ** (1 - config.alpha) * pot.value_at_origin()
    )


def trivial_bounds(config: GasConfig, pot: Potential):
    """(lower, upper) for the ground energy: E_0 and the filled-ball
    expectation E_0 + lambda sum_k vhat(k) |C_k|."""
    lam = coupling(config)
    e0 = e_n0(config, pot)
    gap = lam * ordered_sum(v * len(crescent(k, config)) for k, v in pot.nonzero_items())
    return e0, e0 + gap


def apply_h(config: GasConfig, pot: Potential, vec: FermionVector) -> FermionVector:
    """Full Hamiltonian on the configured particle-number sector:

        H = E_0 + :T: + lambda sum_{k != 0} vhat(k) rho_k^dag rho_k
    """
    lam = coupling(config)
    out = e_n0(config, pot) * vec + apply_normal_t(config, vec)
    for k, v in pot.nonzero_items():
        out = out + (lam * v) * apply_rho(neg(k), apply_rho(k, vec))
    return out


# ------------------------------------------------------------ ground state


@dataclass
class GroundStateResult:
    energy: float
    vector: FermionVector
    dimension: int
    method: str
    residual: float


def sector_basis(config: GasConfig, cutoff_radius_sq: int, momentum=None, basis_limit=200_000):
    """All determinants of N modes inside the cutoff with fixed total
    momentum, in lexicographic order of the mode order."""
    modes = ball_points(config.d, cutoff_radius_sq)
    n = particle_count(config)
    if momentum is None:
        momentum = (0,) * config.d
    if cutoff_radius_sq < config.fermi_radius_sq:
        raise ValueError("cutoff must contain the Fermi ball")
    total = math.comb(len(modes), n)
    if total > 5_000_000:
        raise ValueError(
            f"refusing to enumerate {total} determinants; tighten the cutoff"
        )
    basis = _momentum_combinations(modes, n, tuple(momentum))
    if len(basis) > basis_limit:
        raise ValueError(
            f"sector dimension {len(basis)} exceeds basis_limit={basis_limit}"
        )
    return basis


def _momentum_combinations(modes, n, momentum):
    """The n-subsets of modes summing to momentum, in the order of
    itertools.combinations(modes, n).

    A momentum q is coded as the integer sum_c q_c base^c, which is linear
    and, with base above twice every coordinate difference compared here,
    injective.  reach[i][j] holds the sorted codes of the totals of j
    modes drawn from modes[i:], for the j a prefix that may still take
    modes[i] can need; table[j] stacks them over i as i * width + code, so
    one searchsorted tests every candidate of a depth.  Each pass extends
    all live prefixes at once by every later mode whose remaining momentum
    stays reachable, so every prefix kept ends in a determinant; parents
    keep their order and a parent's extensions ascend, so the prefixes
    stay in lexicographic order of their mode indices.
    """
    m = len(modes)
    pts = np.array(modes, dtype=np.int64).reshape(m, -1)
    d = pts.shape[1]
    top = n * int(np.abs(pts).max(initial=0))  # bounds a coordinate of any total
    if n > m or max(map(abs, momentum), default=0) > top:
        return []
    # a remaining momentum is within 2 top of 0 and a total within top
    base = 6 * top + 1
    width = base**d  # above twice any code compared
    if (m + 1) * width >= 2**62:
        raise ValueError("momentum codes overflow int64; tighten the cutoff")
    weights = base ** np.arange(d, dtype=np.int64)
    code = pts @ weights
    empty = np.zeros(0, dtype=np.int64)
    reach = {0: np.zeros(1, dtype=np.int64)}  # reach[m]: the empty total
    stacks = [[] for _ in range(n + 1)]
    for i in range(m, -1, -1):
        if i < m:  # reach[i] from reach[i + 1]: skip modes[i] or take it
            reach = {
                j: np.union1d(reach.get(j, empty), code[i] + reach[j - 1])
                if j
                else reach[0]
                for j in range(max(0, n - i), min(n, m - i) + 1)
            }
        for j, codes in reach.items():
            stacks[j].append(i * width + codes)
    table = [np.concatenate(stack[::-1]) for stack in stacks]

    def reachable(j, key):
        at = np.searchsorted(table[j], key)
        return table[j][np.minimum(at, len(table[j]) - 1)] == key

    rest = np.array([np.dot(momentum, weights)], dtype=np.int64)
    if not reachable(n, rest)[0]:
        return []
    start = np.zeros(1, dtype=np.int64)  # first mode each prefix may take
    picks, parents = [], []
    for left in range(n, 0, -1):
        count = m - left + 1 - start
        parent = np.repeat(np.arange(len(start)), count)
        first = np.cumsum(count) - count
        i = np.arange(len(parent)) - np.repeat(first - start, count)
        remain = rest[parent] - code[i]
        keep = reachable(left - 1, (i + 1) * width + remain)
        parent, i, rest = parent[keep], i[keep], remain[keep]
        picks.append(i)
        parents.append(parent)
        start = i + 1
    objects = np.fromiter(modes, dtype=object, count=m)
    columns, row = [], np.arange(len(rest))  # traced back from the last mode
    for pick, parent in zip(picks[::-1], parents[::-1]):
        columns.append(objects[pick[row]].tolist())
        row = parent[row]
    return list(zip(*columns[::-1]))


def hamiltonian_matrix(config, pot, basis):
    """Sparse PHP over the given determinant basis: the one matrix form of
    the Hamiltonian, which apply_h checks term by term.

    The basis may be any set of determinants of one particle number.  H
    conserves momentum, so over determinants of several total momenta
    the matrix is block diagonal, and each diagonal block holds the
    values of that block's own assembly.

    The interaction is lambda vhat(k) A_k^dag A_k, A_k the exact rho_k
    matrix into the images the move pass registers, so truncation only
    happens at the outer projection: for vectors in the span of the
    basis, X^dag H Y is exactly <X|H Y>.  The basis is encoded once, over
    the rank table of its modes and their shifts; A_k^dag A_k has integer
    entries, so it is exact in any summation order.
    """
    import scipy.sparse

    items = pot.nonzero_items()
    table, rank, nsq, dsts = _rank_table(basis, [k for k, _ in items])
    encoded = _encode(basis, rank, len(table))
    kinetic = TWO_PI_SQ * nsq[encoded[0]].sum(axis=1) - kinetic_ground_sum(config)
    h = scipy.sparse.diags(e_n0(config, pot) + kinetic, format="csr")
    lam = coupling(config)
    for (_, v), dst in zip(items, dsts):
        rows, _, _, sign, keys, _ = _move_pass(*encoded, dst)
        distinct, image = np.unique(keys, return_inverse=True)
        del keys  # not held through the product
        a = scipy.sparse.csr_matrix((sign, (image, rows)), (len(distinct), len(basis)))
        h = h + (lam * v) * (a.T @ a)
        del a  # not held through the next k's pass
    return h.tocsr()


def _canonical_phase(vec: np.ndarray) -> np.ndarray:
    i = int(np.argmax(np.abs(vec)))
    piv = vec[i]
    if piv == 0:
        return vec
    return vec * (abs(piv) / piv)


DENSE_LIMIT = 2000  # sectors this large and up are solved by Lanczos


def ground_state(
    config: GasConfig,
    pot: Potential,
    cutoff_radius_sq: int,
    momentum=None,
    tol: float = 1e-9,
    basis_limit: int = 200_000,
) -> GroundStateResult:
    """Lowest eigenpair of the Hamiltonian restricted to a momentum sector
    of determinants over modes |p|^2 <= cutoff_radius_sq.

    The restricted energy is a variational upper bound for the full ground
    energy and never drops below e_n0.  Sectors below DENSE_LIMIT are
    solved densely, larger ones by restarted Lanczos with residual
    tolerance tol from a fixed start vector, so every call returns the
    same result.
    """
    basis = sector_basis(config, cutoff_radius_sq, momentum, basis_limit)
    dim = len(basis)
    if dim == 0:
        raise ValueError("empty sector")
    h = hamiltonian_matrix(config, pot, basis)
    if dim < DENSE_LIMIT:
        import scipy.linalg

        how = "dense"
        w, u = scipy.linalg.eigh(h.toarray())
    else:
        import scipy.sparse.linalg

        how = "iterative"
        v0 = np.random.default_rng(0).standard_normal(dim)
        w, u = scipy.sparse.linalg.eigsh(
            h, k=1, which="SA", tol=tol, maxiter=max(5000, 100 * dim), v0=v0
        )
    energy, vec = float(w[0]), u[:, 0]
    vec = _canonical_phase(vec)
    residual = float(np.linalg.norm(h @ vec - energy * vec))
    out = FermionVector(
        {det: complex(vec[i]) for i, det in enumerate(basis) if vec[i] != 0.0}
    ).pruned()
    return GroundStateResult(
        energy=energy, vector=out, dimension=dim, method=how, residual=residual
    )
