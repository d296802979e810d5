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
from one bitmask pass, _move_pass, and their image labels from one
registration per pass.  A move carries its image's 64-bit code, not its
words: the image word itself over at most 64 ranks, else the XOR of one
fixed Zobrist key per rank.  _first_order numbers the codes by their
first moves, sorting them as integers, and a move that shares a code
with an earlier one must have its image, word for word, or the pass
raises, so no two images are ever merged.  rho_parts encodes a set of
vectors once, as packed words and codes over one rank table of their
modes and shifts, then runs one pass per mode k over each block of that
encoding and routes each move of rho_k to the parts asked for;
_first_order numbers the moves of each (vector, part) too, by integer
labels, and their sums start from zero.  apply_rho, apply_rho_parts,
apply_b, apply_b_dag and apply_d are its one-mode, one-vector case.
hamiltonian_matrix runs the same passes, one per +-k pair: on states
of finitely many particles [rho_k, rho_k^dag] = sum_p (n_{p-k} - n_p)
= 0, so rho_{-k}^dag rho_{-k} = rho_k^dag rho_k, and the pair's one
product serves both modes.  The matrix is the chain of sparse sums of
those products, in mode order, one row block at a time.

Matrices are vector.CSR records, multiplied and summed by scipy.sparse's
C kernels without its package; ground_state solves every sector with
vector.lowest_eigenpair, a restarted Lanczos, unless its caller passes a
dense eigh (the exact table passes LAPACK dsyevr below DENSE_LIMIT).
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
    mode_codes,
    mode_key,
    neg,
    norm_sq,
    particle_count,
)
from .vector import CSR, SparseVector, distinct, lowest_eigenpair, ordered_sum, row_blocks

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
# modes in mode order, so bit order is sign order.  A set of determinants
# is encoded once, as packed words and one code each, the XOR of its
# ranks' keys, and each pass unpacks one block of _ROWS rows of them.


def _rank_table(dets, shifts):
    """(table, rank, nsq, dsts, held): the modes of dets and their shifts
    by -k, k in shifts, in mode order; rank maps each mode of dets to its
    place in table, nsq[i] = |table[i]|^2, held lists the ranks of the
    modes of dets in ascending order and dsts[s][rank[p]] = rank[p -
    shifts[s]] for each of them, both int32.

    One np.unique over lattice.mode_codes sorts them in mode order.
    """
    if len(set(map(len, dets))) > 1:
        raise ValueError("determinants of different particle numbers")
    modes = list(set().union(*dets))
    if not modes:
        empty = np.zeros(0, dtype=np.int64)
        return [], {}, empty, np.zeros((len(shifts), 0), dtype=np.int32), empty.astype(np.int32)
    pts = np.array(modes, dtype=np.int64)
    cand = np.concatenate([pts, *(pts - np.array(k) for k in shifts)])
    _, first, inverse = np.unique(mode_codes(cand), return_index=True, return_inverse=True)
    held = inverse[: len(modes)].astype(np.int32)
    dsts = np.zeros((len(shifts), len(first)), dtype=np.int32)
    dsts[:, held] = inverse[len(modes) :].reshape(len(shifts), len(modes))
    table, rank = cand[first], dict(zip(modes, held.tolist()))
    return list(map(tuple, table.tolist())), rank, (table * table).sum(axis=1), dsts, np.sort(held)


def _zobrist(n):
    """The first n outputs of splitmix64 seeded with 0: one fixed 64-bit key
    per rank, the same in every process."""
    z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _rank_keys(n):
    """The key of each of n ranks: its own bit while they fit in one word, so
    that a determinant's code is its word, else a Zobrist key."""
    if n <= 64:
        return np.uint64(1) << np.arange(n, dtype=np.uint64)
    return _zobrist(n)


def _encode(dets, rank, nsq, keys):
    """(bits, codes, norms) of dets over the table of rank, _ROWS rows at a
    time: bits[row] packs the row's ranks into little-endian words,
    codes[row] XORs their keys and norms[row] sums nsq over them, a few
    rank columns at a time (exact in any order), so no key or norm block
    holds more than _CHUNK entries."""
    bits = np.zeros((len(dets), (len(nsq) + 63) // 64), dtype="<u8")
    codes = np.zeros(len(dets), dtype=np.uint64)
    norms = np.zeros(len(dets), dtype=np.int64)
    for start in range(0, len(dets), _ROWS):
        block = dets[start : start + _ROWS]
        ranks = np.fromiter(map(rank.__getitem__, chain.from_iterable(block)), dtype=np.int32)
        ranks = ranks.reshape(len(block), len(block[0]))
        occupied = np.zeros((len(block), 64 * bits.shape[1]), dtype=bool)
        occupied[np.arange(len(block))[:, None], ranks] = True
        packed = np.packbits(occupied, axis=1, bitorder="little").view("<u8")
        bits[start : start + len(block)] = packed
        code, norm = codes[start : start + len(block)], norms[start : start + len(block)]
        width = max(1, _CHUNK // len(block))  # rank columns per gather
        for a in range(0, ranks.shape[1], width):
            cols = ranks[:, a : a + width]
            code ^= np.bitwise_xor.reduce(keys[cols], axis=1)
            norm += nsq[cols].sum(axis=1)
    return bits, codes, norms


def _move_pass(bits, codes, keys, sources, targets):
    """(rows, slot, j, sign, code, src) of every free move of the packed
    determinants bits, whose codes are codes, from a rank of sources,
    ascending, to the same entry of targets, in (row, slot) order.  The
    image's code is the row's with the keys of the source and the target
    toggled: 8 bytes a move, the image's word itself on a one-word table;
    src takes the dtype of sources.  A row's ranks ascend with its slots,
    so a source's slot is the count of occupied ranks below it, and j, the
    target's slot in the determinant without the source, is the count
    below the target, less one if it lies above the source.  A move from
    slot i has sign (-1)^(i+j); no other code computes it.  A target that
    is its own source counts as free: rho_0 keeps each determinant with
    sign +1, as then j = i and the two toggles cancel.
    """
    one, width = np.uint64(1), bits.shape[1]
    occupied = np.unpackbits(bits.view(np.uint8), axis=1, bitorder="little").view(bool)
    below = np.zeros(bits.shape, dtype=np.int16)  # occupied ranks under each word
    np.cumsum(np.bitwise_count(bits[:, :-1]), axis=1, out=below[:, 1:])
    held = occupied[:, sources]
    free = held & ~occupied[:, targets]
    if (targets == sources).any():  # only at k = 0
        free |= held & (targets == sources)
    rows, at = np.nonzero(free)
    src, to = sources[at], targets[at]
    row_word = rows * width  # each move's row in the flat words

    def count_below(rank):  # occupied ranks of the row below rank
        word, bit = row_word + (rank >> 6), one << (rank & 63).astype(np.uint64)
        return below.reshape(-1)[word] + np.bitwise_count(bits.reshape(-1)[word] & (bit - one))

    slot = count_below(src)
    j = count_below(to) - (to > src)
    sign = 1 - 2 * ((slot + j) & 1)
    return rows, slot, j, sign, codes[rows] ^ keys[src] ^ keys[to], src


_ROWS = 2048  # determinants per move pass: a large set goes in blocks
_CHUNK = 1 << 16  # moves per collision check, labels per rank comparison


def _check_codes(bits, rows, src, dst, first, image):
    """Raise unless each move's image is that of the first move with its
    code, first[image[m]]: the XOR of the two rows' words and the four
    toggled bits, src and dst[src] of each move, must be zero.  Only moves
    after their code's first are read, in blocks of _CHUNK moves."""
    one = np.uint64(1)
    for start in range(0, len(rows), _CHUNK):
        later = np.arange(start, min(start + _CHUNK, len(rows)))
        head = first[image[later]]
        shared = head != later
        later, head = later[shared], head[shared]
        diff = bits[rows[later]] ^ bits[rows[head]]
        at = np.arange(len(later))
        for rank in (src[later], dst[src[later]], src[head], dst[src[head]]):
            diff[at, rank >> 6] ^= one << (rank & 63).astype(np.uint64)
        if diff.any():
            raise RuntimeError("two different images share a 64-bit code")


def _first_order(labels):
    """(first, number) of integer labels: the index of each distinct label's
    first entry, ascending, and each entry's number in that order, both
    int32 while they hold len(labels).  One argsort ranks the labels and
    numbers each run of equal ones; a run's least index is its label's
    first entry, and a count of first entries renumbers the runs in their
    order.  Its peak, with the result, is about 17 bytes a label."""
    dtype = np.int32 if len(labels) < 2**31 else np.int64
    order = np.argsort(labels).astype(dtype)
    head = np.ones(len(labels), dtype=bool)  # where each run of ranked labels starts
    for a in range(1, len(labels), _CHUNK):
        ranked = labels[order[a - 1 : a + _CHUNK]]
        head[a : a + _CHUNK] = ranked[1:] != ranked[:-1]
    runs = int(head.sum())
    run = np.cumsum(head, dtype=dtype)  # of each rank, from 1
    del head
    run -= 1
    number = np.empty(len(labels), dtype=dtype)  # each entry's run, in label order
    number[order] = run
    del order, run
    first = np.full(runs, len(labels), dtype=dtype)  # each run's least index
    np.minimum.at(first, number, np.arange(len(labels), dtype=dtype))
    heads = np.zeros(len(labels), dtype=bool)
    heads[first] = True
    count = np.cumsum(heads, dtype=dtype)  # first entries up to each index
    del heads
    count -= 1
    run = count[first]  # each run's number in first-entry order
    del count
    first.sort()
    return first, run[number]


def _passes(dets, shifts, r, sides):
    """(table, norms, moves) of dets, all of one particle number: their rank
    table, each det's sum of |p|^2, and an iterator that yields, for each
    shift k in turn, (dst, side, rows, slot, j, sign, src, first, image):
    the shift's targets and the side of each rank, 2 (p inside) + (p - k
    inside) the ball |p|^2 <= r, then every move p -> p - k whose side is
    flagged in sides, each labelled by its image: the images are numbered
    in the order of their first moves, first[i] is the first move onto
    image i and image[m] the number of move m's.  The dets are encoded
    once, and what persists across shifts is their packed words, codes
    and norms; each shift runs one _move_pass per block of _ROWS rows,
    trying as sources only the held ranks on a flagged side, then
    numbers its images once, by _first_order over their codes.  Over more
    than 64 ranks a code is a hash, so _check_codes first proves that no
    two images share one.  A shift's moves are dropped with the value the
    caller makes of them."""
    table, rank, nsq, dsts, held = _rank_table(dets, shifts)
    keys = _rank_keys(len(table))
    bits, codes, norms = _encode(dets, rank, nsq, keys)
    inside = (nsq <= r).astype(np.int8)

    def moves(dst):
        side = 2 * inside + inside[dst]
        sources = held[sides[side[held]]]
        targets = dst[sources]
        blocks = []
        for start in range(0, len(bits) or 1, _ROWS):  # one empty block if no rows
            end = start + _ROWS
            rows, *rest = _move_pass(bits[start:end], codes[start:end], keys, sources, targets)
            blocks.append(((rows + start).astype(np.int32), *rest))
        fields = list(zip(*blocks))  # each field's blocks
        del blocks  # a field's blocks go as it is joined
        rows, slot, j, sign, code, src = [np.concatenate(fields.pop(0)) for _ in range(6)]
        first, image = _first_order(code)  # callers read rows in order
        del code
        if len(table) > 64:
            _check_codes(bits, rows, src, dst, first, image)
        return dst, side, rows, slot, j, sign, src, first, image

    return table, norms, map(moves, dsts)


# ----------------------------------------------------- operator applications
#
# A part of rho_k is the set of sides its moves take: 0 outside to outside,
# 1 outside to inside, 2 inside to outside, 3 inside to inside the ball.

RHO = ((0, 1, 2, 3),)  # rho_k itself
PARTS = ((0, 3), (2,), (1,))  # d_k, b_{-k}^dag, b_k


def _decode(rows, slot, j, to, dets, table):
    """The image determinant of each move, rebuilt from its source."""

    def images():
        for row, i, jj, t in zip(rows.tolist(), slot.tolist(), j.tolist(), to.tolist()):
            det, t = dets[row], table[t]
            if jj >= i:
                yield det[:i] + det[i + 1 : jj + 1] + (t,) + det[jj + 1 :]
            else:
                yield det[:jj] + (t,) + det[jj:i] + det[i + 1 :]

    return np.fromiter(images(), dtype=object, count=len(rows))


def rho_parts(ks, r, vecs, parts):
    """(norms, modes): rho_k split into parts, for every k of ks, on every
    vector of vecs, all of one particle number, from one encoding of them.

    norms holds each determinant's sum of |p|^2, vector by vector.  modes
    yields, for each k in turn, one tuple per vector of its parts: part i
    takes the moves of rho_k whose side (see PARTS) lies in parts[i], the
    inside of the Fermi ball being |p|^2 <= r; a move in no part is never
    built.  Each image is rebuilt once per k, from the first move of the
    label the pass gives it, and each (vector, part) sums its own moves
    from zero, in first-move order, as a move-by-move loop would.  The
    slot counts are int16, so a determinant holds at most 32768 particles.
    """
    vecs = list(vecs)
    dets = [det for vec in vecs for det in vec.terms]
    if dets and len(dets[0]) > 1 << 15:  # _move_pass counts the slots 0..N-1 in int16
        raise ValueError(f"{len(dets[0])} particles: slot counts hold at most 32768")
    amps = np.fromiter(
        chain.from_iterable(vec.terms.values() for vec in vecs), dtype=complex, count=len(dets)
    )
    owner = np.repeat(np.arange(len(vecs)), [len(vec) for vec in vecs])
    member = np.zeros((len(parts), 4), dtype=bool)
    for flags, sides in zip(member, parts):
        flags[list(sides)] = True
    table, norms, passes = _passes(dets, ks, r, member.any(axis=0))
    buckets = len(parts) * len(vecs)  # part i of vector v is bucket i * len(vecs) + v

    def split(moves):
        dst, side, rows, slot, j, sign, src, first, image = moves
        images = _decode(rows[first], slot[first], j[first], dst[src[first]], dets, table)
        part, pick = np.nonzero(member[:, side[src]])  # part by part, each part a move is in
        labels = (part * len(vecs) + owner[rows[pick]]) * len(first) + image[pick]
        del part  # not held through the registration
        heads, number = _first_order(labels)
        # pick runs bucket by bucket, so its heads do too, as many as each has labels
        cuts = np.searchsorted(labels[heads] // len(first), np.arange(buckets + 1))
        del labels  # not held through the sums
        sums = np.zeros(len(heads), dtype=complex)
        np.add.at(sums, number, amps[rows[pick]] * sign[pick])  # from zero, in move order
        kept = np.flatnonzero(sums)  # exact zeros dropped here, not by _finish's copy
        heads, sums, cuts = heads[kept], sums[kept], np.searchsorted(kept, cuts).tolist()
        out = [
            _finish(dict(zip(images[image[pick[heads[a:b]]]].tolist(), sums[a:b].tolist())))
            for a, b in zip(cuts, cuts[1:])
        ]
        return [tuple(out[v :: len(vecs)]) for v in range(len(vecs))]

    return norms, map(split, passes)


def _apply(k, r, vec, parts):
    """The parts of rho_k vec: rho_parts on one mode and one vector."""
    [[out]] = rho_parts([k], r, [vec], parts)[1]
    return out


def apply_rho(k, vec: FermionVector) -> FermionVector:
    """Density mode rho_k = sum_p a_{p-k}^dag a_p; rho_0 counts particles."""
    return _apply(k, 0, vec, RHO)[0]


def apply_rho_parts(k, config: GasConfig, vec: FermionVector):
    """(d_k vec, b_{-k}^dag vec, b_k vec) from one pass over the moves of
    rho_k, each move sent by its sides: same side to d_k, inside to
    outside to b_{-k}^dag, outside to inside to b_k."""
    return _apply(k, config.fermi_radius_sq, vec, PARTS)


def apply_b(k, config: GasConfig, vec: FermionVector) -> FermionVector:
    """Pair annihilator b_k: moves an outside particle at p to p-k inside."""
    return _apply(k, config.fermi_radius_sq, vec, PARTS[2:])[0]


def apply_b_dag(k, config: GasConfig, vec: FermionVector) -> FermionVector:
    """Pair creator b_k^dag = sum_{p in C_k} a_{p+k}^dag a_p."""
    return _apply(neg(k), config.fermi_radius_sq, vec, PARTS[1:2])[0]


def apply_d(k, config: GasConfig, vec: FermionVector) -> FermionVector:
    """Surface-preserving part d_k of rho_k (both sides of the move inside,
    or both outside, the Fermi ball)."""
    return _apply(k, config.fermi_radius_sq, vec, PARTS[:1])[0]


def kinetic_excess(config: GasConfig, sq):
    """Eigenvalue of the normal-ordered kinetic energy on a determinant
    whose |p|^2 sum is sq; on an integer array of sums, one per entry."""
    return TWO_PI_SQ * sq - kinetic_ground_sum(config)


def apply_normal_t(config: GasConfig, vec: FermionVector, excess=None) -> FermionVector:
    """:T: vec; excess, if given, lists the kinetic_excess of each of vec's
    determinants in order, as a caller that has encoded vec reads it off
    rho_parts' norms."""
    if excess is None:
        excess = [kinetic_excess(config, sum(map(norm_sq, det))) for det in vec.terms]
    return _finish({det: amp * e for (det, amp), e in zip(vec.terms.items(), excess)})


# ---------------------------------------------------------------- potential


class PotentialError(ValueError):
    """Invalid interaction data; .violations lists every offending entry."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = ", ".join(f"{k}: {why}" for k, why in self.violations)
        super().__init__(f"invalid potential ({lines})")


class Potential:
    """Finitely supported Fourier interaction data {k: vhat(k)}.

    vhat must be finite, even in k and nonnegative away from k = 0.  vhat(0)
    is the integral of the potential; value_at_origin() is v(0) = sum_k
    vhat(k).
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
            if not math.isfinite(v):
                violations.append((k, f"non-finite coefficient {v}"))
                continue
            mirror = vhat.get(neg(k))
            if mirror is None:
                violations.append((k, "missing opposite mode -k"))
            elif mirror != v and math.isfinite(mirror):  # else -k is reported itself
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


def load_potential(path, d: int) -> Potential:
    """Read "k_1 ... k_d value" lines; '#' starts a comment.

    All format problems are collected and raised together so a bad file
    reports every offending entry at once, or that it has no data line.
    """
    entries = {}
    violations = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            toks = line.split()
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
    if not entries and not violations:
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


# ------------------------------------------------------------ ground state


@dataclass
class GroundStateResult:
    """vector: the unit eigenvector, a float64 array in sector_basis
    order whose entry of largest magnitude is positive."""

    energy: float
    vector: np.ndarray
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

    def union(x, y):  # of two ascending code arrays
        return distinct(np.sort(np.concatenate((x, y))))

    for i in range(m, -1, -1):
        if i < m:  # reach[i] from reach[i + 1]: skip modes[i] or take it
            reach = {
                j: union(reach.get(j, empty), code[i] + reach[j - 1]) if j else reach[0]
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


def _pass_product(rows, sign, image, n):
    """A^T A for the pass matrix A[image[m], rows[m]] = sign[m] over n
    determinants, as a CSR record of sign's dtype with zero sums dropped:
    rows ascend, so the moves in their order are A^T by rows.  The
    entries are integers, so the product is exact in any order."""
    images = int(image.max(initial=-1)) + 1
    at = CSR.from_counts(sign, image, np.bincount(rows, minlength=n), (n, images))
    return at @ at.T


def hamiltonian_matrix(config, pot, basis):
    """Sparse PHP over the given determinant basis, as a vector.CSR
    record: the one matrix form of the Hamiltonian.

    The basis may be any set of determinants of one particle number.  H
    conserves momentum, so over determinants of several total momenta
    the matrix is block diagonal, and each diagonal block holds the
    values of that block's own assembly.

    The interaction is lambda vhat(k) A_k^dag A_k, A_k the exact rho_k
    matrix into the images the move pass registers, so truncation only
    happens at the outer projection: for vectors in the span of the
    basis, X^dag H Y is exactly <X|H Y>.  The basis is encoded once, over
    the rank table of its modes and their shifts; A_k^dag A_k
    (_pass_product) has integer entries, so it is exact in any summation
    order.

    A_k maps onto every image, with no cutoff, so A_k^dag A_k is the
    projection of rho_k^dag rho_k = rho_{-k}^dag rho_{-k} (see the module
    docstring) and A_{-k}^dag A_{-k} is the same integer matrix; vhat is
    even.  So one pass and one product serve each pair.

    The matrix is the chain of sparse sums 0 + D + s_1 P_1 + s_2 P_2 +
    ..., D the diagonal e_n0 + :T:, s_k = lambda vhat(k) and P_k the
    product of k's pair, in mode order: each CSR + (csr_plus_csr) drops
    the entries that come to exactly zero, a zero diagonal entry too, as
    the chain starts from the empty matrix.  It runs a row block of about
    vector._TERMS entries at a time, so each sum is block-sized and only
    the block's last one outlives it; the moves carry 8-byte image codes
    and int32 labels, and each product is one csr_matmat.
    """
    items = pot.nonzero_items()
    leads = [k for k, _ in items if mode_key(k) < mode_key(neg(k))]  # first of each pair
    _, norms, moves = _passes(basis, leads, 0, np.ones(4, dtype=bool))
    n = len(basis)
    products = []  # A_k^T A_k of each lead
    for *_, rows, slot, j, sign, src, first, image in moves:
        del slot, j, src, first  # not held through the product
        products.append(_pass_product(rows, sign, image, n))
        del rows, sign, image  # not held through the next pass
    lam = coupling(config)
    pair = {q: i for i, k in enumerate(leads) for q in (k, neg(k))}
    scaled = [(pair[k], lam * v) for k, v in items]  # in mode order
    excess = e_n0(config, pot) + kinetic_excess(config, norms)  # the diagonal

    def block(a, b):  # the chain over rows a..b-1
        total = CSR(np.zeros(0), np.zeros(0, np.int32), np.zeros(b - a + 1, np.int32), (b - a, n))
        total += CSR(excess[a:b], np.arange(a, b), np.arange(b - a + 1), (b - a, n))
        for i, scale in scaled:
            m = products[i].rows(a, b)
            total += CSR(scale * m.data, m.indices, m.indptr, m.shape)
        return total

    per_row = sum((np.diff(m.indptr) for m in products), np.ones(n, dtype=np.int64))
    counts = np.zeros(n, dtype=np.int64)
    cols, sums = [np.zeros(0, dtype=np.int32)], [np.zeros(0)]
    for a, b in row_blocks(per_row):
        total = block(a, b)
        counts[a:b] = np.diff(total.indptr)
        cols.append(total.indices)
        sums.append(total.data)
    del products
    data = np.concatenate(sums)
    del sums  # each list goes as it is joined
    return CSR.from_counts(data, np.concatenate(cols), counts, (n, n))


DENSE_LIMIT = 2000  # sectors this large and up are never solved densely


def ground_state(
    config: GasConfig,
    pot: Potential,
    cutoff_radius_sq: int,
    momentum=None,
    tol: float = 1e-9,
    basis_limit: int = 200_000,
    *,
    eigh=None,
) -> GroundStateResult:
    """Lowest eigenpair of the Hamiltonian restricted to a momentum sector
    of determinants over modes |p|^2 <= cutoff_radius_sq.

    The restricted energy is a variational upper bound for the full ground
    energy and never drops below e_n0.  Every sector is solved by
    vector.lowest_eigenpair, a restarted Lanczos in numpy that stops when
    the residual printed here is at most tol * |energy| (or at its
    rounding floor, when tol asks for less) and raises ValueError when it
    does not converge; its start vector is fixed, so every call returns
    the same result, and it holds about 31 n doubles, no n x n copy.
    Only a caller that passes eigh (the exact table passes cli._dsyevr,
    LAPACK dsyevr, whose residuals the pinned tables hold) has
    a sector below DENSE_LIMIT solved densely, by eigh on the matrix as
    one Fortran-order n x n array, of which only a copy of the first
    column is kept.  The solver's vector is negated when its entry of
    largest magnitude is negative, which leaves ||h v - E v|| as it is.
    """
    basis = sector_basis(config, cutoff_radius_sq, momentum, basis_limit)
    dim = len(basis)
    if dim == 0:
        raise ValueError("empty sector")
    h = hamiltonian_matrix(config, pot, basis)
    if eigh is not None and dim < DENSE_LIMIT:
        how = "dense"
        w, u = eigh(h.toarray(order="F"))
        energy, vec = float(w[0]), u[:, 0].copy()  # not a view that keeps u
    else:
        how = "iterative"
        energy, vec = lowest_eigenpair(h, tol)
    if vec[int(np.argmax(np.abs(vec)))] < 0:
        vec = -vec
    residual = float(np.linalg.norm(h @ vec - energy * vec))
    return GroundStateResult(
        energy=energy, vector=vec, dimension=dim, method=how, residual=residual
    )
