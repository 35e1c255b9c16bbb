"""Finite probability spaces, partitions, and conditional operations.

Conventions
-----------
A finite probability space is a list of named states with strictly positive
probabilities summing to one.  A sub-sigma-algebra is represented by the
partition of the state set that generates it; its members are called atoms.

Random variables are real vectors indexed by state.  Conditional values
(conditional expectations, conditional norms, conditional risk numbers) are
real vectors indexed by atom; they stand for the G-measurable functions that
are constant on each atom.

A partition stores one layout and nothing else: its states in atom order
as one integer array, the atom sizes, and the blocks cut from that order,
runs of consecutive atoms with at most ``BLOCK_STATES`` states (a larger
atom is a block of its own).  Its ``atoms`` and per-atom index arrays are
read back from that layout.  Every conditional reduction runs on the
blocks with segmented numpy sums (``np.add.reduceat``), so the cost per
call grows with the number of blocks, not of atoms, and the temporaries
stay within one block.  The reductions act on the trailing axis, so the
code that reduces one position also reduces a batch of them, one per row,
as the niveloid operators take them.

All operations are pure functions of their inputs and are safe to call from
multiple threads.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from numbers import Real
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "FiniteProbabilitySpace",
    "Partition",
    "RandomVariable",
    "ConditionalValue",
    "atom_masses",
    "cond_expectation",
    "cond_sup_norm",
    "cond_p_norm",
    "embed",
    "restrict_mask",
]

# A probability vector may miss 1.0 by accumulated rounding up to this much;
# anything worse is treated as a modelling error rather than noise.
PROB_SUM_TOL = 1e-12

# Consecutive atoms are reduced together in blocks of at most this many
# states: large enough that a block of small atoms costs a few numpy calls,
# small enough that its temporaries stay a few hundred kilobytes.
BLOCK_STATES = 1 << 14


def _as_float_vector(values, what: str, plus_inf: bool = False) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{what} must be a one-dimensional vector, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{what} must be nonempty")
    if not np.all(np.isfinite(arr)) and not (plus_inf and np.all(arr > -np.inf)):
        allowed = "finite or +inf" if plus_inf else "finite"
        raise ValueError(f"{what} must be {allowed}, got {arr!r}")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


def _distinct(names: tuple) -> bool:
    """Whether no two names are equal.

    Up to ``BLOCK_STATES`` names a set decides, the faster check there.
    Beyond, the names' hashes are sorted and only names whose hashes
    collide are compared: a set of 10^6 names takes a 32 MiB table, which
    glibc maps and unmaps per space, and releasing its 16 MiB predecessor
    raises glibc's trim threshold for the rest of the process, so the peak
    memory of building a space would depend on whether the heap below it
    happens to be trimmed.  The hashes take 8 MB.
    """
    if len(names) <= BLOCK_STATES:
        return len(set(names)) == len(names)
    h = np.fromiter(map(hash, names), dtype=np.int64, count=len(names))
    h.sort()
    clash = set(h[1:][h[1:] == h[:-1]].tolist())
    suspects = [n for n in names if hash(n) in clash] if clash else []
    return len(set(suspects)) == len(suspects)


@dataclass(frozen=True, eq=False)
class FiniteProbabilitySpace:
    """Finite state set with strictly positive probabilities.

    The probability vector is validated (positive entries, total within
    ``PROB_SUM_TOL`` of one) and then renormalized exactly once so that
    downstream identities can rely on an exact unit total.
    """

    state_names: tuple
    probs: np.ndarray

    def __init__(self, state_names: Sequence[str], probs):
        names = tuple(str(n) for n in state_names)
        if not _distinct(names):
            raise ValueError("state names must be distinct")
        arr = np.asarray(probs, dtype=float)
        if arr.ndim != 1 or arr.size != len(names):
            raise ValueError(
                f"probs must be a vector of length {len(names)}, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("probabilities must be finite")
        if np.any(arr <= 0.0):
            bad = [names[i] for i in np.nonzero(arr <= 0.0)[0]]
            raise ValueError(f"probabilities must be strictly positive, offending states: {bad}")
        total = float(arr.sum())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities must sum to 1 within {PROB_SUM_TOL}, got {total!r}")
        arr = arr / total
        arr.setflags(write=False)
        object.__setattr__(self, "state_names", names)
        object.__setattr__(self, "probs", arr)

    @property
    def num_states(self) -> int:
        return len(self.state_names)

    def index_of(self, name: str) -> int:
        try:
            return self.state_names.index(name)
        except ValueError:
            raise ValueError(f"unknown state name {name!r}") from None


@dataclass(frozen=True, eq=False)
class _Block:
    """Consecutive atoms of a partition, reduced together.

    ``atoms`` is the block's range of atom indices, ``idx`` lists its states
    atom after atom (a view into the partition's state order) and ``starts``
    the offset of each atom in ``idx``.  The reductions act on the trailing
    axis of block-ordered arrays such as ``take(v)``, one position per row,
    and return one value per atom and row.  A block of one atom reduces
    with a plain sum or dot per row, the arithmetic of an atom-by-atom loop.
    """

    atoms: slice
    idx: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray

    def take(self, v: np.ndarray) -> np.ndarray:
        """The block's states of v, in block order, on the trailing axis."""
        # v[..., idx] would lay a batch out column by column
        return v[self.idx] if v.ndim == 1 else np.take(v, self.idx, axis=-1)

    # A one-atom block sums each row as one contiguous vector, as for a
    # single position: numpy and BLAS round a strided row, or a
    # matrix-vector product, differently from a contiguous dot.
    def sum(self, v: np.ndarray) -> np.ndarray:
        if self.starts.size == 1:
            return np.ascontiguousarray(v).sum(axis=-1, keepdims=True)
        return np.add.reduceat(v, self.starts, axis=-1)

    def dot(self, w: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Per-atom sums of w * v for a weight vector w."""
        if self.starts.size == 1:
            return np.ascontiguousarray(v)[..., None, :] @ w
        return np.add.reduceat(w * v, self.starts, axis=-1)

    def max(self, v: np.ndarray) -> np.ndarray:
        return np.maximum.reduceat(v, self.starts, axis=-1)

    def min(self, v: np.ndarray) -> np.ndarray:
        return np.minimum.reduceat(v, self.starts, axis=-1)

    def spread(self, a: np.ndarray) -> np.ndarray:
        """Per-atom values repeated over the block's states (broadcast for one atom)."""
        if self.starts.size == 1:
            return a
        return np.repeat(a, self.sizes, axis=-1)


def _some(indices: np.ndarray) -> str:
    """A count of sorted indices and the first five of them, for a message."""
    head = ", ".join(map(str, indices[:5].tolist()))
    more = ", ..." if indices.size > 5 else ""
    return f"{indices.size}: [{head}{more}]"


class Partition:
    """Partition of the state index set; each member generates one atom.

    Atoms are nonempty, pairwise disjoint index sets whose union is the full
    index range ``0..n-1``.  The generated sigma-algebra consists of all
    unions of atoms.  The partition stores one layout: its states in atom
    order, the atom sizes, and the blocks cut from that order, on which every
    conditional reduction runs (see the module docstring).  ``atoms`` and
    :meth:`index_arrays` read that layout back.  Two partitions are equal
    when their layouts are, so the order of members within an atom counts.
    """

    def __init__(self, atoms: Iterable[Iterable[int]]):
        members = []
        for atom in atoms:
            arr = np.asarray(atom)
            if arr.ndim == 0 and arr.dtype == object:  # an iterator or a set
                arr = np.array(list(atom))
            if arr.ndim != 1:
                raise ValueError(f"atoms must be one-dimensional, got shape {arr.shape}")
            if arr.size == 0:
                raise ValueError("atoms must be nonempty")
            if arr.dtype.kind not in "iu":  # no silent truncation of floats, bools or strings
                raise ValueError(f"atoms must hold integer state indices, got dtype {arr.dtype}")
            members.append(arr.astype(np.intp, copy=False))
        if not members:
            raise ValueError("a partition needs at least one atom")
        order = np.concatenate(members)
        n = order.size
        in_range = order.min() >= 0 and order.max() < n
        # a repeated index is reported before a gap, also beside an index out
        # of range, which bincount cannot take; only that error path sorts
        if in_range:
            repeated = np.bincount(order, minlength=n).max() > 1
        else:
            ordered = np.sort(order)
            repeated = (ordered[1:] == ordered[:-1]).any()
        if repeated:
            raise ValueError("atoms must be pairwise disjoint")
        if not in_range:
            outside = (order < 0) | (order >= n)
            present = np.zeros(n, dtype=bool)
            present[order[~outside]] = True
            raise ValueError(
                f"atoms must cover exactly the index range 0..n-1 (n = {n}); "
                f"missing {_some(np.flatnonzero(~present))}, "
                f"out of range {_some(np.sort(order[outside]))}"
            )
        order.setflags(write=False)
        sizes = np.array([a.size for a in members], dtype=np.intp)
        ends = np.cumsum(sizes)
        starts = ends - sizes
        blocks = []
        first = 0
        while first < sizes.size:
            # the atoms that end within BLOCK_STATES of this one's start, at least one
            stop = max(first + 1, int(np.searchsorted(ends, starts[first] + BLOCK_STATES, "right")))
            lo, hi = starts[first], ends[stop - 1]
            blocks.append(
                _Block(slice(first, stop), order[lo:hi], starts[first:stop] - lo, sizes[first:stop])
            )
            first = stop
        self._order = order
        self._sizes = sizes
        self._blocks = tuple(blocks)

    @property
    def atoms(self) -> tuple:
        """Each atom's state indices as a tuple of ints, in atom order."""
        return tuple(tuple(v.tolist()) for v in self.index_arrays())

    @property
    def num_states(self) -> int:
        return self._order.size

    @property
    def num_atoms(self) -> int:
        return self._sizes.size

    def index_arrays(self) -> tuple:
        """Per-atom state indices: views into the partition's state order."""
        return self._index_arrays

    @cached_property
    def _index_arrays(self) -> tuple:
        # built on first use: the reductions run on the blocks instead
        return tuple(np.split(self._order, np.cumsum(self._sizes[:-1])))

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        same_sizes = np.array_equal(self._sizes, other._sizes)
        return same_sizes and np.array_equal(self._order, other._order)

    def __hash__(self) -> int:
        return hash((self._sizes.tobytes(), self._order.tobytes()))

    def __repr__(self) -> str:
        return f"Partition(atoms={self.atoms!r})"

    @classmethod
    def trivial(cls, num_states: int) -> "Partition":
        """Single atom containing every state (no information)."""
        return cls([np.arange(num_states)])

    @classmethod
    def discrete(cls, num_states: int) -> "Partition":
        """One atom per state (full information)."""
        return cls(np.arange(num_states)[:, None])


def _elementwise(op, reflected=False):
    """The method applying ``op`` to a vector's values and the other operand
    (``op(other, values)`` when ``reflected``), as a vector of the same kind."""

    def apply(self, other):
        ov = self._coerce(other)
        if ov is NotImplemented:
            return NotImplemented
        return type(self)(op(ov, self.values) if reflected else op(self.values, ov))

    return apply


class _VectorBase:
    """Shared elementwise arithmetic for state- and atom-indexed vectors.

    Operands must be scalars or vectors of the same kind and length; mixing
    state-indexed with atom-indexed vectors is a type error on purpose.
    """

    __slots__ = ()

    values: np.ndarray

    def _coerce(self, other):
        if isinstance(other, type(self)):
            if other.values.shape != self.values.shape:
                raise ValueError(
                    f"length mismatch: {self.values.size} vs {other.values.size}"
                )
            return other.values
        if isinstance(other, Real):
            return float(other)
        return NotImplemented

    __add__ = __radd__ = _elementwise(operator.add)
    __sub__ = _elementwise(operator.sub)
    __rsub__ = _elementwise(operator.sub, reflected=True)
    __mul__ = __rmul__ = _elementwise(operator.mul)

    def __neg__(self):
        return type(self)(-self.values)

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True, eq=False)
class RandomVariable(_VectorBase):
    """Real-valued function of the state, stored as a state-indexed vector."""

    values: np.ndarray

    def __init__(self, values):
        object.__setattr__(self, "values", _as_float_vector(values, "random variable"))


@dataclass(frozen=True, eq=False)
class ConditionalValue(_VectorBase):
    """G-measurable quantity, stored as an atom-indexed vector of finite entries.

    Only :meth:`unbounded` admits +inf entries, for a supremum that diverges
    on some atoms; arithmetic on such a value builds an ordinary one, which
    rejects them again.
    """

    values: np.ndarray

    def __init__(self, values):
        object.__setattr__(self, "values", _as_float_vector(values, "conditional value"))

    @classmethod
    def unbounded(cls, values) -> "ConditionalValue":
        """A conditional value whose entries are finite or +inf."""
        out = cls.__new__(cls)
        object.__setattr__(out, "values", _as_float_vector(values, "conditional value", plus_inf=True))
        return out


def _check_pair(space: FiniteProbabilitySpace, g: Partition) -> None:
    if g.num_states != space.num_states:
        raise ValueError(
            f"partition covers {g.num_states} states but the space has {space.num_states}"
        )


def _check_rv(space: FiniteProbabilitySpace, x: RandomVariable, what: str = "x") -> None:
    if len(x) != space.num_states:
        raise ValueError(f"{what} has length {len(x)}, expected {space.num_states}")


def _check_cv(g: Partition, a: ConditionalValue, what: str = "a") -> None:
    if len(a) != g.num_atoms:
        raise ValueError(f"{what} has length {len(a)}, expected {g.num_atoms} (one per atom)")


def _per_atom(g: Partition, reduce) -> np.ndarray:
    """``reduce(block)`` over the blocks of g, joined on the trailing axis: one value per atom."""
    return np.concatenate([reduce(b) for b in g._blocks], axis=-1)


def _cond_mean(g: Partition, weights: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per-atom weighted mean sum(w_s v_s) / sum(w_s) of the rows of v."""

    def mean(b):
        w = weights[b.idx]
        return b.dot(w, b.take(v)) / b.sum(w)

    return _per_atom(g, mean)


def _cond_max(g: Partition, v: np.ndarray) -> np.ndarray:
    """Per-atom maximum of the rows of v."""
    return _per_atom(g, lambda b: b.max(b.take(v)))


def _spread(g: Partition, a: np.ndarray) -> np.ndarray:
    """Rows of per-atom values spread out to the states of each atom."""
    out = np.empty(a.shape[:-1] + (g.num_states,))
    for b in g._blocks:
        out[..., b.idx] = b.spread(a[..., b.atoms])
    return out


def atom_masses(space: FiniteProbabilitySpace, g: Partition) -> np.ndarray:
    """Probability mass of each atom, in atom order."""
    _check_pair(space, g)
    return _per_atom(g, lambda b: b.sum(space.probs[b.idx]))


def cond_expectation(
    space: FiniteProbabilitySpace, g: Partition, x: RandomVariable
) -> ConditionalValue:
    """Conditional expectation of ``x`` given the partition.

    On each atom A the value is sum(p_s * x_s for s in A) / P(A), the
    probability-weighted average of x over A.
    """
    _check_pair(space, g)
    _check_rv(space, x)
    return ConditionalValue(_cond_mean(g, space.probs, x.values))


def cond_sup_norm(
    space: FiniteProbabilitySpace, g: Partition, x: RandomVariable
) -> ConditionalValue:
    """Conditional sup norm: per-atom maximum of |x|.

    This is the essential supremum given the partition; every state inside
    an atom carries positive probability, so the plain maximum is exact.
    """
    _check_pair(space, g)
    _check_rv(space, x)
    return ConditionalValue(_cond_max(g, np.abs(x.values)))


def cond_p_norm(
    space: FiniteProbabilitySpace, g: Partition, x: RandomVariable, p: float
) -> ConditionalValue:
    """Conditional p-norm E[|x|^p | G]^(1/p) for p >= 1.

    ``p = inf`` is accepted and delegates to :func:`cond_sup_norm`, the
    limiting member of the same family.
    """
    _check_pair(space, g)
    _check_rv(space, x)
    p = float(p)
    if np.isnan(p) or p < 1.0:
        raise ValueError(f"p must satisfy p >= 1, got {p!r}")
    if np.isinf(p):
        return cond_sup_norm(space, g, x)
    return ConditionalValue(_cond_mean(g, space.probs, np.abs(x.values) ** p) ** (1.0 / p))


def embed(g: Partition, a: ConditionalValue) -> RandomVariable:
    """Spread an atom-indexed vector out to a state-indexed one.

    The result is the G-measurable random variable that takes value a[i]
    on every state of atom i.
    """
    _check_cv(g, a)
    return RandomVariable(_spread(g, a.values))


def restrict_mask(
    g: Partition, atom_index: int, x: RandomVariable, y: RandomVariable
) -> RandomVariable:
    """Splice two random variables along one atom: x on the atom, y elsewhere."""
    if not 0 <= atom_index < g.num_atoms:
        raise ValueError(f"atom_index {atom_index} out of range 0..{g.num_atoms - 1}")
    if len(x) != g.num_states or len(y) != g.num_states:
        raise ValueError(
            f"x and y must have length {g.num_states}, got {len(x)} and {len(y)}"
        )
    out = y.values.copy()
    idx = g.index_arrays()[atom_index]
    out[idx] = x.values[idx]
    return RandomVariable(out)
