"""Gapped-array updates: the ALEX-style alternative to §6's Fenwick idea.

The paper's future-work section points at update handling and cites ALEX
(Ding et al., SIGMOD 2020), whose core trick is keeping *gaps* inside the
key array so inserts shift only a handful of neighbours instead of the
whole suffix.  This module implements that strategy over the Shift-Table
stack, as a design contrast to
:class:`~repro.core.fenwick.UpdatableCorrectedIndex`:

* **Fenwick/delta design** — base array untouched; inserts buffered;
  lookups pay a second (buffer) search; drift tracked logarithmically.
* **Gapped design (this module)** — keys live in an array with every
  ``1/density``-th slot empty; inserts memmove at most to the nearest
  gap; deletes just clear the occupancy bit; lookups are a single
  corrected search over the gapped array.

Invariants (audited — see ``check_invariants``)
-----------------------------------------------
The structure maintains two *load-bearing* invariants:

(I1) the gapped array is sorted (non-decreasing), gap slots included;
(I2) ``_occupied`` marks exactly the slots holding real keys, and
     ``num_keys == _occupied.sum()``.

Every logical answer follows from (I1) + (I2) alone: the lower bound
``pos`` of ``q`` in the gapped array has only values ``< q`` before it,
so the number of *occupied* slots before ``pos`` is exactly the logical
(gap-free) rank of ``q`` — regardless of what values the gap slots hold.

A third, stronger property — every gap slot duplicates its left
neighbour (ALEX's "gap clone") — holds after construction and is
*preserved by every insert path* (proof in :meth:`insert`), so no repair
pass is needed there.  Deletes deliberately relax it: clearing an
occupancy bit leaves the old value behind as a stale clone, which keeps
(I1) trivially true at O(1) cost.  The only consequence is that a lower
bound may land on a gap slot, which (I2) already makes harmless; the
insert fast path claims such slots directly.
"""

from __future__ import annotations

import numpy as np

from ..hardware.tracker import NULL_TRACKER, NullTracker
from ..models.factory import make_model
from .corrected_index import CorrectedIndex
from .records import SortedData
from .shift_table import ShiftTable


class GappedLearnedIndex:
    """A Shift-Table-corrected index over a gapped (ALEX-style) array."""

    def __init__(self, keys: np.ndarray, density: float = 0.75,
                 name: str = "gapped",
                 model: str = "interpolation") -> None:
        if not (0.1 <= density <= 1.0):
            raise ValueError("density must be in [0.1, 1.0]")
        keys = np.asarray(keys)
        if len(keys) == 0:
            raise ValueError("need at least one key")
        self.density = float(density)
        self.name = name
        self.model_kind = model
        n = len(keys)
        capacity = max(int(np.ceil(n / density)), n)
        # spread the keys; duplicate the left neighbour into each gap
        slots = np.floor(np.arange(n) / density).astype(np.int64)
        slots = np.minimum(slots, capacity - 1)
        gapped = np.empty(capacity, dtype=keys.dtype)
        gapped[slots] = keys
        occupied = np.zeros(capacity, dtype=bool)
        occupied[slots] = True
        # forward-fill gaps with the previous real key
        last = keys[0]
        for i in range(capacity):
            if occupied[i]:
                last = gapped[i]
            else:
                gapped[i] = last
        self._occupied = occupied
        self.num_keys = n
        self._rebuild(gapped)

    # ------------------------------------------------------------------
    # structure maintenance
    # ------------------------------------------------------------------
    def _rebuild(self, gapped: np.ndarray) -> None:
        self.data = SortedData(gapped, name=self.name)
        self.model = make_model(self.model_kind, gapped)
        self.layer = ShiftTable.build(gapped, self.model)
        self._index = CorrectedIndex(self.data, self.model, self.layer)
        # the layer goes stale between refreshes as inserts shift slots;
        # validated windows keep lookups exact regardless (§3.8 machinery)
        self._index.validate = True
        self._inserts_since = 0
        self._prefix_cache: np.ndarray | None = None

    @property
    def capacity(self) -> int:
        return len(self.data.keys)

    @property
    def gap_fraction(self) -> float:
        """Remaining slack; expansion is due when it gets small."""
        return 1.0 - self.num_keys / self.capacity

    def needs_expand(self) -> bool:
        """True once fewer than 5% of slots remain free.

        The structure stays correct regardless (a totally full array
        expands itself on the next insert), but nearest-gap walks
        degrade towards O(capacity) as slack vanishes — callers owning
        maintenance (the sharded engine's per-shard refresh) should
        :meth:`compact` when this turns true.
        """
        return self.gap_fraction < 0.05

    @property
    def pending(self) -> int:
        """Inserts absorbed since the correction layer was last rebuilt."""
        return self._inserts_since

    def compact(self) -> None:
        """Re-spread the live keys at the configured density.

        Rebuilds the gapped array, occupancy mask, model and layer from
        :meth:`real_keys` — the shard-level ``refresh`` operation.
        """
        real = self.real_keys()
        if len(real) == 0:
            raise ValueError("cannot compact an empty gapped index")
        fresh = GappedLearnedIndex(
            real, self.density, self.name, model=self.model_kind
        )
        self.__dict__.update(fresh.__dict__)

    def _occupied_prefix(self) -> np.ndarray:
        """``P[i]`` = occupied slots before slot ``i`` (cached)."""
        if self._prefix_cache is None:
            prefix = np.zeros(self.capacity + 1, dtype=np.int64)
            np.cumsum(self._occupied, out=prefix[1:])
            self._prefix_cache = prefix
        return self._prefix_cache

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def lookup(self, q, tracker: NullTracker = NULL_TRACKER) -> int:
        """Gapped position of the first slot with key >= q.

        While only inserts have run, gap slots duplicate their *left*
        neighbour, so every equal-run starts with a real slot and the
        lower bound lands on a real slot (or ``capacity``).  After
        deletes the position may be a stale gap slot; convert with
        :meth:`rank` for the logical, gap-free rank (exact either way).
        """
        return self._index.lookup(q, tracker)

    def rank(self, q, tracker: NullTracker = NULL_TRACKER) -> int:
        """Logical (gap-free) rank of ``q``: occupied slots before it."""
        pos = self._index.lookup(q, tracker)
        return int(self._occupied_prefix()[pos])

    def rank_batch(self, queries: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`rank` (one numpy pipeline pass, no loop)."""
        pos = self._index.lookup_batch_vectorized(queries)
        return self._occupied_prefix()[pos]

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def insert(self, key) -> int:
        """Insert ``key``; returns how many slots were shifted.

        Finds the insertion slot, then memmoves towards the nearest gap
        — the ALEX trick that makes inserts O(gap distance) instead of
        O(n).  Rebuilds model + layer lazily only when slack runs out.

        Why each path preserves sortedness (I1) and the gap-clone
        property when it held before:

        * **claim** — ``searchsorted`` guarantees ``keys[pos-1] < key
          <= keys[pos]``, so overwriting the gap at ``pos`` keeps the
          array sorted.  While clones are intact this path is only
          reachable at a *stale* gap left by a delete (an intact clone
          equals its left neighbour, so the lower bound can never land
          on it).
        * **shift right** — slots ``pos..right-1`` are all occupied and
          move one slot right into the gap at ``right``; the vacated
          ``pos`` takes ``key`` with ``keys[pos-1] < key <= old
          keys[pos]``.  The gap at ``right`` cloned ``keys[right-1]``,
          which is exactly the value the shift writes there, and gaps
          beyond ``right`` cloned the same run — clones stay intact.
        * **shift left** — symmetric: slots ``left+1..pos-1`` move one
          slot left onto the gap at ``left`` and ``key`` lands at
          ``pos-1`` with ``old keys[pos-1] < key <= keys[pos]``.  Gaps
          left of ``left`` clone values ``<= old keys[left] <= new
          keys[left]``, so order and clones survive.

        Both shifts copy the source block before assigning: the source
        and destination slices overlap, and in-place overlapping slice
        assignment is memcpy-order-dependent (numpy >= 1.13 happens to
        detect the overlap and buffer internally, but that is an
        implementation detail this structure must not lean on).
        """
        keys = self.data.keys
        occupied = self._occupied
        capacity = len(keys)
        pos = int(np.searchsorted(keys, key, side="left"))
        if pos < capacity and not occupied[pos]:
            # landing on a (stale) gap: claim it directly
            keys[pos] = key
            occupied[pos] = True
            self.num_keys += 1
            self._note_insert()
            return 0
        # find nearest gap right then left
        right = pos
        while right < capacity and occupied[right]:
            right += 1
        left = pos - 1
        while left >= 0 and occupied[left]:
            left -= 1
        if right < capacity and (left < 0 or right - pos <= pos - left):
            # overlap-safe: materialise the source block, then assign
            keys[pos + 1 : right + 1] = keys[pos:right].copy()
            keys[pos] = key
            occupied[right] = True
            shifted = right - pos
        elif left >= 0:
            keys[left : pos - 1] = keys[left + 1 : pos].copy()
            keys[pos - 1] = key
            occupied[left] = True
            shifted = pos - 1 - left
        else:
            # completely full: expand (rebuild with fresh gaps)
            real = keys[occupied]
            merged = np.sort(np.append(real, keys.dtype.type(key)))
            fresh = GappedLearnedIndex(
                merged, self.density, self.name, model=self.model_kind
            )
            self.__dict__.update(fresh.__dict__)
            return self.capacity
        self.num_keys += 1
        self._note_insert()
        return shifted

    def delete(self, key) -> None:
        """Delete one occurrence of ``key`` (KeyError if absent).

        O(1) plus a scan over the key's duplicate run: the occupancy bit
        is cleared and the slot value stays behind as a stale gap clone,
        which keeps the array sorted without moving anything.  Logical
        ranks remain exact because they only count occupied slots.
        """
        keys = self.data.keys
        occupied = self._occupied
        capacity = len(keys)
        pos = int(np.searchsorted(keys, key, side="left"))
        # the lower bound may land on a stale gap clone of ``key`` (left
        # behind by an earlier delete); advance to the first real slot
        # of the run, if any survives
        while pos < capacity and keys[pos] == key and not occupied[pos]:
            pos += 1
        if pos >= capacity or keys[pos] != key:
            raise KeyError(key)
        occupied[pos] = False
        self.num_keys -= 1
        self._prefix_cache = None

    def _note_insert(self) -> None:
        """Amortised correction-layer refresh bookkeeping.

        A full rebuild per insert would defeat the design; instead the
        layer is refreshed after every ``capacity/16`` inserts (amortised
        O(1) rebuild work per insert at fixed density), and exactness
        between refreshes is preserved by the validated search path.
        """
        self._prefix_cache = None
        self._inserts_since += 1
        if self._inserts_since >= max(self.capacity // 16, 1):
            self._inserts_since = 0
            self._rebuild(self.data.keys.copy())

    def real_keys(self) -> np.ndarray:
        """The logical key sequence (gaps removed)."""
        return self.data.keys[self._occupied]

    def min_key(self):
        """Smallest live key (no materialisation: first occupied slot)."""
        if self.num_keys == 0:
            raise ValueError("empty gapped index has no minimum")
        return self.data.keys[int(np.argmax(self._occupied))]

    # ------------------------------------------------------------------
    # auditing
    # ------------------------------------------------------------------
    def check_invariants(self, strict_clones: bool = False) -> None:
        """Assert the structural invariants; raises AssertionError.

        ``strict_clones`` additionally demands the ALEX gap-clone
        property (every gap slot equals its left neighbour), which holds
        after construction, :meth:`compact` and any sequence of pure
        inserts, but not after deletes.
        """
        keys = self.data.keys
        occupied = self._occupied
        assert len(keys) == len(occupied) == self.capacity
        assert bool(np.all(keys[1:] >= keys[:-1])), "gapped array unsorted"
        assert self.num_keys == int(occupied.sum()), "occupancy count drift"
        if strict_clones:
            gaps = np.flatnonzero(~occupied)
            gaps = gaps[gaps > 0]
            assert bool(np.all(keys[gaps] == keys[gaps - 1])), (
                "gap slot does not clone its left neighbour"
            )
