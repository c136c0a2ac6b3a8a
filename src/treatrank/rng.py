"""Deterministic random-stream derivation.

All randomness in the package flows through Philox, a counter-based bit
generator, so that results are reproducible across platforms and across
worker counts. Streams are addressed by an integer path: ``substream(seed,
tag, ...)`` always yields the same generator for the same path, and distinct
paths yield statistically independent streams.

A path is hashed exactly as numpy's ``SeedSequence(list(path))`` hashes it:
a stream's Philox key is that sequence's ``generate_state(2, np.uint64)``,
and ``child_seed`` is the first of those two words. The hashing is this
module's own, so that many paths can be hashed at once: one function,
``_keys``, hashes a block of paths in one pass whose every step acts on
every path at once, and ``child_seeds``, ``substreams`` and ``streams`` all
read it. Their path entries are either an int, shared by every path, or a
sequence with one int per path; ``child_seed`` and ``substream`` are the
one-path case. numpy's ``SeedSequence`` is the reference the tests hold
every key to; the package never hashes a path through one.

A path's trailing zero entries do not change its key while the path fits
in four 32-bit words (numpy pads a shorter path with zero words): for any
seed below 2**96, ``substream(seed)`` and ``substream(seed, 0)`` are the
same stream. Two streams that must differ therefore never take paths that
differ only by trailing zeros.

Path conventions used elsewhere in the package:

* dataset sampling uses streams ``STRATUM``, ``TREATMENT``, ``NOISE`` of the
  dataset seed, the paths ``(seed, tag)``;
* fold assignment uses stream ``FOLD`` of its seed, the path ``(seed,
  FOLD)``, so the folds of a seed never share a stream with the dataset
  that seed draws;
* the Monte Carlo runner derives per-replicate seeds as
  ``child_seed(scenario_seed, replicate_index, purpose)``, a task's in one
  ``child_seeds`` call, and keys the data seeds' three streams in one
  ``streams`` call and the fold seeds' one stream in another; each block of
  the task draws from its slice of them.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator, Sequence

import numpy as np
from numpy.typing import NDArray

STRATUM = 0
TREATMENT = 1
NOISE = 2
FOLD = 3
SAMPLE_TAGS = (STRATUM, TREATMENT, NOISE)  # the streams dgp.sample draws
FOLD_TAGS = (FOLD,)  # the stream nuisance.assign_folds draws

PathEntry = int | Sequence[int]

_MASK32 = 0xFFFFFFFF

# numpy's SeedSequence (numpy/random/bit_generator.pyx). The entropy words are
# hashed into a pool of four uint32 words; hash step k xors a word with h_k
# and multiplies it by h_{k+1}, where h_k = INIT_A * MULT_A**k (mod 2**32),
# and then xors it with itself shifted right by 16. generate_state hashes the
# pool words the same way with INIT_B and MULT_B.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _step(init: int, mult: int, k: int) -> tuple[int, int]:
    """The xor constant and the multiplier of hash step ``k``."""
    return init * pow(mult, k, 1 << 32) & _MASK32, init * pow(mult, k + 1, 1 << 32) & _MASK32


# pool word d first takes entropy word d (zero past the path's end) at step
# d; then, for each source word s in turn, every other word d, in order, is
# mixed with the source hashed at the next step (4 to 15); generate_state
# hashes pool word d at its step d
_FILL = [_step(_INIT_A, _MULT_A, d) for d in range(_POOL_SIZE)]
_CROSS = [(s, d) for s in range(_POOL_SIZE) for d in range(_POOL_SIZE) if d != s]
_CROSS_STEPS = [_step(_INIT_A, _MULT_A, _POOL_SIZE + k) for k in range(len(_CROSS))]
_OUT = [_step(_INIT_B, _MULT_B, d) for d in range(_POOL_SIZE)]


def _generate_state(words: NDArray[np.uint64], lengths: NDArray[np.intp] | None) -> NDArray[np.uint64]:
    """``SeedSequence(entropy).generate_state(2, np.uint64)`` of every column of ``words``, as (2, P).

    ``words`` is (W, P), W >= 4, column p holding path p's entropy words and
    then zeros; ``lengths`` holds each path's word count, or is None when
    every path has all W words.

    Each hash step runs on all P paths at once, as arithmetic on Python
    ints: a row of words becomes one int that holds path p's word in bits
    64 p to 64 p + 31, its lane. A word times a 32-bit constant is below
    2**64, so no product reaches the next lane, and ``& low`` keeps every
    lane's low 32 bits, as uint32 arithmetic wraps. A hash is ~50 dependent
    steps, and a numpy ufunc call per step costs about as much for one path
    as for a hundred. On a 2-vCPU VM a pass over these ints, ``_entropy``
    included, takes 25-30 us for a few paths (a replicate run alone through
    ``sample`` and ``assign_folds`` hashes three such passes), ~110 us for
    100 paths and ~440 us for 500; a Monte Carlo task hashes its child
    seeds and then its streams, in three passes, in 0.3-0.4 ms at 25
    replicates and 1.7-2.5 ms at 250, 7-16 us per replicate.
    """
    P = words.shape[1]
    width = 8 * P
    rows = [int.from_bytes(row.tobytes(), "little") for row in words]
    one = int.from_bytes(b"\x01".ljust(8, b"\0") * P, "little")  # 1 in every lane
    low = one * _MASK32

    def hashmix(value: int, step: tuple[int, int]) -> int:
        value = (value ^ one * step[0]) * step[1] & low
        return value ^ (value >> 16 & low)

    def mix(word: int, hashed: int) -> int:
        # MIX_L * word - MIX_R * hashed, as a sum that cannot borrow across lanes
        value = (word * _MIX_L & low) + (hashed * ((1 << 32) - _MIX_R) & low) & low
        return value ^ (value >> 16 & low)

    pool = [hashmix(rows[d], step) for d, step in enumerate(_FILL)]  # zeros hash as numpy pads
    for (s, d), step in zip(_CROSS, _CROSS_STEPS):
        pool[d] = mix(pool[d], hashmix(pool[s], step))
    # words past the pool are mixed into every pool word, at steps 16, 17, ...
    for i in range(_POOL_SIZE, len(rows)):
        active = low if lengths is None else int.from_bytes(
            np.where(lengths > i, _MASK32, 0).astype("<u8").tobytes(), "little")
        for d in range(_POOL_SIZE):
            mixed = mix(pool[d], hashmix(rows[i], _step(_INIT_A, _MULT_A, _POOL_SIZE * i + d)))
            pool[d] ^= (mixed ^ pool[d]) & active
    out = [hashmix(word, step) for word, step in zip(pool, _OUT)]
    # each uint64 pairs two words, the first as its low half: lane p of these
    # two ints is path p's state
    state = (out[0] | out[1] << 32, out[2] | out[3] << 32)
    return np.frombuffer(b"".join(v.to_bytes(width, "little") for v in state), "<u8").reshape(2, P)


def _entropy(path: tuple[PathEntry, ...]) -> tuple[NDArray[np.uint64], NDArray[np.intp] | None]:
    """The entropy words that ``SeedSequence(list(path))`` hashes, for every path.

    Each entry of ``path`` is an int shared by every path or a sequence with
    one int per path (a one-int sequence is shared too). An int contributes
    its 32-bit words, least significant first; 0 is one zero word. Returns
    the (W, P) words (little-endian uint64, each below 2**32), W >= 4, zero
    past each path's end, and each path's word count (None when every path
    has all W words). Entries are checked as Python ints, before any
    fixed-width conversion.
    """
    columns = [[operator.index(e)] if isinstance(e, (int, np.integer))
               else list(map(operator.index, e)) for e in path]
    P = 1
    for column in columns:
        if len(column) != 1:
            if P != 1 and len(column) != P:
                raise ValueError(f"seed path sequences differ in length: {path}")
            P = len(column)
    rows: list[list[int]] = []
    uneven = []  # (first row, word count) of each entry whose values differ in word count
    for column in columns:
        if len(column) != P:
            column = column * P
        if min(column, default=0) < 0:
            raise ValueError(f"seed path entries must be non-negative, got {path}")
        top = max(column, default=0)
        if top <= _MASK32:
            rows.append(column)
            continue
        size = -(-top.bit_length() // 32)
        if min(column).bit_length() <= 32 * (size - 1):
            uneven.append((len(rows), size))
        rows += [[v >> s & _MASK32 for v in column] for s in range(0, 32 * size, 32)]
    count = len(rows)
    rows += [[0] * P] * (_POOL_SIZE - count)  # a short path's zeros, as numpy pads it
    words = np.array(rows, dtype="<u8")
    if not uneven:
        return words, None
    # a value with fewer words than its entry's largest leaves zero rows in
    # its path (word i is its own while a word from i up is not zero); move
    # each path's words up over them
    valid = np.ones((count, P), dtype=bool)
    for first, size in uneven:
        valid[first + 1:first + size] = np.logical_or.accumulate(
            words[first + size - 1:first:-1] != 0, axis=0)[::-1]
    order = np.argsort(~valid, axis=0, kind="stable")
    words[:count] = np.take_along_axis(words[:count], order, axis=0)
    return words, valid.sum(axis=0)


def _keys(*path: PathEntry) -> NDArray[np.uint64]:
    """The Philox key of every path, as (P, 2); entries as in :func:`child_seeds`."""
    return _generate_state(*_entropy(path)).T


def child_seeds(*path: PathEntry) -> list[int]:
    """Hash every path into a single derived seed, in one pass.

    ``child_seeds(seed, reps, purpose)[i] == child_seed(seed, reps[i], purpose)``:
    each entry is an int shared by every path or a sequence with one int per
    path.
    """
    return _keys(*path)[:, 0].tolist()


def child_seed(*path: int) -> int:
    """Hash an integer path into a single derived seed."""
    return child_seeds(*path)[0]


def substreams(*path: PathEntry) -> Iterator[np.random.Generator]:
    """The Philox generator of every path, in order, with all keys derived in one pass.

    Entries are as in :func:`child_seeds`. The keys are derived (and the
    entries checked) when this is called; the generators are built as they
    are iterated. One generator is re-keyed for each path after the first,
    so a generator is valid until the next one is drawn: draw from each
    before the next.
    """
    return _generators(_keys(*path).tolist(), [None])


class Streams:
    """Streams of a list of seeds, keyed ahead of the draws.

    ``keys[r, i]`` is the Philox key of stream ``tags[r]`` of seed ``i``,
    the path ``(seed_i, tags[r])``. ``dgp.sample`` takes the streams
    ``SAMPLE_TAGS`` and ``nuisance.assign_folds`` the streams ``FOLD_TAGS``
    in place of a list of seeds, so a caller can key the streams of many
    blocks of seeds in one pass (:func:`streams`) and hand each block its
    slice, ``streams[lo:hi]``. Every slice of one :func:`streams`
    call re-keys one generator, so, as with :func:`substreams`, a generator
    is valid until the next one is drawn.
    """

    __slots__ = ("keys", "tags", "_shared")

    def __init__(self, keys: NDArray[np.uint64], tags: tuple[int, ...], shared: list) -> None:
        self.keys = keys
        self.tags = tags
        self._shared = shared  # [the generator, or None before the first draw]

    def __len__(self) -> int:
        return self.keys.shape[1]

    def __getitem__(self, seeds: slice) -> "Streams":
        return Streams(self.keys[:, seeds], self.tags, self._shared)

    def generators(self, tag: int) -> Iterator[np.random.Generator]:
        """The generator of each seed's stream ``tag``, in order."""
        return _generators(self.keys[self.tags.index(tag)].tolist(), self._shared)


def streams(seeds: Sequence[int], tags: Sequence[int]) -> Streams:
    """The streams ``tags`` of every seed, keyed in one pass: the paths ``(seed, t)``."""
    seeds, tags = list(seeds), tuple(tags)
    keys = _keys(seeds * len(tags), [t for t in tags for _ in seeds])
    return Streams(keys.reshape(len(tags), len(seeds), 2), tags, [None])


def as_streams(seed: int | Sequence[int] | Streams, tags: Sequence[int]) -> Streams:
    """The streams ``tags`` of a seed or a list of seeds, or ``seed`` itself if it is those streams."""
    if not isinstance(seed, Streams):
        return streams([seed] if isinstance(seed, (int, np.integer)) else seed, tags)
    if seed.tags != tuple(tags):
        raise ValueError(f"need the streams {tuple(tags)} of each seed, got {seed.tags}")
    return seed


def _generators(keys: list[list[int]], shared: list) -> Iterator[np.random.Generator]:
    """A Philox generator per ``[key0, key1]``: ``shared[0]``, made on first use, then re-keyed."""
    for key in keys:
        if shared[0] is None:
            # numpy.random is imported on first use, not with the package
            shared[0] = np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))
        else:
            # the state of a new Philox: zero counter and an empty output buffer
            shared[0].bit_generator.state = {
                "bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
                "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        yield shared[0]


def substream(*path: int) -> np.random.Generator:
    """Return a Philox generator addressed by the integer path."""
    return next(substreams(*path))
