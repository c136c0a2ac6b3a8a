"""Deterministic random-stream derivation.

All randomness in the package flows through Philox, a counter-based bit
generator, so that results are reproducible across platforms and worker
counts. Philox is keyed by two 64-bit words, and distinct keys give
independent streams by design (Salmon, Moraes, Dror and Shaw 2011,
"Parallel Random Numbers: As Easy as 1, 2, 3"), so a stream's key is its
path laid out in bit fields, not hashed.

A *seed* is an int in [0, 2**120). Its stream ``tag`` (in [0, 2**8)) is
keyed ``(seed mod 2**64, (seed >> 64) * 2**8 + tag)``: the seed's 120 bits
and then the tag's 8, so no two (seed, tag) paths share a key. A *root
seed*, such as a scenario seed, is below 2**64, and its children take the
bits above it::

    child_seed(seed, r, purpose) = seed + 2**64 * ((r + 1) * 2**8 + purpose + 1)
    child_seed(seed, purpose)    = seed + 2**64 * (purpose + 1)

for ``r`` in [0, 2**48 - 1) and ``purpose`` in [0, 2**8 - 1). So stream
``tag`` of replicate ``r``'s ``purpose`` seed is keyed ``(seed, (r + 1) *
2**16 + (purpose + 1) * 2**8 + tag)``, each entry in its own field of the
second word. The fields give every entry back, and a root seed's streams
have both upper fields zero and a ``(seed, purpose)`` child's the
replicate field, so no two (seed, replicate, purpose, tag) paths of the
three kinds share a key. An entry past its bound is refused with a
``ValueError`` before any fixed-width conversion. A child seed is a seed
like any other, so ``treatrank sample --seed`` takes one.

``dgp.sample`` draws the streams ``SAMPLE_TAGS`` of its seed and
``nuisance.assign_folds`` the stream ``FOLD`` of its own, so one seed may
draw a dataset and its folds. The Monte Carlo runner's replicate ``r``
draws its dataset from ``child_seed(seed, r, 0)`` and its folds from
``child_seed(seed, r, 1)``; a task keys those seeds' streams as arrays
(``child_streams``) and hands each block its slice.

``substream(*path)`` keys the generators that are no stream of a seed,
such as ``random_dgp``'s, by numpy's ``SeedSequence(list(path))`` hash; a
hashed key equals a laid-out one only by chance, about 2**-128 a pair.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Iterator, Sequence

import numpy as np
from numpy.typing import NDArray

STRATUM = 0
TREATMENT = 1
NOISE = 2
FOLD = 3
SAMPLE_TAGS = (STRATUM, TREATMENT, NOISE)  # the streams dgp.sample draws
FOLD_TAGS = (FOLD,)  # the stream nuisance.assign_folds draws

SEED_LIMIT = 2**64  # a root seed, which child_seed derives from
STREAM_SEED_LIMIT = 2**120  # any seed that draws streams: a root seed or a child
_TAG_LIMIT = 2**8
_PURPOSE_LIMIT = 2**8 - 1  # purpose + 1 fills an 8-bit field
_REPLICATE_LIMIT = 2**48 - 1  # r + 1 fills a 48-bit field
_LOW = 2**64 - 1


def _checked(name: str, values: Iterable[int], limit: int) -> list[int]:
    """``values`` as Python ints, each in [0, limit), or ValueError naming the first that is not."""
    values = [operator.index(v) for v in values]
    if values and (min(values) < 0 or max(values) >= limit):
        bad = next(v for v in values if not 0 <= v < limit)
        bits = limit.bit_length()
        bound = f"2**{bits - 1}" if limit == 1 << (bits - 1) else f"2**{bits} - 1"
        raise ValueError(f"{name} must be an integer in [0, {bound}), got {bad}")
    return values


def child_seed(seed: int, *path: int) -> int:
    """The child seed of the path ``(seed, purpose)`` or ``(seed, r, purpose)``, as laid out above."""
    if len(path) not in (1, 2):
        raise TypeError(f"child_seed takes (seed, purpose) or (seed, r, purpose), "
                        f"got {(seed, *path)}")
    *rep, purpose = path
    (seed,) = _checked("seed", [seed], SEED_LIMIT)
    (purpose,) = _checked("purpose", [purpose], _PURPOSE_LIMIT)
    rep = _checked("replicate", rep, _REPLICATE_LIMIT)
    return seed | ((rep[0] + 1 if rep else 0) << 8 | purpose + 1) << 64


def child_seeds(seed: int, reps: Iterable[int], purpose: int) -> list[int]:
    """``[child_seed(seed, r, purpose) for r in reps]``."""
    return [child_seed(seed, r, purpose) for r in reps]


class Streams:
    """Streams of a list of seeds, keyed ahead of the draws.

    ``keys[r, i]`` is the Philox key of stream ``tags[r]`` of seed ``i``,
    the path ``(seed_i, tags[r])``. ``dgp.sample`` takes the streams
    ``SAMPLE_TAGS`` and ``nuisance.assign_folds`` the streams ``FOLD_TAGS``
    in place of a list of seeds, so a caller can key the streams of many
    blocks of seeds at once (:func:`streams`, :func:`child_streams`) and
    hand each block its slice, ``streams[lo:hi]``. Every slice of one call
    re-keys one generator, so a generator is valid until the next one is
    drawn: draw from each before the next.
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


def _streams(low: NDArray[np.uint64], high: NDArray[np.uint64], tags: Sequence[int]) -> Streams:
    """The streams ``tags`` of the seeds ``low + 2**64 * high``, keyed as laid out above."""
    tags = tuple(_checked("tag", tags, _TAG_LIMIT))
    keys = np.empty((len(tags), len(low), 2), dtype=np.uint64)
    keys[..., 0] = low
    keys[..., 1] = high << np.uint64(8) | np.array(tags, dtype=np.uint64)[:, None]
    return Streams(keys, tags, [None])


def streams(seeds: Sequence[int], tags: Sequence[int]) -> Streams:
    """The streams ``tags`` of every seed: the paths ``(seed, t)``."""
    seeds = _checked("seed", seeds, STREAM_SEED_LIMIT)
    return _streams(np.array([s & _LOW for s in seeds], dtype=np.uint64),
                    np.array([s >> 64 for s in seeds], dtype=np.uint64), tags)


def child_streams(seed: int, reps: Iterable[int], purpose: int, tags: Sequence[int]) -> Streams:
    """``streams(child_seeds(seed, reps, purpose), tags)``, keyed as arrays."""
    (seed,) = _checked("seed", [seed], SEED_LIMIT)
    (purpose,) = _checked("purpose", [purpose], _PURPOSE_LIMIT)
    reps = np.array(_checked("replicate", reps, _REPLICATE_LIMIT), dtype=np.uint64)
    high = (reps + np.uint64(1)) << np.uint64(8) | np.uint64(purpose + 1)
    return _streams(np.full(len(reps), seed, dtype=np.uint64), high, tags)


def as_streams(seed: int | Sequence[int] | Streams, tags: Sequence[int]) -> Streams:
    """The streams ``tags`` of a seed or a list of seeds, or ``seed`` itself if it is those streams."""
    if not isinstance(seed, Streams):
        return streams([seed] if isinstance(seed, (int, np.integer)) else seed, tags)
    if seed.tags != tuple(tags):
        raise ValueError(f"need the streams {tuple(tags)} of each seed, got {seed.tags}")
    return seed


def _generators(keys: list[list[int]], shared: list) -> Iterator[np.random.Generator]:
    """A Philox generator per ``[key0, key1]``: ``shared[0]``, made on first use, then re-keyed."""
    # the state of a new Philox: zero counter and an empty output buffer; the
    # setter copies it, so one dict serves every key
    state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": None},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for key in keys:
        if shared[0] is None:
            # numpy.random is imported on first use, not with the package
            shared[0] = np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))
        else:
            state["state"]["key"] = key
            shared[0].bit_generator.state = state
        yield shared[0]


def substream(*path: int) -> np.random.Generator:
    """The Philox generator keyed by numpy's ``SeedSequence`` hash of the integer path."""
    key = np.random.SeedSequence(list(path)).generate_state(2, np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
