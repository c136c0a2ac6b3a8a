"""The stream keys of ``treatrank.rng``, held to its layout written out in Python ints.

A seed's stream ``tag`` is keyed ``(seed mod 2**64, (seed >> 64) * 2**8 +
tag)``, and a child seed is ``seed + 2**64 * ((r + 1) * 2**8 + purpose +
1)`` (``r`` left out for ``(seed, purpose)``); ``conftest`` writes both out.
Every key here is compared with that layout, every draw with a generator
that numpy builds from the key, and ``substream``'s keys with numpy's own
``SeedSequence``.
"""

from __future__ import annotations

import itertools
import os
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import treatrank as tr
from treatrank import cli, rng
from treatrank.estimators import ESTIMATORS

from conftest import layout_child_seed, layout_key, layout_stream

# root seeds at the bounds of one and two words, and seeds a child may take
ROOT_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
SEEDS = ROOT_SEEDS + [2**64, 2**70, 2**120 - 1]
TAGS = [0, 1, 2, 3, 255]
REPS = [0, 1, 2**32, 2**48 - 2]  # the first two, one past 32 bits and the last
PURPOSES = [0, 1, 254]


def philox_key(gen: np.random.Generator) -> list[int]:
    return [int(k) for k in gen.bit_generator.state["state"]["key"]]


def assert_same_stream(gen: np.random.Generator, ref: np.random.Generator) -> None:
    assert philox_key(gen) == philox_key(ref)
    assert np.array_equal(gen.random(7), ref.random(7))
    assert np.array_equal(gen.normal(size=7), ref.normal(size=7))
    assert np.array_equal(gen.permutation(50), ref.permutation(50))


def block_seeds(B: int) -> list[int]:
    """``B`` seeds that mix one-, two- and three-word values within the block."""
    return [(SEEDS[b % len(SEEDS)] + b) % 2**120 for b in range(B)]


class TestLayout:
    """Keys rebuilt from their paths, and no two paths with one key."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_stream_key_rebuilt_from_its_path(self, seed):
        streams = rng.streams([seed], TAGS)
        for tag in TAGS:
            assert streams.keys[TAGS.index(tag), 0].tolist() == layout_key(seed, tag)
            assert_same_stream(next(streams.generators(tag)), layout_stream(seed, tag))

    @pytest.mark.parametrize("seed", ROOT_SEEDS)
    def test_child_seed_rebuilt_from_its_path(self, seed):
        for r, purpose in itertools.product(REPS, PURPOSES):
            child = rng.child_seed(seed, r, purpose)
            assert child == layout_child_seed(seed, r, purpose)
            # the key of the child's stream holds every entry of the path
            assert layout_key(child, 3) == [seed, (r + 1) * 2**16 + (purpose + 1) * 2**8 + 3]
        for purpose in PURPOSES:
            assert rng.child_seed(seed, purpose) == layout_child_seed(seed, purpose)
        assert rng.child_seeds(seed, REPS, 1) == [rng.child_seed(seed, r, 1) for r in REPS]

    @pytest.mark.parametrize("purpose", PURPOSES)
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_child_streams_are_the_streams_of_the_child_seeds(self, seed, purpose):
        for reps in (range(0, 0), range(0, 7), range(2**48 - 4, 2**48 - 1)):
            for tags in (rng.SAMPLE_TAGS, rng.FOLD_TAGS, (255, 0)):
                keyed = rng.child_streams(seed, reps, purpose, tags)
                assert keyed.tags == tags and keyed.keys.dtype == np.uint64
                assert np.array_equal(keyed.keys,
                                      rng.streams(rng.child_seeds(seed, reps, purpose), tags).keys)

    def test_distinct_paths_distinct_keys(self):
        # every kind of path at the bounds of every entry: a root seed's
        # stream, a (seed, purpose) child's and a (seed, r, purpose) child's
        keys = {}
        for seed, tag in itertools.product(ROOT_SEEDS, TAGS):
            paths = [(seed, tag)]
            paths += [(seed, p, tag) for p in PURPOSES]
            paths += [(seed, r, p, tag) for r, p in itertools.product(REPS, PURPOSES)]
            for path in paths:
                child = path[0] if len(path) == 2 else rng.child_seed(*path[:-1])
                key = tuple(rng.streams([child], [tag]).keys[0, 0].tolist())
                assert keys.setdefault(key, path) == path
        assert len(keys) == len(ROOT_SEEDS) * len(TAGS) * (1 + len(PURPOSES) * (1 + len(REPS)))

    def test_every_seed_below_the_bound_has_its_own_keys(self):
        # the seeds next to each word boundary, each tag field value at the ends
        seeds = sorted({s + d for s in (0, 2**64, 2**72, 2**119, 2**120 - 1) for d in (-1, 0, 1)
                        if 0 <= s + d < 2**120})
        keys = rng.streams(seeds, [0, 1, 254, 255]).keys.reshape(-1, 2)
        assert len({tuple(k) for k in keys.tolist()}) == 4 * len(seeds)


class TestBounds:
    """An entry outside the layout is refused, before any fixed-width conversion."""

    @pytest.mark.parametrize("call, message", [
        (lambda: rng.child_seed(-1, 0), "seed must be an integer in [0, 2**64), got -1"),
        (lambda: rng.child_seed(2**64, 0, 0), f"seed must be an integer in [0, 2**64), got {2**64}"),
        (lambda: rng.child_seed(3, -1, 0), "replicate must be an integer in [0, 2**48 - 1), got -1"),
        (lambda: rng.child_seed(3, 2**48 - 1, 0),
         f"replicate must be an integer in [0, 2**48 - 1), got {2**48 - 1}"),
        (lambda: rng.child_seed(3, 255), "purpose must be an integer in [0, 2**8 - 1), got 255"),
        (lambda: rng.child_seed(3, 0, -1), "purpose must be an integer in [0, 2**8 - 1), got -1"),
        (lambda: rng.child_seeds(3, [0, 2**48 - 1, 2**60], 0),
         f"replicate must be an integer in [0, 2**48 - 1), got {2**48 - 1}"),
        (lambda: rng.child_streams(3, range(2**48 - 2, 2**48), 0, rng.FOLD_TAGS),
         f"replicate must be an integer in [0, 2**48 - 1), got {2**48 - 1}"),
        (lambda: rng.streams([3, -1], rng.FOLD_TAGS), "seed must be an integer in [0, 2**120), got -1"),
        (lambda: rng.streams([2**120], rng.FOLD_TAGS),
         f"seed must be an integer in [0, 2**120), got {2**120}"),
        (lambda: rng.streams([3], [256]), "tag must be an integer in [0, 2**8), got 256"),
        (lambda: rng.substream(2**70, -1), "expected non-negative integer"),
    ])
    def test_rng(self, call, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()

    def test_non_integer_entries_and_other_paths_refused(self):
        with pytest.raises(TypeError):
            rng.child_seed(1.5, 0)
        with pytest.raises(TypeError):
            rng.streams([1, 2.0], rng.FOLD_TAGS)
        for path in ((), (1, 2, 3)):
            with pytest.raises(TypeError, match="child_seed takes"):
                rng.child_seed(7, *path)

    @pytest.mark.parametrize("seed", [-1, 2**120])
    def test_sample_and_folds(self, reversal_dgp, seed):
        message = f"seed must be an integer in [0, 2**120), got {seed}"
        with pytest.raises(ValueError, match=re.escape(message)):
            tr.sample(reversal_dgp, 10, [3, seed])
        with pytest.raises(ValueError, match=re.escape(message)):
            tr.assign_folds(10, 5, seed)

    def test_scenario_seed(self):
        config = tr.preset("balanced")
        with pytest.raises(ValueError, match=re.escape(
                f"seed must be an integer in [0, 2**64), got {2**64}")):
            replace(config, seed=2**64)
        assert replace(config, seed=2**64 - 1).seed == 2**64 - 1

    @pytest.mark.parametrize("argv, bits", [
        (["sample", "--config", "{config}", "--n", "10"], 120),
        (["estimate", "--data", "{data}"], 120),
        (["montecarlo", "--preset", "balanced", "--reps", "2", "--n", "200"], 64),
    ])
    def test_cli_first_refused_seed(self, tmp_path, reversal_dgp, capsys, argv, bits):
        # the first seed past a command's bound is a usage error that writes no
        # --out; the last one below it runs
        config, data = tmp_path / "dgp.yaml", tmp_path / "sample" / "dataset.csv"
        tr.write_dgp_config(reversal_dgp, config)
        assert cli.main(["sample", "--config", str(config), "--n", "200",
                         "--out", str(data.parent)]) == 0
        argv = [a.format(config=config, data=data) for a in argv]
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--seed", str(2**bits), "--out", str(tmp_path / "refused")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --seed: seed must be an integer in [0, 2**{bits}), got '{2**bits}'" in err
        assert "Traceback" not in err
        assert not (tmp_path / "refused").exists()
        assert cli.main([*argv, "--seed", str(2**bits - 1), "--out", str(tmp_path / "last")]) == 0


class TestStreams:
    """Streams keyed ahead: row ``r`` of seed ``i`` is the path ``(seed_i, tags[r])``."""

    @pytest.mark.parametrize("tags", [rng.FOLD_TAGS, rng.SAMPLE_TAGS, (5, 0)])
    @pytest.mark.parametrize("B", [0, 1, 7, 40])
    def test_rows_match_the_layout(self, B, tags):
        seeds = block_seeds(B)
        streams = rng.streams(seeds, tags)
        assert len(streams) == B and streams.keys.shape == (len(tags), B, 2)
        assert streams.tags == tuple(tags)
        for r, t in enumerate(tags):
            assert streams.keys[r].tolist() == [layout_key(seed, t) for seed in seeds]
            drawn = 0
            for seed, gen in zip(seeds, streams.generators(t)):
                assert_same_stream(gen, layout_stream(seed, t))
                drawn += 1
            assert drawn == B

    def test_numpy_integer_seeds(self):
        seeds = np.array([3, 2**40], dtype=np.uint64)
        assert rng.streams(seeds, rng.FOLD_TAGS).keys[0].tolist() == [layout_key(3, 3),
                                                                       layout_key(2**40, 3)]
        assert rng.child_seed(np.int64(5), np.int64(2), np.uint8(1)) == layout_child_seed(5, 2, 1)

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            rng.streams([1, 2], rng.SAMPLE_TAGS).generators(rng.FOLD)

    def test_slices(self):
        seeds = block_seeds(10)
        streams = rng.streams(seeds, rng.SAMPLE_TAGS)
        for lo, hi in [(0, 1), (3, 7), (9, 10)]:
            part = streams[lo:hi]
            assert len(part) == hi - lo and part.tags == rng.SAMPLE_TAGS
            for seed, gen in zip(seeds[lo:hi], part.generators(rng.NOISE)):
                assert_same_stream(gen, layout_stream(seed, rng.NOISE))

    def test_slices_share_one_generator(self):
        streams = rng.streams(block_seeds(5), rng.SAMPLE_TAGS)
        first = next(streams[0:2].generators(rng.STRATUM))
        assert next(streams[2:5].generators(rng.NOISE)) is first
        assert next(streams.generators(rng.TREATMENT)) is first
        # another call keys its own generator
        assert next(rng.streams([1], rng.FOLD_TAGS).generators(rng.FOLD)) is not first

    def test_sample_and_folds_take_streams(self, reversal_dgp):
        seeds, fold_seeds = block_seeds(6), [s + 1 for s in block_seeds(6)]
        data, folds = rng.streams(seeds, rng.SAMPLE_TAGS), rng.streams(fold_seeds, rng.FOLD_TAGS)
        block = tr.sample(reversal_dgp, 40, data[2:5])
        assert block == tr.sample(reversal_dgp, 40, seeds[2:5])
        assert np.array_equal(block.cell_keys, tr.sample(reversal_dgp, 40, seeds[2:5]).cell_keys)
        assert np.array_equal(tr.assign_folds(40, 5, folds[1:4]).fold_of,
                              tr.assign_folds(40, 5, fold_seeds[1:4]).fold_of)

    def test_sample_and_folds_refuse_each_others_streams(self, reversal_dgp):
        data = rng.streams(block_seeds(6), rng.SAMPLE_TAGS)
        folds = rng.streams(block_seeds(6), rng.FOLD_TAGS)
        with pytest.raises(ValueError, match=re.escape("need the streams (0, 1, 2) of each seed, "
                                                       "got (3,)")):
            tr.sample(reversal_dgp, 40, folds[2:5])
        with pytest.raises(ValueError, match=re.escape("need the streams (3,) of each seed, "
                                                       "got (0, 1, 2)")):
            tr.assign_folds(40, 5, data[1:4])
        # streams of the right count but other tags are refused too
        with pytest.raises(ValueError, match="need the streams"):
            tr.assign_folds(40, 5, rng.streams(block_seeds(3), (rng.STRATUM,)))
        with pytest.raises(ValueError, match="need the streams"):
            tr.sample(reversal_dgp, 40, rng.streams(block_seeds(3), (rng.NOISE, rng.TREATMENT,
                                                                     rng.STRATUM)))

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1, 2**96, 2**120 - 1])
    def test_folds_draw_the_fold_stream(self, seed):
        # the path (seed, FOLD), which none of sample's streams of the seed is
        expected = np.empty(30, dtype=np.int64)
        expected[layout_stream(seed, rng.FOLD).permutation(30)] = np.arange(30) % 5
        for folds in (tr.assign_folds(30, 5, seed), tr.assign_folds(30, 5, [seed, 3]),
                      tr.assign_folds(30, 5, rng.streams([seed], rng.FOLD_TAGS))):
            assert np.array_equal(folds.fold_of.reshape(-1, 30)[0], expected)
        assert rng.FOLD not in rng.SAMPLE_TAGS

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, 2**70, 2**120 - 1])
    def test_sample_draws_the_sample_streams(self, reversal_dgp, seed):
        block = tr.sample(reversal_dgp, 30, [seed, 3])
        assert block.replicate(0) == tr.sample(reversal_dgp, 30, seed)
        streams = rng.streams([seed], rng.SAMPLE_TAGS)
        for tag in rng.SAMPLE_TAGS:
            assert philox_key(next(streams.generators(tag))) == layout_key(seed, tag)

    @pytest.mark.parametrize("seed", [0, 7, 2**40])
    def test_cli_folds_of_a_sampled_dataset(self, seed, monkeypatch, tmp_path, reversal_dgp):
        # sample --seed S then estimate --data --seed S: the folds draw the
        # path (S, FOLD), none of the paths that drew the dataset
        config = tmp_path / "dgp.yaml"
        tr.write_dgp_config(reversal_dgp, config)
        assert cli.main(["sample", "--config", str(config), "--n", "200", "--seed", str(seed),
                         "--out", str(tmp_path / "sample")]) == 0
        fold_keys = []

        def recording(n, num_folds, fold_seed):
            fold_keys.append(philox_key(next(rng.as_streams(fold_seed, rng.FOLD_TAGS)
                                             .generators(rng.FOLD))))
            return tr.assign_folds(n, num_folds, fold_seed)

        monkeypatch.setattr(cli, "assign_folds", recording)
        assert cli.main(["estimate", "--data", str(tmp_path / "sample" / "dataset.csv"),
                         "--seed", str(seed), "--out", str(tmp_path / "out")]) == 0
        assert fold_keys == [layout_key(seed, rng.FOLD)]
        assert all(fold_keys[0] != layout_key(seed, tag) for tag in rng.SAMPLE_TAGS)


class TestSubstream:
    """``substream`` keeps numpy's ``SeedSequence`` keys, for any path of non-negative ints."""

    # the empty path, and 48 paths of 1 to 6 entries: 1 to 24 entropy words,
    # past SeedSequence's 4-word pool
    PATHS = [[]] + [[SEEDS[(start + i) % len(SEEDS)] for i in range(length)]
                    for length in range(1, 7) for start in range(len(SEEDS))]

    @pytest.mark.parametrize("path", PATHS, ids=lambda p: "-".join(map(str, p)) or "empty")
    def test_matches_numpy_seedsequence(self, path):
        ref = np.random.Generator(np.random.Philox(np.random.SeedSequence(list(path))))
        assert philox_key(rng.substream(*path)) == \
            np.random.SeedSequence(list(path)).generate_state(2, np.uint64).tolist()
        assert_same_stream(rng.substream(*path), ref)


def test_scenario_rows_are_their_child_seeds_run_alone():
    # the engine keys a task's streams as arrays; each row is the replicate
    # run alone from child_seed(seed, r, 0) and child_seed(seed, r, 1), at
    # the largest scenario seed too
    for seed in (0, 2**64 - 1):
        config = replace(tr.preset("balanced"), seed=seed, num_reps=5, n_per_rep=200)
        points = np.stack([tr.run_scenario(config).estimates[m] for m in tr.METHODS], axis=1)
        for r in range(config.num_reps):
            data = tr.sample(config.dgp, 200, layout_child_seed(seed, r, 0))
            folds = tr.assign_folds(200, config.num_folds, layout_child_seed(seed, r, 1))
            fit = tr.fit_crossfit(data, config.learner, folds, config.clip)
            for m, estimator in enumerate(ESTIMATORS.values()):
                for j in (1, 2):
                    assert points[r, m, j - 1] == estimator(data, fit, j).point


def test_import_and_config_io_load_no_numpy_random(tmp_path):
    # numpy loads numpy.random lazily (numpy >= 2); importing the package,
    # loading a preset and writing a config must not load it, or every
    # process that never samples pays its import time and memory
    src = os.path.dirname(os.path.dirname(os.path.abspath(tr.__file__)))
    code = "\n".join([
        "import sys, numpy, yaml",
        "before = set(sys.modules)",
        "import treatrank as tr",
        "config = tr.preset('balanced')",
        f"tr.write_dgp_config(config.dgp, {str(tmp_path / 'dgp.yaml')!r})",
        "print(sorted(m for m in set(sys.modules) - before if m.startswith('numpy.random')))",
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120, check=True)
    assert out.stdout.strip() == "[]"
