"""The seed derivation of ``treatrank.rng``, held to numpy's own ``SeedSequence``.

``rng`` hashes whole blocks of paths with its own code; every key, child
seed and draw here is compared with a generator that numpy builds from
``SeedSequence(list(path))``, the derivation the package used before.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import treatrank as tr
from treatrank import cli, rng
from treatrank.estimators import ESTIMATORS

# one- and two-word seeds, the largest of each, and seeds past 64 bits
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**70]
# 36 paths of 1 to 6 entries: 1 to 18 entropy words, past the 4-word pool
PATHS = [[SEEDS[(start + i) % len(SEEDS)] for i in range(length)]
         for length in range(1, 7) for start in range(len(SEEDS))]


def numpy_generator(path) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(path))))


def numpy_child_seed(path) -> int:
    return int(np.random.SeedSequence(list(path)).generate_state(1, np.uint64)[0])


def assert_same_stream(gen: np.random.Generator, path) -> None:
    ref = numpy_generator(path)
    assert [int(k) for k in gen.bit_generator.state["state"]["key"]] == \
        [int(k) for k in ref.bit_generator.state["state"]["key"]]
    assert np.array_equal(gen.random(7), ref.random(7))
    assert np.array_equal(gen.normal(size=7), ref.normal(size=7))
    assert np.array_equal(gen.permutation(50), ref.permutation(50))


def block_seeds(B: int) -> list[int]:
    """``B`` seeds that mix one, two and three words within the block."""
    return [SEEDS[b % len(SEEDS)] + b for b in range(B)]


class TestOnePath:
    @pytest.mark.parametrize("path", PATHS, ids=lambda p: "-".join(map(str, p)))
    def test_child_seed_and_substream_match_numpy(self, path):
        assert rng.child_seed(*path) == numpy_child_seed(path)
        assert_same_stream(rng.substream(*path), path)

    def test_empty_path_matches_numpy(self):
        assert rng.child_seed() == numpy_child_seed([])
        assert_same_stream(rng.substream(), [])


class TestBlocks:
    @pytest.mark.parametrize("B", [1, 2, 40, 41])
    @pytest.mark.parametrize("tag", [None, 0, 1, 2])
    def test_block_matches_numpy_path_by_path(self, B, tag):
        seeds = block_seeds(B)
        tail = [] if tag is None else [tag]
        assert rng.child_seeds(seeds, *tail) == [numpy_child_seed([s, *tail]) for s in seeds]
        count = 0
        for seed, gen in zip(seeds, rng.substreams(seeds, *tail)):
            assert_same_stream(gen, [seed, *tail])
            count += 1
        assert count == B

    @pytest.mark.parametrize("B", [1, 40])
    def test_three_tags_in_one_pass(self, B):
        # the shape ``sample`` derives: every seed under each tag in turn
        seeds = block_seeds(B)
        tags = [rng.STRATUM, rng.TREATMENT, rng.NOISE]
        paths = [(s, t) for t in tags for s in seeds]
        gens = rng.substreams(seeds * len(tags), [t for t in tags for _ in seeds])
        for path, gen in zip(paths, gens):
            assert_same_stream(gen, path)

    def test_child_seeds_of_a_big_scenario_seed(self):
        seeds = rng.child_seeds(2**70, range(50), 1)
        assert seeds == [rng.child_seed(2**70, r, 1) for r in range(50)]
        assert seeds == [numpy_child_seed([2**70, r, 1]) for r in range(50)]

    def test_numpy_integer_entries(self):
        seeds = np.array([3, 2**40], dtype=np.uint64)
        assert rng.child_seeds(seeds, np.int64(2)) == [numpy_child_seed([3, 2]),
                                                       numpy_child_seed([2**40, 2])]

    def test_empty_block(self):
        assert rng.child_seeds([], 1) == []
        assert list(rng.substreams([])) == []

    def test_sequences_of_different_lengths_rejected(self):
        with pytest.raises(ValueError, match="differ in length"):
            rng.child_seeds([1, 2], [1, 2, 3])

    def test_non_integer_entry_rejected(self):
        with pytest.raises(TypeError):
            rng.child_seed(1.5)
        with pytest.raises(TypeError):
            rng.child_seeds([1, 2.0])


class TestNegativeSeeds:
    """A negative entry anywhere is the same ValueError, before any uint64 conversion."""

    MESSAGE = "seed path entries must be non-negative"

    def test_rng(self):
        with pytest.raises(ValueError, match=self.MESSAGE):
            rng.child_seeds(5, [3, -1], 0)
        with pytest.raises(ValueError, match=self.MESSAGE):
            rng.child_seed(-2**70)
        with pytest.raises(ValueError, match=self.MESSAGE):
            rng.substreams([2**70, -1])

    def test_sample_block(self, reversal_dgp):
        with pytest.raises(ValueError, match=self.MESSAGE):
            tr.sample(reversal_dgp, 10, [3, -1])

    def test_assign_folds(self):
        with pytest.raises(ValueError, match=self.MESSAGE):
            tr.assign_folds(10, 5, [-1])

    def test_cli_sample(self, tmp_path, reversal_dgp, capsys):
        config = tmp_path / "dgp.yaml"
        tr.write_dgp_config(reversal_dgp, config)
        code = cli.main(["sample", "--config", str(config), "--n", "10", "--seed", "-1",
                         "--out", str(tmp_path / "out")])
        assert code == 1
        assert self.MESSAGE in capsys.readouterr().err


class TestBigSeeds:
    """Seeds of 2**64 and above: the streams numpy derives for them."""

    @pytest.mark.parametrize("seed", [2**64 - 1, 2**64, 2**70])
    def test_sample_and_folds(self, reversal_dgp, seed):
        block = tr.sample(reversal_dgp, 30, [seed, 3])
        assert block.replicate(0) == tr.sample(reversal_dgp, 30, seed)
        folds = tr.assign_folds(30, 5, [seed, 3])
        expected = np.empty(30, dtype=np.int64)
        expected[numpy_generator([seed]).permutation(30)] = np.arange(30) % 5
        assert np.array_equal(folds.fold_of[0], expected)

    def test_scenario_seed(self):
        config = replace(tr.preset("balanced"), seed=2**70, num_reps=5, n_per_rep=200)
        points = np.stack([tr.run_scenario(config).estimates[m] for m in tr.METHODS], axis=1)
        for r in range(config.num_reps):
            data = tr.sample(config.dgp, 200, numpy_child_seed([2**70, r, 0]))
            folds = tr.assign_folds(200, config.num_folds, numpy_child_seed([2**70, r, 1]))
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
