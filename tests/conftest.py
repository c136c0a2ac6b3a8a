from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import strategies as st

import treatrank as tr
from treatrank import rng


def layout_key(seed: int, tag: int) -> list[int]:
    """The Philox key of stream ``tag`` of ``seed``: ``rng``'s layout, written out in Python ints."""
    return [seed % 2**64, seed // 2**64 * 2**8 + tag]


def layout_child_seed(seed: int, *path: int) -> int:
    """``rng.child_seed(seed, *path)`` of ``(seed, purpose)`` or ``(seed, r, purpose)``, written out."""
    r, purpose = path if len(path) == 2 else (-1, *path)
    return seed + 2**64 * ((r + 1) * 2**8 + purpose + 1)


def layout_stream(seed: int, tag: int) -> np.random.Generator:
    """Stream ``tag`` of ``seed``, keyed by :func:`layout_key`, not by ``rng``."""
    return np.random.Generator(np.random.Philox(key=np.array(layout_key(seed, tag), dtype=np.uint64)))


@pytest.fixture
def reversal_dgp() -> tr.StratifiedDGP:
    return tr.preset("extreme_heterogeneity").dgp


@pytest.fixture
def tied_dgp() -> tr.StratifiedDGP:
    """Equal effects, mirrored propensities: equal ATEs, Cov_1 = -0.68 and Cov_2 = 0.68."""
    return tr.StratifiedDGP(
        strata=((0, 0.5), (1, 0.5)),
        num_treatments=2,
        propensity=np.array([[0.05, 0.5], [0.5, 0.05]]),
        effect=np.array([[2.0, 0.0], [2.0, 0.0]]),
        baseline=np.zeros(2),
    )


def exact_cell_dataset(dgp: tr.StratifiedDGP, units_per_stratum: int) -> tr.Dataset:
    """Deterministic noiseless dataset whose cell counts exactly match the DGP.

    Stratum shares and the full treatment cross-tabulation within each
    stratum are reproduced exactly (counts must come out integral, so pick
    round probabilities). With noise_sd = 0 the outcomes are exact
    conditional means, which makes plug-in estimators algebraically exact.
    """
    K = dgp.num_treatments
    rows_y, rows_w, rows_x = [], [], []
    probs = dgp.stratum_probs
    base = probs / probs.min()
    for s, (code, _) in enumerate(dgp.strata):
        n_s = units_per_stratum * base[s]
        if abs(n_s - round(n_s)) > 1e-9:
            raise ValueError("stratum probabilities do not yield integral counts")
        n_s = int(round(n_s))
        if dgp.assignment_mode is tr.AssignmentMode.PARALLEL_BINARY:
            combos = list(itertools.product((0, 1), repeat=K))
            combo_prob = lambda c: float(
                np.prod([dgp.propensity[j, s] if c[j] else 1 - dgp.propensity[j, s] for j in range(K)])
            )
        else:
            combos = [tuple(1 if a == j else 0 for j in range(1, K + 1)) for a in range(K + 1)]
            p = dgp.propensity[:, s]
            arm_probs = np.concatenate([[1 - p.sum()], p])
            combo_prob = lambda c: float(arm_probs[int(np.argmax(c)) + 1 if any(c) else 0])
        for combo in combos:
            count = n_s * combo_prob(combo)
            if abs(count - round(count)) > 1e-9:
                raise ValueError(f"cell {combo} in stratum {code} is not integral: {count}")
            count = int(round(count))
            y = float(dgp.baseline[s] + sum(dgp.effect[j, s] * combo[j] for j in range(K)))
            rows_y.extend([y] * count)
            rows_w.extend([combo] * count)
            rows_x.extend([code] * count)
    return tr.Dataset(
        y=np.array(rows_y),
        w=np.array(rows_w, dtype=np.int8),
        x=np.array(rows_x, dtype=np.int64),
        assignment_mode=dgp.assignment_mode,
    )


def round_propensity_dgp(noise_sd: float = 0.0) -> tr.StratifiedDGP:
    """Two-treatment DGP with round propensities so exact cells exist."""
    return tr.StratifiedDGP(
        strata=((0, 0.5), (1, 0.5)),
        num_treatments=2,
        propensity=np.array([[0.2, 0.5], [0.5, 0.25]]),
        effect=np.array([[1.0, -2.0], [0.5, 1.5]]),
        baseline=np.array([0.0, 2.0]),
        noise_sd=noise_sd,
    )


def dgp_sweep(seed: int, count: int, **kwargs) -> list[tr.StratifiedDGP]:
    """Fixed-seed stream of random DGPs for property sweeps."""
    gen = rng.substream(seed)
    return [tr.random_dgp(gen, **kwargs) for _ in range(count)]


def reversal_prone_dgp(gen: np.random.Generator) -> tr.StratifiedDGP:
    """Random DGP built to sit near the rank-reversal frontier.

    Treatment 1's effects are anti-aligned with its regression weights and
    treatment 2's are aligned, while the ATE gap stays small, so the
    delta-sufficient conditions fire at a useful rate across a sweep.
    """
    S = int(gen.integers(2, 7))
    probs = gen.dirichlet(np.ones(S))
    probs = probs / probs.sum()
    # mix moderate and extreme propensities to spread the weights out
    p = np.where(
        gen.random((2, S)) < 0.4,
        gen.uniform(0.01, 0.1, size=(2, S)),
        gen.uniform(0.2, 0.8, size=(2, S)),
    )
    dummy = tr.StratifiedDGP(
        strata=tuple((i, float(q)) for i, q in enumerate(probs)),
        num_treatments=2,
        propensity=p,
        effect=np.zeros((2, S)),
        baseline=np.zeros(S),
    )
    g1, g2 = tr.oracle_weights(dummy, 1), tr.oracle_weights(dummy, 2)
    b1, b2 = gen.uniform(0.5, 3.0, size=2)
    gap = gen.uniform(0.0, 1.0)
    effect = np.vstack([
        (gap + b1) - b1 * g1,  # ATE = gap, weights anti-aligned
        b2 * g2 - b2,          # ATE = 0, weights aligned
    ])
    return tr.StratifiedDGP(
        strata=dummy.strata,
        num_treatments=2,
        propensity=p,
        effect=effect,
        baseline=np.zeros(S),
    )


@st.composite
def dgp_tables(draw, max_strata: int = 6, num_treatments: int = 2):
    """Hypothesis strategy over valid parallel-binary DGPs."""
    S = draw(st.integers(min_value=2, max_value=max_strata))
    weights = draw(
        st.lists(st.floats(0.05, 1.0, allow_nan=False), min_size=S, max_size=S)
    )
    total = sum(weights)
    probs = [w / total for w in weights]
    probs[-1] = 1.0 - sum(probs[:-1])
    unit = st.floats(0.01, 0.99, allow_nan=False)
    eff = st.floats(-3.0, 3.0, allow_nan=False)
    propensity = [
        [draw(unit) for _ in range(S)] for _ in range(num_treatments)
    ]
    effect = [[draw(eff) for _ in range(S)] for _ in range(num_treatments)]
    baseline = [draw(st.floats(-1.0, 1.0, allow_nan=False)) for _ in range(S)]
    return tr.StratifiedDGP(
        strata=tuple((i, p) for i, p in enumerate(probs)),
        num_treatments=num_treatments,
        propensity=np.array(propensity),
        effect=np.array(effect),
        baseline=np.array(baseline),
        noise_sd=1.0,
    )
