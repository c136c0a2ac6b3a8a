"""The columnar dataset CSV path, the YAML loader and the cell-table
decomposition, each checked against a test-local copy of the per-row code
they replaced (for the decomposition, ``unit_reference.decomposition``)."""

from __future__ import annotations

import csv

import numpy as np
import pytest
import yaml

import treatrank as tr
from treatrank.configio import (
    ConfigError, _dump_yaml, _load_yaml, packaged_config_path, scenario_to_dict,
)
from treatrank.diagnostics import NotEstimableError

from unit_reference import assert_reports_close, unit_arrays
from unit_reference import decomposition as reference_decomposition


# --- references: the csv-module reader and writer ----------------------------


def reference_load(path) -> tr.Dataset:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if header == ["y", "w", "x"]:
            layout = "arm"
        elif (
            len(header) >= 3
            and header[0] == "y"
            and header[-1] == "x"
            and all(h == f"w{i}" for i, h in enumerate(header[1:-1], start=1))
        ):
            layout = "indicator"
        else:
            raise ConfigError(
                f"{path}: unsupported header {header}; expected y,w,x or y,w1,...,wK,x"
            )
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header) or any(cell.strip() == "" for cell in row):
                raise ConfigError(f"{path}:{lineno}: blank or missing fields are not allowed")
            try:
                rows.append([float(c) for c in row])
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    arr = np.array(rows)
    y = arr[:, 0]
    x = arr[:, -1]
    if np.any(x != np.round(x)):
        raise ConfigError(f"{path}: stratum codes must be integers")
    if layout == "arm":
        arm = arr[:, 1]
        if np.any(arm != np.round(arm)) or np.any(arm < 0):
            raise ConfigError(f"{path}: arm labels must be non-negative integers")
        arm = arm.astype(np.int64)
        K = int(arm.max())
        if K < 1:
            raise ConfigError(f"{path}: no treated units; cannot infer the number of treatments")
        w = np.zeros((arr.shape[0], K), dtype=np.int8)
        treated = arm > 0
        w[np.nonzero(treated)[0], arm[treated] - 1] = 1
        mode = tr.AssignmentMode.MULTINOMIAL
    else:
        w = arr[:, 1:-1]
        if np.any((w != 0) & (w != 1)):
            raise ConfigError(f"{path}: indicator columns must be 0/1")
        w = w.astype(np.int8)
        mode = tr.AssignmentMode.PARALLEL_BINARY
    return tr.Dataset(y=y, w=w, x=x.astype(np.int64), assignment_mode=mode)


def reference_write(data: tr.Dataset, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if data.assignment_mode is tr.AssignmentMode.MULTINOMIAL:
            writer.writerow(["y", "w", "x"])
            for y, a, x in zip(data.y, data.arm, data.x):
                writer.writerow([repr(float(y)), int(a), int(x)])
        else:
            writer.writerow(["y"] + [f"w{j}" for j in range(1, data.num_treatments + 1)] + ["x"])
            for i in range(data.n):
                writer.writerow(
                    [repr(float(data.y[i]))] + [int(v) for v in data.w[i]] + [int(data.x[i])]
                )


def outcome(loader, path):
    """("ok", Dataset) or ("error", message) for comparing two readers."""
    try:
        return "ok", loader(path)
    except ConfigError as exc:
        return "error", str(exc)


def assert_same_dataset(a: tr.Dataset, b: tr.Dataset) -> None:
    assert a.y.tobytes() == b.y.tobytes()  # bit for bit, NaN payloads and -0.0 included
    assert np.array_equal(a.w, b.w) and a.w.dtype == b.w.dtype
    assert np.array_equal(a.x, b.x) and a.x.dtype == b.x.dtype
    assert a.assignment_mode is b.assignment_mode


# --- writer ------------------------------------------------------------------


SPECIAL_Y = [-0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e16, 1e-300, 0.1, -1.5e300,
             123456789.123456789, float("nan"), float("inf"), float("-inf")]


def datasets_for_writer():
    special = np.array(SPECIAL_Y)
    n = special.size
    gen = np.random.default_rng(3)
    for mode in tr.AssignmentMode:
        for K in (1, 3, 14):
            dgp = tr.random_dgp(K, num_treatments=K, assignment_mode=mode)
            data = tr.sample(dgp, 300, seed=K)
            yield f"{mode.value}-K{K}", data
            # the special values, with arbitrary labels and negative codes
            if mode is tr.AssignmentMode.MULTINOMIAL:
                arm = gen.integers(0, K + 1, size=n)
                w = (arm[:, None] == np.arange(1, K + 1)).astype(np.int8)
            else:
                w = gen.integers(0, 2, size=(n, K)).astype(np.int8)
            x = gen.integers(-5, 5, size=n)
            yield f"{mode.value}-K{K}-special", tr.Dataset(y=special, w=w, x=x, assignment_mode=mode)
        one = tr.sample(tr.random_dgp(1, assignment_mode=mode), 1, seed=1)
        yield f"{mode.value}-n1", one


@pytest.mark.parametrize("name,data", list(datasets_for_writer()), ids=lambda v: v if isinstance(v, str) else "")
def test_writer_byte_identical_to_reference(tmp_path, name, data):
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    tr.write_dataset_csv(data, new)
    reference_write(data, old)
    assert new.read_bytes() == old.read_bytes()
    read_new, read_old = outcome(tr.load_dataset_csv, new), outcome(reference_load, new)
    assert read_new[0] == read_old[0]
    if read_new[0] == "ok":
        assert_same_dataset(read_new[1], read_old[1])


# --- reader ------------------------------------------------------------------


CORPUS = {
    "plain": "y,w,x\n1.5,1,0\n-2,0,1\n",
    "crlf": "y,w,x\r\n1.5,1,0\r\n-2,0,1\r\n",
    "cr": "y,w,x\r1.5,1,0\r-2,0,1\r",
    "no trailing newline": "y,w,x\n1.5,1,0\n-2,0,1",
    "crlf no trailing newline": "y,w,x\r\n1.5,1,0\r\n-2,0,1",
    "quoted": 'y,w,x\n"1.5","1",0\n-2,0,"1"\n',
    "quoted header": '"y","w","x"\n1.5,1,0\n',
    "padded header": " y , w , x \n1.5,1,0\n",
    "padded cells": "y,w,x\n  1.5 ,\t1\t, 0\n-2 ,0,1 \n",
    "quote then space": 'y,w,x\n"1.5" ,1,0\n',
    "nan and inf": "y,w,x\nnan,1,0\n-inf,0,1\nInfinity,1,1\n-NaN,0,0\n",
    "exponents": "y,w,x\n1e5,1,0\n-2.5E-3,0,1\n.5,1,1\n5.,0,0\n+3e+2,1,2\n1e999,0,2\n",
    "subnormal and huge": "y,w,x\n5e-324,1,0\n1.7976931348623157e308,0,1\n-0.0,1,1\n",
    "long digits": "y,w,x\n0.1000000000000000055511151231257827,1,0\n2.00000000000000011102230246251565404236316680908203125,0,1\n",
    "integral floats as labels": "y,w,x\n1,1.0,0.0\n2,0,1e0\n",
    "indicator layout": "y,w1,w2,x\n1.5,1,0,0\n2.5,0,1,1\n3.5,1,1,0\n",
    "indicator crlf": "y,w1,w2,x\r\n1.5,1,0,0\r\n2.5,0,1,1\r\n",
    "blank line mid-file": "y,w,x\n1.5,1,0\n\n-2,0,1\n",
    "blank crlf line mid-file": "y,w,x\r\n1.5,1,0\r\n\r\n-2,0,1\r\n",
    "blank line after header": "y,w,x\n\n1.5,1,0\n",
    "blank line at end": "y,w,x\n1.5,1,0\n\n",
    "whitespace-only line": "y,w,x\n1.5,1,0\n   \n-2,0,1\n",
    "short row": "y,w,x\n1.5,1,0\n-2,0\n",
    "all rows short": "y,w,x\n1.5,1\n-2,0\n",
    "long row": "y,w,x\n1.5,1,0\n-2,0,1,7\n",
    "trailing comma": "y,w,x\n1.5,1,0,\n",
    "blank field": "y,w,x\n1.0,1,0\n2.0,,1\n",
    "blank quoted field": 'y,w,x\n1.0,1,0\n"",1,1\n',
    "space-only field": "y,w,x\n1.0,1,0\n2.0,  ,1\n",
    "non-numeric cell": "y,w,x\n1.0,1,0\n2.0,1,abc\n",
    "non-numeric after blank line": "y,w,x\n1.0,1,0\n\nabc,1,1\n",
    "hex literal": "y,w,x\n0x10,1,0\n",
    "space inside number": "y,w,x\n1 0,1,0\n",
    "leading space before quote": 'y,w,x\n "1.5",1,0\n',
    "escaped quote": 'y,w,x\n"1.5""",1,0\n',
    "late fault": "y,w,x\n" + "1.5,1,0\n" * 500 + "1.5,1,oops\n",
    "header only": "y,w,x\n",
    "header only no newline": "y,w,x",
    "empty file": "",
    "blank first line": "\ny,w,x\n1,1,0\n",
    "bad header": "a,b,c\n1,2,3\n",
    "non-integer code": "y,w,x\n1.5,1,0.5\n",
    "negative arm": "y,w,x\n1.5,-1,0\n",
    "no treated units": "y,w,x\n1.0,0,0\n2.0,0,1\n",
    "indicator not 0/1": "y,w1,w2,x\n1.5,2,0,0\n",
    "nan stratum code": "y,w,x\n1.5,1,nan\n",
}


@pytest.mark.parametrize("name", list(CORPUS))
def test_reader_matches_reference(tmp_path, name):
    path = tmp_path / "data.csv"
    path.write_bytes(CORPUS[name].encode())
    new, old = outcome(tr.load_dataset_csv, path), outcome(reference_load, path)
    assert new[0] == old[0]
    if new[0] == "ok":
        assert_same_dataset(new[1], old[1])
    else:
        assert new[1] == old[1]  # same message, same path:line


def test_faults_name_the_file_line(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("y,w,x\n1,1,0\n\n2,0,1\n")
    with pytest.raises(ConfigError, match=r"data\.csv:3: blank or missing"):
        tr.load_dataset_csv(path)
    path.write_text("y,w,x\n1,1,0\n2,0,1\nfoo,1,1\n")
    with pytest.raises(ConfigError, match=r"data\.csv:4: could not convert string to float: 'foo'"):
        tr.load_dataset_csv(path)


@pytest.mark.parametrize("literal", ["1_000", "1_0.5", "١٢", "１"])
def test_float_literals_the_reader_rejects(tmp_path, literal):
    # float() accepts digit separators and non-ASCII digits; numpy's reader
    # does not, and the file is rejected at the line that holds one
    assert float(literal) == float(literal)
    path = tmp_path / "data.csv"
    path.write_text(f"y,w,x\n1.0,1,0\n{literal},0,1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=rf":3: could not convert string to float: '{literal}'"):
        tr.load_dataset_csv(path)


@pytest.mark.parametrize("mode", list(tr.AssignmentMode))
def test_sample_round_trip_exact(tmp_path, mode):
    data = tr.sample(tr.random_dgp(7, num_treatments=4, assignment_mode=mode), 50_000, seed=11)
    path = tmp_path / "data.csv"
    tr.write_dataset_csv(data, path)
    assert_same_dataset(tr.load_dataset_csv(path), data)


# --- decomposition -------------------------------------------------------------


def decomposition_cases():
    for mode in tr.AssignmentMode:
        for seed in range(4):
            dgp = tr.random_dgp(seed, num_treatments=3, max_strata=12, assignment_mode=mode)
            data = tr.sample(dgp, 700 + 37 * seed, seed=seed)
            yield f"{mode.value}-{seed}", data
    # stratum 5 has no control units for any treatment: dropped
    x = np.repeat([0, 3, 5], 20)
    w = np.zeros((60, 2), dtype=np.int8)
    w[::2, 0] = 1
    w[1::3, 1] = 1
    w[40:, :] = 1
    y = np.random.default_rng(0).normal(size=60) + x
    yield "dropped-stratum", tr.Dataset(y=y, w=w, x=x)


@pytest.mark.parametrize("name,data", list(decomposition_cases()), ids=lambda v: v if isinstance(v, str) else "")
def test_decomposition_equals_reference(name, data):
    folds = tr.assign_folds(data.n, 5, seed=1)
    fit = tr.fit_crossfit(data, tr.LearnerSpec(), folds, clip=0.01)
    units = unit_arrays(data, fit, folds)
    for j in range(1, data.num_treatments + 1):
        assert_reports_close(tr.estimate_decomposition(data, fit, j),
                             reference_decomposition(data, units, j))
    if name == "dropped-stratum":
        assert tr.estimate_decomposition(data, fit, 1).dropped_strata == 1


def test_decomposition_not_estimable_like_reference():
    x = np.repeat([0, 1], 10)
    w = np.zeros((20, 1), dtype=np.int8)
    w[:10, 0] = 1
    data = tr.Dataset(y=np.arange(20.0), w=w, x=x)
    fit = tr.fit_insample(data, tr.LearnerSpec(), clip=0.01)
    with pytest.raises(NotEstimableError, match="treatment 1"):
        reference_decomposition(data, unit_arrays(data, fit), 1)
    with pytest.raises(NotEstimableError, match="treatment 1"):
        tr.estimate_decomposition(data, fit, 1)


# --- YAML ----------------------------------------------------------------------


def yaml_documents():
    for name in tr.ScenarioName:
        yield name.value, scenario_to_dict(tr.preset(name))
    dgp = tr.random_dgp(5, num_treatments=4, assignment_mode=tr.AssignmentMode.MULTINOMIAL)
    yield "multinomial-dgp", tr.configio.dgp_to_dict(dgp)


@pytest.mark.parametrize("name,doc", list(yaml_documents()), ids=lambda v: v if isinstance(v, str) else "")
def test_yaml_helpers_match_safe_functions(tmp_path, name, doc):
    path = tmp_path / "doc.yaml"
    _dump_yaml(doc, path)
    text = yaml.safe_dump(doc, sort_keys=False)
    assert path.read_text() == text
    assert _load_yaml(path) == yaml.safe_load(text) == doc


@pytest.mark.parametrize("name", list(tr.ScenarioName))
def test_packaged_configs_load_like_safe_load(name):
    path = packaged_config_path(f"{name.value}.yaml")
    assert _load_yaml(path) == yaml.safe_load(path.read_text())
