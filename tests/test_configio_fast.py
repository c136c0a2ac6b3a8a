"""The columnar dataset CSV path, the YAML loader and the cell-table
decomposition, each checked against a test-local copy of the per-row code
they replaced (for the decomposition, ``unit_reference.decomposition``)."""

from __future__ import annotations

import builtins
import csv
import itertools
import re
import tracemalloc

import numpy as np
import pytest
import yaml

import treatrank as tr
from treatrank import configio
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


def special_dataset(mode: tr.AssignmentMode, n: int, seed: int) -> tr.Dataset:
    """``n`` units whose outcomes cycle through ``SPECIAL_Y``, three treatments."""
    gen = np.random.default_rng(seed)
    y = np.resize(np.array(SPECIAL_Y), n)
    if mode is tr.AssignmentMode.MULTINOMIAL:
        arm = gen.integers(0, 4, size=n)
        w = (arm[:, None] == np.arange(1, 4)).astype(np.int8)
    else:
        w = gen.integers(0, 2, size=(n, 3)).astype(np.int8)
    return tr.Dataset(y=y, w=w, x=gen.integers(-5, 5, size=n), assignment_mode=mode)


@pytest.mark.parametrize("mode", list(tr.AssignmentMode))
@pytest.mark.parametrize("block", [1, 7])
def test_writer_blocks_byte_identical_to_reference(tmp_path, monkeypatch, mode, block):
    monkeypatch.setattr(configio, "_WRITE_BLOCK_ROWS", block)
    for n in (block - 1, block, block + 1, 2 * block + 1):
        data = special_dataset(mode, n, seed=n)
        new, old = tmp_path / f"new{n}.csv", tmp_path / f"old{n}.csv"
        tr.write_dataset_csv(data, new)
        reference_write(data, old)
        assert new.read_bytes() == old.read_bytes(), n


def test_failed_write_leaves_no_file(tmp_path, monkeypatch):
    # one row per block, failing at row 1,500 of 2,000: earlier blocks have
    # reached the disk by then
    monkeypatch.setattr(configio, "_WRITE_BLOCK_ROWS", 1)
    calls = itertools.count()

    def failing_repr(value):
        if next(calls) == 1_500:
            raise OSError("no space left on device")
        return builtins.repr(value)

    monkeypatch.setattr(configio, "repr", failing_repr, raising=False)
    data = special_dataset(tr.AssignmentMode.PARALLEL_BINARY, 2_000, seed=1)
    path = tmp_path / "data.csv"
    path.write_bytes(b"y,w,x\r\n1.0,1,0\r\n")  # an earlier file is not left short either
    with pytest.raises(OSError, match="no space left"):
        tr.write_dataset_csv(data, path)
    assert list(tmp_path.iterdir()) == []


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
    "body of one line ending": "y,w,x\n\n",
    "quoted line break in a cell": 'y,w,x\n"1.5\n",1,0\n-2,0,1\n',
    "quoted line break in the header": '"y\n",w,x\n1.5,1,0\n-2,0,1\n',
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


def assert_reads_like_reference(path):
    new, old = outcome(tr.load_dataset_csv, path), outcome(reference_load, path)
    assert new[0] == old[0]
    if new[0] == "ok":
        assert_same_dataset(new[1], old[1])
    else:
        assert new[1] == old[1]  # same message, same path:line


@pytest.mark.parametrize("name", list(CORPUS))
def test_reader_matches_reference(tmp_path, name):
    path = tmp_path / "data.csv"
    path.write_bytes(CORPUS[name].encode())
    assert_reads_like_reference(path)


ROWS = "".join(f"{i / 3!r},{i % 3},{i % 5}\n" for i in range(40))


def block_corpus():
    """Bodies that cross the blank-line pass's blocks (a few characters each)."""
    yield "short body, blank line", "y,w,x\n1.5,1,0\n\n-2,0,1\n"
    yield "long body", "y,w,x\n" + ROWS
    yield "long body, blank line", "y,w,x\n" + ROWS[:300] + "\n" + ROWS[300:]
    yield "long body, blank last line", "y,w,x\n" + ROWS + "\n"
    yield "long body, no final newline", "y,w,x\n" + ROWS[:-1]
    yield "long body, late fault", "y,w,x\n" + ROWS + "1.5,1,oops\n" + ROWS
    yield "long body, late short row", "y,w,x\n" + ROWS + "1.5,1\n"
    for ending in ("\r", "\r\n"):
        name = "cr" if ending == "\r" else "crlf"
        body = ROWS.replace("\n", ending)
        yield f"{name} body", "y,w,x" + ending + body
        yield f"{name} body, no final line ending", "y,w,x" + ending + body[:-len(ending)]
        yield f"{name} body, blank line", "y,w,x" + ending + body[:200] + ending + body[200:]
        yield f"{name} body, fault", "y,w,x" + ending + body + "1.5,x,1" + ending


BLOCK_CORPUS = dict(block_corpus())


@pytest.mark.parametrize("name", list(BLOCK_CORPUS))
@pytest.mark.parametrize("chars", [1, 2, 3, 5, 7, 64])
def test_reader_blocks_match_reference(tmp_path, monkeypatch, name, chars):
    monkeypatch.setattr(configio, "_SCAN_BLOCK_CHARS", chars)
    path = tmp_path / "data.csv"
    path.write_bytes(BLOCK_CORPUS[name].encode())
    assert_reads_like_reference(path)


@pytest.mark.parametrize("chars", range(1, 12))
def test_blank_line_straddling_scan_blocks(tmp_path, monkeypatch, chars):
    # the body's "\n\n" falls on every block edge for some block size
    monkeypatch.setattr(configio, "_SCAN_BLOCK_CHARS", chars)
    path = tmp_path / "data.csv"
    for body in ("1.5,1,0\n\n-2,0,1\n", "1,1,0\r\n\r\n2,0,1\r\n", "1,1,0\r\r2,0,1\r", "\n"):
        path.write_bytes(("y,w,x\n" + body).encode())
        with pytest.raises(ConfigError, match=r"data\.csv:\d: blank or missing"):
            tr.load_dataset_csv(path)
        assert_reads_like_reference(path)


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_plain_file_with_compression_suffix(tmp_path, suffix):
    # numpy decompresses a path so named; the file is plain CSV here
    path = tmp_path / f"data.csv{suffix}"
    path.write_bytes(CORPUS["crlf"].encode())
    assert_reads_like_reference(path)
    path.write_bytes(CORPUS["late fault"].encode())
    assert_reads_like_reference(path)


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


@pytest.mark.parametrize("mode", list(tr.AssignmentMode))
def test_loaded_columns_own_their_data(tmp_path, mode):
    # a column view of the parsed block would keep all of it alive with the dataset
    data = tr.sample(tr.random_dgp(7, num_treatments=4, assignment_mode=mode), 300, seed=11)
    path = tmp_path / "data.csv"
    tr.write_dataset_csv(data, path)
    loaded = tr.load_dataset_csv(path)
    for column in (loaded.y, loaded.w, loaded.x):
        assert column.base is None and column.flags.c_contiguous


# Transient memory per row, traced, at four treatments: the whole-file text
# took 145-200 bytes per row on each side; the blocked writer takes 10-20
# and the reader 60-80, most of it numpy's one array of 8 bytes per column
# and the copy of its y column.
PEAK_BYTES_PER_ROW = 96


@pytest.mark.parametrize("mode", list(tr.AssignmentMode))
def test_csv_peak_memory_per_row(tmp_path, mode):
    n = 200_000
    data = tr.sample(tr.random_dgp(7, num_treatments=4, assignment_mode=mode), n, seed=11)
    path = tmp_path / "data.csv"
    peaks = {}
    for name, call in (("write", lambda: tr.write_dataset_csv(data, path)),
                       ("read", lambda: tr.load_dataset_csv(path))):
        tracemalloc.start()
        try:
            call()
            peaks[name] = tracemalloc.get_traced_memory()[1] / n
        finally:
            tracemalloc.stop()
    assert max(peaks.values()) <= PEAK_BYTES_PER_ROW, peaks


# --- decomposition -------------------------------------------------------------


def decomposition_cases():
    for mode in tr.AssignmentMode:
        for seed in range(4):
            dgp = tr.random_dgp(seed, num_treatments=3, max_strata=12, assignment_mode=mode)
            data = tr.sample(dgp, 700 + 37 * seed, seed=seed)
            yield f"{mode.value}-{seed}", data
    # five parallel treatments: two chunks of base cells, each holding every unit
    dgp = tr.random_dgp(13, num_treatments=5, max_strata=5, propensity_range=(0.1, 0.5))
    yield "parallel_binary-five", tr.sample(dgp, 400, seed=1)
    # stratum 5 has no control units for any treatment: kept, as in the points
    x = np.repeat([0, 3, 5], 20)
    w = np.zeros((60, 2), dtype=np.int8)
    w[::2, 0] = 1
    w[1::3, 1] = 1
    w[40:, :] = 1
    y = np.random.default_rng(0).normal(size=60) + x
    yield "one-arm-stratum", tr.Dataset(y=y, w=w, x=x)


@pytest.mark.parametrize("name,data", list(decomposition_cases()), ids=lambda v: v if isinstance(v, str) else "")
def test_decomposition_equals_reference(name, data):
    folds = tr.assign_folds(data.n, 5, seed=1)
    fit = tr.fit_crossfit(data, tr.LearnerSpec(), folds, clip=0.01)
    units = unit_arrays(data, fit, folds)
    for j in range(1, data.num_treatments + 1):
        assert_reports_close(tr.estimate_decomposition(data, fit, j),
                             reference_decomposition(data, units, j))
    if name == "one-arm-stratum":
        assert tr.estimate_decomposition(data, fit, 1).strata == (0, 3, 5)


@pytest.mark.parametrize("clip", [0.0, 0.01])
def test_decomposition_not_estimable_exactly_when_plm_or_aipw_raises(clip):
    # stratum 0 is all treated and stratum 1 all control: unclipped, PLM's
    # residuals are all 0 and AIPW divides by 0; clipped, both have a point
    x = np.repeat([0, 1], 10)
    w = np.zeros((20, 1), dtype=np.int8)
    w[:10, 0] = 1
    data = tr.Dataset(y=np.arange(20.0), w=w, x=x)
    fit = tr.fit_insample(data, tr.LearnerSpec(), clip=clip)
    failures = (tr.NoVariationError, tr.UndefinedEstimateError)
    raises = []
    for estimator in (tr.plm_estimate, tr.aipw_estimate):
        try:
            estimator(data, fit, 1)
        except failures:
            raises.append(estimator)
    assert bool(raises) == (clip == 0.0)
    if raises:
        with pytest.raises(NotEstimableError, match="treatment 1"):
            reference_decomposition(data, unit_arrays(data, fit), 1)
        with pytest.raises(NotEstimableError, match="treatment 1"):
            tr.estimate_decomposition(data, fit, 1)
    else:
        assert_reports_close(tr.estimate_decomposition(data, fit, 1),
                             reference_decomposition(data, unit_arrays(data, fit), 1))


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


# --- counts: a float that is not a whole number, or a bool, is refused --------


@pytest.mark.parametrize("field, value", [
    ("num_reps", 3.7), ("n_per_rep", 200.9), ("num_folds", 5.5), ("seed", 1.5),
    ("num_reps", True), ("num_folds", float("nan")), ("n_per_rep", float("inf")),
    ("dgp.num_treatments", 2.9), ("dgp.num_treatments", True), ("dgp.strata.id", 0.5),
])
def test_counts_are_not_truncated(tmp_path, field, value):
    doc = scenario_to_dict(tr.preset(tr.ScenarioName.BALANCED))
    if field == "dgp.strata.id":
        doc["dgp"]["strata"][0]["id"] = value
    elif field == "dgp.num_treatments":
        doc["dgp"]["num_treatments"] = value
    else:
        doc[field] = value
    path = tmp_path / "scenario.yaml"
    _dump_yaml(doc, path)
    name = field.rsplit(".", 1)[-1]
    with pytest.raises(ConfigError, match=re.escape(f"{name} must be an integer, got {value!r}")):
        tr.load_scenario_config(path)


def test_whole_float_counts_load(tmp_path):
    doc = scenario_to_dict(tr.preset(tr.ScenarioName.BALANCED))
    doc.update(num_reps=4.0, n_per_rep=200.0)
    path = tmp_path / "scenario.yaml"
    _dump_yaml(doc, path)
    config = tr.load_scenario_config(path)
    assert (config.num_reps, config.n_per_rep) == (4, 200)
    assert type(config.num_reps) is int and type(config.n_per_rep) is int


# --- reals: a bool (YAML 1.1 reads true, on and yes as one) is refused -------


@pytest.mark.parametrize("keys, literal, name", [
    (("dgp", "noise_sd"), "true", "noise_sd"), (("clip",), "on", "clip"),
    (("learner", "ridge_penalty"), "yes", "ridge_penalty"),
    (("dgp", "strata", 0, "probability"), "false", "probability"),
    (("dgp", "propensity", 1, 0), "off", "stratum 0"), (("dgp", "baseline", 0), "no", "stratum 0"),
])
def test_reals_refuse_booleans(tmp_path, keys, literal, name):
    doc = scenario_to_dict(tr.preset(tr.ScenarioName.BALANCED))
    assert doc["dgp"]["strata"][0]["id"] == 0
    entry = doc
    for key in keys[:-1]:
        entry = entry[key]
    entry[keys[-1]] = "SENTINEL"
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(doc, sort_keys=False).replace("SENTINEL", literal))
    value = yaml.safe_load(literal)
    with pytest.raises(ConfigError, match=re.escape(f"{name} must be a number, got {value!r}")):
        tr.load_scenario_config(path)
