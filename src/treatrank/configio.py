"""Config-file and dataset-file formats.

This module owns every file format: the DGP, learner and scenario configs
and the dataset CSV. DGP and scenario configs are single human-editable
YAML documents whose tables mirror :class:`~treatrank.dgp.StratifiedDGP`;
a scenario (:class:`ScenarioConfig`) adds the replication and fitting
settings and nests its DGP under ``dgp``. Every config is read
and written through :func:`_load_yaml` and :func:`_dump_yaml`, which use
PyYAML's libyaml-backed safe loader and dumper when PyYAML was built with
libyaml and the pure-Python ones otherwise; both build the same objects
and write the same text.

Datasets travel as minimal CSV: ``y,w,x`` with an arm label per unit
(0 = control) for mutually exclusive treatments, or ``y,w1,...,wK,x`` with
one indicator column per treatment for parallel assignment. There is no
missing-data handling. The reader accepts:

* LF, CRLF or CR line endings, with or without a final line ending;
* header names padded with spaces, and quoted header names;
* numeric cells that are quoted or padded with whitespace;
* any float literal ``float()`` accepts (including ``nan``, ``inf`` and
  exponent forms), except one with ``_`` digit separators or non-ASCII
  digits, which numpy's reader rejects.

It rejects, as a :class:`ConfigError`: an empty file; a header other than
the two layouts; a file with no data rows; and, naming ``path:line`` with
the 1-based line in the file, a blank line, a row shorter or longer than
the header, a blank field and a non-numeric cell. Stratum codes must be
integers in (-2**53, 2**53), arm labels integers in [0, 2**53) with at
least one treated unit, and indicators 0/1; so NaN, an infinity or a code
that float64 cannot tell from its neighbour (2**53 + 1 parses as 2**53)
is refused, not cast or merged. An arm label past ``dgp.MAX_ARMS`` (64)
is refused naming its line, before the indicator matrix it would size is
made.

The writer emits CRLF line endings and ``repr`` floats, so a written
dataset reads back bit for bit.

Neither side holds the file as text. The writer formats and writes
4,096 rows at a time, and removes the file if a write fails; the reader
scans the body for empty lines in 64 KiB blocks and then lets numpy parse
the file from disk. At four treatments the writer's transient memory is
about 20 bytes per row (the sort of the stratum codes, and the arm labels
under multinomial assignment) and the reader's 55-70 (numpy's array of 8
bytes per column and row, and the checks); holding the text took 140-200
on each side.
"""

from __future__ import annotations

import csv
from contextlib import nullcontext
from importlib import resources
from dataclasses import dataclass, field
from itertools import chain, islice
from pathlib import Path
from typing import Any

import numpy as np
import yaml

from .dgp import MAX_ARMS, AssignmentMode, Dataset, StratifiedDGP, exact_codes
from .nuisance import DEFAULT_CLIP, DEFAULT_NUM_FOLDS, Basis, LearnerKind, LearnerSpec
from .rng import SEED_LIMIT


class ConfigError(ValueError):
    """Raised for malformed config or dataset files."""


def _require(mapping: dict, key: str, context: str) -> Any:
    if key not in mapping:
        raise ConfigError(f"{context}: missing required field '{key}'")
    return mapping[key]


def dgp_to_dict(dgp: StratifiedDGP) -> dict:
    codes = [int(c) for c in dgp.stratum_codes]
    return {
        "strata": [{"id": s, "probability": p} for s, p in dgp.strata],
        "num_treatments": dgp.num_treatments,
        "assignment_mode": dgp.assignment_mode.value,
        "noise_sd": float(dgp.noise_sd),
        "baseline": {c: float(v) for c, v in zip(codes, dgp.baseline)},
        "propensity": {
            j: {c: float(v) for c, v in zip(codes, dgp.propensity[j - 1])}
            for j in range(1, dgp.num_treatments + 1)
        },
        "effect": {
            j: {c: float(v) for c, v in zip(codes, dgp.effect[j - 1])}
            for j in range(1, dgp.num_treatments + 1)
        },
    }


def _whole(value: Any, name: str) -> int:
    """``int(value)``, but a bool or a float that is not a whole number is refused, not truncated."""
    if isinstance(value, (bool, np.bool_)) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real(value: Any, name: str) -> float:
    """``float(value)``, but a bool (YAML's ``true``, ``on`` or ``yes``) is refused, not read as 0 or 1."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _mapping(value: Any, context: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{context}: expected a mapping, got {type(value).__name__}")
    return value


def _stratum_row(value: Any, codes: list[int], context: str) -> list[float]:
    """The per-stratum values of one table row, in stratum order."""
    row = _mapping(value, context)
    missing = [c for c in codes if c not in row]
    if missing:
        raise ConfigError(f"{context}: missing strata {missing}")
    try:
        return [_real(row[c], f"stratum {c}") for c in codes]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context}: {exc}") from None


def dgp_from_dict(raw: dict, context: str = "dgp") -> StratifiedDGP:
    raw = _mapping(raw, context)
    strata_raw = _require(raw, "strata", context)
    try:
        strata = tuple(
            (_whole(_require(s, "id", f"{context}.strata"), "id"),
             _real(_require(s, "probability", f"{context}.strata"), "probability"))
            for s in strata_raw
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context}.strata: expected a list of {{id, probability}} entries ({exc})")
    codes = [s for s, _ in strata]
    K = _require(raw, "num_treatments", context)
    try:
        K = _whole(K, "num_treatments")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context}.num_treatments: expected an integer ({exc})") from None

    def table(name: str) -> np.ndarray:
        tab = _mapping(_require(raw, name, context), f"{context}.{name}")
        rows = []
        for j in range(1, K + 1):
            if j not in tab:
                raise ConfigError(f"{context}.{name}: missing row for treatment {j}")
            rows.append(_stratum_row(tab[j], codes, f"{context}.{name}[{j}]"))
        return np.array(rows)

    baseline = np.array(_stratum_row(_require(raw, "baseline", context), codes, f"{context}.baseline"))
    propensity, effect = table("propensity"), table("effect")

    try:
        return StratifiedDGP(
            strata=strata,
            num_treatments=K,
            propensity=propensity,
            effect=effect,
            baseline=baseline,
            noise_sd=_real(raw.get("noise_sd", 1.0), "noise_sd"),
            assignment_mode=AssignmentMode(raw.get("assignment_mode", "parallel_binary")),
        )
    except (TypeError, ValueError) as exc:  # float(None) raises TypeError
        raise ConfigError(f"{context}: {exc}") from exc


def learner_from_dict(raw: dict, context: str = "learner") -> LearnerSpec:
    if not isinstance(raw, dict):
        raise ConfigError(f"{context}: expected a mapping")
    try:
        return LearnerSpec(
            kind=LearnerKind(raw.get("kind", "stratum_mean")),
            ridge_penalty=_real(raw.get("ridge_penalty", 0.0), "ridge_penalty"),
            basis=Basis(raw.get("basis", "stratum_dummies")),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def learner_to_dict(spec: LearnerSpec) -> dict:
    return {
        "kind": spec.kind.value,
        "ridge_penalty": float(spec.ridge_penalty),
        "basis": spec.basis.value,
    }


if yaml.__with_libyaml__:
    _YAML_LOADER, _YAML_DUMPER = yaml.CSafeLoader, yaml.CSafeDumper
else:
    _YAML_LOADER, _YAML_DUMPER = yaml.SafeLoader, yaml.SafeDumper


def _load_yaml(path: str | Path) -> dict:
    """Parse a YAML config file that must hold a top-level mapping."""
    text = Path(path).read_text()
    try:
        raw = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a top-level mapping")
    return raw


def _dump_yaml(obj: dict, path: str | Path) -> None:
    """Write ``obj`` as a YAML document, keys in insertion order."""
    Path(path).write_text(yaml.dump(obj, Dumper=_YAML_DUMPER, sort_keys=False))


def load_dgp_config(path: str | Path) -> StratifiedDGP:
    raw = _load_yaml(path)
    # accept either a bare DGP document or one nested under 'dgp'
    return dgp_from_dict(raw.get("dgp", raw), context=str(path))


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation scenario: a DGP plus replication and fitting settings."""

    name: str
    dgp: StratifiedDGP
    n_per_rep: int
    num_reps: int
    seed: int
    learner: LearnerSpec = field(default_factory=LearnerSpec)
    num_folds: int = DEFAULT_NUM_FOLDS
    clip: float = DEFAULT_CLIP

    def __post_init__(self) -> None:
        if self.n_per_rep < 1:
            raise ValueError(f"n_per_rep must be >= 1, got {self.n_per_rep}")
        if self.num_reps < 1:
            raise ValueError(f"num_reps must be >= 1, got {self.num_reps}")
        if not 0 <= self.seed < SEED_LIMIT:
            raise ValueError(f"seed must be an integer in [0, 2**64), got {self.seed}")
        if not 2 <= self.num_folds <= self.n_per_rep:
            raise ValueError(
                f"num_folds must be in [2, n_per_rep={self.n_per_rep}], got {self.num_folds}"
            )
        if not 0.0 <= self.clip < 0.5:
            raise ValueError(f"clip must be in [0, 0.5), got {self.clip}")


def _scenario_from_dict(raw: dict, context: str) -> ScenarioConfig:
    try:
        return ScenarioConfig(
            name=str(raw.get("name", "custom")),
            dgp=dgp_from_dict(_require(raw, "dgp", context), context=f"{context}.dgp"),
            n_per_rep=_whole(raw.get("n_per_rep", 10_000), "n_per_rep"),
            num_reps=_whole(raw.get("num_reps", 1_000), "num_reps"),
            seed=_whole(raw.get("seed", 0), "seed"),
            learner=learner_from_dict(raw.get("learner", {}), context=f"{context}.learner"),
            num_folds=_whole(raw.get("num_folds", DEFAULT_NUM_FOLDS), "num_folds"),
            clip=_real(raw.get("clip", DEFAULT_CLIP), "clip"),
        )
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"{context}: {exc}") from exc


def scenario_to_dict(config: ScenarioConfig) -> dict:
    return {
        "name": config.name,
        "n_per_rep": config.n_per_rep,
        "num_reps": config.num_reps,
        "seed": config.seed,
        "num_folds": config.num_folds,
        "clip": config.clip,
        "learner": learner_to_dict(config.learner),
        "dgp": dgp_to_dict(config.dgp),
    }


def load_scenario_config(path: str | Path) -> ScenarioConfig:
    return _scenario_from_dict(_load_yaml(path), context=str(path))


def write_scenario_config(config: ScenarioConfig, path: str | Path) -> None:
    _dump_yaml(scenario_to_dict(config), path)


def packaged_config_path(name: str) -> Path:
    """Path to a config file shipped inside the package (``configs/``)."""
    path = Path(str(resources.files("treatrank").joinpath("configs", name)))
    if not path.exists():
        raise ConfigError(f"no packaged config named {name!r}")
    return path


def write_dgp_config(dgp: StratifiedDGP, path: str | Path) -> None:
    _dump_yaml(dgp_to_dict(dgp), path)


# Rows the writer formats and writes at once. A block's strings take about
# 190 bytes per row; at 4,096 rows they stay below the 8 bytes per unit
# that sorting a stratum column takes for n >= 100,000, and writing is as
# fast as with 16,384-row blocks (measured at n = 200,000: 512-row blocks
# were slower, and 65,536-row blocks raised the peak sixfold).
_WRITE_BLOCK_ROWS = 4096
# Characters per read of the reader's blank-line pass; smaller reads were
# slower, larger ones no faster.
_SCAN_BLOCK_CHARS = 1 << 16
# The names numpy's loader opens as compressed files.
_COMPRESSION_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _read_rows(lines, skiprows: int = 0) -> np.ndarray:
    """Parse comma-separated numeric rows with numpy's C reader."""
    return np.loadtxt(
        lines, dtype=np.float64, delimiter=",", comments=None, quotechar='"', ndmin=2,
        skiprows=skiprows,
    )


def _is_number(cell: str) -> bool:
    try:
        return _read_rows([cell]).shape == (1, 1)
    except ValueError:
        return False


def _row_fault(path, width: int, first_line: int, cause: object) -> ConfigError:
    """Name the line on which the first faulty row of a rejected body starts.

    Called only once the file is rejected (an empty line, or the bulk parse
    or its checks failed), so it locates a fault and never decides whether
    the file is accepted; it reads the file again from ``first_line`` on,
    row by row as the csv module splits it, so a quoted line break in a
    cell, which numpy's reader also takes, does not shift the lines after
    it. ``cause`` is the message used if no single row shows the fault.
    """
    with open(path) as fh:
        lines: list[str] = []  # the lines of the row being read

        def taken(source):
            for line in source:
                lines.append(line)
                yield line

        lineno = first_line
        for cells in csv.reader(taken(islice(fh, first_line - 1, None))):
            if len(cells) != width or any(cell.strip() == "" for cell in cells):
                return ConfigError(f"{path}:{lineno}: blank or missing fields are not allowed")
            try:
                _read_rows(lines)
            except ValueError as exc:
                bad = next((cell for cell in cells if not _is_number(cell)), None)
                detail = exc if bad is None else f"could not convert string to float: {bad!r}"
                return ConfigError(f"{path}:{lineno}: {detail}")
            lineno += len(lines)
            lines.clear()
    return ConfigError(f"{path}: {cause}")


def _row_start(path, row: int) -> int:
    """The 1-based line of the file on which body row ``row`` (0-based) starts.

    Counts as the csv module does, so a quoted line break in a cell, which
    numpy's reader also takes, does not shift the lines after it.
    """
    with open(path) as fh:
        reader = csv.reader(fh)
        for _ in islice(reader, row + 1):  # the header, then the rows before
            pass
        return reader.line_num + 1


def _scan_body(fh) -> tuple[bool, bool]:
    """Whether the rest of ``fh`` is empty, and whether it holds an empty line.

    Reads block by block; the header's line ending precedes the body, so an
    empty first body line counts.
    """
    empty, after_newline = True, True
    while block := fh.read(_SCAN_BLOCK_CHARS):
        if (after_newline and block[0] == "\n") or "\n\n" in block:
            return False, True
        empty, after_newline = False, block[-1] == "\n"
    return empty, False


def load_dataset_csv(path: str | Path) -> Dataset:
    """Read a dataset CSV in either the arm-label or indicator layout.

    The module docstring lists what is accepted and rejected. The body is
    never held as text. One pass reads it ``_SCAN_BLOCK_CHARS`` characters
    at a time and looks for an empty line, which numpy's reader would skip;
    a row count below the line count would not do, since a quoted cell may
    hold a line break. Then numpy's C reader parses the file after the
    header's lines into one float array of 8 bytes per column and row,
    most of the read's transient memory. Only a rejected file is read once
    more, line by line, to name the faulty line.
    """
    # universal newlines: every line ending reaches the parsers as "\n"
    with open(path) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{path}: empty file") from None
        header_lines = reader.line_num
        empty, blank = _scan_body(fh)
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
    if empty:
        raise ConfigError(f"{path}: no data rows")
    first_line = header_lines + 1
    # the C reader skips empty lines, which are faults here
    if blank:
        raise _row_fault(path, len(header), first_line, "rows do not match the header")
    # numpy reads a file named by its path in large chunks, but an open file
    # line by line; it decompresses a path with a compression suffix, so a
    # file so named is passed open
    plain = Path(path).suffix not in _COMPRESSION_SUFFIXES
    try:
        with nullcontext(path) if plain else open(path) as source:
            arr = _read_rows(source, skiprows=header_lines)
    except ValueError as exc:
        raise _row_fault(path, len(header), first_line, exc) from None
    if arr.shape[1] != len(header):
        raise _row_fault(path, len(header), first_line, "rows do not match the header")
    # a copy: a column view would keep the whole parsed block alive with the dataset
    y = arr[:, 0].copy()
    x = arr[:, -1]
    if not exact_codes(x):
        raise ConfigError(f"{path}: stratum codes must be integers in (-2**53, 2**53)")
    if layout == "arm":
        arm = arr[:, 1]
        if not exact_codes(arm) or arm.min() < 0:
            raise ConfigError(f"{path}: arm labels must be integers in [0, 2**53)")
        arm = arm.astype(np.int64)
        K = int(arm.max())
        if K < 1:
            raise ConfigError(f"{path}: no treated units; cannot infer the number of treatments")
        if K > MAX_ARMS:
            row = int(np.argmax(arm > MAX_ARMS))
            raise ConfigError(f"{path}:{_row_start(path, row)}: arm label {arm[row]} is past "
                              f"the {MAX_ARMS}-arm limit")
        w = np.zeros((arr.shape[0], K), dtype=np.int8)
        treated = arm > 0
        w[np.nonzero(treated)[0], arm[treated] - 1] = 1
        mode = AssignmentMode.MULTINOMIAL
    else:
        w = arr[:, 1:-1]
        if np.any((w != 0) & (w != 1)):
            raise ConfigError(f"{path}: indicator columns must be 0/1")
        w = w.astype(np.int8)
        mode = AssignmentMode.PARALLEL_BINARY
    return Dataset(y=y, w=w, x=x.astype(np.int64), assignment_mode=mode)


def _cell_table(column: np.ndarray, template: str) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of an integer column, and ``template`` filled with each.

    Each distinct value is formatted once; a block's cells are the table
    gathered at the block's positions among the values.
    """
    # asking for the counts keeps numpy (>= 2.3) on its sorting path: the
    # values-only hash path took 6x as long on 50,000 stratum codes and
    # raised a process's peak RSS by about 1.5 MB
    values, _ = np.unique(column, return_counts=True)
    return values, np.array([template.format(v) for v in values.tolist()], dtype=object)


def write_dataset_csv(data: Dataset, path: str | Path) -> None:
    """Write the arm-label layout for multinomial data, indicators otherwise.

    ``repr`` floats for ``y``, integers for the labels and codes,
    comma-separated with CRLF line endings. The rows are formatted and
    written ``_WRITE_BLOCK_ROWS`` at a time, so only one block's strings are
    alive at once; the rest of the transient memory is the sort that finds
    each integer column's distinct values, at most 8 bytes per row, and
    under multinomial assignment the arm labels, 8 more.

    A write that fails removes the file: a short one would read back as a
    smaller dataset. (Writing under a temporary name and renaming it over
    ``path`` cost 0.1-1 ms more per write on ext4, for 5 KB-1.4 MB files.)
    """
    if data.assignment_mode is AssignmentMode.MULTINOMIAL:
        header = ["y", "w", "x"]
        labels = [data.arm]
    else:
        header = ["y"] + [f"w{j}" for j in range(1, data.num_treatments + 1)] + ["x"]
        labels = list(data.w.T)
    columns = [(label, *_cell_table(label, ",{}")) for label in labels]
    columns.append((data.x, *_cell_table(data.x, ",{}\r\n")))
    fh = open(path, "w", newline="")  # a file that cannot be opened is not removed
    try:
        with fh:
            fh.write(",".join(header) + "\r\n")
            for start in range(0, data.n, _WRITE_BLOCK_ROWS):
                block = slice(start, start + _WRITE_BLOCK_ROWS)
                cells = [map(repr, data.y[block].tolist())]
                cells += [table[np.searchsorted(values, column[block])].tolist()
                          for column, values, table in columns]
                fh.write("".join(chain.from_iterable(zip(*cells))))
    except BaseException:
        Path(path).unlink(missing_ok=True)
        raise
