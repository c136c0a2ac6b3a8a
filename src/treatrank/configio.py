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
integers, arm labels non-negative integers with at least one treated unit,
and indicators 0/1.

The writer emits CRLF line endings and ``repr`` floats, so a written
dataset reads back bit for bit.
"""

from __future__ import annotations

import csv
import io
from importlib import resources
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Any

import numpy as np
import yaml

from .dgp import AssignmentMode, Dataset, StratifiedDGP
from .nuisance import DEFAULT_CLIP, DEFAULT_NUM_FOLDS, Basis, LearnerKind, LearnerSpec


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
        return [float(row[c]) for c in codes]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context}: {exc}") from None


def dgp_from_dict(raw: dict, context: str = "dgp") -> StratifiedDGP:
    raw = _mapping(raw, context)
    strata_raw = _require(raw, "strata", context)
    try:
        strata = tuple(
            (int(_require(s, "id", f"{context}.strata")), float(_require(s, "probability", f"{context}.strata")))
            for s in strata_raw
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context}.strata: expected a list of {{id, probability}} entries ({exc})")
    codes = [s for s, _ in strata]
    K = _require(raw, "num_treatments", context)
    try:
        K = int(K)
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
            noise_sd=float(raw.get("noise_sd", 1.0)),
            assignment_mode=AssignmentMode(raw.get("assignment_mode", "parallel_binary")),
        )
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def learner_from_dict(raw: dict, context: str = "learner") -> LearnerSpec:
    if not isinstance(raw, dict):
        raise ConfigError(f"{context}: expected a mapping")
    try:
        return LearnerSpec(
            kind=LearnerKind(raw.get("kind", "stratum_mean")),
            ridge_penalty=float(raw.get("ridge_penalty", 0.0)),
            basis=Basis(raw.get("basis", "stratum_dummies")),
        )
    except ValueError as exc:
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
            n_per_rep=int(raw.get("n_per_rep", 10_000)),
            num_reps=int(raw.get("num_reps", 1_000)),
            seed=int(raw.get("seed", 0)),
            learner=learner_from_dict(raw.get("learner", {}), context=f"{context}.learner"),
            num_folds=int(raw.get("num_folds", DEFAULT_NUM_FOLDS)),
            clip=float(raw.get("clip", DEFAULT_CLIP)),
        )
    except ValueError as exc:
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


def _read_rows(lines) -> np.ndarray:
    """Parse comma-separated numeric rows with numpy's C reader."""
    return np.loadtxt(
        lines, dtype=np.float64, delimiter=",", comments=None, quotechar='"', ndmin=2
    )


def _is_number(cell: str) -> bool:
    try:
        return _read_rows([cell]).shape == (1, 1)
    except ValueError:
        return False


def _row_fault(path, body: str, width: int, first_line: int, cause: object) -> ConfigError:
    """Name the first faulty line of a body that is already rejected.

    Called only after the bulk parse or its checks failed, so it locates a
    fault and never decides whether the file is accepted; ``cause`` is the
    message used if no single line shows the fault.
    """
    for lineno, line in enumerate(io.StringIO(body), start=first_line):
        cells = next(csv.reader([line]), [])
        if len(cells) != width or any(cell.strip() == "" for cell in cells):
            return ConfigError(f"{path}:{lineno}: blank or missing fields are not allowed")
        try:
            _read_rows([line])
        except ValueError as exc:
            bad = next((cell for cell in cells if not _is_number(cell)), None)
            detail = exc if bad is None else f"could not convert string to float: {bad!r}"
            return ConfigError(f"{path}:{lineno}: {detail}")
    return ConfigError(f"{path}: {cause}")


def load_dataset_csv(path: str | Path) -> Dataset:
    """Read a dataset CSV in either the arm-label or indicator layout.

    The module docstring lists what is accepted and rejected.
    """
    # universal newlines: every line ending reaches the parsers as "\n"
    with open(path) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{path}: empty file") from None
        first_line = reader.line_num + 1
        body = fh.read()
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
    if not body:
        raise ConfigError(f"{path}: no data rows")
    try:
        arr = _read_rows(io.StringIO(body))
    except ValueError as exc:
        raise _row_fault(path, body, len(header), first_line, exc) from None
    # the C reader skips empty lines, which are faults here
    if arr.shape[1] != len(header) or body.startswith("\n") or "\n\n" in body:
        raise _row_fault(path, body, len(header), first_line, "rows do not match the header")
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
        mode = AssignmentMode.MULTINOMIAL
    else:
        w = arr[:, 1:-1]
        if np.any((w != 0) & (w != 1)):
            raise ConfigError(f"{path}: indicator columns must be 0/1")
        w = w.astype(np.int8)
        mode = AssignmentMode.PARALLEL_BINARY
    return Dataset(y=y, w=w, x=x.astype(np.int64), assignment_mode=mode)


def _int_cells(column: np.ndarray, template: str) -> list[str]:
    """``template`` filled with each value of an integer column.

    Each distinct value is formatted once and the strings gathered by the
    column's inverse index.
    """
    values, inverse = np.unique(column, return_inverse=True)
    table = np.array([template.format(v) for v in values.tolist()], dtype=object)
    return table[inverse].tolist()


def write_dataset_csv(data: Dataset, path: str | Path) -> None:
    """Write the arm-label layout for multinomial data, indicators otherwise.

    The text is built column by column: ``repr`` floats for ``y``, integers
    for the labels and codes, comma-separated with CRLF line endings.
    """
    if data.assignment_mode is AssignmentMode.MULTINOMIAL:
        header = ["y", "w", "x"]
        labels = [data.arm]
    else:
        header = ["y"] + [f"w{j}" for j in range(1, data.num_treatments + 1)] + ["x"]
        labels = list(data.w.T)
    columns = [map(repr, data.y.tolist())]
    columns += [_int_cells(label, ",{}") for label in labels]
    columns.append(_int_cells(data.x, ",{}\r\n"))
    text = ",".join(header) + "\r\n" + "".join(chain.from_iterable(zip(*columns)))
    Path(path).write_text(text, newline="")
