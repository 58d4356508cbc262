"""Model files: a strict JSON schema for systems and plants.

``_SCHEMA`` describes each kind once, field by field in file order; loading
and saving both walk it.  The two kinds::

    {
      "schema_version": 1,
      "kind": "system",
      "n": 2,
      "A": [[...], ...],          # n x n, row-major nested arrays
      "V": [[...], ...],
      "mu0": [...],               # length n
      "Sigma0": [[...], ...],
      "cost": {"Q": [[...], ...], "alpha": -0.5, "horizon": "inf" | T}
    }

    {
      "schema_version": 1,
      "kind": "plant",
      "n": 2, "m": 1, "p": 2,
      "A": ..., "B": ..., "C": ..., "Q": ..., "R": ..., "V": ..., "W": ...,
      "alpha": -0.8,
      "mu0": [...], "Sigma0": [[...], ...],
      "horizon": "inf" | T        # optional, "inf" when left out
    }

Unknown and missing fields are rejected at every level.  Arrays and numbers
pass the checks of :mod:`lqgcost.linalg`, arrays in the shape the declared
n/m/p give, each error as ModelFormatError naming the file and the field.
Floats are written with shortest round-trip precision (up to 17 significant
digits), so save followed by load reproduces every matrix entry bit-for-bit.
A document passes the reader's checks before it is written, so what the
writers save the reader loads, and what it refuses no file holds.
"""

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .exceptions import ModelFormatError
from .linalg import _as_array, _real_number
from .systems import CostSpec, LqgPlant, LtiSystem, INFINITE_HORIZON

__all__ = ["ModelDocument", "load_model", "save_system_model", "save_plant_model"]

SCHEMA_VERSION = 1

#: Every field of each kind, in file order.  An array field maps to its shape
#: in the declared dimensions, a scalar field to how it is read; "cost" is the
#: system kind's nested object.  Fields named like a field of ``LtiSystem``,
#: ``CostSpec`` or ``LqgPlant`` are that field.
_SCHEMA = {
    "system": {"schema_version": "version", "kind": "kind", "n": "dim",
               "A": ("n", "n"), "V": ("n", "n"), "mu0": ("n",), "Sigma0": ("n", "n"),
               "cost": "cost"},
    "cost": {"Q": ("n", "n"), "alpha": "number", "horizon": "horizon"},
    "plant": {"schema_version": "version", "kind": "kind", "n": "dim", "m": "dim", "p": "dim",
              "A": ("n", "n"), "B": ("n", "m"), "C": ("p", "n"), "Q": ("n", "n"),
              "R": ("m", "m"), "V": ("n", "n"), "W": ("p", "p"), "alpha": "number",
              "mu0": ("n",), "Sigma0": ("n", "n"), "horizon": "horizon"},
}

#: Fields a file may leave out, with the value they then read as.
_DEFAULTS = {"plant": {"horizon": "inf"}}


@dataclass
class ModelDocument:
    """A parsed model file: exactly one of ``system`` or ``plant`` is set."""

    kind: str
    system: LtiSystem = None
    cost: CostSpec = None
    plant: LqgPlant = None
    mu0: np.ndarray = None
    Sigma0: np.ndarray = None
    horizon: float = INFINITE_HORIZON


def _checked(check, *args, **kwargs):
    """``check(*args, **kwargs)``, a linalg validator, with its ValueError raised
    as ModelFormatError; the name it gives carries the file and the field."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from None


def _parse_array(value, shape, where):
    """A vector or matrix field of ``shape``, by linalg's array check."""
    return _checked(_as_array, value, where, shape)


def _parse_scalar(value, spec, where):
    """A "dim", "number" or "horizon" field; a number by linalg's check."""
    if spec == "dim":
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise ModelFormatError(f"{where} must be a positive integer")
        return value
    if spec == "number":
        return _checked(_real_number, where, value)
    return INFINITE_HORIZON if value == "inf" else _checked(_real_number, where, value, 0.0,
                                                            strict=True)


def _parse(raw, kind, path, dims, prefix=""):
    """The fields of one ``kind`` object by name; the dimensions land in ``dims``."""
    table, defaults = _SCHEMA[kind], _DEFAULTS.get(kind, {})
    if not isinstance(raw, dict):
        raise ModelFormatError(f"{path}: {prefix.rstrip('.')} must be a JSON object")
    for problem, names in (("unknown", set(raw) - set(table)),
                           ("missing", set(table) - set(raw) - set(defaults))):
        if names:
            raise ModelFormatError(
                f"{path}: {problem} field(s) {sorted(prefix + name for name in names)}")
    raw = {**defaults, **raw}
    values = {}
    for name, spec in table.items():
        where = f"{path}: {prefix}{name}"
        if isinstance(spec, tuple):
            values[name] = _parse_array(raw[name], tuple(dims[d] for d in spec), where)
        elif spec == "cost":
            values[name] = _parse(raw[name], spec, path, dims, f"{name}.")
        elif spec not in ("version", "kind"):       # both checked by load_model
            values[name] = _parse_scalar(raw[name], spec, where)
            if spec == "dim":
                dims[name] = values[name]
    return values


def _read_json(path):
    """The JSON object in file ``path``; ModelFormatError when it is not one."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"{path}: not valid JSON ({exc})")
    if not isinstance(raw, dict):
        raise ModelFormatError(f"{path}: top level must be a JSON object")
    return raw


def load_model(path):
    """Parse and validate a model file; returns a :class:`ModelDocument`."""
    raw = _read_json(path)
    version = raw.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:     # not true, not 1.0
        raise ModelFormatError(
            f"{path}: unsupported schema_version {json.dumps(version)} "
            f"(expected the integer {SCHEMA_VERSION})"
        )
    kind = raw.get("kind")
    if kind not in ("system", "plant"):
        raise ModelFormatError(f"{path}: kind must be \"system\" or \"plant\", got {kind!r}")
    f = _parse(raw, kind, path, {})
    if kind == "system":
        sys, cost = _build(LtiSystem, f), _build(CostSpec, f["cost"])
        return ModelDocument(kind="system", system=sys, cost=cost,
                             mu0=sys.mu0, Sigma0=sys.Sigma0, horizon=cost.horizon)
    return ModelDocument(kind="plant", plant=_build(LqgPlant, f), mu0=f["mu0"],
                         Sigma0=f["Sigma0"], horizon=f["horizon"])


def _build(cls, values):
    """The dataclass ``cls`` from the parsed fields that name its fields."""
    return cls(**{field.name: values[field.name] for field in fields(cls)})


def _attributes(obj):
    """A dataclass instance's fields by name, for the writer."""
    return {field.name: getattr(obj, field.name) for field in fields(obj)}


def to_jsonable(obj):
    """Convert numpy containers to plain JSON-serializable structures."""
    if isinstance(obj, np.ndarray):
        return to_jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


def dump_report(obj):
    """Canonical JSON text for reports: sorted keys, newline-terminated.

    Floats use shortest round-trip formatting, so an identical computation
    yields byte-identical text.
    """
    return json.dumps(to_jsonable(obj), indent=2, sort_keys=True) + "\n"


def _document(kind, values):
    """``values`` (by field name) as a ``kind`` object in the table's field order."""
    doc = {}
    for name, spec in _SCHEMA[kind].items():
        value = {"version": SCHEMA_VERSION, "kind": kind}.get(spec, values.get(name))
        if isinstance(spec, tuple):
            value = np.asarray(value, dtype=float).tolist()
        elif spec == "cost":
            value = _document(spec, value)
        elif spec == "horizon":
            value = to_jsonable(float(value))
        doc[name] = value
    return doc


def _save(path, kind, values):
    """Write ``values`` as a ``kind`` file, after the reader's checks pass on it."""
    doc = _document(kind, values)
    _parse(doc, kind, path, {})
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")


def save_system_model(path, sys: LtiSystem, cost: CostSpec):
    _save(path, "system", {**_attributes(sys), "n": sys.dim, "cost": _attributes(cost)})


def save_plant_model(path, plant: LqgPlant, mu0, sigma0, horizon=INFINITE_HORIZON):
    _save(path, "plant", {**_attributes(plant), "n": plant.n_states, "m": plant.n_inputs,
                          "p": plant.n_outputs, "mu0": mu0, "Sigma0": sigma0,
                          "horizon": horizon})
