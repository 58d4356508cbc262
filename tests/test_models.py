import json
import math

import numpy as np
import pytest

from lqgcost import (
    CostSpec,
    LqgPlant,
    LtiSystem,
    ModelFormatError,
    load_model,
    save_plant_model,
    save_system_model,
)
from conftest import random_spd, random_system


def awkward_floats(n, rng):
    # values with no short decimal representation, to stress round-tripping
    return rng.standard_normal((n, n)) * np.pi


class TestSystemModelRoundTrip:
    def test_bit_exact(self, tmp_path, rng):
        sys = random_system(3, rng)
        a = sys.A.copy()
        a[0, 1] = math.pi * 1e-7
        sys = LtiSystem(A=a, V=sys.V, mu0=sys.mu0, Sigma0=sys.Sigma0)
        cost = CostSpec(Q=random_spd(3, rng), alpha=-1.0 / 3.0, horizon=math.pi)
        path = tmp_path / "model.json"
        save_system_model(path, sys, cost)
        doc = load_model(path)
        assert doc.kind == "system"
        assert np.array_equal(doc.system.A, sys.A)
        assert np.array_equal(doc.system.V, sys.V)
        assert np.array_equal(doc.system.mu0, sys.mu0)
        assert np.array_equal(doc.system.Sigma0, sys.Sigma0)
        assert np.array_equal(doc.cost.Q, cost.Q)
        assert doc.cost.alpha == cost.alpha
        assert doc.cost.horizon == cost.horizon

    def test_infinite_horizon_round_trip(self, tmp_path, rng):
        sys = random_system(2, rng)
        cost = CostSpec(Q=np.eye(2), alpha=-0.5)
        path = tmp_path / "model.json"
        save_system_model(path, sys, cost)
        assert load_model(path).cost.is_infinite


class TestPlantModelRoundTrip:
    def test_bit_exact(self, tmp_path, rng):
        plant = LqgPlant(A=awkward_floats(2, rng), B=rng.standard_normal((2, 1)),
                         C=rng.standard_normal((3, 2)), Q=random_spd(2, rng),
                         R=random_spd(1, rng), V=random_spd(2, rng),
                         W=random_spd(3, rng), alpha=-0.8)
        path = tmp_path / "plant.json"
        save_plant_model(path, plant, np.zeros(2), np.zeros((2, 2)), horizon=20.0)
        doc = load_model(path)
        assert doc.kind == "plant"
        for name in ("A", "B", "C", "Q", "R", "V", "W"):
            assert np.array_equal(getattr(doc.plant, name), getattr(plant, name))
        assert doc.plant.alpha == plant.alpha
        assert doc.horizon == 20.0


class TestSavedFilesLoad:
    @pytest.mark.parametrize("mu0,horizon,field", [
        (np.zeros(3), math.inf, "mu0"),
        (np.zeros(2), -5.0, "horizon"),
        (np.zeros(2), math.nan, "horizon"),
        (np.zeros(2), -math.inf, "horizon"),
    ], ids=["mu0 of length 3", "horizon -5", "horizon nan", "horizon -inf"])
    def test_refused_before_writing(self, tmp_path, mu0, horizon, field):
        plant = LqgPlant(A=-np.eye(2), B=np.ones((2, 1)), C=np.eye(2), Q=np.eye(2),
                         R=np.eye(1), V=np.eye(2), W=np.eye(2))
        path = tmp_path / "plant.json"
        with pytest.raises(ModelFormatError, match=f"plant.json: {field} must be"):
            save_plant_model(path, plant, mu0, np.eye(2), horizon=horizon)
        assert not path.exists()


class TestStrictness:
    def _base(self, tmp_path):
        doc = {
            "schema_version": 1,
            "kind": "system",
            "n": 1,
            "A": [[-1.0]],
            "V": [[2.0]],
            "mu0": [0.0],
            "Sigma0": [[1.0]],
            "cost": {"Q": [[1.0]], "alpha": -0.5, "horizon": "inf"},
        }
        path = tmp_path / "m.json"
        return doc, path

    def _write(self, doc, path):
        path.write_text(json.dumps(doc))
        return path

    def test_valid_base(self, tmp_path):
        doc, path = self._base(tmp_path)
        load_model(self._write(doc, path))

    def test_unknown_top_level_field(self, tmp_path):
        doc, path = self._base(tmp_path)
        doc["comment"] = "nope"
        with pytest.raises(ModelFormatError, match="unknown field"):
            load_model(self._write(doc, path))

    def test_unknown_cost_field(self, tmp_path):
        doc, path = self._base(tmp_path)
        doc["cost"]["discount"] = 0.9
        with pytest.raises(ModelFormatError, match="unknown field"):
            load_model(self._write(doc, path))

    def test_missing_field(self, tmp_path):
        doc, path = self._base(tmp_path)
        del doc["V"]
        with pytest.raises(ModelFormatError, match="missing field"):
            load_model(self._write(doc, path))

    def test_dimension_mismatch(self, tmp_path):
        doc, path = self._base(tmp_path)
        doc["A"] = [[-1.0, 0.0]]
        with pytest.raises(ModelFormatError, match="must be 1x1"):
            load_model(self._write(doc, path))

    def test_bad_schema_version(self, tmp_path):
        doc, path = self._base(tmp_path)
        doc["schema_version"] = 99
        with pytest.raises(ModelFormatError, match="schema_version"):
            load_model(self._write(doc, path))

    @pytest.mark.parametrize("version,shown", [(True, "true"), (1.0, "1.0")])
    def test_schema_version_must_be_the_integer_one(self, tmp_path, version, shown):
        doc, path = self._base(tmp_path)
        doc["schema_version"] = version
        with pytest.raises(ModelFormatError, match=f"schema_version {shown} "):
            load_model(self._write(doc, path))

    def test_bad_horizon(self, tmp_path):
        doc, path = self._base(tmp_path)
        doc["cost"]["horizon"] = -3.0
        with pytest.raises(ModelFormatError, match="horizon"):
            load_model(self._write(doc, path))

    def test_non_finite_entry(self, tmp_path):
        doc, path = self._base(tmp_path)
        doc["A"] = [[float("nan")]]
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("not json {")
        with pytest.raises(ModelFormatError, match="not valid JSON"):
            load_model(path)

    def test_bad_kind(self, tmp_path):
        doc, path = self._base(tmp_path)
        doc["kind"] = "network"
        with pytest.raises(ModelFormatError, match="kind"):
            load_model(self._write(doc, path))


class TestArraysHoldNumbersOnly:
    SYSTEM_ARRAYS = ("A", "V", "mu0", "Sigma0", "cost.Q")
    PLANT_ARRAYS = ("A", "B", "C", "Q", "R", "V", "W", "mu0", "Sigma0")

    def _saved(self, tmp_path, kind):
        path = tmp_path / f"{kind}.json"
        if kind == "system":
            save_system_model(path, LtiSystem(A=[[-1.5]], V=[[1.0]], mu0=[0.0], Sigma0=[[1.0]]),
                              CostSpec(Q=[[1.0]], alpha=-0.5))
        else:
            save_plant_model(path, LqgPlant(A=[[-1.5]], B=[[1.0]], C=[[1.0]], Q=[[1.0]],
                                            R=[[1.0]], V=[[1.0]], W=[[1.0]], alpha=-0.5),
                             [0.0], [[1.0]])
        return path, json.loads(path.read_text())

    @pytest.mark.parametrize("bad", ["-1.5", "1", True])
    @pytest.mark.parametrize("kind", ["system", "plant"])
    def test_string_or_boolean_entry_names_the_field(self, tmp_path, kind, bad):
        path, doc = self._saved(tmp_path, kind)
        load_model(path)
        for field in self.SYSTEM_ARRAYS if kind == "system" else self.PLANT_ARRAYS:
            *outer, name = field.split(".")
            bad_doc = json.loads(json.dumps(doc))
            holder = bad_doc[outer[0]] if outer else bad_doc
            holder[name] = [bad] if name == "mu0" else [[bad]]
            path.write_text(json.dumps(bad_doc))
            with pytest.raises(ModelFormatError, match=f": {field} must hold real numbers, got "):
                load_model(path)


class TestOneVerdict:
    """A model file and the library refuse the same input with the same
    message, the file's after its ``path: `` prefix."""

    # each refused input: the field of a 2-state system it sits in, and its value
    REFUSED = {
        "bool among floats": ("A", [[True, 1.5], [0.0, -1.0]]),
        "string entry": ("A", [["-1.0", 0.0], [0.0, -1.0]]),
        "ragged matrix": ("A", [[-1.0, 0.0], [0.0]]),
        "2-d mean": ("mu0", [[0.0], [0.0]]),
        "int past the largest double": ("A", [[-(10 ** 400), 0.0], [0.0, -1.0]]),
        "nan": ("A", [[math.nan, 0.0], [0.0, -1.0]]),
    }

    @pytest.mark.parametrize("case", REFUSED)
    def test_file_and_library_refuse_alike(self, tmp_path, case):
        field, value = self.REFUSED[case]
        arrays = {"A": [[-1.0, 0.0], [0.0, -1.0]], "V": [[1.0, 0.0], [0.0, 1.0]],
                  "mu0": [0.0, 0.0], "Sigma0": [[1.0, 0.0], [0.0, 1.0]], field: value}
        with pytest.raises(ValueError) as library:
            LtiSystem(**arrays)
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"schema_version": 1, "kind": "system", "n": 2, **arrays,
                                    "cost": {"Q": arrays["V"], "alpha": -0.5, "horizon": "inf"}}))
        with pytest.raises(ModelFormatError) as from_file:
            load_model(path)
        assert str(from_file.value) == f"{path}: {library.value}"
