"""The bytes a configuration is written as stay put.

``json.dumps(spec_to_dict(spec))`` is unsorted, so its digest pins the key
order that the dataset sidecar and the run manifest are written in too;
``config_hash`` pins the sorted form that names a run. Both are plain JSON,
independent of the numpy and BLAS build.
"""

import hashlib
import json
import pathlib
import re

import pytest

from uavlink.harness import (ExperimentSpec, config_hash, paper_scale_spec,
                             spec_from_dict, spec_to_dict)

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _readme_sketch() -> dict:
    """The JSON config sketch of README.md, its one ``json`` block."""
    found = re.search(r"```json\n(.*?)```", README.read_text(), re.S)
    assert found, "README.md lost its config sketch"
    return json.loads(found.group(1))


# integers in float fields stay integers outside the scenario, whose
# numbers are cast to the annotated type
_INTEGERS = {
    "scenario": {"bandwidth_hz": 100000000, "element_spacing": 1,
                 "noise_psd_dbm_hz": -174, "bs_position": [0, 0, 10],
                 "user_xy_range": [50, 100],
                 "deployment_box": [0, 0, 100, 100]},
    "pso": {"gamma1": 2, "inertia": 1, "inertia_schedule": [1, 0],
            "velocity_clip": [-1, 1]},
    "experiment": {"angle_model": "geometric", "p_t_dbm": [0, 20],
                   "grid_dx": 5, "grid_dy": 10, "realizations": 3},
}


@pytest.mark.parametrize("build, dumped, hashed", [
    (ExperimentSpec,
     "4f1d1e54a4a55d5853c59eca0e350f68695f907ff58aeee9680037bbb763984a",
     "bcb498284935dfbb95ad33c1acd1edec582bc9e6098ded1d0f1c0631bb1b9bdf"),
    (paper_scale_spec,
     "2c36139104562a6189bc651e1eca31776f03877b95f67469ac0bc73b913bfe86",
     "398477f5fff8a7575c28537a40c243b7d3a1efcd0e705910c31ecdb4c8f5de4c"),
    (lambda: spec_from_dict(_readme_sketch()),
     "556c1f8bfd851e64dfc90a0f997b50c98a04cd3fb63c538dc226082b58ec330f",
     "bc02df3903c3086be6c623ff59b1c635af4785ca0f12928dabd1451fc8dde66b"),
    (lambda: spec_from_dict(_INTEGERS),
     "b325c01dd4d678bc51723bcccaf4db56b84a0c9c22389d9fb4162dd18b315866",
     "3aa35b63de92f8f937b8fd96a71bbec202c6b64874556289bb98e2eb46c9d924"),
], ids=["defaults", "paper_scale", "readme_sketch", "integers"])
def test_config_bytes_are_pinned(build, dumped, hashed):
    spec = build()
    blob = json.dumps(spec_to_dict(spec)).encode()
    assert hashlib.sha256(blob).hexdigest() == dumped
    assert config_hash(spec) == hashed


def test_a_config_reads_back_to_the_same_bytes():
    spec = spec_from_dict(_INTEGERS)
    assert spec_to_dict(spec_from_dict(spec_to_dict(spec))) == \
        spec_to_dict(spec)
    assert spec.pso.inertia_schedule == (1, 0)
    assert spec.scenario.bandwidth_hz == 100000000.0
    assert isinstance(spec.scenario.bandwidth_hz, float)
    assert spec.p_t_dbm == [0, 20]
