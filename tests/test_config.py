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
     "132898e1494d5f95d4b4844c345c20d6aa7427459498f00bb4e953bd32da9ff1",
     "b3a04f4f774f37f321334e8b8d4d614bf822da528e7661b21c881af65523a5d7"),
    (paper_scale_spec,
     "fccc1acdd8688b1d8caeec561f654dc9e785dfcfe6c56d4490926c50aa215476",
     "aaa109d3a66f1da398fada4ba73c9ef9db3eb209d176b1228d1076055da3b502"),
    (lambda: spec_from_dict(_readme_sketch()),
     "b2f34a213bea6ca1b0414df36f1fb7021b72ba4c219bd19d4816369635350020",
     "02691ccd627106654d74d89073ea5f275bb069175e090038a129f7b310e315a7"),
    (lambda: spec_from_dict(_INTEGERS),
     "141834a3e6d963cfd130c45f56e1390c3632f555e14976a9ebaab872971454b6",
     "f5595d38fc0ea71667c44026692306b0e421099d987b28aa14c25fcc1635c968"),
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
