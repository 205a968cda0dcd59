import warnings

import pytest

from uavlink.beamforming import OverlappingSupports
from uavlink.geometry import Scenario, dbm_to_mw, noise_power
from uavlink.harness import paper_scale_spec
from uavlink.links import make_realization


@pytest.fixture(scope="session")
def desk_scenario():
    return Scenario()


@pytest.fixture(scope="session")
def desk_sigma2(desk_scenario):
    return dbm_to_mw(noise_power(desk_scenario))


@pytest.fixture(scope="session")
def desk_realization(desk_scenario):
    return make_realization(desk_scenario, 12345)


@pytest.fixture(scope="session")
def p20_mw():
    return dbm_to_mw(20.0)


# realizations of one scenario to stack; under the geometric angle model
# with drawn users they differ in N_RF (4, 4, 6, 7, 4, 6 on desk arrays)
_STACK_CASES = {
    "desk": (Scenario(), "fixed"),
    "paper_scale": (paper_scale_spec().scenario, "fixed"),
    "geometric": (Scenario(), "geometric"),
}


@pytest.fixture(scope="session")
def stack_members():
    """Six realizations of one case of ``_STACK_CASES``, by case name."""
    built = {}

    def members(case):
        if case not in built:
            scenario, angle_model = _STACK_CASES[case]
            with warnings.catch_warnings():
                # nearby geometric group supports may share cells at 4x4
                warnings.simplefilter("ignore", OverlappingSupports)
                built[case] = [make_realization(scenario, seed, angle_model)
                               for seed in range(6)]
        return built[case]
    return members
