"""The synthetic city's random draws against numpy's own sampling routines.

Every planted trip and every golden digest depends on the order and the
values of these draws, so a faster draw must give the same values and leave
the generator in the same state as the routine it replaces.
"""

import numpy as np
import pytest

from ridelink.synth import (
    _PICKUP_HOUR_P,
    _PICKUP_HOURS,
    ScenarioSpec,
    _Factory,
    build_network,
)


@pytest.mark.parametrize("seed", [0, 1, 20220901])
def test_day_minute_matches_weighted_choice(seed):
    spec = ScenarioSpec(seed=seed)
    factory = _Factory(spec, *build_network(spec))
    oracle = np.random.default_rng(seed)
    hours = set()
    for _ in range(5000):
        day = int(oracle.integers(spec.days))
        hour = int(oracle.choice(_PICKUP_HOURS, p=_PICKUP_HOUR_P))
        minute = int(oracle.integers(60))
        hours.add(hour)
        assert factory._day_minute() == day * 1440 + hour * 60 + minute
    assert hours == set(_PICKUP_HOURS.tolist())
    assert factory.rng.random() == oracle.random()
