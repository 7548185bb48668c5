import pytest

from movestar.core import EmissionVector, RateTable
from movestar.tables import default_tables_dir, load_default_tables

MPH = 0.44704


def sawtooth_speeds() -> list[float]:
    """0 -> 30 mph -> 0 in 1 m/s^2 steps with a 30 mph turn point."""
    peak = 30.0 * MPH  # 13.4112 m/s
    up = [float(i) for i in range(14)]
    down = [peak - i for i in range(1, 14)]
    return up + [peak] + down + [0.0]


def gentle_decel_speeds() -> list[float]:
    """Cruise then a sustained -0.6 m/s^2 glide; trips the 3 s braking rule."""
    return [10.0] * 5 + [10.0 - 0.6 * i for i in range(1, 11)] + [4.0] * 5


FIXTURE_CYCLES = {
    "idle_only": [0.0] * 30,
    "cruise_40mph": [40.0 * MPH] * 120,
    "cruise_65mph": [65.0 * MPH] * 90,
    "sawtooth_0_30_0": sawtooth_speeds(),
    "gentle_decel": gentle_decel_speeds(),
}


def in_order_sum(vectors) -> EmissionVector:
    """Each species of `vectors` summed in order from -0.0, as totals are."""
    acc = [-0.0] * 5
    for vec in vectors:
        acc = [t + x for t, x in zip(acc, vec.as_tuple())]
    return EmissionVector(*acc)


def scaled_rates(rates: RateTable, k: float) -> RateTable:
    """`rates` with every value multiplied by `k`."""
    return RateTable(entries={key: EmissionVector(*(x * k for x in vec.as_tuple()))
                              for key, vec in rates.entries.items()},
                     units=dict(rates.units))


@pytest.fixture(scope="session")
def tables():
    return load_default_tables()


@pytest.fixture(scope="session")
def tables_dir():
    return default_tables_dir()


@pytest.fixture(scope="session")
def params_path(tables_dir):
    return tables_dir / "params.csv"


@pytest.fixture(scope="session")
def rates_path(tables_dir):
    return tables_dir / "rates.csv"


@pytest.fixture(params=sorted(FIXTURE_CYCLES))
def fixture_cycle(request):
    return request.param, FIXTURE_CYCLES[request.param]
