"""Second-by-second vehicle fuel and emission estimation from speed traces.

The pipeline mirrors the MOVES project-level running-exhaust calculation:
1 Hz speed -> acceleration -> vehicle specific power -> operating mode ->
base-rate lookup -> per-second and per-kilometre outputs. Two gasoline
light-duty source types are shipped; table assets are versioned CSV files.

Importing the package loads only the scalar model and table loading. The
streaming session (`session`) loads on first use of one of its names here;
the array kernel (`core`), trace I/O (`cycleio`) and the demo load, with
numpy, on first use of theirs.
"""

from importlib import import_module

from .model import EmissionVector, OpMode, RateTable, SourceType, VehicleParams, per_second_emissions
from .tables import (
    TableSet,
    load_default_tables,
    load_table_set,
    load_tables_from_dir,
    serialize_table_set,
    validate_table_set,
)

__version__ = "0.8.1"

# Names resolved on first access (PEP 562), by the module that defines them.
_LAZY = {
    "CycleResult": "core", "DriveCycle": "core", "aggregate_cycle": "core",
    "classify_opmode_array": "core",
    "RawTrace": "cycleio", "load_cycle": "cycleio", "parse_trace": "cycleio",
    "resample_to_1hz": "cycleio",
    "SignalScenario": "demo", "compare_scenarios": "demo",
    "gen_baseline_trajectory": "demo", "gen_smoothed_trajectory": "demo",
    "EmissionSession": "session", "session_create": "session",
    "session_finalize": "session", "session_step": "session",
}


def __getattr__(name: str):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys())


__all__ = [
    "EmissionVector", "OpMode", "RateTable", "SourceType", "VehicleParams",
    "per_second_emissions",
    "TableSet", "load_default_tables", "load_table_set", "load_tables_from_dir",
    "serialize_table_set", "validate_table_set",
    "__version__",
    *_LAZY,
]
