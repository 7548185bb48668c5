"""Second-by-second vehicle fuel and emission estimation from speed traces.

The pipeline mirrors the MOVES project-level running-exhaust calculation:
1 Hz speed -> acceleration -> vehicle specific power -> operating mode ->
base-rate lookup -> per-second and per-kilometre outputs. Two gasoline
light-duty source types are shipped; table assets are versioned CSV files.
"""

from .core import (
    CycleResult,
    DriveCycle,
    EmissionVector,
    KinematicSample,
    OpMode,
    RateTable,
    SecondRecord,
    SourceType,
    VehicleParams,
    aggregate_cycle,
    classify_opmode_array,
    per_second_emissions,
)
from .cycleio import RawTrace, load_cycle, parse_trace, resample_to_1hz
from .demo import SignalScenario, compare_scenarios, gen_baseline_trajectory, gen_smoothed_trajectory
from .session import EmissionSession, session_create, session_finalize, session_step
from .tables import (
    TableSet,
    load_default_tables,
    load_table_set,
    load_tables_from_dir,
    serialize_table_set,
    validate_table_set,
)

__version__ = "0.2.0"

__all__ = [
    "CycleResult", "DriveCycle", "EmissionVector", "KinematicSample", "OpMode",
    "RateTable", "SecondRecord", "SourceType", "VehicleParams",
    "aggregate_cycle", "classify_opmode_array", "per_second_emissions",
    "RawTrace", "load_cycle", "parse_trace", "resample_to_1hz",
    "SignalScenario", "compare_scenarios", "gen_baseline_trajectory",
    "gen_smoothed_trajectory",
    "EmissionSession", "session_create", "session_finalize", "session_step",
    "TableSet", "load_default_tables", "load_table_set", "load_tables_from_dir",
    "serialize_table_set", "validate_table_set",
    "__version__",
]
