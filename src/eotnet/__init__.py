"""Extended object tracking information filters over sensor networks.

A library and benchmark for jointly estimating the kinematics and the
elliptical/rectangular extent of a single object from multi-detection scans,
either at a fusion center or distributed across a network through
consensus on information or consensus on measurements.
"""

from .cli import bounded_mse_experiment
from .consensus import (
    ConsensusMatrix,
    NodeKind,
    SensorNetwork,
    build_network,
    check_primitive,
    metropolis_weights,
)
from .diagnostics import (
    AssumptionReport,
    AssumptionTrace,
    acee,
    check_assumptions,
    evaluate_run,
    gwd,
    nees,
    nees_bounds,
    ospa_vertices,
)
from .geometry import (
    extent_vertices,
    shape_matrix,
    wrap_angle,
)
from .info_filter import (
    from_moments,
    predict,
    to_moments,
)
from .linearization import innovations
from .scenario import (
    ScenarioConfig,
    ScenarioRun,
    build_scenario_run,
    generate_measurements,
    generate_truth,
    load_config,
    benchmark_network,
    resolve_network,
)
from .trackers import (
    FilterConfig,
    FilterKind,
    TrackerParams,
    TrackRecord,
    correct_scan,
    initial_states,
    ncv_transition,
    params_from_scenario,
    run_filter,
)

__version__ = "0.1.0"
