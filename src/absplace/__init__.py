"""Radio-tomographic shadowing maps and certified placement of aerial base stations."""

from .channel import (
    SPEED_OF_LIGHT,
    CapacityMatrix,
    ChannelParams,
    build_capacity_matrix,
    capacity_bps,
    gain_db,
    noise_power_from_dbm,
    write_capacity_csv,
)
from .config import RunConfig, load_config
from .errors import ConfigError, DomainError, EmptyProblemError, GuardError, InfeasibleError
from .geometry import Box3, Point3, RegularGrid3, Segment3, containing_voxel, grid_point
from .placement import (
    AdmmState,
    PlacementResult,
    admm_solve,
    covers,
    reweight,
    solve_placement,
    write_trace_csv,
    x_step_column,
    z_step_row,
)
from .reference import exhaustive_min_abs, solve_alpha_lp, solve_epigraph_lp
from .scenario import (
    ExperimentResult,
    ExperimentSpec,
    RunRecord,
    ScenarioParams,
    SweepSummary,
    UrbanScenario,
    build_urban,
    run_experiment,
    sample_users,
    write_runs_csv,
    write_summary_csv,
)
from .tomography import (
    Measurement,
    SlfField,
    TraversalResult,
    estimate_slf,
    line_integrals,
    read_measurements_csv,
    read_slf_text,
    shadowing_ellipsoid_sum,
    shadowing_line_integral,
    traverse_voxels,
    write_measurements_csv,
    write_slf_text,
)

__version__ = "0.1.0"
