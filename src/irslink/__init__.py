"""Link-level simulator for reflector-assisted UAV downlink reception.

Quantifies how a wall-mounted reconfigurable reflector improves the signal a
UAV receives from a down-tilted cellular base-station antenna, and searches
for the gain-maximising reflector placement.
"""

__version__ = "0.1.0"

from .errors import DegenerateGeometryError, InvalidParameterError
from .propagation import pl_los, pl_nlos, vertical_gain
from .scenario import DEFAULT_MASTER_SEED, MonteCarloConfig, Position3D, ScenarioConfig, element_positions
from .simulator import GainResult, dbm_to_amplitude, irs_gain
from .experiments import SweepSpec, SweepResult, optimal_distance, run_sweep

__all__ = [
    "DEFAULT_MASTER_SEED",
    "DegenerateGeometryError",
    "GainResult",
    "InvalidParameterError",
    "MonteCarloConfig",
    "Position3D",
    "ScenarioConfig",
    "SweepResult",
    "SweepSpec",
    "dbm_to_amplitude",
    "element_positions",
    "irs_gain",
    "optimal_distance",
    "pl_los",
    "pl_nlos",
    "run_sweep",
    "vertical_gain",
]
