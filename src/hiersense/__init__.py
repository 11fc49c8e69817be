"""Multi-cell cognitive-radio simulator with multi-scale spectrum sensing.

Cells estimate licensed-spectrum occupancy locally, fuse the estimates up an
interference-matched aggregation tree, and adapt their opportunistic traffic
per cell from the resulting multi-scale view of the network.
"""

from .aggregation import (BufferUnderrunError, HierarchicalExchange,
                          RunningRingSums)
from .config import ConfigError, ExperimentConfig, SchemeSpec
from .control import (ControlParams, exact_throughput, inr_contributions,
                      network_inr, optimal_traffic, throughput_lb, utility)
from .dynamics import (OccupancyModel, OccupancyState, k_step_marginal,
                       sample_steady_state, step_occupancy)
from .harness import (PointMetrics, Simulation, SweepResult, SweepRow,
                      eval_fading_success, prepare_trial, run_experiment)
from .hierarchy import (AggregationTree, build_ibt, build_ibts,
                        build_random_tree)
from .inference import (BeliefTable, DelayCompensatedWeights, compute_weights,
                        estimate_ip, exact_belief, marginal_occupancy)
from .sensing import (SensorModel, posterior_update, prior_propagate,
                      sample_detection_count)
from .topology import (Blockage, InterferenceMatrix, NetworkTopology,
                       PathlossParams, build_topology, compute_phi, db_to_lin,
                       lin_to_db)

__version__ = "0.1.0"
