"""Monte Carlo link-level simulator for the uplink of cell-free massive MIMO
OFDM networks with Wiener oscillator phase noise."""

from .combining import combiner_matrix
from .config import ExperimentConfig, ci_config, fig2_config, load_config
from .estimation import EstimatorContext, build_context, build_psi, build_z_ici, estimate_all
from .harness import run_experiment, run_fig2, run_fig3
from .network import (
    NetworkRealization,
    SimulationLayout,
    assign_pilots,
    form_dcc,
    gen_channel,
    generate_network,
    large_scale_fading,
    place_nodes,
)
from .ofdm import build_pilot_book, synth_pilot_observations, time_domain_oracle
from .phase_noise import (
    KernelGrid,
    KernelParams,
    PhaseNoiseTrace,
    PnParams,
    build_correlation_table,
    correlation_b_fast,
    correlation_b_oracle,
    gen_pn_trace,
    phase_drift,
    pn_increment_variance,
)
from .se import SinrAccumulator, finalize_sinr, lambda_ici, se_from_sinr

__version__ = "0.1.0"
