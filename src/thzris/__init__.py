"""Link-level simulation lab for graphene-RIS assisted terahertz MIMO.

Modules:
  graphene    - the discrete phase codebook of the tunable graphene element
  channel     - sparse geometric THz MIMO channel model
  beamforming - cascaded channel, SVD transceivers, achievable rate
  optimizer   - RIS phase optimization (adaptive/constant gradient descent,
                random and exhaustive baselines)
  harness     - seeded Monte-Carlo experiment sweeps and CSV output
  cli         - command-line front end
"""

from .beamforming import (BeamformerPair, achievable_rate, cascaded_channel,
                          svd_beamformers)
from .channel import (ArrayGeometry, ChannelRealization, Hop, PathParams,
                      los_gain, nlos_gain, sample_channel, upa_response)
from .graphene import PhaseCodebook, build_codebook
from .harness import (ConfigError, ExperimentConfig, emit_csv,
                      load_config, preset, preset_names, run_experiment)
from .optimizer import (GdTrace, OptimizerSettings, QuadraticForm,
                        adaptive_step, build_quadratic_form, gradient,
                        objective, quantize_phases, run_agd, run_cgd,
                        run_exhaustive, run_random_phase)

__version__ = "0.1.0"
