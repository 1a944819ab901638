"""redflow: redundant information flow in stimulus-tracking recordings.

Quantifies how much information a driving stimulus redundantly conveys
through multiple observed channels into a linearly reconstructed signal:
transfer-entropy rates, a directed-redundancy upper bound, and
distortion-rate analysis, validated against exact Gaussian oracles on
synthetic data.
"""

from .analysis import (
    LinearFit,
    RATE_KINDS,
    bin_rd,
    distortion,
    fit_linear,
    kde_pdf,
    support_threshold,
    t_cdf,
    to_db,
)
from .decoder import Decoder, load_decoder, pearson, reconstruct, save_decoder, train
from .errors import RedflowError
from .infotheory import EmbedSpec, gaussian_cmi, plug_in_bias, transfer_entropy
from .redundancy import RateBundle, directed_redundancy_bound
from .signals import (
    LEFT_TEMPORAL_LABELS,
    LagWindow,
    MultichannelRecording,
    TimeSeries,
    normalize,
    read_recording,
    select_channels,
    write_recording,
)
from .synth import AadScenario, TrialData, VarModel, analytic_te, make_aad_scenario, simulate

__version__ = "0.1.0"
