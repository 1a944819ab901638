"""Information-rate bundle for one trial and the redundancy upper bound.

Three transfer-entropy rates are computed per trial: stimulus to
reconstruction, the minimum over channels into the reconstruction, and the
minimum from the stimulus over channels. Their minimum upper-bounds the
information about the stimulus that the channels redundantly convey into
the reconstruction.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import ShapeMismatch
from .infotheory import EmbedSpec, transfer_entropies
from .signals import MultichannelRecording, TimeSeries


@dataclass(frozen=True)
class RateBundle:
    """Per-trial rates in bits; the two argmin labels name the minimizing
    channels, and ``r_min`` is their exact minimum. The trial's identity is
    the caller's to record (see ``cli.compute_rates``)."""

    r_s_to_shat: float
    r_e_to_shat: float
    r_s_to_e: float
    argmin_channel_e_to_shat: str
    argmin_channel_s_to_e: str

    def __post_init__(self):
        if self.r_min < 0:
            raise ShapeMismatch("rates must be >= 0")

    @property
    def r_min(self) -> float:
        return min(self.r_s_to_shat, self.r_e_to_shat, self.r_s_to_e)

    def to_dict(self) -> dict:
        return {**asdict(self), "r_min": self.r_min}


def directed_redundancy_bound(
    s: TimeSeries, electrodes: MultichannelRecording, shat: TimeSeries, e: EmbedSpec
) -> RateBundle:
    """All three rates, their argmin channels, and the exact minimum, from
    one transfer-entropy kernel call; a channel tie breaks to the earliest
    channel. A degenerate transfer entropy is named as ``S->Shat``,
    ``<channel>->Shat`` or ``S-><channel>``."""
    if {len(s), len(shat)} != {electrodes.n_samples} or {s.rate_hz, shat.rate_hz} != {electrodes.rate_hz}:
        raise ShapeMismatch("S and Shat must match the electrodes in length and rate")
    k = len(electrodes.labels)
    pairs = [(0, 1), *((c, 1) for c in range(2, k + 2)), *((0, c) for c in range(2, k + 2))]
    x = np.vstack((s.samples, shat.samples, electrodes.samples))
    tes = transfer_entropies(x, pairs, e, ("S", "Shat", *electrodes.labels)).tolist()
    into_shat, from_s = tes[1 : k + 1], tes[k + 1 :]
    es, se = int(np.argmin(into_shat)), int(np.argmin(from_s))  # the first minimizers
    return RateBundle(
        r_s_to_shat=tes[0],
        r_e_to_shat=into_shat[es],
        r_s_to_e=from_s[se],
        argmin_channel_e_to_shat=electrodes.labels[es],
        argmin_channel_s_to_e=electrodes.labels[se],
    )
