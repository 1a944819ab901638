"""Information-rate bundle for one trial and the redundancy upper bound.

Three transfer-entropy rates are computed per trial: stimulus to
reconstruction, the minimum over channels into the reconstruction, and the
minimum from the stimulus over channels. Their minimum upper-bounds the
information about the stimulus that the channels redundantly convey into
the reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch
from .infotheory import EmbedSpec, transfer_entropies
from .signals import MultichannelRecording, TimeSeries


@dataclass(frozen=True)
class RateBundle:
    """Per-trial rates in bits; the two argmin labels name the minimizing
    channels, and ``r_min`` is their exact minimum."""

    r_s_to_shat: float
    r_e_to_shat: float
    r_s_to_e: float
    argmin_channel_e_to_shat: str
    argmin_channel_s_to_e: str
    condition: str
    subject_id: str
    trial_id: str
    embed: EmbedSpec

    def __post_init__(self):
        if self.r_min < 0:
            raise ShapeMismatch("rates must be >= 0")
        if self.condition not in ("attended", "distractor"):
            raise ShapeMismatch(f"condition must be attended|distractor, got {self.condition!r}")

    @property
    def r_min(self) -> float:
        return min(self.r_s_to_shat, self.r_e_to_shat, self.r_s_to_e)

    def to_dict(self) -> dict:
        return {
            "subject_id": self.subject_id,
            "trial_id": self.trial_id,
            "condition": self.condition,
            "r_s_to_shat": self.r_s_to_shat,
            "r_e_to_shat": self.r_e_to_shat,
            "r_s_to_e": self.r_s_to_e,
            "r_min": self.r_min,
            "argmin_channel_e_to_shat": self.argmin_channel_e_to_shat,
            "argmin_channel_s_to_e": self.argmin_channel_s_to_e,
            "embed": self.embed.to_dict(),
        }


def _min_over_channels(values: list, labels: tuple) -> tuple[float, str]:
    """Minimum and its channel label; ties break to the earliest channel."""
    best = int(np.argmin(values))  # argmin returns the first minimizer
    return values[best], labels[best]


def directed_redundancy_bound(
    s: TimeSeries,
    electrodes: MultichannelRecording,
    shat: TimeSeries,
    e: EmbedSpec,
    condition: str = "attended",
    subject_id: str = "",
    trial_id: str = "",
) -> RateBundle:
    """All three rates, their argmin channels, and the exact minimum, from
    one transfer-entropy kernel call; a degenerate transfer entropy is named
    as ``S->Shat``, ``<channel>->Shat`` or ``S-><channel>``."""
    k = len(electrodes.channels)
    pairs = [(0, 1), *((c, 1) for c in range(2, k + 2)), *((0, c) for c in range(2, k + 2))]
    signals = (s, shat, *electrodes.channels)
    tes = transfer_entropies(signals, pairs, e, ("S", "Shat", *electrodes.labels)).tolist()
    r_es, argmin_es = _min_over_channels(tes[1 : k + 1], electrodes.labels)
    r_se, argmin_se = _min_over_channels(tes[k + 1 :], electrodes.labels)
    return RateBundle(
        r_s_to_shat=tes[0],
        r_e_to_shat=r_es,
        r_s_to_e=r_se,
        argmin_channel_e_to_shat=argmin_es,
        argmin_channel_s_to_e=argmin_se,
        condition=condition,
        subject_id=subject_id,
        trial_id=trial_id,
        embed=e,
    )
