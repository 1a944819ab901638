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
    """Per-trial rates in bits and their minimum.

    ``r_min`` always equals ``min(r_s_to_shat, r_e_to_shat, r_s_to_e)``
    exactly; the two argmin labels name the minimizing channels.
    """

    r_s_to_shat: float
    r_e_to_shat: float
    r_s_to_e: float
    r_min: float
    argmin_channel_e_to_shat: str
    argmin_channel_s_to_e: str
    condition: str
    subject_id: str
    trial_id: str
    embed: EmbedSpec

    def __post_init__(self):
        expected = min(self.r_s_to_shat, self.r_e_to_shat, self.r_s_to_e)
        if self.r_min != expected:
            raise ShapeMismatch(f"r_min {self.r_min} != min of components {expected}")
        if min(self.r_s_to_shat, self.r_e_to_shat, self.r_s_to_e) < 0:
            raise ShapeMismatch("rates must be >= 0")
        if self.condition not in ("attended", "distractor"):
            raise ShapeMismatch(f"condition must be attended|distractor, got {self.condition!r}")

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


def bundle_from_rates(
    r_s_to_shat: float,
    r_e_to_shat: float,
    r_s_to_e: float,
    argmin_e_to_shat: str,
    argmin_s_to_e: str,
    condition: str,
    subject_id: str,
    trial_id: str,
    embed: EmbedSpec,
) -> RateBundle:
    """Assemble a bundle; the minimum is taken here, exactly."""
    return RateBundle(
        r_s_to_shat=r_s_to_shat,
        r_e_to_shat=r_e_to_shat,
        r_s_to_e=r_s_to_e,
        r_min=min(r_s_to_shat, r_e_to_shat, r_s_to_e),
        argmin_channel_e_to_shat=argmin_e_to_shat,
        argmin_channel_s_to_e=argmin_s_to_e,
        condition=condition,
        subject_id=subject_id,
        trial_id=trial_id,
        embed=embed,
    )


def _min_over_channels(values: list, labels: tuple) -> tuple[float, str]:
    """Minimum and its channel label; ties break to the earliest channel."""
    best = int(np.argmin(values))  # argmin returns the first minimizer
    return values[best], labels[best]


def rate_e_to_shat(
    electrodes: MultichannelRecording, shat: TimeSeries, e: EmbedSpec
) -> tuple[float, str]:
    """Minimum over channels of the channel-to-reconstruction transfer entropy."""
    k = len(electrodes.channels)
    signals, names = (*electrodes.channels, shat), (*electrodes.labels, "Shat")
    tes = transfer_entropies(signals, [(c, k) for c in range(k)], e, names)
    return _min_over_channels(tes.tolist(), electrodes.labels)


def rate_s_to_e(
    s: TimeSeries, electrodes: MultichannelRecording, e: EmbedSpec
) -> tuple[float, str]:
    """Minimum over channels of the stimulus-to-channel transfer entropy."""
    signals, names = (s, *electrodes.channels), ("S", *electrodes.labels)
    tes = transfer_entropies(signals, [(0, c) for c in range(1, len(signals))], e, names)
    return _min_over_channels(tes.tolist(), electrodes.labels)


def rate_s_to_shat(s: TimeSeries, shat: TimeSeries, e: EmbedSpec) -> float:
    """Stimulus-to-reconstruction transfer entropy."""
    return float(transfer_entropies((s, shat), [(0, 1)], e, ("S", "Shat"))[0])


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
    return bundle_from_rates(
        tes[0], r_es, r_se, argmin_es, argmin_se, condition, subject_id, trial_id, e
    )

