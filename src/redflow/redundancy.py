"""Information-rate bundles for one trial and the redundancy upper bound.

Three transfer-entropy rates are computed per (stimulus, reconstruction)
pair: stimulus to reconstruction, the minimum over channels into the
reconstruction, and the minimum from the stimulus over channels. Their
minimum upper-bounds the stimulus information that the channels redundantly
convey into the reconstruction. A trial's pairs share one kernel call, and
each pair's :class:`RateBundle` also carries the embedding and plug-in bias
behind its rates; the trial's identity and decoding fields are the caller's.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import RedflowError, ShapeMismatch
from .infotheory import EmbedSpec, _te_columns, plug_in_bias, transfer_entropies
from .signals import MultichannelRecording


@dataclass(frozen=True)
class RateBundle:
    """One pair's rates in bits, their minimizing channels' labels, the plug-in
    bias of one TE under their ``embed``, and ``r_min``, the rates' exact minimum."""

    r_s_to_shat: float
    r_e_to_shat: float
    r_s_to_e: float
    argmin_channel_e_to_shat: str
    argmin_channel_s_to_e: str
    plug_in_bias_bits: float
    embed: EmbedSpec

    def __post_init__(self):
        if self.r_min < 0:
            raise ShapeMismatch("rates must be >= 0")

    @property
    def r_min(self) -> float:
        return min(self.r_s_to_shat, self.r_e_to_shat, self.r_s_to_e)

    def to_dict(self) -> dict:
        return {**asdict(self), "r_min": self.r_min}


def directed_redundancy_bound(
    stimuli, electrodes: MultichannelRecording, reconstructions, e: EmbedSpec
) -> list:
    """One :class:`RateBundle` per (stimulus, reconstruction) pair, in order,
    from one transfer-entropy call over the rows [channels..., S_0, Shat_0,
    S_1, ...]; no pair's rates depend on another's, and channel ties break to
    the earliest. A degenerate TE is named ``S->Shat``, ``<channel>->Shat`` or
    ``S-><channel>``; an error of the call has its first pair as ``target``."""
    series = [t for pair in zip(stimuli, reconstructions) for t in pair]
    shapes = {(len(t), t.rate_hz) for t in series}
    if len(stimuli) != len(reconstructions) or shapes != {(electrodes.n_samples, electrodes.rate_hz)}:
        raise ShapeMismatch("S and Shat must pair up and match the electrodes in length and rate")
    labels, k = electrodes.labels, len(electrodes.labels)
    pairs = [pair for s in range(k, k + len(series), 2)  # S in row s, Shat in row s + 1
             for pair in ((s, s + 1), *((c, s + 1) for c in range(k)), *((s, c) for c in range(k)))]
    x = np.vstack((electrodes.samples, *(t.samples for t in series)))
    try:
        tes = transfer_entropies(x, pairs, e, (*labels, *("S", "Shat") * len(stimuli)))
    except RedflowError as exc:  # a degenerate covariance is one pair's, a short series all pairs'
        exc.target = getattr(exc, "index", 0) // (2 * k + 1)
        raise
    bias = plug_in_bias(electrodes.n_samples - _te_columns(e)[0] + 1, e.source_history)  # one TE's rows
    bundles = []
    for rates in tes.reshape(len(stimuli), 2 * k + 1).tolist():
        into_shat, from_s = rates[1 : k + 1], rates[k + 1 :]
        es, se = int(np.argmin(into_shat)), int(np.argmin(from_s))  # the first minimizers
        bundles.append(RateBundle(r_s_to_shat=rates[0], r_e_to_shat=into_shat[es], r_s_to_e=from_s[se],
                                  argmin_channel_e_to_shat=labels[es], argmin_channel_s_to_e=labels[se],
                                  plug_in_bias_bits=bias, embed=e))
    return bundles
