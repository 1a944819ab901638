"""Synthetic linear-Gaussian scenarios with exact information-rate oracles.

Two layers:

* A first-order vector autoregression (:class:`VarModel`) as the universal
  generative family. Its stationary covariance solves the discrete Lyapunov
  equation, which makes every Gaussian transfer-entropy claim checkable in
  closed form (:func:`analytic_te`).
* A listening-experiment stand-in (:func:`make_aad_scenario`): two slow
  autoregressive "envelope" processes drive a set of observed channels
  through lagged couplings, with channel-specific autoregressive noise and
  one shared common-noise component mixed into all channels so the channels
  stay redundant even without stimulus coupling.

All randomness comes from the counter-based Philox generator (algorithm id
``philox4x64-10``), keyed by (seed, substream), so the same seed reproduces
the same data everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_discrete_lyapunov
from scipy.signal import lfilter

from .errors import DegenerateCovariance, ShapeMismatch, UnstableModel
from .infotheory import LN2, EmbedSpec, _te_columns
from .signals import LEFT_TEMPORAL_LABELS, MultichannelRecording, TimeSeries

RNG_ALGORITHM = "philox4x64-10"

_SUBJECT_STREAM = 1 << 32
_TRIAL_STREAM = 1 << 33

# Envelope dynamics: two real poles at 0.9 and 0.8 give a slow, smooth
# process; innovations are scaled for unit stationary variance.
_ENV_A1 = 1.7
_ENV_A2 = -0.72


def substream(seed: int, stream_id: int) -> np.random.Generator:
    """Independent deterministic generator for (seed, stream_id)."""
    return np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), stream_id]))


@dataclass(frozen=True, eq=False)
class VarModel:
    """Stable first-order vector autoregression x_t = A x_{t-1} + w_t.

    ``noise_cov`` is the (symmetric positive-definite) covariance of w.
    Construction fails with :class:`UnstableModel` if the spectral radius of
    the transition matrix is >= 1.
    """

    transition: np.ndarray
    noise_cov: np.ndarray
    labels: tuple = ()

    def __post_init__(self):
        a = np.asarray(self.transition, dtype=np.float64)
        q = np.asarray(self.noise_cov, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ShapeMismatch(f"transition must be square, got {a.shape}")
        if q.shape != a.shape:
            raise ShapeMismatch(f"noise_cov shape {q.shape} != transition shape {a.shape}")
        if not np.allclose(q, q.T, atol=1e-12):
            raise ShapeMismatch("noise_cov must be symmetric")
        try:
            np.linalg.cholesky(q)
        except np.linalg.LinAlgError:
            raise ShapeMismatch("noise_cov must be positive definite") from None
        rho = self.spectral_radius_of(a)
        if rho >= 1.0:
            raise UnstableModel(f"spectral radius {rho:.6f} >= 1")
        labels = tuple(self.labels) if self.labels else tuple(
            f"x{i}" for i in range(a.shape[0])
        )
        if len(labels) != a.shape[0]:
            raise ShapeMismatch("need one label per coordinate")
        object.__setattr__(self, "transition", a)
        object.__setattr__(self, "noise_cov", q)
        object.__setattr__(self, "labels", labels)

    @staticmethod
    def spectral_radius_of(a: np.ndarray) -> float:
        return float(np.max(np.abs(np.linalg.eigvals(a))))

    @property
    def dimension(self) -> int:
        return self.transition.shape[0]

    @property
    def spectral_radius(self) -> float:
        return self.spectral_radius_of(self.transition)


def stationary_covariance(model: VarModel) -> np.ndarray:
    """Solve the discrete Lyapunov equation S = A S A' + Q (symmetrised)."""
    sigma = solve_discrete_lyapunov(model.transition, model.noise_cov)
    return 0.5 * (sigma + sigma.T)


def lag_covariance(model: VarModel, sigma0: np.ndarray, h: int) -> np.ndarray:
    """Cov(x_{t+h}, x_t) = A^h S for h >= 0; transpose symmetry for h < 0."""
    if h >= 0:
        return np.linalg.matrix_power(model.transition, h) @ sigma0
    return (np.linalg.matrix_power(model.transition, -h) @ sigma0).T


def _exact_gaussian_cmi_bits(cov: np.ndarray, dx: int, dy: int) -> float:
    """Closed-form Gaussian CMI from an exact joint covariance ordered
    [X (dx), Y (dy), C (rest)]. Independent of the empirical estimator."""
    dim = cov.shape[0]
    ix = np.arange(dx)
    iy = np.arange(dx, dx + dy)
    ic = np.arange(dx + dy, dim)

    def logdet(idx):
        if idx.size == 0:
            return 0.0
        sign, ld = np.linalg.slogdet(cov[np.ix_(idx, idx)])
        if sign <= 0 or not math.isfinite(ld):
            raise DegenerateCovariance("exact covariance is singular")
        return ld

    value = 0.5 * (
        logdet(np.concatenate([ix, ic]))
        + logdet(np.concatenate([iy, ic]))
        - logdet(ic)
        - logdet(np.arange(dim))
    ) / LN2
    return max(0.0, value)


def analytic_te(model: VarModel, source_idx: int, target_idx: int, e: EmbedSpec) -> float:
    """Exact Gaussian transfer entropy of a stationary VAR model, in bits.

    Builds the joint stationary covariance of (source past, target present,
    target past) for the embedding from the Lyapunov solution and its lag
    covariances, then evaluates the Gaussian CMI in closed form.
    """
    # the estimator's window layout; window column c is time offset c - width + 1
    width, source_past, present, target_past = _te_columns(e)
    cols = np.r_[source_past, present, target_past]
    coords = np.repeat([source_idx, target_idx], [e.source_history, e.target_history + 1])
    sigma0 = stationary_covariance(model)
    lagged = np.stack([lag_covariance(model, sigma0, h) for h in range(width)])
    h = cols[:, None] - cols[None, :]
    ci, cj = coords[:, None], coords[None, :]
    cov = np.where(h >= 0, lagged[np.abs(h), ci, cj], lagged[np.abs(h), cj, ci])
    cov = 0.5 * (cov + cov.T)
    return _exact_gaussian_cmi_bits(cov, dx=e.source_history, dy=1)


def burn_in_length(model: VarModel) -> int:
    """10x the time constant of the slowest mode, in samples."""
    rho = model.spectral_radius
    if rho <= 0.0:
        return 0
    return int(math.ceil(10.0 / -math.log(rho)))


def simulate(model: VarModel, n: int, seed: int, rate_hz: float = 1.0) -> MultichannelRecording:
    """Sample a stationary VAR trajectory.

    The first ``burn_in_length(model)`` steps (from a zero initial state)
    are discarded. Deterministic given the seed.
    """
    burn = burn_in_length(model)
    rng = substream(seed, 0)
    chol = np.linalg.cholesky(model.noise_cov)
    noise = rng.standard_normal((burn + n, model.dimension)) @ chol.T
    a = model.transition
    out = np.empty((burn + n, model.dimension))
    state = np.zeros(model.dimension)
    for t in range(burn + n):
        state = a @ state + noise[t]
        out[t] = state
    out = out[burn:]
    channels = tuple(
        TimeSeries(lab, rate_hz, out[:, i]) for i, lab in enumerate(model.labels)
    )
    return MultichannelRecording(channels=channels)


# ---------------------------------------------------------------------------
# Listening-experiment scenario
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AadScenario:
    """Desk-scale two-stream listening scenario.

    ``n_trials`` is per subject. Couplings scale how strongly the lagged
    attended/distractor envelopes drive the channels; per-subject gain
    spread (uniform 0.6..1.4) and a milder per-trial spread (0.8..1.2) make
    reconstruction quality vary across the dataset.
    """

    n_samples: int = 3200
    n_trials: int = 10
    n_subjects: int = 3
    n_channels: int = 6
    attended_coupling: float = 0.12
    distractor_coupling: float = 0.03
    observation_noise: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_samples <= 100:
            raise ShapeMismatch("n_samples must be > 100")
        if self.attended_coupling < 0 or self.distractor_coupling < 0:
            raise ShapeMismatch("couplings must be >= 0")
        if self.observation_noise <= 0:
            raise ShapeMismatch("observation_noise must be > 0")
        if min(self.n_trials, self.n_subjects, self.n_channels) < 1:
            raise ShapeMismatch("n_trials, n_subjects, n_channels must be >= 1")


@dataclass(frozen=True, eq=False)
class TrialData:
    """One trial: its identity, the two stimulus envelopes and the recording."""

    subject_id: str
    trial_id: str
    attended: TimeSeries
    distractor: TimeSeries
    eeg: MultichannelRecording


def _ar2_unit_variance_scale(a1: float, a2: float) -> float:
    """Innovation scale giving unit stationary variance for an AR(2)."""
    var = (1.0 - a2) / ((1.0 + a2) * ((1.0 - a2) ** 2 - a1**2))
    return 1.0 / math.sqrt(var)


def _ar2_filter(noise: np.ndarray, a1: float, a2: float) -> np.ndarray:
    """y_t = a1 y_{t-1} + a2 y_{t-2} + noise_t from zero initial state (time on axis 0)."""
    return lfilter([1.0], [1.0, -a1, -a2], noise, axis=0)


def _ar1_filter(drive: np.ndarray, rho: float) -> np.ndarray:
    """y_t = rho y_{t-1} + drive_t from zero initial state."""
    return lfilter([1.0], [1.0, -rho], drive, axis=0)


def _lagged(x: np.ndarray, lag: int) -> np.ndarray:
    """x delayed by ``lag`` samples, zero-filled at the start."""
    out = np.zeros_like(x)
    out[lag:] = x[:-lag]
    return out


def _channel_labels(n_channels: int) -> tuple:
    if n_channels == len(LEFT_TEMPORAL_LABELS):
        return LEFT_TEMPORAL_LABELS
    return tuple(f"CH{i + 1:02d}" for i in range(n_channels))


#: Scenario burn-in; > 10x the slowest envelope mode (pole 0.9, tau ~ 9.5).
_SCENARIO_BURN = 200


def make_aad_scenario(sc: AadScenario, rate_hz: float = 64.0) -> list:
    """Generate all trials of a scenario, deterministically from its seed.

    Returns a list of :class:`TrialData`, ordered by subject then trial.
    Channel generation per trial: each channel is an AR(1) (coefficient
    drawn per channel) driven by lag-1/lag-2 taps of both envelopes, a
    shared common-noise channel mix, and white observation noise.
    """
    env_scale = _ar2_unit_variance_scale(_ENV_A1, _ENV_A2)
    labels = _channel_labels(sc.n_channels)
    trials = []
    for s in range(sc.n_subjects):
        subject_id = f"s{s + 1:02d}"
        srng = substream(sc.seed, _SUBJECT_STREAM + s)
        att_gain = sc.attended_coupling * srng.uniform(0.6, 1.4)
        dist_gain = sc.distractor_coupling * srng.uniform(0.6, 1.4)
        att_taps = srng.standard_normal((sc.n_channels, 2))
        att_taps /= np.linalg.norm(att_taps, axis=1, keepdims=True)
        dist_taps = srng.standard_normal((sc.n_channels, 2))
        dist_taps /= np.linalg.norm(dist_taps, axis=1, keepdims=True)
        ar_coefs = srng.uniform(0.2, 0.5, size=sc.n_channels)
        common_gains = srng.uniform(0.4, 0.8, size=sc.n_channels)

        for tr in range(sc.n_trials):
            trial_id = f"t{tr + 1:03d}"
            trng = substream(sc.seed, _TRIAL_STREAM + s * 100_000 + tr)
            total = sc.n_samples + _SCENARIO_BURN
            trial_scale = trng.uniform(0.8, 1.2)
            env_att = _ar2_filter(env_scale * trng.standard_normal(total), _ENV_A1, _ENV_A2)
            env_dist = _ar2_filter(env_scale * trng.standard_normal(total), _ENV_A1, _ENV_A2)
            # the shared component is slow (same band as the envelopes) so
            # channels are redundant even without stimulus coupling; the
            # channel-specific noise is white so reconstruction residuals
            # keep broadband content
            common = _ar2_filter(env_scale * trng.standard_normal(total), _ENV_A1, _ENV_A2)
            obs = sc.observation_noise * trng.standard_normal((total, sc.n_channels))

            att_l1, att_l2 = _lagged(env_att, 1), _lagged(env_att, 2)
            dist_l1, dist_l2 = _lagged(env_dist, 1), _lagged(env_dist, 2)
            channels = []
            for c in range(sc.n_channels):
                drive = (
                    att_gain * trial_scale * (att_taps[c, 0] * att_l1 + att_taps[c, 1] * att_l2)
                    + dist_gain * trial_scale * (dist_taps[c, 0] * dist_l1 + dist_taps[c, 1] * dist_l2)
                    + common_gains[c] * common
                    + obs[:, c]
                )
                channels.append(
                    TimeSeries(labels[c], rate_hz, _ar1_filter(drive, ar_coefs[c])[_SCENARIO_BURN:])
                )
            trials.append(
                TrialData(
                    subject_id=subject_id,
                    trial_id=trial_id,
                    attended=TimeSeries("attended_envelope", rate_hz, env_att[_SCENARIO_BURN:]),
                    distractor=TimeSeries("distractor_envelope", rate_hz, env_dist[_SCENARIO_BURN:]),
                    eeg=MultichannelRecording(channels=tuple(channels)),
                )
            )
    return trials
