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
import mmap
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DegenerateCovariance, ShapeMismatch, UnstableModel
from .infotheory import LN2, EmbedSpec, _te_columns
from .signals import LEFT_TEMPORAL_LABELS, MultichannelRecording, TimeSeries
from .workers import _pool

RNG_ALGORITHM = "philox4x64-10"

_SUBJECT_STREAM = 1 << 32
_TRIAL_STREAM = 1 << 33
#: Trial substreams are keyed ``_TRIAL_STREAM + subject * _MAX_TRIALS + trial``,
#: so a subject may have at most this many trials before its keys reach the
#: next subject's.
_MAX_TRIALS = 100_000

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
    """Solve the discrete Lyapunov equation S = A S A' + Q (symmetrised).

    It is the linear system (I - A (x) A) vec S = vec Q, of order d^2 for a
    d-dimensional model: meant for the few dimensions an oracle needs.
    """
    a, d = model.transition, model.dimension
    sigma = np.linalg.solve(np.eye(d * d) - np.kron(a, a), model.noise_cov.reshape(-1)).reshape(d, d)
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
    return MultichannelRecording(model.labels, rate_hz, out[burn:].T)


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
        if self.n_trials > _MAX_TRIALS:
            raise ShapeMismatch(f"n_trials must be <= {_MAX_TRIALS}, got {self.n_trials}")


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


#: Time steps per tile in :func:`_ar_filter`; each tile goes through a small
#: time-major buffer, so any input layout filters at one speed.
_FILTER_TILE = 128


def _ar_filter(y: np.ndarray, taps) -> np.ndarray:
    """y_t = x_t + a_1 y_{t-1} + ... + a_p y_{t-p} from zero initial state, along
    axis 0 of the float64 array ``y``, in place (any memory layout); returns y.

    ``taps`` is ``(a_1, ..., a_p)``; each is a scalar or broadcasts over the
    trailing axes, one coefficient per series, and every series is filtered
    in the same pass. Each step rounds as ``x[t] + (a_p*y[t-p] + ... +
    a_1*y[t-1])``, summed oldest first: for p <= 2 that is the transposed
    direct form of ``scipy.signal.lfilter([1], [1, -a_1, ..., -a_p], y,
    axis=0)``, so the result equals lfilter's bit for bit.
    """
    # a 1-D series gets a trailing axis, so each step's rows are views
    x = y if y.ndim > 1 else y[:, None]
    order, shape = len(taps), x.shape[1:]
    coefs = np.stack([np.broadcast_to(a, shape) for a in taps[::-1]])
    prod, acc = np.empty((order, *shape)), np.empty(shape)
    # buf holds the last ``order`` outputs, then one tile: step t reads rows
    # t-order .. t-1 (zero before the start) and adds into row t
    buf = np.zeros((order + _FILTER_TILE, *shape))
    steps = [(buf[t - order : t], buf[t]) for t in range(order, len(buf))]
    for start in range(0, len(x), _FILTER_TILE):
        tile = x[start : start + _FILTER_TILE]
        np.copyto(buf[order : order + len(tile)], tile)
        for past, row in steps[: len(tile)]:
            np.multiply(past, coefs, prod)
            np.add.reduce(prod, axis=0, out=acc)
            np.add(row, acc, row)
        np.copyto(tile, buf[order : order + len(tile)])
        buf[:order] = buf[len(tile) : len(tile) + order]
    return y


def _channel_labels(n_channels: int) -> tuple:
    if n_channels == len(LEFT_TEMPORAL_LABELS):
        return LEFT_TEMPORAL_LABELS
    return tuple(f"CH{i + 1:02d}" for i in range(n_channels))


#: Scenario burn-in; > 10x the slowest envelope mode (pole 0.9, tau ~ 9.5).
_SCENARIO_BURN = 200

#: Trials whose series make_aad_scenario filters together, one task of its
#: pool. Each filter step has a fixed cost, so more series per step is
#: faster; a batch's shared mapping takes 15 MB at 6 channels and 3,400
#: samples, and a scenario with more batches than one spreads them over
#: the pool's workers.
_SCENARIO_BATCH = 60


def _subject_parameters(sc: AadScenario, s: int) -> tuple:
    """Subject ``s``'s couplings, channel taps, channel AR coefficients and
    common-noise gains, drawn from its own substream."""
    srng = substream(sc.seed, _SUBJECT_STREAM + s)
    att_gain = sc.attended_coupling * srng.uniform(0.6, 1.4)
    dist_gain = sc.distractor_coupling * srng.uniform(0.6, 1.4)
    att_taps = srng.standard_normal((sc.n_channels, 2))
    att_taps /= np.linalg.norm(att_taps, axis=1, keepdims=True)
    dist_taps = srng.standard_normal((sc.n_channels, 2))
    dist_taps /= np.linalg.norm(dist_taps, axis=1, keepdims=True)
    ar_coefs = srng.uniform(0.2, 0.5, size=sc.n_channels)
    common_gains = srng.uniform(0.4, 0.8, size=sc.n_channels)
    return att_gain, dist_gain, att_taps, dist_taps, ar_coefs, common_gains


def _batch_shapes(sc: AadScenario, n_trials: int) -> tuple:
    """Shapes of a batch's two float64 buffers, laid out in that order in its
    mapping: envelope innovations (trial, [att, dist, common], time) after
    two zero samples, and channel drives (trial, channel, time)."""
    total = sc.n_samples + _SCENARIO_BURN
    return (n_trials, 3, 2 + total), (n_trials, sc.n_channels, total)


def _batch_arrays(sc: AadScenario, n_trials: int, mapping) -> tuple:
    """The envelope and drive buffers of a batch, as views of its mapping."""
    env_shape, drive_shape = _batch_shapes(sc, n_trials)
    env = np.ndarray(env_shape, buffer=mapping)
    return env, np.ndarray(drive_shape, buffer=mapping, offset=env.nbytes)


def _fill_batch(sc: AadScenario, params: dict, batch: list, mapping) -> None:
    """Draw, filter and assemble the trials ``batch`` ((subject, trial) keys)
    in place in their zero-filled mapping (:func:`_batch_shapes`).

    The filter runs through the envelope buffer's two leading zeros and
    leaves them +0.0, so the envelopes one and two samples late are views.
    Each series is contiguous for the per-trial work; the filters take a
    time-first view. The shared component is slow (same band as the
    envelopes) so channels are redundant even without stimulus coupling;
    the channel-specific noise is white so reconstruction residuals keep
    broadband content.
    """
    env_scale = _ar2_unit_variance_scale(_ENV_A1, _ENV_A2)
    total = sc.n_samples + _SCENARIO_BURN
    env, drive = _batch_arrays(sc, len(batch), mapping)
    # the observation noise goes straight into the drive buffer
    trial_scales = []
    for i, (s, tr) in enumerate(batch):
        trng = substream(sc.seed, _TRIAL_STREAM + s * _MAX_TRIALS + tr)
        trial_scales.append(trng.uniform(0.8, 1.2))
        for k in range(3):
            env[i, k, 2:] = env_scale * trng.standard_normal(total)
        drive[i] = (sc.observation_noise * trng.standard_normal((total, sc.n_channels))).T
    _ar_filter(np.moveaxis(env, -1, 0), (_ENV_A1, _ENV_A2))
    for i, ((s, _), trial_scale) in enumerate(zip(batch, trial_scales)):
        att_gain, dist_gain, att_taps, dist_taps, _, common_gains = params[s]
        (att_l1, dist_l1), (att_l2, dist_l2) = env[i, :2, 1:-1], env[i, :2, :-2]
        # one row per channel, with its taps as columns; the buffer holds
        # the observation noise, the last term of the drive, and adding
        # it in place rounds the same (a + b == b + a)
        drive[i] += (
            att_gain * trial_scale * (att_taps[:, :1] * att_l1 + att_taps[:, 1:] * att_l2)
            + dist_gain * trial_scale * (dist_taps[:, :1] * dist_l1 + dist_taps[:, 1:] * dist_l2)
            + common_gains[:, None] * env[i, 2, 2:]
        )
    ar_coefs = np.stack([params[s][4] for s, _ in batch])
    _ar_filter(np.moveaxis(drive, -1, 0), (ar_coefs,))


def _read_batch(sc: AadScenario, rate_hz: float, batch: list, mapping) -> list:
    """The :class:`TrialData` of a filled batch, copied out of its mapping.

    Where ``mmap`` has ``MADV_REMOVE``, each trial's copy is followed by
    freeing the whole pages of both buffers that lie below that trial's end,
    so the batch's shared pages are not held beside their copies. Only the
    page the two buffers share and the mapping's last partial page are left
    to :func:`_release`."""
    labels = _channel_labels(sc.n_channels)
    env, drive = _batch_arrays(sc, len(batch), mapping)
    page = mmap.PAGESIZE
    # each buffer's offset in the mapping and bytes per trial, and the first
    # byte not yet freed, from the buffer's first whole page
    layout = ((0, env[0].nbytes), (env.nbytes, drive[0].nbytes))
    freed = [-(-offset // page) * page for offset, _ in layout]
    trials = []
    for i, (s, tr) in enumerate(batch):
        attended, distractor = env[i, :2, 2 + _SCENARIO_BURN:]
        trials.append(
            TrialData(
                subject_id=f"s{s + 1:02d}",
                trial_id=f"t{tr + 1:03d}",
                attended=TimeSeries("attended_envelope", rate_hz, attended),
                distractor=TimeSeries("distractor_envelope", rate_hz, distractor),
                eeg=MultichannelRecording(labels, rate_hz, drive[i, :, _SCENARIO_BURN:]),
            )
        )
        if hasattr(mmap, "MADV_REMOVE"):
            for b, (offset, trial_bytes) in enumerate(layout):
                end = (offset + (i + 1) * trial_bytes) // page * page
                if end > freed[b]:
                    mapping.madvise(mmap.MADV_REMOVE, freed[b], end - freed[b])
                    freed[b] = end
    return trials


def _release(mapping) -> None:
    """Free a mapping's pages, in every process that maps it, and close it."""
    if not mapping.closed:
        if hasattr(mmap, "MADV_REMOVE"):
            mapping.madvise(mmap.MADV_REMOVE)
        mapping.close()


@contextmanager
def _shared_mappings(sizes):
    """Yields one zero-filled anonymous shared mapping of each size in bytes,
    which forked workers inherit; each is released on leaving, on error too.
    An in-process task's error holds its frames, whose arrays would keep a
    mapping from closing: their locals are cleared first."""
    mappings = []
    try:
        for size in sizes:
            mappings.append(mmap.mmap(-1, size))
        yield mappings
    except BaseException as exc:
        traceback.clear_frames(exc.__traceback__)
        raise
    finally:
        for mapping in mappings:
            _release(mapping)


def make_aad_scenario(sc: AadScenario, rate_hz: float = 64.0, subjects=None) -> list:
    """Generate the trials of a scenario, deterministically from its seed.

    Returns a list of :class:`TrialData` of the ``subjects`` (distinct
    0-based indices, in the order given) or of all subjects in order, each
    subject's trials in trial order; a subject's trials do not depend on
    which others are generated.
    Channel generation per trial: each channel is an AR(1) (coefficient
    drawn per channel) driven by lag-1/lag-2 taps of both envelopes, a
    shared common-noise channel mix, and white observation noise.

    Trials are generated in batches of up to ``_SCENARIO_BATCH``, whose
    series are filtered together, each batch one task of a
    :func:`~redflow.workers._pool`: with more than one batch and more than
    one usable CPU, forked workers fill the batches in anonymous shared
    mappings made before the fork, and the parent copies the trials out in
    batch order, freeing a batch's pages as it copies them. Every trial
    draws from its own substream, so neither the batching nor the worker
    count changes a sample.
    """
    chosen = list(range(sc.n_subjects) if subjects is None else subjects)
    if not set(chosen) <= set(range(sc.n_subjects)):
        raise ShapeMismatch(f"subjects must be in 0..{sc.n_subjects - 1}, got {chosen}")
    if len(set(chosen)) != len(chosen):
        raise ShapeMismatch(f"subjects must not repeat, got {chosen}")
    params = {s: _subject_parameters(sc, s) for s in chosen}
    keys = [(s, tr) for s in chosen for tr in range(sc.n_trials)]
    batches = [keys[start : start + _SCENARIO_BATCH] for start in range(0, len(keys), _SCENARIO_BATCH)]
    sizes = [8 * sum(math.prod(shape) for shape in _batch_shapes(sc, len(b))) for b in batches]
    trials = []
    with _shared_mappings(sizes) as mappings:
        tasks = [partial(_fill_batch, sc, params, b, m) for b, m in zip(batches, mappings)]
        with _pool(tasks) as results:
            for batch, mapping, result in zip(batches, mappings, results):
                result()
                trials += _read_batch(sc, rate_hz, batch, mapping)
                _release(mapping)
    return trials
