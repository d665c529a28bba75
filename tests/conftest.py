import math
from dataclasses import dataclass, replace

import numpy as np
import pytest
import yaml

from satqkd.config import default_run_config, default_source, to_dict
from satqkd.errors import DomainError
from satqkd.protocol import E0, LABELS, SENT, SecurityParams, TallyTable, empty_pass_reason, key_tallies, pass_tally
from satqkd.receiver import N_DETECTORS, DetectorModel
from satqkd.source import ExtinctionSet, IntensityLabel, intrinsic_qber

from reference_sampler import single_photon_yield_and_error

# extinction ratios measured on the 785 nm module (H, V, D, A)
MEASURED_EXTINCTION = ExtinctionSet(er_h=0.61e-3, er_v=0.35e-3, er_d=1.3e-2, er_a=1.8e-2)


@dataclass(frozen=True)
class FixedLossModel:
    """A pass loss model that gives the same loss at every elevation."""

    loss_db: float = 40.0

    def __call__(self, elevation_deg):
        return np.full(np.shape(elevation_deg), self.loss_db)


def by_class(tally) -> np.ndarray:
    """(class, count) array of a TallyTable: its counts summed over the sender basis."""
    return tally.counts.sum(axis=1)


def validate_tally(tally):
    """Raise DomainError unless every cell has errors <= sifted <= detected <= sent and the sent counts
    sum to the tally's total pulses."""
    if not (np.diff(tally.counts, axis=-1) <= 0).all():
        raise DomainError("inconsistent tally: every cell needs errors <= sifted <= detected <= sent")
    sent = tally.counts[..., SENT].sum()
    if abs(sent - tally.total_pulses) > 1e-6 * max(1.0, tally.total_pulses):
        raise DomainError("per-cell sent counts do not sum to total pulses")


def poisson_rates(mu, eta, y0, ed):
    """Independent closed-form oracle for WCP gains and errors."""
    q = 1 - (1 - y0) * math.exp(-eta * mu)
    eq = E0 * y0 + ed * (1 - math.exp(-eta * mu))
    return q, eq / q if q > 0 else E0


def single_photon_truth(eta, y0, ed):
    """(Y1, e1) of the receiver's exact law: one photon sent down a channel of transmittance eta to detectors of
    efficiency 1 and flip ed, the four of which together make a noise click with probability y0; both bases 1/2."""
    p_d = -math.expm1(math.log1p(-y0) / N_DETECTORS)  # each detector's, so that 1 - (1 - p_d)^4 = y0
    return single_photon_yield_and_error(eta, 1.0, ed, p_d, 0.5, 0.5)


def rate_tally(gains, error_rates, n_total, sift_p=0.5, rep=1e8) -> TallyTable:
    """One-point tally in which each class of the default source, in LABELS order, sends its share of n_total
    pulses, half per basis, detects gains[k] of them, sifts sift_p of those and errs on error_rates[k] of these."""
    source = default_source()
    sent = np.array([n_total * source.intensity(label).emit_probability for label in LABELS]) / 2.0
    detected = sent * np.asarray(gains, dtype=float)
    sifted = detected * sift_p
    cells = np.stack([sent, detected, sifted, sifted * np.asarray(error_rates, dtype=float)], axis=-1)
    return TallyTable(np.stack([cells, cells], axis=1), float(n_total), n_total / rep)


def closed_form_tally(eta, y0, ed, n_total) -> TallyTable:
    """rate_tally at each class's closed-form WCP gain and error rate: a 0.3 signal, a 0.5 decoy and the vacuum."""
    gains, error_rates = zip(*(poisson_rates(default_source().intensity(label).mu, eta, y0, ed) for label in LABELS))
    return rate_tally(gains, error_rates, n_total)


def pass_key(losses_db, durations_s, source, det, e_det, sec, regime="finite", mode="analytic", seed=None):
    """(key, tally) of one source's pass, keyed as `satqkd pass` keys each source: its pass_tally, then key_tallies."""
    tally = pass_tally(losses_db, durations_s, source, det, e_det, mode, seed)
    return key_tallies([source], [tally], sec, regime, empty_pass_reason(losses_db)).point(0), tally


def degenerate(bounds):
    """Where DecoyBounds are degenerate: where they carry a reason."""
    return np.not_equal(bounds.reason, None)


def source_with_mus(mu_signal, mu_decoy):
    """The default source with the given signal and decoy intensities."""
    base = default_source()
    mus = {IntensityLabel.SIGNAL: mu_signal, IntensityLabel.DECOY: mu_decoy, IntensityLabel.VACUUM: 0.0}
    return replace(base, intensity_classes=tuple(replace(c, mu=mus[c.label]) for c in base.intensity_classes))


def two_source_run_config(block_pulses: int):
    """The default two sources, the second unlike the first in every figure a key reads.

    The second sends at half the repetition rate, with other intensities, its classes in reverse order,
    a 1.5 dB insertion loss and other extinction ratios, so another e_det.
    """
    cfg = default_run_config()
    second = cfg.sources[1]
    mus = {IntensityLabel.SIGNAL: 0.4, IntensityLabel.DECOY: 0.15, IntensityLabel.VACUUM: 0.0}
    classes = tuple(replace(c, mu=mus[c.label]) for c in reversed(second.intensity_classes))
    second = replace(second, repetition_rate_hz=50e6, intensity_classes=classes, insertion_loss_db=1.5,
                     extinction=ExtinctionSet(er_h=2.0e-3, er_v=1.1e-3, er_d=2.4e-2, er_a=3.0e-2))
    return replace(cfg, sources=(cfg.sources[0], second), block_pulses=block_pulses)


def save_run_config(cfg, path):
    """Write a RunConfig as the YAML that load_run_config reads back."""
    with open(path, "w") as fh:
        yaml.safe_dump(to_dict(cfg), fh, sort_keys=False)


@pytest.fixture
def source():
    return default_source()


@pytest.fixture
def detector():
    return DetectorModel()


@pytest.fixture
def security():
    return SecurityParams()


@pytest.fixture
def e_det():
    return intrinsic_qber(MEASURED_EXTINCTION)
