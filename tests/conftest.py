from dataclasses import dataclass

import numpy as np
import pytest
import yaml

from satqkd.config import default_source, to_dict
from satqkd.errors import DomainError
from satqkd.protocol import SENT, SecurityParams
from satqkd.receiver import DetectorModel
from satqkd.source import ExtinctionSet, intrinsic_qber

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


def degenerate(bounds):
    """Where DecoyBounds are degenerate: where they carry a reason."""
    return np.not_equal(bounds.reason, None)


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
