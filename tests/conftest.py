from dataclasses import dataclass

import numpy as np
import pytest
import yaml

from satqkd.config import default_source, to_dict
from satqkd.protocol import SecurityParams
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
