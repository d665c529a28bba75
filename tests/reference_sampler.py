"""Test-only reference: the pulse-by-pulse Monte Carlo of satqkd 0.1.0.

Every pulse draws its class, sender basis, bit, emitted photons and channel
survivors, and measure_batch runs on all of them. It is slow (a few Mpulse/s)
but has no shortcuts, so the active-pulse sampler in satqkd.protocol is
checked against it in distribution.
"""

from dataclasses import replace

import numpy as np

from satqkd.channel import transmittance_from_db
from satqkd.protocol import TallyTable
from satqkd.receiver import DetectorModel, measure_batch
from satqkd.source import Basis, SourceConfig


def reference_shard(
    source: SourceConfig,
    total_loss_db: float,
    det: DetectorModel,
    e_det: float,
    n_pulses: int,
    seed_seq: np.random.SeedSequence,
    background_click_prob: float,
    chunk: int = 2_000_000,
) -> TallyTable:
    rng = np.random.default_rng(seed_seq)
    eta_channel = transmittance_from_db(total_loss_db + source.insertion_loss_db)
    classes = list(source.intensity_classes)
    probs = np.array([c.emit_probability for c in classes])
    mus = np.array([c.mu for c in classes])
    det_eff = det if background_click_prob == 0.0 else replace(
        det, dark_prob=det.dark_prob + background_click_prob
    )
    tally = TallyTable(total_pulses=n_pulses, elapsed_s=n_pulses / source.repetition_rate_hz)
    done = 0
    while done < n_pulses:
        m = min(chunk, n_pulses - done)
        cls_idx = rng.choice(len(classes), size=m, p=probs)
        basis_z = rng.random(m) < source.basis_probability_z
        bits = rng.integers(0, 2, size=m)
        photons = rng.poisson(mus[cls_idx])
        arriving = rng.binomial(photons, eta_channel)
        out = measure_batch(arriving, basis_z, bits, e_det, det_eff, rng)
        for i, cls in enumerate(classes):
            for basis, mask_b in ((Basis.RECTILINEAR, basis_z), (Basis.DIAGONAL, ~basis_z)):
                mask = (cls_idx == i) & mask_b
                cell = tally.cell(cls.label, basis)
                cell.sent += int(mask.sum())
                cell.detected += int((out["detected"] & mask).sum())
                cell.sifted += int((out["sifted"] & mask).sum())
                cell.errors += int((out["error"] & mask).sum())
        done += m
    return tally
