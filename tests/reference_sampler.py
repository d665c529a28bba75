"""Test-only references for the Monte Carlo in satqkd.protocol.

reference_shard is the pulse-by-pulse Monte Carlo of satqkd 0.1.0. Every
pulse draws its class, sender basis, bit, emitted photons and channel
survivors, and measure_batch runs on all of them. It is slow (a few
Mpulse/s) but has no shortcuts, so the active-pulse sampler is checked
against it in distribution.

reference_pass is the Monte Carlo pass loop of satqkd before the whole pass
became one draw: one simulate_block call per segment, each with its own seed
spawned from the pass seed, and the segment tallies added one by one.
"""

from dataclasses import replace

import numpy as np

from satqkd.channel import PassProfile, transmittance_from_db
from satqkd.protocol import TallyTable, simulate_block
from satqkd.receiver import DetectorModel, measure_batch
from satqkd.source import SourceConfig


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
    counts = np.zeros((len(classes), 2, 4))  # (class, basis Z/X, sent/detected/sifted/errors)
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
            for b, mask_b in enumerate((basis_z, ~basis_z)):
                mask = (cls_idx == i) & mask_b
                counts[i, b] += [int(mask.sum()), int((out["detected"] & mask).sum()),
                                 int((out["sifted"] & mask).sum()), int((out["error"] & mask).sum())]
        done += m
    labels = tuple(c.label for c in classes)
    return TallyTable(labels, counts, n_pulses, n_pulses / source.repetition_rate_hz)


def reference_pass(
    profile: PassProfile,
    source: SourceConfig,
    det: DetectorModel,
    e_det: float,
    seed: int,
    step_s: float = 1.0,
    excess_loss_db: float = 0.0,
    background_click_prob: float = 0.0,
) -> TallyTable:
    t0, t1 = (profile.times_s[0], profile.times_s[-1]) if len(profile.times_s) else (0.0, 0.0)
    pooled = TallyTable.zeros(source)
    seg_index = 0
    t = t0
    while t < t1:
        dt = min(step_s, t1 - t)
        mid = t + dt / 2.0
        el = profile.elevation_at(mid)
        if el is not None and el >= profile.min_elevation_deg:
            loss = profile.loss_model(el) + excess_loss_db
            n = source.repetition_rate_hz * dt
            seg = simulate_block(
                source, loss, det, e_det, int(round(n)),
                seed=int(np.random.SeedSequence(entropy=seed, spawn_key=(seg_index,)).generate_state(1)[0]),
                background_click_prob=background_click_prob,
            )
            pooled.counts += seg.counts
            pooled.total_pulses += seg.total_pulses
            pooled.elapsed_s += seg.elapsed_s
        t += dt
        seg_index += 1
    return pooled
