"""Test-only references for the receiver model and the Monte Carlo in satqkd.protocol.

measure_batch samples the receiver model of satqkd.receiver pulse by pulse:
every detector port, dark count and double click is drawn per pulse.

reference_block is the pulse-by-pulse Monte Carlo of satqkd 0.1.0. Every
pulse draws its class, sender basis, bit, emitted photons and channel
survivors, and measure_batch runs on all of them. It is slow (a few
Mpulse/s) but has no shortcuts, so the active-pulse sampler is checked
against it in distribution.

reference_pass is the Monte Carlo pass loop of satqkd before the whole pass
became one draw: one simulate_block call per segment, each with its own seed
spawned from the pass seed, and the segment tallies added one by one. It
walks the pass as PassProfile.walk does, step k from start_s + k * step_s.
elevation_at gives it a pass's elevation one time at a time.

enumerated_levels is measure_batch's per-pulse outcome law by exact
enumeration of photon numbers, port clicks and dark patterns, and
enumerated_cells the expected tally that law gives a block. Given the law of
exactly n arriving photons (photon_number_law), enumerated_levels gives the
outcome law of n photons, and n_photon_yield_and_error the n-photon yield
Y_n and error rate e_n that the decoy bounds estimate.
single_photon_yield_and_error is the truth the decoy bounds of a class's
tally must hold: Y1 and e1 of one photon sent, pooled over the sender's
bases as the tally pools them.

reference_loss and synthesized_elevations are the pass geometry of satqkd
in scalar math: ElevationLossModel's loss at one elevation, and the
closed-form elevation of a synthesized pass, one time at a time. The array
code of satqkd.channel must give exactly these numbers.
"""

import itertools
import math
from dataclasses import replace

import numpy as np

from satqkd.channel import (
    DIVERGENCE_HALF_ANGLE_RAD,
    EARTH_MU_M3_S2,
    EARTH_RADIUS_M,
    ElevationLossModel,
    PassProfile,
    _central_angle_from_elevation,
    transmittance_from_db,
)
from satqkd.errors import DomainError
from satqkd.protocol import E0, LABELS, TallyTable, simulate_block
from satqkd.receiver import N_DETECTORS, OUTCOME_LEVELS, DetectorModel
from satqkd.source import SourceConfig


def measure_batch(
    photons: np.ndarray,
    sent_basis_z: np.ndarray,
    sent_bits: np.ndarray,
    flip_prob: float,
    det: DetectorModel,
    rng: np.random.Generator,
) -> dict:
    """Pulse-by-pulse measurement of a batch of arriving pulses by satqkd.receiver's model.

    photons: number of photons reaching the receiver per pulse.
    sent_basis_z / sent_bits: sender's basis (True = rectilinear) and bit.
    flip_prob: same-basis bit-flip probability (source extinction plus any
        residual misalignment).

    Returns arrays: detected, basis_z (measured basis of the outcome),
    bit, sifted (detected in the sender's basis), error (sifted and wrong
    bit), signal_click (a real photon contributed), double (both detectors
    of the outcome basis clicked).
    """
    if not 0.0 <= flip_prob <= 0.5:
        raise DomainError(f"flip_prob must be in [0, 0.5], got {flip_prob}")
    photons = np.asarray(photons, dtype=np.int64)
    if photons.min(initial=0) < 0:
        raise DomainError("photon count must be >= 0")
    sent_basis_z = np.asarray(sent_basis_z, dtype=bool)
    sent_bits = np.asarray(sent_bits, dtype=np.int64)
    n = photons.size

    meas_z = rng.random(n) < det.basis_probability_z
    detected_photons = rng.binomial(photons, det.efficiency)

    same = meas_z == sent_basis_z
    # per-photon probability of projecting onto bit 1 in the measured basis
    p_one = np.where(same, np.where(sent_bits == 1, 1.0 - flip_prob, flip_prob), 0.5)
    ones = rng.binomial(detected_photons, p_one)
    sig_click1 = ones > 0
    sig_click0 = ones < detected_photons
    signal_click = detected_photons > 0
    del detected_photons, p_one, ones  # 8 bytes a pulse each; only the clicks are needed below

    darks = rng.random((N_DETECTORS, n)) < det.dark_prob  # rows Z0, Z1, X0, X1
    z0 = np.where(meas_z, sig_click0, False) | darks[0]
    z1 = np.where(meas_z, sig_click1, False) | darks[1]
    x0 = np.where(~meas_z, sig_click0, False) | darks[2]
    x1 = np.where(~meas_z, sig_click1, False) | darks[3]

    any_z = z0 | z1
    any_x = x0 | x1
    detected = any_z | any_x
    # the measured basis wins whenever it clicked; otherwise only darks in
    # the other basis fired and the outcome lands there
    meas_clicked = np.where(meas_z, any_z, any_x)
    basis_z = np.where(meas_clicked, meas_z, ~meas_z)

    c0 = np.where(basis_z, z0, x0)
    c1 = np.where(basis_z, z1, x1)
    double = c0 & c1
    bit = np.where(double, rng.integers(0, 2, size=n), c1)

    sifted = detected & (basis_z == sent_basis_z)
    error = sifted & (bit != sent_bits)
    return {
        "detected": detected,
        "basis_z": basis_z,
        "bit": bit,
        "sifted": sifted,
        "error": error,
        "signal_click": signal_click & detected,
        "double": double & detected,
    }


def elevation_at(profile: PassProfile, t: float):
    """The pass elevation at time t, from the profile's elevation function; None outside the pass window."""
    if not profile.start_s <= t <= profile.end_s:
        return None
    return float(profile.elevation(np.array([t]))[0])


def reference_loss(model: ElevationLossModel, elevation_deg: float) -> float:
    """The model's loss (dB) at one elevation: beam spreading at slant range plus the airmass term."""
    if elevation_deg <= 0:
        raise DomainError("elevation must be > 0 for the loss model")
    el = math.radians(elevation_deg)
    re = EARTH_RADIUS_M
    r = re + model.altitude_m
    slant_range = math.sqrt(r**2 - (re * math.cos(el)) ** 2) - re * math.sin(el)
    spot_diameter = 2.0 * slant_range * DIVERGENCE_HALF_ANGLE_RAD
    ratio = (model.receiver_diameter_m / spot_diameter) ** 2
    geometric = 0.0 if ratio >= 1.0 else -10.0 * math.log10(ratio)
    airmass = 1.0 / math.sin(math.radians(elevation_deg))
    return geometric + model.zenith_atmospheric_db * airmass


def elevation_from_central_angle(gamma: float, orbit_radius_m: float) -> float:
    """Elevation (deg) of a satellite at central angle gamma from the station."""
    re = EARTH_RADIUS_M
    r = orbit_radius_m
    if gamma <= 0:
        return 90.0
    el = math.atan2(math.cos(gamma) - re / r, math.sin(gamma))
    return math.degrees(el)


def synthesized_elevations(max_elevation_deg: float, orbit_altitude_m: float, times_s,
                           min_elevation_deg: float = 10.0) -> np.ndarray:
    """The elevations of synthesize_pass at times_s from its rise, one elevation_from_central_angle call per time.

    cos(gamma(t)) = cos(gamma_max) * cos(omega (t - t_c)), where the culmination t_c lies half the pass
    after the rise; numpy's arccos, since math.acos rounds differently.
    """
    r = EARTH_RADIUS_M + orbit_altitude_m
    omega = math.sqrt(EARTH_MU_M3_S2 / r**3)
    gamma_max = _central_angle_from_elevation(max_elevation_deg, r)
    gamma_min = _central_angle_from_elevation(min_elevation_deg, r)
    half_span = math.acos(min(1.0, math.cos(gamma_min) / math.cos(gamma_max))) / omega
    gammas = [float(np.arccos(math.cos(gamma_max) * math.cos(omega * (t - half_span)))) for t in times_s]
    return np.clip([elevation_from_central_angle(g, r) for g in gammas], 0.0, 90.0)


def reference_block(
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
    counts = np.zeros((len(LABELS), 2, 4))  # (class in LABELS order, basis Z/X, sent/detected/sifted/errors)
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
                counts[LABELS.index(cls.label), b] += [int(mask.sum()), int((out["detected"] & mask).sum()),
                                 int((out["sifted"] & mask).sum()), int((out["error"] & mask).sum())]
        done += m
    return TallyTable(counts, n_pulses, n_pulses / source.repetition_rate_hz)


def reference_pass(
    profile: PassProfile,
    source: SourceConfig,
    det: DetectorModel,
    e_det: float,
    seed: int,
    step_s: float = 1.0,
    excess_loss_db: float = 0.0,
) -> TallyTable:
    t0, t1 = profile.start_s, profile.end_s
    # the segments are added up here, in order, and make one tally at the end
    counts, total_pulses, elapsed_s = np.zeros((len(LABELS), 2, 4)), 0.0, 0.0
    seg_index, t = 0, t0  # step seg_index starts at t0 + seg_index * step_s
    while t < t1:
        dt = min(step_s, t1 - t)
        mid = t + dt / 2.0
        el = elevation_at(profile, mid)
        if el is not None and el >= profile.min_elevation_deg:
            loss = profile.loss_model(el) + excess_loss_db
            n = source.repetition_rate_hz * dt
            seg = simulate_block(
                source, loss, det, e_det, int(round(n)),
                seed=int(np.random.SeedSequence(entropy=seed, spawn_key=(seg_index,)).generate_state(1)[0]),
            )
            counts += seg.counts
            total_pulses += seg.total_pulses
            elapsed_s += seg.elapsed_s
        seg_index += 1
        t = t0 + seg_index * step_s
    return TallyTable(counts, total_pulses, elapsed_s)


N_MAX = 40  # arriving photons summed over; the Poisson tail past it is below 1e-40 at lambda 1.5
NS = np.arange(N_MAX)
COMB = np.array([[math.comb(n, m) for m in range(N_MAX)] for n in range(N_MAX)], dtype=float)


def binomial_pmf(p: float) -> np.ndarray:
    """(n, m) array of P(m successes of n trials); zero for m > n."""
    with np.errstate(all="ignore"):
        pmf = COMB * p ** NS[None, :] * (1.0 - p) ** (NS[:, None] - NS[None, :])
    return np.where(NS[None, :] <= NS[:, None], pmf, 0.0)


def poisson_pmf(lam: float) -> np.ndarray:
    """P(n) of n ~ Poisson(lam), for n < N_MAX."""
    return np.array([math.exp(-lam) * lam**n / math.factorial(n) for n in range(N_MAX)])


def photon_number_law(n: int) -> np.ndarray:
    """The law of exactly n arriving photons, as signal_clicks takes a photon-number law."""
    return np.eye(N_MAX)[n]


def signal_clicks(photons, eta_det: float, p_wrong: float) -> dict:
    """P(photon click on the sent bit's port, photon click on the other port) of the measured basis.

    photons is the arriving photon number's Poisson mean, or its law: an
    array whose entry n is P(n photons arrive), n < N_MAX. Of the n photons
    that arrive, m ~ Binomial(n, eta_det) are detected and
    k ~ Binomial(m, p_wrong) of them project onto the other port. p_wrong is
    taken as it is, not as 1 minus a probability, so a flip probability far
    below an ulp of 1 keeps its own digits.
    """
    law = poisson_pmf(photons) if np.ndim(photons) == 0 else np.asarray(photons, dtype=float)
    joint = law[:, None, None] * binomial_pmf(eta_det)[:, :, None] * binomial_pmf(p_wrong)[None, :, :]
    m, k = np.meshgrid(NS, NS, indexing="ij")
    joint = joint.sum(axis=0)  # (m, k)
    return {(right, wrong): float(joint[((k < m) == right) & ((k > 0) == wrong)].sum())
            for right, wrong in itertools.product((False, True), repeat=2)}


def enumerated_levels(photons, eta_det, flip, p_d, p_z, sender_z) -> np.ndarray:
    """P(each outcome level) summed over both sent bits, both receiver bases,
    the photon-click pairs and the 16 dark patterns, by measure_batch's rules.

    photons is the arriving photon number's Poisson mean or its law, as
    signal_clicks takes it.
    """
    levels = np.zeros(len(OUTCOME_LEVELS))
    for sent_bit, meas_z in itertools.product((0, 1), (True, False)):
        same = meas_z == sender_z
        weight = 0.5 * (p_z if meas_z else 1.0 - p_z)
        for (right, wrong), p_sig in signal_clicks(photons, eta_det, flip if same else 0.5).items():
            s0, s1 = (wrong, right) if sent_bit else (right, wrong)  # the clicks on ports 0 and 1
            for darks in itertools.product((False, True), repeat=4):  # Z0, Z1, X0, X1
                p = weight * p_sig * math.prod(p_d if d else 1.0 - p_d for d in darks)
                z0, z1 = (meas_z and s0) or darks[0], (meas_z and s1) or darks[1]
                x0, x1 = (not meas_z and s0) or darks[2], (not meas_z and s1) or darks[3]
                if not (z0 or z1 or x0 or x1):
                    levels[0] += p
                    continue
                basis_z = meas_z if (z0 or z1 if meas_z else x0 or x1) else not meas_z
                c0, c1 = (z0, z1) if basis_z else (x0, x1)
                if basis_z != sender_z:
                    levels[1] += p
                elif c0 and c1:  # a double click: a random bit
                    levels[2] += p / 2.0
                    levels[3] += p / 2.0
                else:
                    levels[2 if int(c1) == sent_bit else 3] += p
    return levels


def yield_and_error(levels) -> tuple:
    """(yield, error rate) of outcome levels: the probability of a detection, and errors per sifted
    detection, as the tallies count them; with nothing sifted the error rate is E0, a random bit."""
    _, detected_only, right, wrong = levels
    sifted = right + wrong
    return detected_only + sifted, wrong / sifted if sifted > 0 else E0


def n_photon_yield_and_error(n: int, eta_det, flip, p_d, p_z, sender_z) -> tuple:
    """(Y_n, e_n) of the receiver model when exactly n photons arrive."""
    return yield_and_error(enumerated_levels(photon_number_law(n), eta_det, flip, p_d, p_z, sender_z))


def single_photon_yield_and_error(eta_channel, eta_det, flip, p_d, p_z, sender_p_z) -> tuple:
    """(Y1, e1) of one photon sent down a channel of transmittance eta_channel, pooled over the sender's bases.

    The photon arrives with probability eta_channel, so the law of arriving
    photons is [1 - eta_channel, eta_channel]. Each sender basis weighs its
    levels by its probability sender_p_z or 1 - sender_p_z, as a class's
    tally adds the counts of its two sender-basis cells.
    """
    law = np.zeros(N_MAX)
    law[:2] = 1.0 - eta_channel, eta_channel
    return yield_and_error(sum(p * enumerated_levels(law, eta_det, flip, p_d, p_z, sender_z)
                               for sender_z, p in ((True, sender_p_z), (False, 1.0 - sender_p_z))))


def enumerated_cells(source: SourceConfig, total_loss_db: float, det: DetectorModel, e_det: float,
                     n_pulses: float, background_click_prob: float = 0.0) -> np.ndarray:
    """Expected (class in LABELS order, basis, sent/detected/sifted/errors) counts of a block: n_pulses times each
    cell's probability times its enumerated outcome levels, a level counting toward every count up to it."""
    eta_channel = transmittance_from_db(total_loss_db + source.insertion_loss_db)
    p_d = det.dark_prob + background_click_prob
    cells = np.zeros((len(LABELS), 2, 4))
    for k, cls in enumerate(map(source.intensity, LABELS)):
        for b, (sender_z, p_basis) in enumerate(((True, source.basis_probability_z),
                                                 (False, 1.0 - source.basis_probability_z))):
            levels = enumerated_levels(cls.mu * eta_channel, det.efficiency, e_det, p_d,
                                       det.basis_probability_z, sender_z)
            cells[k, b] = n_pulses * cls.emit_probability * p_basis * np.cumsum(levels[::-1])[::-1]
    return cells
