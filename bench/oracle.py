"""Independent expectations for checking satqkd reports.

Everything here is written from the closed-form decoy-state BB84 model and
the run configuration the benchmark generated, not from satqkd's own
functions, so the checks keep working when the program's internals change
and do not depend on the exact random draws of its Monte Carlo.
"""

from __future__ import annotations

import math

N_DETECTORS = 4
E0 = 0.5  # error rate of dark clicks


def binary_entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def e_det(cfg: dict, src: dict) -> float:
    """Same-basis flip probability: the configured misalignment or the extinction leak."""
    if cfg.get("e_misalignment") is not None:
        return cfg["e_misalignment"]
    ers = [src["extinction"][k] for k in ("er_h", "er_v", "er_d", "er_a")]
    return sum(er / (1.0 + er) for er in ers) / 4.0


def expected_cells(cfg: dict, src: dict, loss_db: float, n_pulses: float) -> dict:
    """Expected {"label/basis": {sent, detected, sifted, errors}} of one fixed-loss block."""
    det = cfg.get("detector", {})
    channel = cfg.get("channel", {})
    eta = 10.0 ** (-(loss_db + src.get("insertion_loss_db", 0.0)) / 10.0) * det.get("efficiency", 0.5)
    p_click = det.get("dark_prob", 1e-7) + channel.get("background_click_prob", 0.0)
    y0 = 1.0 - (1.0 - p_click) ** N_DETECTORS
    pz_s, pz_r = src["basis_probability_z"], det.get("basis_probability_z", 0.5)
    sift = pz_s * pz_r + (1.0 - pz_s) * (1.0 - pz_r)
    flip = e_det(cfg, src)
    cells = {}
    for cls in src["intensity_classes"]:
        gain = 1.0 - (1.0 - y0) * math.exp(-eta * cls["mu"])
        error_gain = E0 * y0 + flip * (1.0 - math.exp(-eta * cls["mu"]))
        for basis, p_basis in (("Z", pz_s), ("X", 1.0 - pz_s)):
            sent = n_pulses * cls["emit_probability"] * p_basis
            sifted = sent * gain * sift
            cells[f"{cls['label']}/{basis}"] = {
                "sent": sent,
                "detected": sent * gain,
                "sifted": sifted,
                "errors": sifted * error_gain / gain,
            }
    return cells


def by_class(cells: dict) -> dict:
    out = {}
    for name, cell in cells.items():
        acc = out.setdefault(name.split("/")[0], dict.fromkeys(cell, 0.0))
        for k, v in cell.items():
            acc[k] += v
    return out


def asymptotic_key(cfg: dict, src: dict, tally: dict) -> float:
    """GLLP key length with 2-decoy bounds, from a reported tally (0 where no key exists)."""
    classes = by_class(tally["cells"])
    mus = {c["label"]: c["mu"] for c in src["intensity_classes"]}
    rate = {}
    for label, c in classes.items():
        q = c["detected"] / c["sent"]
        rate[label] = (q, c["errors"] / c["sifted"] if c["sifted"] > 0 else E0)
    sig = classes["signal"]
    if sig["sifted"] < 1 or sig["detected"] <= 0:
        return 0.0
    (mu_lo, (q_lo, e_lo)), (mu_hi, (q_hi, _)) = sorted(
        (mus[label], rate[label]) for label in ("signal", "decoy")
    )
    y0 = rate["vacuum"][0] if "vacuum" in rate else 0.0
    y1 = (mu_hi / (mu_hi * mu_lo - mu_lo**2)) * (
        q_lo * math.exp(mu_lo)
        - q_hi * math.exp(mu_hi) * (mu_lo**2 / mu_hi**2)
        - ((mu_hi**2 - mu_lo**2) / mu_hi**2) * y0
    )
    y1 = min(y1, 1.0)
    if y1 <= 0.0:
        return 0.0
    e1 = min(max((e_lo * q_lo * math.exp(mu_lo) - E0 * y0) / (y1 * mu_lo), 0.0), 1.0)
    if e1 >= 0.5:
        return 0.0
    n = sig["sifted"]
    mu = mus["signal"]
    s1 = n * mu * math.exp(-mu) * y1 / (sig["detected"] / sig["sent"])
    f_ec = cfg.get("security", {}).get("f_ec", 1.16)
    return max(s1 * (1.0 - binary_entropy(e1)) - f_ec * n * binary_entropy(sig["errors"] / n), 0.0)


class PooledCounts:
    """Observed and expected tally counts summed over a run, for 5-sigma windows.

    Every count is binomial with a small success probability, so its
    variance is at most its expectation; the window uses the expectation.
    """

    MIN_EXPECTED = 100.0

    def __init__(self):
        self.observed = {}
        self.expected = {}

    def add(self, observed_cells: dict, expected_cells: dict):
        for name, cell in expected_cells.items():
            for k, v in cell.items():
                key = f"{name}.{k}"
                self.expected[key] = self.expected.get(key, 0.0) + v
                self.observed[key] = self.observed.get(key, 0.0) + observed_cells[name][k]

    def problems(self) -> list:
        out = []
        for key, exp in sorted(self.expected.items()):
            if exp < self.MIN_EXPECTED:
                continue
            obs = self.observed[key]
            if abs(obs - exp) > 5.0 * math.sqrt(exp):
                out.append(f"pooled {key}: observed {obs:g}, expected {exp:.1f} (> 5 sigma)")
        return out
