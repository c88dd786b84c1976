"""Empirical moduli of continuity and dyadic spectral analysis.

Given a function sampled on a uniform grid over [0, 1], this module
measures

1. first/second difference seminorms against the weights h and
   h*log(1+1/h), in both pointwise (sup) and integral (L^1) form;
2. total variation together with its trend under grid refinement;
3. dyadic (Littlewood-Paley style) block norms against a fixed smooth
   radial partition of unity, with Besov-type seminorm estimates;
4. a regularity class label fitted from the above.

Conventions
-----------
Samples are values f(i/n), i = 0..n (inclusive endpoints, n+1 values),
unless a routine states otherwise.  ``dyadic_blocks`` consumes exactly
2^K values representing one period (drop the right endpoint).

The radial partition is frozen for reproducibility: chi(t) = 1 for
|t| <= 3/4, chi(t) = 0 for |t| >= 1, joined by the exponential
smoothstep e^{-1/s} / (e^{-1/s} + e^{-1/(1-s)}); phi(t) = chi(t/2) - chi(t).
With this choice every dyadic block of a pure integer-frequency tone
at bin 2^k lands entirely in block k, and block j of any input is
band-limited to bins in [2^{j-1}, 2^{j+1}] exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .coeff import _smoothstep

__all__ = [
    "SeminormEntry",
    "TVEstimate",
    "DyadicSpectrum",
    "ModulusReport",
    "Classification",
    "default_h_grid",
    "difference_seminorms",
    "total_variation",
    "dyadic_blocks",
    "classify_modulus",
    "modulus_report",
]


def _log_weight(h: np.ndarray) -> np.ndarray:
    return np.log1p(1.0 / h)


# --------------------------------------------------------------------------
# difference seminorms
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SeminormEntry:
    """One measured modulus curve: numerator N(h) and ratio N(h)/weight(h).

    ``value`` is the seminorm estimate sup_h ratio.  ``name`` identifies
    the weight convention: 'Lip'/'Z' divide by h, 'LL'/'LZ' divide by
    h*log(1+1/h), 'custom' divides by a caller-supplied weight.
    """

    name: str
    order: str                 # 'first' | 'second'
    norm: str                  # 'pointwise' | 'integral'
    h: tuple
    numerators: tuple
    ratios: tuple
    value: float


def default_h_grid(n_samples: int) -> np.ndarray:
    """Dyadic offsets h = 2^-k, k = 2 .. log2(n_samples-1) - 2."""
    k_max = int(math.log2(n_samples - 1)) - 2
    if k_max < 2:
        raise ValueError("sample too short for a dyadic h grid")
    return 2.0 ** -np.arange(2, k_max + 1)


def difference_seminorms(
    samples: np.ndarray,
    order: str = "first",
    norm: str = "pointwise",
    h_grid: Optional[Sequence[float]] = None,
    weight: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> Mapping[str, SeminormEntry]:
    """Measure difference-quotient moduli over a grid of offsets.

    For ``order='first'`` the numerator is |f(x+h) - f(x)|, reported
    against the weights h (entry ``Lip``) and h log(1+1/h) (entry
    ``LL``).  For ``order='second'`` the numerator is
    |f(x+h) + f(x-h) - 2 f(x)|, reported against h (entry ``Z``) and
    h log(1+1/h) (entry ``LZ``).

    ``norm='pointwise'`` takes the supremum over x (second differences
    use even reflection at the endpoints); ``norm='integral'`` takes the
    trapezoid L^1 norm over [0, 1-h] (first) or [h, 1-h] (second), with
    entry names suffixed ``_int``.

    Offsets must be multiples of the sample spacing and at least twice
    the spacing (alias risk below that).  ``weight`` adds one extra
    entry named ``custom`` measured against the given weight function.
    """
    if order not in ("first", "second"):
        raise ValueError(f"unknown order {order!r}")
    if norm not in ("pointwise", "integral"):
        raise ValueError(f"unknown norm {norm!r}")
    s = np.asarray(samples, dtype=float)
    if s.ndim != 1 or len(s) < 9:
        raise ValueError("need a 1-D sample with at least 9 points")
    n = len(s) - 1
    dx = 1.0 / n
    if h_grid is None:
        h_grid = default_h_grid(len(s))
    h_arr = np.sort(np.asarray(h_grid, dtype=float))[::-1]
    if np.any(h_arr < 2 * dx - 1e-12):
        raise ValueError("offset below twice the sample spacing")
    steps = h_arr * n
    if np.any(np.abs(steps - np.round(steps)) > 1e-9):
        raise ValueError("offsets must be multiples of the sample spacing")
    steps = np.round(steps).astype(int)

    numer = np.empty(len(steps))
    for i, k in enumerate(steps):
        if order == "first":
            d = np.abs(s[k:] - s[:-k])
        else:
            # x restricted to [h, 1-h]: both shifts stay on the grid, and
            # affine inputs yield an identically zero numerator
            d = np.abs(s[2 * k:] + s[:-2 * k] - 2 * s[k:-k])
        if norm == "pointwise":
            numer[i] = d.max()
        else:
            numer[i] = float(np.trapezoid(d, dx=dx))
    names = ("Lip", "LL") if order == "first" else ("Z", "LZ")

    suffix = "_int" if norm == "integral" else ""
    weights = {names[0]: h_arr, names[1]: h_arr * _log_weight(h_arr)}
    if weight is not None:
        weights["custom"] = np.asarray(weight(h_arr), dtype=float)
    out = {}
    for name, w in weights.items():
        ratios = numer / w
        out[name + suffix if name != "custom" else name] = SeminormEntry(
            name=name, order=order, norm=norm,
            h=tuple(h_arr), numerators=tuple(numer),
            ratios=tuple(ratios), value=float(ratios.max()))
    return out


# --------------------------------------------------------------------------
# total variation
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TVEstimate:
    """Total variation at the finest grid plus its refinement trend.

    ``per_level`` lists the TV of the subsampled function at strides
    2^(levels-1), ..., 2, 1 (coarse to fine).  ``bounded`` is False when
    the trend indicates divergence: either the sum grows by >= 1.5x per
    refinement over four levels, or the per-level increments fail to
    decay (a linear-in-levels trend, as for lacunary series).
    """

    value: float
    per_level: tuple
    ratios: tuple
    bounded: bool


def total_variation(samples: np.ndarray, levels: int = 6) -> TVEstimate:
    """Sum of |f(x_{i+1}) - f(x_i)| with a 2x-refinement trend."""
    s = np.asarray(samples, dtype=float)
    if s.ndim != 1 or len(s) < 2 ** levels + 1:
        raise ValueError("sample too short for the requested trend levels")
    per_level = []
    for lev in range(levels - 1, -1, -1):
        sub = s[:: 2 ** lev]
        per_level.append(float(np.sum(np.abs(np.diff(sub)))))
    ratios = tuple(b / a if a > 0 else math.inf
                   for a, b in zip(per_level, per_level[1:]))
    geometric = (len(ratios) >= 4
                 and all(r >= 1.5 for r in ratios[-4:]))
    increments = [b - a for a, b in zip(per_level, per_level[1:])]
    tv = per_level[-1]
    linear = (len(increments) >= 4 and tv > 0
              and all(inc >= 0.02 * tv for inc in increments[-4:]))
    return TVEstimate(value=tv, per_level=tuple(per_level),
                      ratios=ratios, bounded=not (geometric or linear))


# --------------------------------------------------------------------------
# dyadic blocks
# --------------------------------------------------------------------------

def _chi(t: np.ndarray) -> np.ndarray:
    """Radial cutoff: 1 on [0, 3/4], 0 from 1 on, smooth in between."""
    t = np.abs(np.asarray(t, dtype=float))
    return _smoothstep((1.0 - t) / 0.25)


@dataclass(frozen=True)
class DyadicSpectrum:
    """Block norms of the dyadic decomposition and Besov-type sups.

    ``block_norms[p]`` maps j (>= -1) to ||Delta_j f||_p for
    p in {1, 2, inf}; j = -1 is the low-frequency block.  ``b1_inf``
    maps p to sup_j 2^j ||Delta_j f||_p and ``b1_log`` is
    sup_{j>=0} 2^j (j+1)^{-1} ||Delta_j f||_inf (the low block enters
    the sups with weight 2^{-1} and is excluded from the log variant).
    """

    j_values: tuple
    block_norms: Mapping[str, Mapping[int, float]]
    b1_inf: Mapping[str, float]
    b1_log: float
    length: int
    blocks: tuple = field(repr=False)

    def reconstruction_error(self, samples: np.ndarray) -> float:
        """sup |f - sum_j Delta_j f|; zero (round-off) once the trailing
        block multiplier chi(2^-(j_max+1) xi) covers the occupied bins."""
        total = np.sum(np.asarray(self.blocks), axis=0)
        return float(np.max(np.abs(np.asarray(samples, dtype=float) - total)))


def dyadic_blocks(samples: np.ndarray, j_max: Optional[int] = None,
                  extension: str = "periodic") -> DyadicSpectrum:
    """Dyadic frequency decomposition of one period of f.

    ``samples`` must hold 2^K values (f at i/2^K, i < 2^K, right
    endpoint dropped).  ``extension='even'`` reflects the sample before
    transforming, for inputs that are not 1-periodic.  Block j carries
    the multiplier phi(bin / 2^j), phi(t) = chi(t/2) - chi(t); block -1
    carries chi(bin).  ``j_max`` defaults to K - 2 and may not exceed it.
    """
    s = np.asarray(samples, dtype=float)
    if s.ndim != 1:
        raise ValueError("need a 1-D sample")
    n = len(s)
    if n < 8 or n & (n - 1):
        raise ValueError("sample length must be a power of two (>= 8)")
    if extension == "even":
        s = np.concatenate([s, s[::-1]])
        n = 2 * n
    elif extension != "periodic":
        raise ValueError(f"unknown extension {extension!r}")
    k_top = int(math.log2(n))
    cap = k_top - 2
    if j_max is None:
        j_max = cap
    if not (0 <= j_max <= cap):
        raise ValueError(f"j_max must lie in [0, {cap}]")

    spec = np.fft.rfft(s)
    bins = np.arange(len(spec), dtype=float)
    js, blocks = [], []
    for j in range(-1, j_max + 1):
        mult = _chi(bins) if j == -1 else (
            _chi(bins / 2 ** (j + 1)) - _chi(bins / 2 ** j))
        block = np.fft.irfft(spec * mult, n=n)
        if extension == "even":
            block = block[: n // 2]
        js.append(j)
        blocks.append(block)

    m = len(blocks[0])
    norms = {"1": {}, "2": {}, "inf": {}}
    for j, b in zip(js, blocks):
        norms["1"][j] = float(np.mean(np.abs(b)))
        norms["2"][j] = float(math.sqrt(np.mean(b * b)))
        norms["inf"][j] = float(np.max(np.abs(b)))
    b1_inf = {p: max(2.0 ** j * v[j] for j in js) for p, v in norms.items()}
    b1_log = max((2.0 ** j / (j + 1) * norms["inf"][j]
                  for j in js if j >= 0), default=0.0)
    return DyadicSpectrum(
        j_values=tuple(js), block_norms=norms, b1_inf=b1_inf,
        b1_log=b1_log, length=m, blocks=tuple(blocks))


# --------------------------------------------------------------------------
# classification
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Classification:
    """Regularity label with the per-class fit residuals that chose it.

    ``label`` is one of Lipschitz/BV, Zygmund, log-Lipschitz,
    log-Zygmund, Hoelder(beta), below-log-Lipschitz, inconclusive.
    ``scores`` holds an RMS log-misfit per candidate class (smaller
    fits better); ``beta`` is the fitted exponent for the Hoelder
    candidate.
    """

    label: str
    beta: Optional[float]
    scores: Mapping[str, float]


@dataclass(frozen=True)
class ModulusReport:
    """All measured seminorm entries, the TV estimate, and the label."""

    entries: Mapping[str, SeminormEntry]
    tv: TVEstimate
    classification: Classification

    @property
    def label(self) -> str:
        return self.classification.label


def _flatness(values: np.ndarray) -> float:
    v = np.asarray(values, dtype=float)
    if np.any(v <= 0):
        return 0.0 if np.allclose(v, 0) else math.inf
    lg = np.log(v)
    return float(np.std(lg))


_ACCEPT_TOL = 0.20


def classify_modulus(entries: Mapping[str, SeminormEntry],
                     spectrum: Optional[DyadicSpectrum],
                     tv: Optional[TVEstimate] = None) -> Classification:
    """Fit the measured moduli to the regularity class ladder.

    Candidates, strongest first: Lipschitz/BV, Zygmund, log-Lipschitz,
    log-Zygmund, Hoelder(beta), below-log-Lipschitz.  Each candidate
    gets an RMS misfit score in log space; the strongest whose score
    passes the acceptance threshold wins (the ladder is totally ordered
    by embedding, so ties between accepted candidates resolve to the
    stronger class).  When no candidate is accepted and the two best
    scores agree within 10 %, the verdict is ``inconclusive``.

    ``entries`` maps names to :func:`difference_seminorms` entries
    (pointwise Lip/LL/Z/LZ required), as a ModulusReport's ``entries``
    do.  The spectrum, when given, strengthens the Zygmund test: flat
    2^j ||Delta_j||_inf is accepted as Zygmund evidence.
    """
    need = ("Lip", "LL", "Z", "LZ")
    if any(k not in entries for k in need):
        raise ValueError(f"entries must include {need}")

    h = np.asarray(entries["Lip"].h, dtype=float)
    order = np.argsort(h)[::-1]
    h = h[order]
    n1 = np.asarray(entries["Lip"].numerators, dtype=float)[order]
    n2 = np.asarray(entries["Z"].numerators, dtype=float)[order]

    if np.allclose(n1, 0.0):
        return Classification("Lipschitz/BV", None,
                              {"Lipschitz/BV": 0.0})

    scores: dict = {}
    # Lipschitz: N1 ~ C h, i.e. flat first-difference ratio -- or a flat
    # numerator with stable TV (finitely many jumps)
    lip_flat = _flatness(n1 / h)
    jump_flat = _flatness(n1)
    if tv is not None and tv.bounded:
        scores["Lipschitz/BV"] = min(lip_flat, jump_flat)
    else:
        scores["Lipschitz/BV"] = lip_flat

    # Zygmund: flat second-difference ratio; corroborated by flat
    # 2^j ||Delta_j||_inf when a spectrum is supplied
    z_flat = _flatness(n2 / h) if not np.allclose(n2, 0) else 0.0
    if spectrum is not None:
        js = [j for j in spectrum.j_values if j >= 2]
        if len(js) >= 4:
            band = [2.0 ** j * spectrum.block_norms["inf"][j] for j in js]
            z_flat = min(z_flat, _flatness(band))
    scores["Zygmund"] = z_flat

    scores["log-Lipschitz"] = _flatness(n1 / (h * _log_weight(h)))
    scores["log-Zygmund"] = (_flatness(n2 / (h * _log_weight(h)))
                             if not np.allclose(n2, 0) else 0.0)

    # Hoelder: free power-law fit of the first-difference numerator.
    # A raw exponent outside ]0.05, 0.95[ means the data is flatter than
    # any admissible cusp (jump-like) or steeper (Lipschitz territory);
    # both belong to other rungs, so the candidate is disqualified.
    lg_h, lg_n = np.log(h), np.log(n1)
    beta, _ = np.polyfit(lg_h, lg_n, 1)
    beta_c = float(np.clip(beta, 0.05, 0.95))
    if 0.05 <= beta <= 0.95:
        resid = lg_n - (beta_c * lg_h + np.mean(lg_n - beta_c * lg_h))
        scores["Hoelder"] = float(np.sqrt(np.mean(resid ** 2)))
    else:
        scores["Hoelder"] = math.inf

    ladder = ("Lipschitz/BV", "Zygmund", "log-Lipschitz", "log-Zygmund",
              "Hoelder")
    for label in ladder:
        if scores[label] < _ACCEPT_TOL:
            return Classification(
                label if label != "Hoelder" else f"Hoelder({beta_c:.3f})",
                beta_c if label == "Hoelder" else None, dict(scores))

    # nothing accepted: ambiguity near the threshold stays honest, a
    # decisive rejection of every rung falls through to the weakest class
    finite = sorted((v, k) for k, v in scores.items() if math.isfinite(v))
    if (len(finite) >= 2 and finite[0][0] < 2 * _ACCEPT_TOL
            and finite[1][0] > 0
            and (finite[1][0] - finite[0][0]) / finite[1][0] < 0.10):
        return Classification("inconclusive", None, dict(scores))
    return Classification("below-log-Lipschitz", None, dict(scores))


# modulus_report: refinement levels of the total-variation trend
_REPORT_TV_LEVELS = 8


def modulus_report(samples: np.ndarray) -> ModulusReport:
    """Measure all seminorm entries, the TV trend, and classify.

    ``samples`` are f(i/2^K), i = 0..2^K (2^K + 1 values, 2^K >= 256).
    Assembles the pointwise and integral difference seminorms (seven
    entries) on the dyadic offsets of :func:`default_h_grid`, the
    refinement-trend TV estimate over ``_REPORT_TV_LEVELS`` (8) levels,
    the :func:`dyadic_blocks` spectrum of one period (the right endpoint
    dropped), and the class label fitted from the pointwise curves and
    that spectrum.
    """
    s = np.asarray(samples, dtype=float)
    n = len(s) - 1
    if s.ndim != 1 or n < 2 ** _REPORT_TV_LEVELS or n & (n - 1):
        raise ValueError(
            f"modulus_report needs 2^K + 1 samples with 2^K >= "
            f"{2 ** _REPORT_TV_LEVELS}, got {len(s)}")
    entries: dict = {}
    entries.update(difference_seminorms(s, "first", "pointwise"))
    entries.update(difference_seminorms(s, "second", "pointwise"))
    entries.update(difference_seminorms(s, "second", "integral"))
    ll_int = difference_seminorms(s, "first", "integral")
    entries["LL_int"] = ll_int["LL_int"]
    tv = total_variation(s, levels=_REPORT_TV_LEVELS)
    cls = classify_modulus(entries, dyadic_blocks(s[:-1]), tv)
    return ModulusReport(entries=entries, tv=tv, classification=cls)
