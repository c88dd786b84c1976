"""Construction of wave-equation densities, from smooth baselines to
pathological oscillating families.

The module provides:

1. ``make_baseline`` -- named densities (constant, kink, Hoelder cusp,
   step, log-Lipschitz cusp, Weierstrass-type lacunary sum) with certified
   hyperbolicity bounds.
2. ``build_oscillator_pair`` -- a 1-periodic coefficient ``alpha_eps`` close
   to 4*pi^2 together with the exponentially decaying solution ``w_eps`` of
   w'' + alpha_eps w = 0, w(0)=1, w'(0)=0.  Both are closed-form; the decay
   at integer points is exactly exp(-eps*n).
3. ``make_sequences`` / ``make_counterexample_density`` -- nested dyadic
   intervals I_j = ]2^-j, 2^{1-j}] carrying rescaled copies
   alpha_eps_j(h_j (x - m_j)); the resulting density traps quasimodes and
   defeats boundary observability at measurable rates.  Such a density
   carries its structure (sequences, entries, oscillator pairs) as a
   :class:`TrappingStructure` in ``Coefficient.trapping``; every consumer
   reads that record, and the JSON descriptor is for serialization only.
4. ``reduce_to_normal_form`` / ``travel_time`` -- change of variables
   mapping rho(x) u_tt = (a(x) u_x)_x to omega(y) u_tt = u_yy, and the
   sidewise travel time integral T = int sqrt(omega).

Everything is deterministic: repeated evaluation of the same descriptor
produces bit-identical arrays.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Optional, Sequence

import mpmath as mp
import numpy as np

__all__ = [
    "Coefficient",
    "PeriodicPair",
    "SequenceEntry",
    "CounterexampleParams",
    "TrappingStructure",
    "DEFAULT_KNOTS",
    "FOUR_PI_SQ",
    "make_baseline",
    "build_oscillator_pair",
    "make_sequences",
    "make_counterexample_density",
    "reduce_to_normal_form",
    "travel_time",
]

FOUR_PI_SQ = 4.0 * math.pi ** 2
TWO_PI = 2.0 * math.pi

#: Cutoff knots (a, b, c, d) on the unit period: the profile rises smoothly
#: on [a, b], is 1 on [b, c], falls on [c, d] and vanishes (with all
#: derivatives) outside [a, d].  The placement is asymmetric on purpose so
#: that the period average of w_eps stays strictly positive.
DEFAULT_KNOTS = (0.04, 0.14, 0.62, 0.80)

_ETA_GRID = 8192          # per-period grid for the antiderivative of eta'
_SEQUENCE_DPS = 50        # mpmath digits of make_sequences
_DENSE_CHECK = 100_000    # per-period grid for sup-norm measurements
_TRAVEL_TIME_PANELS = 128  # travel_time's Gauss panels off a trapping density
# make_sequences: M of the admissibility tests, the concentrating mode's
# eps_j = _EPS0 * _EPS_RATIO^(j - j_min) and the scaled mode's n_j
_ADMISSIBILITY_M = 2600.0
_EPS0 = 0.048
_EPS_RATIO = 0.9
_SCALED_N = 16


# --------------------------------------------------------------------------
# smooth cutoff machinery
# --------------------------------------------------------------------------

def _sigma(t: np.ndarray) -> np.ndarray:
    """exp(-1/t) continued by 0 for t <= 0 (C-infinity at the junction)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0.0
    out[pos] = np.exp(-1.0 / t[pos])
    return out


def _smoothstep(t: np.ndarray) -> np.ndarray:
    """C-infinity ramp: 0 for t <= 0, 1 for t >= 1, strictly monotone."""
    t = np.asarray(t, dtype=float)
    a = _sigma(t)
    b = _sigma(1.0 - t)
    return a / (a + b)


def _chi(u: np.ndarray, knots: Sequence[float]) -> np.ndarray:
    """Plateau cutoff on the unit period, zero (flat) around integers."""
    return _chi_and_slope(u, knots)[0]


def _chi_and_slope(u: np.ndarray, knots: Sequence[float]) -> tuple:
    """(chi, chi') from one sigma evaluation per side of each ramp.

    sigma'(t) = sigma(t) / t^2 reuses the exponential, so the four
    exp(-1/t) per point give both values (bitwise those of the
    smoothstep formulas).
    """
    a, b, c, d = knots
    u = np.mod(np.asarray(u, dtype=float), 1.0)

    def sigma(t):
        val = np.zeros_like(t)
        slope = np.zeros_like(t)
        pos = t > 0.0
        val[pos] = np.exp(-1.0 / t[pos])
        slope[pos] = val[pos] / t[pos] ** 2
        return val, slope

    def ramp(t):
        p, pp = sigma(t)
        q, qp = sigma(1.0 - t)
        return p / (p + q), (pp * q + p * qp) / (p + q) ** 2

    up, up_p = ramp((u - a) / (b - a))
    down, down_p = ramp((u - c) / (d - c))
    dn = 1.0 - down
    return up * dn, up_p / (b - a) * dn + up * (-down_p / (d - c))


def _mirror_knots(knots: Sequence[float]) -> tuple:
    a, b, c, d = knots
    return (1.0 - d, 1.0 - c, 1.0 - b, 1.0 - a)


# --------------------------------------------------------------------------
# oscillator pair
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PeriodicPair:
    """Closed-form pair (alpha_eps, w_eps) with w'' + alpha_eps w = 0.

    ``w_eps(x) = cos(2 pi x) * exp(-eps * eta(|x|))`` where
    ``eta' = theta(x) cos^2(2 pi x)``, ``theta = scale * chi`` and the scale
    is fixed so that ``eta(n) = n`` at integers: the decay at integer points
    is exactly ``exp(-eps n)``.  ``alpha_eps`` follows from the ansatz:

        alpha = 4 pi^2 - 4 pi eps theta sin(4 pi x)
                + eps theta' cos^2(2 pi x) - eps^2 theta^2 cos^4(2 pi x)

    and is 1-periodic, even, identically 4 pi^2 on a neighbourhood of the
    integers (the cutoff is flat there).

    Attributes
    ----------
    eps : float
        Decay parameter, 0 < eps < eps_bar.
    knots : tuple
        Cutoff knots actually used (possibly mirrored by the sign search).
    theta_scale : float
        Normalization 1/mean(chi * cos^2) making the mean decay rate 1.
    M_alpha, M_alpha_prime, M : float
        Measured sup|alpha - 4 pi^2|/eps, sup|alpha'|/eps and their max.
    decay_c : float
        Fitted decay constant from w(n) = exp(-c eps n); 1 up to round-off.
    gamma : float
        Measured (1/eps) * int_0^1 w_eps, positive by construction.
    flat_radius : float
        Radius around integers where alpha == 4 pi^2 identically.
    """

    eps: float
    knots: tuple
    theta_scale: float
    M_alpha: float
    M_alpha_prime: float
    M: float
    decay_c: float
    gamma: float
    flat_radius: float
    alpha_min: float
    alpha_max: float
    _eta_values: np.ndarray = field(repr=False)
    _eta_slopes: np.ndarray = field(repr=False)

    # -- closed-form building blocks ------------------------------------

    def theta(self, u: np.ndarray) -> np.ndarray:
        return self.theta_scale * _chi(u, self.knots)

    def alpha(self, x: np.ndarray) -> np.ndarray:
        """Evaluate alpha_eps at x (1-periodic, even, vectorized)."""
        x = np.abs(np.asarray(x, dtype=float))
        chi, chi_p = _chi_and_slope(x, self.knots)
        th = self.theta_scale * chi
        thp = self.theta_scale * chi_p
        c2 = np.cos(TWO_PI * x) ** 2
        s4 = np.sin(2.0 * TWO_PI * x)
        e = self.eps
        return (FOUR_PI_SQ - 4.0 * math.pi * e * th * s4
                + e * thp * c2 - (e * th) ** 2 * c2 * c2)

    def eta(self, x: np.ndarray) -> np.ndarray:
        """Antiderivative of theta*cos^2 with eta(0)=0; eta(n)=n exactly."""
        x = np.abs(np.asarray(x, dtype=float))
        whole = np.floor(x)
        u = x - whole
        # cubic Hermite on the periodic part P(u) = eta(u) - u, using the
        # exact slope P' = theta cos^2 - 1 at the bracketing grid nodes
        g = _ETA_GRID
        iu = np.minimum((u * g).astype(int), g - 1)
        t = u * g - iu
        p0 = self._eta_values[iu]
        p1 = self._eta_values[iu + 1]
        s0 = self._eta_slopes[iu] / g
        s1 = self._eta_slopes[iu + 1] / g
        h00 = (1 + 2 * t) * (1 - t) ** 2
        h10 = t * (1 - t) ** 2
        h01 = t * t * (3 - 2 * t)
        h11 = t * t * (t - 1)
        periodic = h00 * p0 + h10 * s0 + h01 * p1 + h11 * s1
        return whole + u + periodic

    def w(self, x: np.ndarray) -> np.ndarray:
        """Evaluate w_eps (even, exponentially decaying)."""
        x = np.asarray(x, dtype=float)
        return np.cos(TWO_PI * x) * np.exp(-self.eps * self.eta(x))

    def w_prime(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        decay = np.exp(-self.eps * self.eta(ax))
        etp = self.theta(ax) * np.cos(TWO_PI * ax) ** 2
        val = decay * (-TWO_PI * np.sin(TWO_PI * ax)
                       - self.eps * etp * np.cos(TWO_PI * ax))
        return np.where(x < 0, -val, val)

    def w_log_abs(self, x: np.ndarray) -> np.ndarray:
        """log|w_eps|, usable far below the double-precision underflow."""
        x = np.abs(np.asarray(x, dtype=float))
        with np.errstate(divide="ignore"):
            return -self.eps * self.eta(x) + np.log(np.abs(np.cos(TWO_PI * x)))

    def envelope_log(self, x: np.ndarray) -> np.ndarray:
        """-eps * eta(|x|): the log of the decaying envelope."""
        return -self.eps * self.eta(np.abs(np.asarray(x, dtype=float)))


def _build_eta_tables(knots: Sequence[float]) -> tuple:
    """Periodic part of eta and its slopes on the unit period.

    Returns (scale, values, slopes): theta = scale*chi has
    mean(theta cos^2) = 1; values[i] = eta(i/g) - i/g via an FFT
    antiderivative (spectrally accurate for the smooth integrand).
    """
    g = _ETA_GRID
    u = np.arange(g) / g
    raw = _chi(u, knots) * np.cos(TWO_PI * u) ** 2
    mean = float(raw.mean())
    if mean <= 0:
        raise ValueError("cutoff profile vanishes identically")
    scale = 1.0 / mean
    f = scale * raw - 1.0        # periodic, mean zero
    fh = np.fft.rfft(f)
    k = np.arange(fh.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        integ = np.where(k == 0, 0.0, fh / (2j * math.pi * k))
    p = np.fft.irfft(integ, g)
    p = p - p[0]                 # P(0) = 0
    values = np.concatenate([p, p[:1]])          # include u = 1 (P(1)=0)
    slopes = np.concatenate([f, f[:1]])          # exact P' at the nodes
    return scale, values, slopes


def _measure_pair(eps: float, knots: Sequence[float]) -> PeriodicPair:
    scale, values, slopes = _build_eta_tables(knots)
    pair = PeriodicPair(
        eps=eps, knots=tuple(knots), theta_scale=scale,
        M_alpha=0.0, M_alpha_prime=0.0, M=0.0, decay_c=0.0, gamma=0.0,
        flat_radius=0.0, alpha_min=0.0, alpha_max=0.0,
        _eta_values=values, _eta_slopes=slopes,
    )
    u = (np.arange(_DENSE_CHECK) + 0.5) / _DENSE_CHECK
    al = pair.alpha(u)
    m_alpha = float(np.max(np.abs(al - FOUR_PI_SQ)) / eps)
    # sup|alpha'| from central differences on the dense grid
    dal = (al[2:] - al[:-2]) * (_DENSE_CHECK / 2.0)
    m_alpha_p = float(np.max(np.abs(dal)) / eps)
    # decay constant from w at integers (log-linear fit through the origin)
    n = np.arange(1, 21, dtype=float)
    logs = pair.w_log_abs(n)
    decay_c = float(-np.dot(logs, n) / (eps * np.dot(n, n)))
    # period average of w by composite Gauss-Legendre (64 panels of 8
    # nodes; no further refinement)
    w_int = _composite_gauss(pair.w)
    gamma = w_int / eps
    a, _, _, d = knots
    flat = min(a, 1.0 - d)
    return PeriodicPair(
        eps=eps, knots=tuple(knots), theta_scale=scale,
        M_alpha=m_alpha, M_alpha_prime=m_alpha_p,
        M=max(m_alpha, m_alpha_p), decay_c=decay_c, gamma=gamma,
        flat_radius=flat, alpha_min=float(al.min()), alpha_max=float(al.max()),
        _eta_values=values, _eta_slopes=slopes,
    )


def _composite_gauss(fn: Callable, length: float = 1.0,
                     panels: int = 64) -> float:
    """int_0^length fn via composite Gauss-Legendre (8 nodes per panel)."""
    nodes, weights = np.polynomial.legendre.leggauss(8)
    edges = np.linspace(0.0, length, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * length / panels
    pts = mid + half * nodes[None, :]
    vals = fn(pts.ravel()).reshape(pts.shape)
    return float((vals @ weights).sum() * half)


def build_oscillator_pair(
    eps: float,
    eps_bar: float = 0.05,
    knots: Sequence[float] = DEFAULT_KNOTS,
) -> PeriodicPair:
    """Construct the oscillating coefficient and its decaying solution.

    Parameters
    ----------
    eps : float
        Decay parameter; must satisfy 0 < eps < eps_bar.
    eps_bar : float
        Safety ceiling keeping alpha_eps well inside ]2 pi^2, 8 pi^2[.
    knots : tuple
        Cutoff knots (a, b, c, d), 0 < a < b <= c < d < 1.  If the period
        average of w_eps comes out non-positive for these knots, the
        mirrored profile (which flips the sign of the leading term of the
        average) is tried too and the better one kept.

    Raises
    ------
    ValueError
        If eps is out of range, the knots are malformed, or no candidate
        profile yields a positive period average.
    """
    if not (0.0 < eps < eps_bar):
        raise ValueError(f"eps={eps} outside ]0, {eps_bar}[")
    a, b, c, d = knots
    if not (0.0 < a < b <= c < d < 1.0):
        raise ValueError(f"malformed cutoff knots {knots}")

    pair = _measure_pair(eps, knots)
    if pair.gamma <= 0.0:
        mirrored = _measure_pair(eps, _mirror_knots(knots))
        if mirrored.gamma > pair.gamma:
            pair = mirrored
    if pair.gamma <= 0.0:
        raise ValueError(
            f"period average of w_eps is non-positive (gamma={pair.gamma:.3e}) "
            "for the requested cutoff and its mirror")
    if pair.alpha_min <= 2.0 * math.pi ** 2 or pair.alpha_max >= 8.0 * math.pi ** 2:
        raise ValueError(
            f"alpha_eps leaves the hyperbolicity window: "
            f"[{pair.alpha_min:.3f}, {pair.alpha_max:.3f}]")
    return pair


@lru_cache(maxsize=64)
def _cached_pair(eps: float, eps_bar: float, knots: tuple) -> PeriodicPair:
    """One shared :func:`build_oscillator_pair` per (eps, eps_bar, knots).

    Pairs are immutable, so densities assembled from the same sequences
    share them; consumers read them from ``Coefficient.trapping``.
    """
    return build_oscillator_pair(eps, eps_bar=eps_bar, knots=knots)


# --------------------------------------------------------------------------
# coefficient container
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Coefficient:
    """A density omega on [0, 1] with certified hyperbolicity bounds.

    ``kind`` names the construction; ``params`` holds the JSON-safe
    descriptor from which the evaluator can be rebuilt bit-identically.
    The descriptor is for serialization only: a trapping density carries
    its structure (sequences, entries, oscillator pairs) in ``trapping``,
    which every consumer reads; it is None for every other density.
    """

    kind: str
    params: Mapping
    omega_lower: float
    omega_upper: float
    _eval: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    length: float = 1.0
    trapping: Optional[TrappingStructure] = field(default=None, repr=False)

    def __call__(self, x) -> np.ndarray:
        return self._eval(np.asarray(x, dtype=float))

    def sample(self, n: int) -> tuple:
        """Cell-center samples ((i+1/2)/n * length, omega there)."""
        x = (np.arange(n) + 0.5) * (self.length / n)
        return x, self(x)

    def to_descriptor(self) -> dict:
        return {
            "kind": self.kind,
            "params": _jsonable(self.params),
            "omega_lower": self.omega_lower,
            "omega_upper": self.omega_upper,
            "length": self.length,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_descriptor(), sort_keys=True)

    @staticmethod
    def from_descriptor(desc: Mapping) -> "Coefficient":
        """Rebuild a coefficient from :meth:`to_descriptor` output.

        ``custom`` densities (including every output of
        :func:`reduce_to_normal_form`) wrap a Python callable that the
        descriptor does not carry; they raise ``ValueError``.
        """
        kind = desc["kind"]
        params = dict(desc.get("params", {}))
        if kind == "custom":
            raise ValueError(
                "custom densities hold a Python callable and cannot be "
                "rebuilt from a descriptor")
        if kind.startswith("counterexample"):
            seqs = CounterexampleParams.from_descriptor(params["sequences"])
            knots = tuple(params.get("knots", DEFAULT_KNOTS))
            if kind.startswith("counterexample-lambda"):
                j = int(kind.split("(")[1].rstrip(")"))
                coefs = make_counterexample_density(seqs, family="lambda",
                                                    knots=knots)
                return next(c for c in coefs if c.trapping.active_j == j)
            return make_counterexample_density(seqs, knots=knots)
        return make_baseline(kind, **params)


def _holds_array(obj) -> bool:
    """True for an array, or a mapping, list or tuple that holds one."""
    if isinstance(obj, Mapping):
        obj = obj.values()
    elif not isinstance(obj, (list, tuple)):
        return isinstance(obj, np.ndarray)
    return any(_holds_array(v) for v in obj)


def _jsonable(obj):
    """The one summary rule: a copy of ``obj`` that ``json.dumps`` takes.

    A dataclass instance becomes the dict of its fields, leaving out every
    field that holds an array (itself or inside a container); mappings
    (keys as strings), lists and tuples recurse; numpy scalars,
    ``np.bool_`` included, become Python scalars.  Below a dataclass an
    array becomes a list, and an mpmath number its 30-digit string.
    """
    if is_dataclass(obj) and not isinstance(obj, type):
        items = ((f.name, getattr(obj, f.name)) for f in fields(obj))
        return {k: _jsonable(v) for k, v in items if not _holds_array(v)}
    if isinstance(obj, Mapping):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, mp.mpf):
        return mp.nstr(obj, 30)
    return obj


# --------------------------------------------------------------------------
# baseline densities
# --------------------------------------------------------------------------

def _weierstrass(x: np.ndarray, n_terms: int) -> np.ndarray:
    out = np.zeros_like(x)
    for n in range(1, n_terms + 1):
        out += 2.0 ** (-n) * np.cos(2.0 ** (n + 1) * math.pi * x)
    return out


_BASELINE_PARAMS = {
    "constant": {"value"},
    "lipschitz": {"base", "slope"},
    "bv-step": {"left", "right"},
    "hoelder": {"beta", "base", "amplitude"},
    "log-lipschitz": {"base", "amplitude"},
    "weierstrass-zygmund": {"base", "amplitude", "n_terms"},
    "custom": {"fn", "omega_lower", "omega_upper"},
}


def make_baseline(kind: str, **params) -> Coefficient:
    """Named baseline densities.

    Supported kinds: ``constant``, ``lipschitz``, ``bv-step``,
    ``hoelder`` (exponent ``beta``), ``log-lipschitz``,
    ``weierstrass-zygmund`` and ``custom`` (callable + bounds); trapping
    densities come from :func:`make_counterexample_density`.

    All evaluators are exact closed forms; hyperbolicity bounds are
    analytic except where noted in the descriptor.  Unknown parameter
    names raise rather than being silently ignored.
    """
    if kind in _BASELINE_PARAMS:
        extra = set(params) - _BASELINE_PARAMS[kind]
        if extra:
            raise ValueError(
                f"unknown parameter(s) for {kind!r}: {sorted(extra)}")

    if kind == "constant":
        c = float(params.get("value", 1.0))
        if c <= 0:
            raise ValueError("constant density must be positive")
        return Coefficient(kind, {"value": c}, c, c,
                           lambda x, c=c: np.full_like(x, c))

    if kind == "lipschitz":
        c0 = float(params.get("base", 1.0))
        c1 = float(params.get("slope", 1.0))
        lo = min(c0, c0 + c1 * 0.5)
        if lo <= 0:
            raise ValueError("kink density loses positivity")
        return Coefficient(
            kind, {"base": c0, "slope": c1}, lo, max(c0, c0 + c1 * 0.5),
            lambda x, c0=c0, c1=c1: c0 + c1 * np.abs(x - 0.5))

    if kind == "bv-step":
        c0 = float(params.get("left", 1.0))
        c1 = float(params.get("right", 2.0))
        if min(c0, c1) <= 0:
            raise ValueError("step density loses positivity")
        return Coefficient(
            kind, {"left": c0, "right": c1}, min(c0, c1), max(c0, c1),
            lambda x, c0=c0, c1=c1: np.where(x < 0.5, c0, c1))

    if kind == "hoelder":
        a = float(params.get("beta", 0.5))
        if not (0.0 < a < 1.0):
            raise ValueError(f"hoelder exponent {a} outside ]0,1[")
        c0 = float(params.get("base", 1.0))
        c1 = float(params.get("amplitude", 1.0))
        lo = min(c0, c0 + c1 * 0.5 ** a)
        if lo <= 0:
            raise ValueError("cusp density loses positivity")
        return Coefficient(
            kind, {"beta": a, "base": c0, "amplitude": c1},
            lo, max(c0, c0 + c1 * 0.5 ** a),
            lambda x, a=a, c0=c0, c1=c1: c0 + c1 * np.abs(x - 0.5) ** a)

    if kind == "log-lipschitz":
        # t |log t| cusp at x = 1/2; modulus h log(1/h), not Lipschitz.
        # On t in [0, 1/2] the maximum of -t log t sits at t = 1/e.
        c0 = float(params.get("base", 1.0))
        c1 = float(params.get("amplitude", 1.0))
        peak = c1 / math.e

        def _ll(x, c0=c0, c1=c1):
            t = np.abs(x - 0.5)
            out = np.zeros_like(t)
            pos = t > 0
            out[pos] = -t[pos] * np.log(t[pos])
            return c0 + c1 * out

        lo = min(c0, c0 + peak)
        if lo <= 0:
            raise ValueError("log-lipschitz density loses positivity")
        return Coefficient(kind, {"base": c0, "amplitude": c1},
                           lo, max(c0, c0 + peak), _ll)

    if kind == "weierstrass-zygmund":
        c0 = float(params.get("base", 2.0))
        c1 = float(params.get("amplitude", 1.0))
        n_terms = int(params.get("n_terms", 24))
        if c0 - abs(c1) <= 0:
            raise ValueError("lacunary density loses positivity "
                             "(|amplitude| must stay below base)")
        return Coefficient(
            kind, {"base": c0, "amplitude": c1, "n_terms": n_terms},
            c0 - abs(c1), c0 + abs(c1),
            lambda x, c0=c0, c1=c1, n=n_terms: c0 + c1 * _weierstrass(x, n))

    if kind == "custom":
        fn = params["fn"]
        lo = float(params["omega_lower"])
        hi = float(params["omega_upper"])
        if lo <= 0:
            raise ValueError("custom density must declare a positive lower bound")
        return Coefficient(kind, {"omega_lower": lo, "omega_upper": hi},
                           lo, hi, lambda x, fn=fn: np.asarray(fn(x), dtype=float))

    raise ValueError(f"unknown baseline kind: {kind!r}")


# --------------------------------------------------------------------------
# interval sequences
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SequenceEntry:
    """One dyadic interval I_j = ]m - r/2, m + r/2] and its scales.

    ``h`` is the oscillation frequency, ``n = h * r`` the (even) number of
    coefficient periods packed into the interval, ``eps`` the decay
    parameter of the rescaled oscillator.  For paper-strict sequences the
    exact values live in ``h_ln`` (natural log, arbitrary precision as a
    string) and ``h``/``n`` may be float approximations or inf.
    """

    j: int
    r: float
    m: float
    h: float
    n: float
    eps: float
    eps_h_r: float
    h_ln: Optional[str] = None

    @property
    def interval(self) -> tuple:
        return (self.m - self.r / 2.0, self.m + self.r / 2.0)


@dataclass(frozen=True)
class CounterexampleParams:
    """Sequence family plus modulus descriptor for the trapping density.

    ``mode`` is one of ``paper-strict`` (arbitrary-precision sequences from
    the defining relation eps_j h_j = log(h_j) * psi(log h_j)),
    ``scaled`` (same relation at desk scale, h_j = n0 * 2^j), or
    ``concentrating`` (explicit eps/n schedules chosen so the trapping
    exponent eps_j * n_j grows along the family).  ``cond_flags`` holds the
    three admissibility inequalities per j, evaluated in extended
    precision:

        (1)  eps_j <= 1/(2M)
        (2)  5M sum_{k>j} eps_k r_k     <= eps_j r_j
        (3)  5M sum_{k<j} eps_k h_k r_k <= eps_j h_j r_j
    """

    mode: str
    descriptor: str
    N: Optional[int]
    M: float
    entries: tuple
    cond_flags: tuple
    notes: tuple = ()

    @property
    def eps_bar(self) -> float:
        """max(0.05, 1.01 max eps_j): the ``eps_bar`` of every pair of
        this family (it only gates the argument check; each pair verifies
        its own alpha window against the hyperbolicity bracket)."""
        return max(0.05, 1.01 * max((e.eps for e in self.entries),
                                    default=0.0))

    def entry(self, j: int) -> SequenceEntry:
        for e in self.entries:
            if e.j == j:
                return e
        raise KeyError(f"no entry for j={j}")

    def restrict(self, j: int) -> "CounterexampleParams":
        """The single-entry sub-family that carries only I_j."""
        return replace(self, entries=(self.entry(j),), cond_flags=tuple(
            f for f in self.cond_flags if f["j"] == j))

    def to_descriptor(self) -> dict:
        return _jsonable(self)

    @staticmethod
    def from_descriptor(desc: Mapping) -> "CounterexampleParams":
        entries = tuple(
            SequenceEntry(j=int(e["j"]), r=float(e["r"]), m=float(e["m"]),
                          h=float(e["h"]), n=float(e["n"]), eps=float(e["eps"]),
                          eps_h_r=float(e["eps_h_r"]), h_ln=e.get("h_ln"))
            for e in desc["entries"])
        return CounterexampleParams(
            mode=desc["mode"], descriptor=desc["descriptor"],
            N=desc.get("N"), M=float(desc["M"]), entries=entries,
            cond_flags=tuple(dict(f) for f in desc["cond_flags"]),
            notes=tuple(desc.get("notes", ())))


def _even_ceil(x: float) -> int:
    n = int(math.ceil(x))
    return n if n % 2 == 0 else n + 1


def make_sequences(
    mode: str = "concentrating",
    j_range: Iterable[int] = range(2, 7),
    N: Optional[int] = None,
    psi: str = "identity",
    lam: str = "sqrt-log",
    n0: int = 240,
    n_growth: float = 2.42,
) -> CounterexampleParams:
    """Build the interval/frequency/decay sequences for the trapping density.

    Modes
    -----
    ``paper-strict``
        h_j = exp(psi^{-1}(2^{N j})), eps_j h_j = log(h_j) psi(log h_j),
        evaluated with mpmath (the values overflow doubles immediately).
        The integer adjustment making h_j r_j a whole number changes h_j
        below any realizable precision and is recorded as a note.
    ``scaled``
        Same defining relation at desk scale with h_j = 16 * 2^j
        (``_SCALED_N``: n_j = 16 for every j).
    ``concentrating``
        eps_j = 0.048 * 0.9^(j - j_min) (``_EPS0``, ``_EPS_RATIO``) and
        n_j even-rounded from n0 * n_growth^(j - j_min); h_j = n_j 2^j.
        The trapping exponent eps_j n_j grows along the family, which the
        defining relation cannot achieve at reachable h.
    ``lambda``
        h_j = 1 / lambda^{-1}(2^{N j}), eps_j h_j = lambda(1/h_j) log h_j.

    ``psi`` (identity, sqrt, log) and ``lam`` (sqrt-log, log-log) choose
    the modulus the construction defeats.  The admissibility inequalities
    (M = 2600, ``_ADMISSIBILITY_M``) are evaluated per j with mpmath
    at ``_SEQUENCE_DPS`` (50) digits; for the infinite upper tail the sum
    is truncated eight levels past the last requested j and closed with a
    doubling bound on the final term (the summands decay at least
    geometrically for every supported mode).
    """
    js = sorted(j_range)
    if not js:
        raise ValueError("empty j_range")
    if js[0] < 1:
        raise ValueError("interval indices start at j = 1")
    notes = []

    psi_fn, psi_inv = _psi_functions(psi)
    lam_fn, lam_inv = _lambda_functions(lam)
    # above this, the rounding that makes n_j an even integer falls below
    # any floating representation and is treated as exact
    representable = mp.mpf("1e15")

    with mp.workdps(_SEQUENCE_DPS):
        if mode == "paper-strict":
            if N is None:
                raise ValueError("paper-strict mode requires N")
            descriptor = f"psi={psi}"

            def seq(j: int) -> tuple:
                sigma = psi_inv(mp.mpf(2) ** (N * j))
                return mp.exp(sigma), None

        elif mode == "scaled":
            descriptor = f"psi={psi} (desk scale)"

            def seq(j: int) -> tuple:
                return mp.mpf(_SCALED_N) * mp.mpf(2) ** j, None

            notes.append(
                "n_j = h_j r_j is constant in this mode; the strictly-"
                "increasing n_j invariant holds only for the other modes")
        elif mode == "concentrating":
            descriptor = (f"eps0={_EPS0} ratio={_EPS_RATIO} "
                          f"n0={n0} growth={n_growth}")

            def seq(j: int) -> tuple:
                n = _even_ceil(n0 * n_growth ** (j - js[0]))
                h = mp.mpf(n) * mp.mpf(2) ** j
                eps = mp.mpf(_EPS0) * mp.mpf(_EPS_RATIO) ** (j - js[0])
                return h, eps
        elif mode == "lambda":
            if N is None:
                raise ValueError("lambda mode requires N")
            descriptor = f"lambda={lam}"

            def seq(j: int) -> tuple:
                return 1 / lam_inv(mp.mpf(2) ** (N * j)), None
        else:
            raise ValueError(f"unknown sequence mode {mode!r}")

        def finish(j: int, h, eps) -> tuple:
            """Even-integer adjustment of n = h r, then eps from the
            defining relation of the mode (where applicable)."""
            r = mp.mpf(2) ** (-j)
            n = h * r
            adjusted = False
            if n < representable:
                n_int = _even_ceil(float(n))
                h = mp.mpf(n_int) / r
                n = mp.mpf(n_int)
                adjusted = True
            if mode in ("paper-strict", "scaled"):
                eps = mp.log(h) * psi_fn(mp.log(h)) / h
            elif mode == "lambda":
                eps = lam_fn(1 / h) * mp.log(h) / h
            return h, eps, r, n, adjusted

        # generate entries for all j needed by the admissibility sums:
        # one level below the family for the k<j sum, eight above for the
        # truncated upper tail
        lo, hi = max(1, js[0] - 1), js[-1] + 8
        raw = {}
        any_symbolic = False
        for j in range(lo, hi + 1):
            h, eps = seq(j)
            h, eps, r, n, adjusted = finish(j, h, eps)
            any_symbolic |= not adjusted
            raw[j] = (h, eps, r, n)
        if any_symbolic:
            notes.append(
                "integer adjustment of h_j r_j is below working precision "
                "for the largest j; values treated as exact")

        # invariants, checked on the extended-precision values
        for j in range(lo + 1, hi + 1):
            _, eps_prev, _, n_prev = raw[j - 1]
            _, eps_cur, _, n_cur = raw[j]
            if not (eps_cur < eps_prev):
                raise ValueError(f"eps_{j} fails to decrease strictly")
            if mode != "scaled" and not (n_cur > n_prev):
                raise ValueError(f"n_{j} fails to increase strictly")

        entries = []
        for j in js:
            h, eps, r, n = raw[j]
            m = mp.mpf(3) * mp.mpf(2) ** (-(j + 1))
            entries.append(SequenceEntry(
                j=j, r=float(r), m=float(m),
                h=float(h) if h < mp.mpf("1e300") else math.inf,
                n=float(n) if n < mp.mpf("1e300") else math.inf,
                eps=float(eps), eps_h_r=float(eps * h * r),
                h_ln=(mp.nstr(mp.log(h), 25)
                      if mode in ("paper-strict", "lambda") else None),
            ))

        flags = []
        mM = mp.mpf(_ADMISSIBILITY_M)
        for j in js:
            h_j, eps_j, r_j, _ = raw[j]
            lhs1 = eps_j
            rhs1 = 1 / (2 * mM)
            tail = mp.mpf(0)
            for k in range(j + 1, hi + 1):
                _, eps_k, r_k, _ = raw[k]
                tail += eps_k * r_k
            # close the truncation with a doubling bound on the last term
            # (the summands decay at least geometrically in every mode)
            _, eps_t, r_t, _ = raw[hi]
            tail += eps_t * r_t
            lhs2 = 5 * mM * tail
            rhs2 = eps_j * r_j
            head = mp.mpf(0)
            for k in range(lo, j):
                h_k, eps_k, r_k, _ = raw[k]
                head += eps_k * h_k * r_k
            lhs3 = 5 * mM * head
            rhs3 = eps_j * h_j * r_j
            flags.append({
                "j": j,
                "eps_small": bool(lhs1 <= rhs1),
                "tail_sum": bool(lhs2 <= rhs2),
                "head_sum": bool(lhs3 <= rhs3) if head > 0 else True,
                "margin_eps": _log10_ratio(rhs1, lhs1),
                "margin_tail": _log10_ratio(rhs2, lhs2),
                "margin_head": (_log10_ratio(rhs3, lhs3)
                                if head > 0 else math.inf),
            })

    return CounterexampleParams(
        mode=mode, descriptor=descriptor, N=N, M=_ADMISSIBILITY_M,
        entries=tuple(entries), cond_flags=tuple(flags), notes=tuple(notes))


def _log10_ratio(a, b) -> float:
    if b == 0:
        return math.inf
    try:
        return float(mp.log10(a / b))
    except Exception:
        return math.nan


def _psi_functions(name: str) -> tuple:
    if name == "identity":
        return (lambda s: s), (lambda y: y)
    if name == "sqrt":
        return (lambda s: mp.sqrt(s)), (lambda y: y * y)
    if name == "log":
        return (lambda s: 1 + mp.log(s)), (lambda y: mp.exp(y - 1))
    raise ValueError(f"unknown psi descriptor {name!r}")


def _lambda_functions(name: str) -> tuple:
    # lambda must decrease to +inf at 0+ but stay below log(1 + 1/h)
    if name == "sqrt-log":
        fn = lambda h: mp.sqrt(1 + mp.log(1 / h))
        inv = lambda y: 1 / mp.exp(y * y - 1)
        return fn, inv
    if name == "log-log":
        fn = lambda h: 1 + mp.log(1 + mp.log(1 / h))
        inv = lambda y: 1 / mp.exp(mp.exp(y - 1) - 1)
        return fn, inv
    raise ValueError(f"unknown lambda descriptor {name!r}")


# --------------------------------------------------------------------------
# trapping densities
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TrappingStructure:
    """What a trapping density is made of, for every consumer to read.

    ``params`` is the sequence family the density was assembled from,
    ``entries`` the :class:`SequenceEntry` objects it oscillates on (all
    of them for the psi density, one for a lambda member), ``pairs`` maps
    each carried j to the very :class:`PeriodicPair` its evaluator uses,
    and ``active_j`` is the lambda member's index (None for psi).
    """

    params: CounterexampleParams
    entries: tuple
    pairs: Mapping[int, PeriodicPair]
    active_j: Optional[int] = None


def make_counterexample_density(
    params: CounterexampleParams,
    family: str = "psi",
    knots: Sequence[float] = DEFAULT_KNOTS,
):
    """Assemble the trapping density (or the per-j family of densities).

    With ``family='psi'`` a single density carries all intervals:
    omega = alpha_eps_j(h_j (x - m_j)) on I_j, 4 pi^2 elsewhere.  With
    ``family='lambda'`` a list of densities is returned, the j-th one
    oscillating only inside I_j.  Pairs are built from each entry's eps
    with ``knots``; each density carries its structure in ``trapping``.

    Raises ``ValueError`` when any h_j overflows double precision (such
    sequences exist only in extended precision and cannot be sampled).
    """
    for e in params.entries:
        if not math.isfinite(e.h):
            raise ValueError(
                f"h_{e.j} is not representable in double precision; "
                "this sequence family cannot be materialized on a grid")
    pairs = {e.j: _cached_pair(e.eps, params.eps_bar, tuple(knots))
             for e in params.entries}

    if family == "psi":
        return _assemble_density(params, pairs, active=None)
    if family == "lambda":
        return [_assemble_density(params, pairs, active=e.j)
                for e in params.entries]
    raise ValueError(f"unknown family {family!r}")


def _assemble_density(params, pairs, active):
    entries = tuple(e for e in params.entries
                    if active is None or e.j == active)
    own = {e.j: pairs[e.j] for e in entries}
    lo = min(pair.alpha_min for pair in own.values())
    hi = max(pair.alpha_max for pair in own.values())

    frozen = tuple((e.interval[0], e.interval[1], e.h, e.m, own[e.j])
                   for e in entries)

    def evaluate(x: np.ndarray) -> np.ndarray:
        out = np.full_like(x, FOUR_PI_SQ)
        for left, right, h, m, pair in frozen:
            mask = (x > left) & (x <= right)
            if np.any(mask):
                out[mask] = pair.alpha(h * (x[mask] - m))
        return out

    kind = ("counterexample-psi" if active is None
            else f"counterexample-lambda({active})")
    param_block = {
        "sequences": params.to_descriptor(),
        "knots": list(next(iter(pairs.values())).knots),
    }
    if active is not None:
        param_block["active_j"] = active
        e = entries[0]
        # sup_h |omega(x+h)-omega(x)| / (h lambda(h)) peaks at h ~ 1/h_j;
        # record the slope-scale constant for the modulus table
        param_block["K_scale"] = own[e.j].M_alpha_prime * e.eps * e.h
    return Coefficient(
        kind=kind, params=param_block,
        omega_lower=min(lo, FOUR_PI_SQ), omega_upper=max(hi, FOUR_PI_SQ),
        _eval=evaluate,
        trapping=TrappingStructure(params=params, entries=entries,
                                   pairs=own, active_j=active))


# --------------------------------------------------------------------------
# normal form and travel time
# --------------------------------------------------------------------------

def reduce_to_normal_form(rho: Coefficient, a: Coefficient,
                          grid: int = 1 << 17) -> tuple:
    """Map rho u_tt = (a u_x)_x on [0,1] to omega u_tt = u_yy on [0, L].

    The change of variables is y = phi(x) = int_0^x 1/a, L = phi(1), and
    omega(y) = (rho * a)(phi^{-1}(y)).  Returns (omega, L, diagnostics)
    where the diagnostics report the travel-time preservation
    int_0^1 sqrt(rho/a) = int_0^L sqrt(omega) measured on the grid.
    """
    x = np.linspace(0.0, 1.0, grid + 1)
    inv_a = 1.0 / a(x)
    phi = np.concatenate([[0.0], np.cumsum(
        0.5 * (inv_a[1:] + inv_a[:-1]) * np.diff(x))])
    L = float(phi[-1])

    rho_a = rho(x) * a(x)
    phi_nodes = phi.copy()
    vals = rho_a.copy()

    def evaluate(y: np.ndarray) -> np.ndarray:
        yc = np.clip(y, 0.0, L)
        xin = np.interp(yc, phi_nodes, x)
        return rho(xin) * a(xin)

    lo = float(vals.min())
    hi = float(vals.max())
    omega = Coefficient(
        kind="custom",
        params={"origin": "normal-form", "omega_lower": lo, "omega_upper": hi},
        omega_lower=lo, omega_upper=hi, _eval=evaluate, length=L)

    t_original = float(np.trapezoid(np.sqrt(rho(x) / a(x)), x))
    yg = np.linspace(0.0, L, grid + 1)
    t_reduced = float(np.trapezoid(np.sqrt(omega(yg)), yg))
    diag = {
        "travel_time_original": t_original,
        "travel_time_reduced": t_reduced,
        "relative_gap": abs(t_original - t_reduced) / max(t_original, 1e-300),
    }
    return omega, L, diag


def travel_time(coef: Coefficient) -> float:
    """T = int_0^L sqrt(omega): the one-way sidewise crossing time.

    For trapping densities the integral is evaluated structurally
    (period-exact Gauss-Legendre inside each oscillating interval,
    closed form on the flat remainder); otherwise by composite
    Gauss-Legendre, 128 panels (``_TRAVEL_TIME_PANELS``) on [0, L].
    """
    if coef.trapping is None:
        return _composite_gauss(lambda x: np.sqrt(coef(x)), coef.length,
                                _TRAVEL_TIME_PANELS)
    total = 0.0
    covered = 0.0
    for e in coef.trapping.entries:
        pair = coef.trapping.pairs[e.j]
        total += e.r * _composite_gauss(lambda s: np.sqrt(pair.alpha(s)))
        covered += e.r
    total += (coef.length - covered) * math.sqrt(FOUR_PI_SQ)
    return total
