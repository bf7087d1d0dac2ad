"""Vectorized fading samplers, bit-identical to the scalar hot path.

:class:`~repro.net.channel.WirelessChannel` normally walks a Python loop
over a transmission's audible receivers, drawing one fading gain per
pair from ``random.Random``.  At mesh sizes in the thousands that loop
dominates the run; this module replaces it with one numpy batch per
transmission *without changing a single bit of any result*.

The bit-identity contract and how each piece honors it:

* **Uniform stream** -- :class:`MtUniformStream` clones the scalar
  path's ``random.Random`` Mersenne-Twister state into a
  ``numpy.random.RandomState``.  Both generators implement MT19937 and
  derive doubles with the same 53-bit recipe, so ``uniforms(n)``
  returns exactly the floats ``n`` successive ``rng.random()`` calls
  would have (verified by tests down to the last ulp).  The clone is
  taken before the first draw and advanced only by the batched path, so
  a vectorized run consumes the stream in lock-step with a scalar one.
* **Transcendentals** -- numpy's ``log``/``exp`` use SIMD polynomial
  kernels that differ from libm by an ulp on some inputs, which would
  silently break golden results.  The samplers therefore evaluate
  ``log``/``exp`` with ``math``'s scalar functions element by element
  and batch only the operations numpy computes bit-identically
  (``cos``/``sin``/``sqrt`` and IEEE arithmetic).
* **Operation order** -- every sampler replays CPython's own formulas
  operation for operation: ``expovariate(1.0)`` is ``-log(1.0 - u)``
  and ``gauss(mu, sigma)`` is the Box-Muller pair ``mu + (cos(u1 *
  2pi) * sqrt(-2 log(1 - u2))) * sigma`` with the ``sin`` mate returned
  by the *second* call of each pair (all repo fading models consume
  gaussians strictly in real/imag pairs, so the ``gauss_next`` cache is
  always empty at batch boundaries).
* **Draw order** -- links draw in audible-list order, and links that
  would not draw in the scalar path (inactive receiver, zero AR(1)
  innovation) are masked out of the batch, so stream consumption is
  position-for-position identical.

Samplers exist for the three stochastic fading models; a custom
:class:`~repro.phy.fading.FadingModel` subclass gets no sampler and the
channel falls back to the scalar loop (``build_sampler`` returns
``None``).  ``NoFading`` needs no sampler at all -- the channel's
deterministic path already skips sampling.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Sequence

try:
    import numpy as np
except ImportError as exc:  # pragma: no cover - exercised only sans numpy
    raise ImportError(
        "repro.phy.vectorized requires numpy, a hard dependency of the "
        "vectorized PHY reception path (declared in pyproject.toml). "
        "Install it with `pip install numpy`, or force the pure-Python "
        "path with NetworkConfig(phy_backend='scalar')."
    ) from exc

from repro.phy.fading import (
    TWOPI,
    CorrelatedRayleighFading,
    FadingModel,
    RayleighFading,
    RicianFading,
)


class MtUniformStream:
    """Batched uniforms, bit-identical to ``random.Random.random()``.

    Clones the Mersenne-Twister state of a ``random.Random`` into numpy's
    legacy ``RandomState``; ``uniforms(n)`` then yields exactly the next
    ``n`` doubles the Python generator would produce.  The source rng
    must not be advanced afterwards -- the clone owns the stream from
    the moment it is taken.
    """

    __slots__ = ("_state",)

    def __init__(self, py_rng: random.Random) -> None:
        version, internal, _gauss_next = py_rng.getstate()
        if version != 3:
            raise ValueError(
                f"unsupported random.Random state version {version}; "
                "the vectorized stream clone assumes the MT19937 layout"
            )
        state = np.random.RandomState()
        state.set_state(
            ("MT19937", np.array(internal[:-1], dtype=np.uint32), internal[-1])
        )
        self._state = state

    def uniforms(self, n: int) -> "np.ndarray":
        """The next ``n`` doubles in [0, 1), as ``random()`` would draw."""
        return self._state.random_sample(n)


def _gauss_pairs(
    stream: MtUniformStream, count: int
) -> "tuple[np.ndarray, np.ndarray]":
    """``count`` Box-Muller pairs, matching paired ``rng.gauss(0, 1)``.

    Returns ``(z1, z2)`` where ``z1[j]``/``z2[j]`` are the standard
    normals the scalar path's first/second ``gauss`` call of pair ``j``
    would produce.  ``log`` runs through ``math`` (numpy's differs by
    an ulp); ``cos``/``sin``/``sqrt`` are batched (bit-equal to libm).
    """
    u = stream.uniforms(2 * count)
    x2pi = u[0::2] * TWOPI
    # -2.0 * log(1.0 - v): the subtraction and the product are exact
    # IEEE operations either side; only the log must be math's.
    g2rad = np.sqrt(_math_log(1.0 - u[1::2]) * -2.0)
    return np.cos(x2pi) * g2rad, np.sin(x2pi) * g2rad


def _math_log(values: "np.ndarray") -> "np.ndarray":
    """Elementwise ``math.log`` (numpy's ``log`` differs by an ulp)."""
    return np.fromiter(map(math.log, values.tolist()), float, len(values))


class VectorizedSampler:
    """Per-transmission batch of fading gains for one sender's links.

    ``gains(slot, count, sel, now)`` returns the power gains for the
    sender's audible links -- all ``count`` of them when ``sel`` is
    ``None``, else exactly the (ascending) positions in ``sel``.  The
    result aligns element-for-element with the queried links.

    ``new_slot`` allocates whatever per-sender state the model keeps
    (only the correlated model keeps any); ``dump_state``/``load_state``
    let the channel migrate that state across re-finalizes.
    """

    def new_slot(self, count: int) -> Optional[object]:
        return None

    def dump_state(self, slot: Optional[object]) -> List[Optional[tuple]]:
        return []

    def load_state(
        self, slot: Optional[object], position: int, entry: tuple
    ) -> None:
        raise NotImplementedError("sampler keeps no per-link state")

    def gains(
        self,
        slot: Optional[object],
        count: int,
        sel: Optional[Sequence[int]],
        now: float,
    ) -> "np.ndarray":
        raise NotImplementedError


class RayleighSampler(VectorizedSampler):
    """i.i.d. exponential power gains; mirrors ``rng.expovariate(1.0)``."""

    def __init__(self, stream: MtUniformStream) -> None:
        self._stream = stream

    def gains(self, slot, count, sel, now):
        draws = count if sel is None else len(sel)
        return -_math_log(1.0 - self._stream.uniforms(draws))


class RicianSampler(VectorizedSampler):
    """i.i.d. Rician power gains; mirrors the paired-``gauss`` scalar."""

    def __init__(
        self,
        stream: MtUniformStream,
        los_amplitude: float,
        scatter_sigma: float,
    ) -> None:
        self._stream = stream
        self._los = los_amplitude
        self._sigma = scatter_sigma

    def gains(self, slot, count, sel, now):
        draws = count if sel is None else len(sel)
        z1, z2 = _gauss_pairs(self._stream, draws)
        real = self._los + (0.0 + z1 * self._sigma)
        imag = 0.0 + z2 * self._sigma
        return real * real + imag * imag


class _CorrelatedSlot:
    """AR(1) state arrays for one sender's audible links.

    ``uniform_t`` is the time of the last update when that update
    covered every link (so every link has state, all of it from that
    time), else ``None``.
    """

    __slots__ = ("t", "re", "im", "has", "uniform_t")

    def __init__(self, count: int) -> None:
        self.t = np.zeros(count)
        self.re = np.zeros(count)
        self.im = np.zeros(count)
        self.has = np.zeros(count, dtype=bool)
        self.uniform_t: Optional[float] = None


class CorrelatedRayleighSampler(VectorizedSampler):
    """Gauss-Markov fading; replays the scalar AR(1) update exactly.

    Fast path: after a sender's first transmission every link in its
    slot shares the same last-update time, so ``rho`` and the
    innovation are a single scalar ``exp``/``sqrt`` instead of per-link
    loops -- same doubles, computed once.  A slot whose last update
    covered every link (``uniform_t``) skips even the check.
    """

    def __init__(
        self, stream: MtUniformStream, coherence_time_s: float
    ) -> None:
        self._stream = stream
        self._T = coherence_time_s
        self._sigma = math.sqrt(0.5)

    def new_slot(self, count):
        return _CorrelatedSlot(count)

    def dump_state(self, slot):
        if slot is None:
            return []
        t = slot.t.tolist()
        re = slot.re.tolist()
        im = slot.im.tolist()
        return [
            (t[k], re[k], im[k]) if has else None
            for k, has in enumerate(slot.has.tolist())
        ]

    def load_state(self, slot, position, entry):
        slot.t[position], slot.re[position], slot.im[position] = entry
        slot.has[position] = True
        slot.uniform_t = None

    def gains(self, slot, count, sel, now):
        sigma = self._sigma
        if sel is None and slot.uniform_t is not None:
            dt = now - slot.uniform_t
            rho = math.exp(-dt / self._T)
            innovation = sigma * math.sqrt(max(0.0, 1.0 - rho * rho))
            if innovation:
                z1, z2 = _gauss_pairs(self._stream, count)
                re_new = rho * slot.re + (0.0 + z1 * innovation)
                im_new = rho * slot.im + (0.0 + z2 * innovation)
            else:
                re_new = rho * slot.re
                im_new = rho * slot.im
            slot.t.fill(now)
            slot.re = re_new
            slot.im = im_new
            slot.uniform_t = now
            return re_new * re_new + im_new * im_new
        if sel is None:
            idx: object = slice(None)
            m = count
        else:
            idx = np.asarray(sel, dtype=np.intp)
            m = len(sel)
        has = slot.has[idx]
        t_old = slot.t[idx]
        re_old = slot.re[idx]
        im_old = slot.im[idx]

        if bool(has.all()) and m and bool((t_old == t_old[0]).all()):
            # Uniform-history fast path (every tx after the first).
            dt = now - float(t_old[0])
            rho = math.exp(-dt / self._T)
            innovation = sigma * math.sqrt(max(0.0, 1.0 - rho * rho))
            if innovation:
                z1, z2 = _gauss_pairs(self._stream, m)
                re_new = rho * re_old + (0.0 + z1 * innovation)
                im_new = rho * im_old + (0.0 + z2 * innovation)
            else:
                re_new = rho * re_old
                im_new = rho * im_old
        else:
            rho_arr = np.empty(m)
            innov_arr = np.zeros(m)
            stale = np.nonzero(has)[0]
            if stale.size:
                dt = now - t_old[stale]
                exp = math.exp
                rho_s = np.array(
                    [exp(v) for v in (-dt / self._T).tolist()]
                )
                innov_s = sigma * np.sqrt(
                    np.maximum(0.0, 1.0 - rho_s * rho_s)
                )
                rho_arr[stale] = rho_s
                innov_arr[stale] = innov_s
            # Links that consume a gaussian pair, in audible order:
            # fresh links always, stale links only when the innovation
            # is non-zero (the scalar path's `if innovation:` branch).
            need = ~has
            if stale.size:
                need[stale] = innov_s != 0.0
            z1 = z2 = pair_pos = None
            draws = int(need.sum())
            if draws:
                z1, z2 = _gauss_pairs(self._stream, draws)
                pair_pos = np.cumsum(need) - 1
            re_new = np.empty(m)
            im_new = np.empty(m)
            fresh = ~has
            if fresh.any():
                fp = pair_pos[fresh]
                re_new[fresh] = 0.0 + z1[fp] * sigma
                im_new[fresh] = 0.0 + z2[fp] * sigma
            if stale.size:
                drew = innov_s != 0.0
                upd = stale[drew]
                if upd.size:
                    fp = pair_pos[upd]
                    re_new[upd] = rho_arr[upd] * re_old[upd] + (
                        0.0 + z1[fp] * innov_arr[upd]
                    )
                    im_new[upd] = rho_arr[upd] * im_old[upd] + (
                        0.0 + z2[fp] * innov_arr[upd]
                    )
                hold = stale[~drew]
                if hold.size:
                    re_new[hold] = rho_arr[hold] * re_old[hold]
                    im_new[hold] = rho_arr[hold] * im_old[hold]

        slot.t[idx] = now
        slot.re[idx] = re_new
        slot.im[idx] = im_new
        slot.has[idx] = True
        slot.uniform_t = now if sel is None and count else None
        return re_new * re_new + im_new * im_new


def build_sampler(
    fading: FadingModel, py_rng: random.Random
) -> Optional[VectorizedSampler]:
    """A batched sampler mirroring ``fading``, or ``None`` if unsupported.

    Matches on exact type -- a subclass may override the sampling math,
    and silently vectorizing it with the parent's formulas would break
    bit-identity.  Clones ``py_rng``'s stream; the caller must stop
    drawing from it once a sampler is built.
    """
    kind = type(fading)
    if kind is RayleighFading:
        return RayleighSampler(MtUniformStream(py_rng))
    if kind is RicianFading:
        return RicianSampler(
            MtUniformStream(py_rng),
            fading._los_amplitude,
            fading._scatter_sigma,
        )
    if kind is CorrelatedRayleighFading:
        return CorrelatedRayleighSampler(
            MtUniformStream(py_rng), fading.coherence_time_s
        )
    return None
