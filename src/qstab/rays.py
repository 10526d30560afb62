"""The values and bands of the ray route of :mod:`qstab.certify`: one eigensolve per ray, not per sample.

Where the exit solve :func:`qstab.certify._ray_exits` finds B_0 ... B_{K-1}
exact zeros, V(C + sD) = s^K B_K(D) on each ray, and where every canonical
Theta is also exactly scalar, the drift, a linear map of V, is s^K times its
value at B_K (Higham, Functions of Matrices, 2008, ch. 1).  Where rays carry
more than one sample, as a user family's do when samples outnumber
directions, the sampler keeps B_K and its eigenvalues per distinct ray and
takes no eigendecomposition of V (:class:`Rays`).  Here every value a
condition reads is computed once per ray at s = 1 and scaled to its samples
by s^K (the degree-0 pencil unscaled), in blocks of rays
(:func:`ray_blocks`).  Values differ from the per-sample route's by at most
their forward-error bands (:func:`ray_band`).  :func:`qstab.certify._sampled`
decides each sample from them, or from V at itself where its values, moved
down and up by their bands, could decide a condition either way, so every
verdict and label is the per-sample route's, and the witness and its
violation too (:func:`qstab.certify._check` measures each sample that may
be the most violated as :func:`qstab.certify.recheck_witness` does).  Only
the worst drift, the worst V and the rate estimate may differ from it,
within the bands: in their last bits, but for the per-sample rates of an
ill-conditioned pencil, which the per-sample route scatters along one ray
by as much.

:mod:`qstab.certify` imports this module only for rays of more than one
sample: every process compiles what it imports, and the rest need none of it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from . import certify
from .certify import SUPPORT_CUTOFF, _Point, _rounding
from .operators import adjoint


class Rays(NamedTuple):
    """B_K on the distinct unit rays D of homogeneous scalar-Theta samples, where V = s^K B_K(D)."""

    b: np.ndarray  # (R, d, d): B_K on each ray
    lead: np.ndarray  # (R, d): B_K's ascending eigenvalues
    degree: int  # K


def _on_ray(name: str, band: str, scaled: bool = True) -> cached_property:
    """The value ``name`` of points on rays: its ray's at s = 1, times s^K if ``scaled``; on shifted points, the
    base points' value moved by ``shift`` of its band ``band``, to +-inf where that band is infinite."""

    def value(self: OnRays) -> np.ndarray:
        if self.base is not None:
            moved, width = getattr(self.base, name), ray_band(self.base, band)
            with np.errstate(invalid="ignore"):  # -inf moved by an infinite band
                return np.where(np.isinf(width), self.shift * np.inf, moved + self.shift * width)
        return getattr(self.unit, name)[self.of] * (self.scale**self.degree if scaled else 1.0)

    return cached_property(value)


@dataclass(eq=False)
class OnRays(_Point):
    """Points C + sD on homogeneous rays, each value its ray's at s = 1 (in ``unit``) times s^K.

    The degree-0 pencil is its ray's unscaled.  No value needs a point's own matrix, so ``x`` holds each point's
    row in the sample stack, and no point copies matrices: V's eigenvectors at a point are its ray's, and
    ``v_eigh`` holds ``of`` in their place.  Per point, ``of`` indexes ``unit`` and ``scale`` is s, set as
    attributes so that :meth:`take` slices them.
    """

    unit: _Point | None = None
    lead: np.ndarray | None = None  # B_K's eigenvalues on the rays of ``unit``
    degree: int = 0
    shift: float = 0.0
    base: OnRays | None = None

    def shifted(self, shift: float) -> OnRays:
        """These points with every value moved by ``shift`` times its band (:func:`ray_band`)."""
        return replace(self, shift=shift, base=self)

    @cached_property
    def v_eigh(self) -> tuple[np.ndarray, np.ndarray]:
        if self.base is not None:
            return self.base.v_eigh[0] + self.shift * ray_band(self.base, "v")[:, None], self.base.of
        return self.lead[self.of] * (self.scale**self.degree)[:, None], self.of

    target_max = _on_ray("target_max", "target")
    support_max = _on_ray("support_max", "support")
    off_support_max = _on_ray("off_support_max", "support")
    pencil_max = _on_ray("pencil_max", "pencil", scaled=False)
    e_v = _on_ray("e_v", "v")
    e_target = _on_ray("e_target", "target")


def ray_band(point: OnRays, name: str) -> np.ndarray:
    """Per point, how far a value of the ray route may lie from the per-sample route's: "v" for V's eigenvalues
    and E[V], "target" for the top eigenvalue and expectation of the drift target, "support" for its top
    eigenvalues on and off V's support, "pencil" for the pencil's; inf where the support is not sound.  Each is
    computed once per point and kept with it.

    At scale s, X - C is formed within delta = 4 eps sqrt(d) (||C|| + s) of sD, so V moves by at most
    sum_k ||Theta_k||_F ((s + delta)^K - s^K), and either route rounds V by :func:`qstab.certify._rounding` at
    s + delta: r in all.  The generators of both pictures are Lipschitz with 2||H||_2 + 2||L||_2^2 and round by
    about d eps (2||H||_F + 2||L||_F^2) ||V||_F.  V's support turns by sin t <= 2r / gap (Davis & Kahan, SIAM J.
    Numer. Anal. 7, 1970), which moves the target's top eigenvalues on and off it by at most 2 sin t times the
    target's block between them plus 2 sin^2 t ||target||, and V on it by 2 sin^2 t ||V||.  The support is sound
    where no eigenvalue lies within 2r of the cutoff, the gap exceeds 2r and V on it stays positive; the
    pencil, a definite generalized eigenvalue there, moves by the change of the target plus |pencil| times
    that of V, over V's least eigenvalue on the support.
    """
    key = f"band_{name}"
    if key not in vars(point):
        vars(point)[key] = _band(point, name)
    return vars(point)[key]


def _band(point: OnRays, name: str) -> np.ndarray:
    cand, s, degree, eps = point.cand, point.scale, point.degree, np.finfo(float).eps
    thetas = sum(np.linalg.norm(t) for _, _, t in cand.terms)
    if name == "v":
        delta = 4.0 * eps * np.sqrt(cand.dim) * ((0.0 if cand.center is None else abs(cand.center[0, 0])) + s)
        return 2.0 * _rounding(cand, s + delta) + thetas * ((s + delta) ** degree - s**degree)
    v, power, (h2, l2, hf, lf) = ray_band(point, "v"), s**degree, point.model._norms
    rate = point.rate or 0.0
    lipschitz = 2.0 * h2 + 2.0 * l2**2 + rate
    if name == "target":
        return lipschitz * v + 4.0 * cand.dim * eps * (2.0 * hf + 2.0 * lf**2 + rate) * thetas * power
    target, unit = ray_band(point, "target"), point.unit
    vals, support = point.lead[point.of] * power[:, None], unit.on_support[point.of]
    top, norm = vals[:, -1], np.maximum(vals[:, -1], -vals[:, 0])
    low = np.where(support, vals, np.inf).min(axis=-1)
    gap = low - np.where(support, -np.inf, vals).max(axis=-1)  # inf where the support is everything
    with np.errstate(divide="ignore", invalid="ignore"):  # the gap is zero where s^K underflows
        turn = np.minimum(2.0 * v / gap, 1.0)  # sin t <= 1 keeps turn^2 finite at a tiny or zero gap, never sound
    on_v = 2.0 * turn**2 * norm
    sound = (np.abs(vals - SUPPORT_CUTOFF * top[:, None]).min(axis=-1) > 2.0 * v) & (gap > 2.0 * v) & (low > v + on_v)
    if name == "support":
        across = unit.on_support[:, :, None] & ~unit.on_support[:, None, :]  # the target's block from off to on
        rotated = adjoint(unit.v_eigh[1]) @ unit.target @ unit.v_eigh[1]
        block = np.linalg.norm(np.where(across, rotated, 0.0), axis=(-2, -1))[point.of] * power
        return np.where(sound, target + 2.0 * turn * (block + target) + lipschitz * on_v, np.inf)
    mu = np.abs(unit.pencil_max[point.of])
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(sound, (ray_band(point, "support") + mu * (v + on_v)) / (low - v - on_v), np.inf)


def ray_blocks(samples, point):
    """Per slice of at most ``certify._BLOCK_ENTRIES`` matrix entries or one ray, the rows of the samples on its
    live rays (where V is somewhere positive, so that it has a support) and an :class:`OnRays` point on them.
    The bands read the model's norms of H and L, taken once per model object."""
    rays = samples.rays
    on_rays = partial(OnRays, *point.args, **point.keywords, degree=rays.degree)
    index = np.full(len(rays.lead), -1)
    step = max(1, certify._BLOCK_ENTRIES // rays.lead[0].size**2)
    for i in range(0, len(rays.lead), step):
        live = i + np.flatnonzero(rays.lead[i : i + step, -1] > 0.0)
        index[live] = np.arange(len(live))
        rows = np.flatnonzero((samples.of >= i) & (samples.of < i + step) & (index[samples.of] >= 0))
        if len(rows):
            unit = point(samples.center + samples.directions[live])
            vars(unit).update(v=rays.b[live])  # its eigh is taken where a value on V's support is asked for
            block = on_rays(rows, unit=unit, lead=rays.lead[live])
            vars(block).update(of=index[samples.of[rows]], scale=samples.scale[rows])
            yield rows, block
