"""Two-component spinor families and the Weyl operator residual.

The package works with the closed-form spinor family parameterized by an
angle history (theta(t), phi(t)) and a free phase h(x, y, z, t):

    positive helicity: ( cos(theta/2), e^{i phi} sin(theta/2) ) e^{i h}
    negative helicity: ( -sin(theta/2), e^{i phi} cos(theta/2) ) e^{i h}

Both are unit norm by construction.  `weyl_residual` measures how well a
potential and the spinor it carries (its law, phase h and helicity)
satisfy the first-order Weyl equation for that helicity, using central
finite differences for the derivatives; it is the package's independent
check that a potential actually belongs to its spinor.

Only the two-component forms live here.  The same construction embeds in
the massless four-component (Dirac) setting, but that wrapper is out of
scope for this package.

`Event` may carry equal-shape arrays, one entry per draw, and then
`build_spinor` and `weyl_residual` return arrays over the draws; a
scalar event gives scalars through the same code.

Central differences read a function on a stencil of 9 events: the event
itself, then its shifts by +step and -step along t, x, y and z
(`stencil`).  Each shift rounds as c + step and c + (-step).  For an
array event of shape s, `on_stencil` calls the function once, on the 9
events stacked on a new leading axis (shape (9,) + s); a scalar event
is evaluated one row at a time, in row order, so that an expression
error raises where a loop of shifted events would raise.
`weyl_residual` and `potentials.field_from_potential_numeric` both
difference through it.

The array path rounds exactly as one scalar call per draw:

- spinors and residuals are held as real/imaginary float pairs, with
  CPython's complex product (ar*br - ai*bi, ar*bi + ai*br) and the
  Pauli products written out (their entries 0, +-1, +-i are exact);
  numpy's complex multiply and complex abs differ in the last bit;
- |r| is np.hypot, which equals abs(complex);
- |r|^2 goes through libm pow (`elementwise_pow`), as numpy float64
  scalars square; the array `**2` rounds differently on some values.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .expressions import AngleLaw, ScalarField, elementwise_pow

__all__ = [
    "Helicity",
    "Event",
    "build_spinor",
    "stencil",
    "on_stencil",
    "weyl_residual",
]


class Helicity(Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"

    @property
    def sign(self) -> int:
        return 1 if self is Helicity.POSITIVE else -1


@dataclass(frozen=True)
class Event:
    """Spacetime point, or equal-shape arrays of points."""

    x: float
    y: float
    z: float
    t: float

    def __post_init__(self):
        for name in ("x", "y", "z", "t"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"non-finite event coordinate {name}")


STENCIL_AXES = ("t", "x", "y", "z")


def stencil(ev: Event, step: float) -> Event:
    """ev and its +-step shifts, stacked on a new leading axis of 9 rows.

    Row 0 is ev; rows 2i + 1 and 2i + 2 shift axis STENCIL_AXES[i] by
    +step and by -step, as c + step and c + (-step).
    """
    if step <= 0:
        raise ValueError("step must be positive")
    shape = np.broadcast(ev.x, ev.y, ev.z, ev.t).shape
    coords = np.empty((4, 9) + shape)
    for i, axis in enumerate(STENCIL_AXES):
        coords[i] = getattr(ev, axis)
        coords[i, 2 * i + 1] += step
        coords[i, 2 * i + 2] += -step
    t, x, y, z = coords
    return Event(x, y, z, t)


def on_stencil(fn, ev: Event, step: float, centre: bool = True) -> np.ndarray:
    """The values fn(event) on ev's stencil, as one array of shape
    (len(values), rows) + ev's shape; centre=False leaves out row 0.

    An array event is stacked and fn is called once; values that come
    back as scalars or per-draw arrays are broadcast over the rows.  A
    scalar event calls fn on one row at a time, in row order.
    """
    rows = stencil(ev, step)
    if not centre:
        rows = Event(rows.x[1:], rows.y[1:], rows.z[1:], rows.t[1:])
    if rows.t.ndim == 1:
        events = zip(rows.x.tolist(), rows.y.tolist(), rows.z.tolist(),
                     rows.t.tolist())
        return np.array([fn(Event(*row)) for row in events]).swapaxes(0, 1)
    values = fn(rows)
    out = np.empty((len(values),) + rows.t.shape)
    for i, v in enumerate(values):
        out[i] = v
    return out


def _complex(re, im):
    if np.ndim(re) == 0 and np.ndim(im) == 0:
        return complex(re, im)
    re, im = np.broadcast_arrays(re, im)
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _unit_parts(theta, phi, helicity: Helicity):
    """(c1.real, c1.imag, c2.real, c2.imag) before the overall phase."""
    half = 0.5 * theta
    if helicity is Helicity.POSITIVE:
        a, b = np.cos(half), np.sin(half)
    else:
        a, b = -np.sin(half), np.cos(half)
    return a, 0.0, np.cos(phi) * b, np.sin(phi) * b


def _spinor_parts(law: AngleLaw, h: ScalarField | None, helicity: Helicity,
                  ev: Event):
    theta, phi = law.angles(ev.t)
    c1r, c1i, c2r, c2i = _unit_parts(theta, phi, helicity)
    if h is None:
        return c1r, c1i, c2r, c2i
    value = h.value(ev.x, ev.y, ev.z, ev.t)
    hr, hi = np.cos(value), np.sin(value)
    # c *= e^{i h} in CPython's product formula; c1 is real
    return c1r * hr, c1r * hi, c2r * hr - c2i * hi, c2r * hi + c2i * hr


def build_spinor(law: AngleLaw, h: ScalarField | None, helicity: Helicity,
                 ev: Event):
    """The spinor (c1, c2) at the event, with its phase e^{i h}."""
    c1r, c1i, c2r, c2i = _spinor_parts(law, h, helicity, ev)
    return _complex(c1r, c1i), _complex(c2r, c2i)


def weyl_residual(potential, ev: Event, step: float = 1e-5):
    """Norm of the Weyl equation for a potential and its own spinor (its
    `law`, phase `h` and `helicity`) at one event.

    Derivatives are second-order central differences with the given
    step, so the residual of an exact spinor/potential pair vanishes as
    O(step^2); no normalization is applied to the result.  An array
    event gives an array of residuals.  A potential without a helicity
    (the kappa * gauge part alone) has no spinor and is refused.
    """
    law, h, helicity = potential.law, potential.h, potential.helicity
    if helicity is None:
        raise ValueError("a potential without a helicity has no spinor")
    parts = on_stencil(lambda e: _spinor_parts(law, h, helicity, e), ev, step)
    ur, ui, wr, wi = parts[:, 0]
    # rows of d: t, x, y, z; columns: ur, ui, wr, wi
    d = ((parts[:, 1::2] - parts[:, 2::2]) * (0.5 / step)).swapaxes(0, 1)
    (tur, tui, twr, twi), (xur, xui, xwr, xwi) = d[0], d[1]
    (yur, yui, ywr, ywi), (zur, zui, zwr, zwi) = d[2], d[3]
    b0, b1, b2, b3 = potential.components(ev)
    # i sigma_mu d_mu psi + b_mu sigma_mu psi, summed t, x, y, z, then
    # b0..b3; the mirrored set flips the sign of every spatial term
    s = helicity.sign
    up_re = (-tui + s * -xwi + s * ywr + s * -zui
             + b0 * ur + s * (b1 * wr) + s * (b2 * wi) + s * (b3 * ur))
    up_im = (tur + s * xwr + s * ywi + s * zur
             + b0 * ui + s * (b1 * wi) + s * -(b2 * wr) + s * (b3 * ui))
    lo_re = (-twi + s * -xui + s * -yur + s * zwi
             + b0 * wr + s * (b1 * ur) + s * -(b2 * ui) + s * -(b3 * wr))
    lo_im = (twr + s * xur + s * -yui + s * -zwr
             + b0 * wi + s * (b1 * ui) + s * (b2 * ur) + s * -(b3 * wi))
    total = np.sqrt(elementwise_pow(np.hypot(up_re, up_im), 2.0)
                    + elementwise_pow(np.hypot(lo_re, lo_im), 2.0))
    shape = np.broadcast(ev.x, ev.y, ev.z, ev.t).shape
    return np.broadcast_to(total, shape) if shape else float(total)
