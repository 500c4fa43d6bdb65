"""Closed-form meter moments between coherent states, with no Fock basis.

Each meter (see the measurement module) applies

    K = c cos(u p) - i d sin(u p) = k+ D(u) + k- D(-u),  k+- = (c +- d) / 2,

so K^dag K = (|c|^2 + |d|^2) / 2 + k+* k- D(-2u) + k-* k+ D(2u).  With
<x|D(+-2u)|y> = <x|y> e^{+-z - a}, a = 2u^2 and z = 2u (x* - y), every
moment between coherent states x and y has a closed form (Sanders, PRA 45,
6811 (1992)):

    <x|K^dag K|y> = <x|y> F,
    F = |c|^2 (1 + rho) / 2 + |d|^2 (1 - rho) / 2 - kappa e^{-a} sinh(z) / 2,

with rho = e^{-a} cosh z and kappa = 2i Im(c d*).  The creation operator
is a derivative of the unnormalized coherent state, a^dag e^{|y|^2/2}|y> =
d/dy e^{|y|^2/2}|y>, so a number operator turns into derivatives of F in z:

    <x|K^dag K n|y>   = y <x|y> (x* F - 2u F_z),
    <y|n K^dag K n|y> = |y|^2 [(1 + |y|^2) F + z F_z - 4u^2 F_zz].

Two rules keep every digit and every intermediate finite.  1 - rho is
-expm1(-a) - 2 e^{-a} sinh^2(z/2), which keeps its digits at small u.
Where |Re z| > 1, e^{+-z - a} is only ever formed together with <x|y>, as
the one exponential <x|D(+-2u)|y>, whose modulus is at most 1.  All of it is
scalar math at one point, exact at any cutoff.
"""

from __future__ import annotations

import cmath
import math

from .measurement import CouplingParams, EcsParams, WeakValueParams, _check_p_floor, _meter_rows

# Beyond this distance |x - y - g| the overlap e^{-|x - y - g|^2 / 2}
# underflows to zero, whatever its phase, which need not be finite.
_GAP_UNDERFLOW = 40.0


def _meter(c: complex, d: complex, s: float) -> tuple:
    """(|c|^2, |d|^2, kappa, u, e^{-a}, -expm1(-a)) of the meter (c, d) at coupling s, arm u = s/2."""
    u = 0.5 * s
    a = 2.0 * u * u
    if not math.isfinite(a):
        raise ValueError(f"coupling s = {s!r} overflows a = 2u^2 of its meter arm u = s/2")
    return abs(c) ** 2, abs(d) ** 2, 2j * (c * d.conjugate()).imag, u, math.exp(-a), -math.expm1(-a)


def _displaced(x: complex, y: complex, g: float) -> complex:
    """<x|D(g)|y> for a real g, of modulus e^{-|x - y - g|^2 / 2} <= 1."""
    gap = abs(x - y - g)
    if gap > _GAP_UNDERFLOW:
        return 0j
    return cmath.exp(complex(-0.5 * gap * gap, (x.conjugate() * y).imag - g * (x + y).imag))


def _terms(meter: tuple, x: complex, y: complex) -> tuple[complex, complex, complex, complex]:
    """(<x|y> F, <x|y> F_z, <x|y> F_zz, z) of one meter between coherent states x and y."""
    cc, dd, kappa, u, decay, grow = meter
    z = 2.0 * u * (x.conjugate() - y)
    overlap = _displaced(x, y, 0.0)
    if abs(z.real) <= 1.0 and cmath.isfinite(z):
        # |sinh z| and |cosh z| stay below cosh 1 here, and sinh keeps its digits at small z.
        damped = decay * overlap
        half = cmath.sinh(0.5 * z)
        sh, ch, bend = damped * cmath.sinh(z), damped * cmath.cosh(z), 2.0 * damped * half * half
    else:
        plus, minus = _displaced(x, y, 2.0 * u), _displaced(x, y, -2.0 * u)
        sh, ch = 0.5 * (plus - minus), 0.5 * (plus + minus)
        bend = ch - decay * overlap
    one_minus = grow * overlap - bend
    f = cc * (overlap - 0.5 * one_minus) + 0.5 * dd * one_minus - 0.5 * kappa * sh
    return f, 0.5 * ((cc - dd) * sh - kappa * ch), 0.5 * ((cc - dd) * ch - kappa * sh), z


def pointer_qfi(ecs: EcsParams, wv: WeakValueParams, coupling: CouplingParams) -> float:
    """QFI in varphi of the post-selected pointer family at one point, in closed form.

    The pointer state is A X^T with A = K_a [N|alpha>, |0>] and
    X = K_b [|0>, N|beta>], beta = alpha e^{i varphi}, and d/dvarphi |beta> =
    i n |beta>, so only X's second column, X_1 (indices from 0), moves.
    With GA and GB the 2 x 2 Grams of A and X, P = sum_kl GA_kl GB_kl,
    col_k = <X_k|dX_1> and D = <dX_1|dX_1>,

        Q = 4 [ GA_11 D / P - |sum_k GA_k1 col_k / P|^2 ].

    Raises DegeneratePostSelectionError when P is below DEFAULT_P_FLOOR, and
    ValueError for an arm whose 2u^2 overflows or a Q that is not finite.
    """
    (c_a, d_a), (c_b, d_b) = _meter_rows(wv)
    meter_a, meter_b = _meter(c_a, d_a, coupling.s1), _meter(c_b, d_b, coupling.s2)
    alpha, norm, zero = ecs.alpha, ecs.normalization, 0j
    beta = alpha * cmath.exp(1j * ecs.varphi)
    ga_00 = norm * norm * _terms(meter_a, alpha, alpha)[0]
    ga_01 = norm * _terms(meter_a, alpha, zero)[0]
    ga_11 = _terms(meter_a, zero, zero)[0]
    f_0, f_z0, _, _ = _terms(meter_b, zero, beta)
    f, f_z, f_zz, z = _terms(meter_b, beta, beta)
    gb_00, gb_01, gb_11 = _terms(meter_b, zero, zero)[0], norm * f_0, norm * norm * f
    p_s = (ga_00 * gb_00 + ga_11 * gb_11).real + 2.0 * (ga_01 * gb_01).real
    _check_p_floor(p_s)
    u = meter_b[3]
    col_0 = -2j * u * norm * beta * f_z0
    col_1 = 1j * norm * norm * beta * (beta.conjugate() * f - 2.0 * u * f_z)
    cross = (ga_01 * col_0 + ga_11 * col_1) / p_s
    size = (beta.conjugate() * beta).real
    d_norm = norm * norm * size * ((1.0 + size) * f + z * f_z - 4.0 * u * u * f_zz).real
    q = 4.0 * (ga_11.real * d_norm / p_s - (cross.real * cross.real + cross.imag * cross.imag))
    if not math.isfinite(q):
        raise ValueError(
            f"the closed-form QFI at r = {ecs.r!r}, s1 = {coupling.s1!r}, s2 = {coupling.s2!r} overflows a double"
        )
    return q
