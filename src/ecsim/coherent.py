"""Closed-form meter Grams between coherent states, with no Fock basis.

Each meter (see the measurement module) applies

    K(c, d) = c cos(u p) - i d sin(u p) = k+ D(u) + k- D(-u),  k+- = (c +- d) / 2,

so for two meters of one arm u, K(c1, d1)^dag K(c2, d2) combines 1 and
D(+-2u).  With <x|D(g) D(+-2u)|y> = <x|D(g)|y> e^{+-z - a} for real g,
a = 2u^2 and z = 2u (x* - y - g), every element between coherent states x
and y has a closed form (Sanders, PRA 45, 6811 (1992)):

    <x|K1^dag K2 D(g)|y> = c1* c2 S+ + d1* d2 S- + (c1* d2 - d1* c2) S_odd,

    (S+, S-, S_odd, S_even) = <x|D(g)|y> ((1 + rho)/2, (1 - rho)/2,
                                          e^{-a} sinh(z)/2, e^{-a} cosh(z)/2),

with rho = e^{-a} cosh z (_basis, _element).  The ladder operators pass
through a meter by shift rules: D(u)^dag a D(u) = a + u gives a K = K a +
u K' with K' = K(d, c), so

    a K|y> = (y K + u K')|y>,   a^2 K|y> = ((y^2 + u^2) K + 2 u y K')|y>,

and the parity Pi passes as Pi K(c, d) = K(c, -d) Pi, with Pi|y> = |-y>.
The pointer state is A X^T with the factors A = K_a [N|alpha>, |0>] and
X = K_b [|0>, N|beta>] (see measurement), so each side's 2 x 2 Grams of the
keys 1, n, a and aa (side_grams), and of the displaced parity D(2 gamma) Pi
of the Wigner function (parity_grams), are a few elements each, and a
moment <O_a (x) O_b> is sum_kl GA_kl GB_kl (contract).  The QFI's number
operator terms are z-derivatives of the same basis (_slopes, pointer_qfi).

Two rules keep every digit and every intermediate finite.  1 - rho is
-expm1(-a) - 2 e^{-a} sinh^2(z/2), which keeps its digits at small u.
Where |Re z| > 1, e^{+-z - a} is only ever formed together with
<x|D(g)|y>, as the one exponential <x|D(g +- 2u)|y>, whose modulus is at
most 1.  All of it is scalar math, exact at any cutoff, with no numpy.
"""

from __future__ import annotations

import cmath
import itertools
import math

from .params import CouplingParams, EcsParams, WeakValueParams, _check_p_floor, _meter_rows

# Beyond this distance |x - y - g| the overlap e^{-|x - y - g|^2 / 2}
# underflows to zero, whatever its phase, which need not be finite.
_GAP_UNDERFLOW = 40.0


def _arm(s: float) -> tuple[float, float, float]:
    """(u, e^{-a}, -expm1(-a)) of a meter at coupling s: its arm u = s/2 and a = 2u^2."""
    u = 0.5 * s
    a = 2.0 * u * u
    if not math.isfinite(a):
        raise ValueError(f"coupling s = {s!r} overflows a = 2u^2 of its meter arm u = s/2")
    return u, math.exp(-a), -math.expm1(-a)


def _displaced(x: complex, y: complex, g: float) -> complex:
    """<x|D(g)|y> for a real g, of modulus e^{-|x - y - g|^2 / 2} <= 1."""
    gap = abs(x - y - g)
    if gap > _GAP_UNDERFLOW:
        return 0j
    return cmath.exp(complex(-0.5 * gap * gap, (x.conjugate() * y).imag - g * (x + y).imag))


def _basis(arm: tuple, x: complex, y: complex, g: float = 0.0) -> tuple[complex, complex, complex, complex]:
    """(S+, S-, S_odd, S_even) of the module docstring between coherent states x and y at displacement g."""
    u, decay, grow = arm
    z = 2.0 * u * (x.conjugate() - y - g)
    overlap = _displaced(x, y, g)
    if abs(z.real) <= 1.0 and cmath.isfinite(z):
        # |sinh z| and |cosh z| stay below cosh 1 here, and sinh keeps its digits at small z.
        damped = decay * overlap
        half = cmath.sinh(0.5 * z)
        sh, ch, bend = damped * cmath.sinh(z), damped * cmath.cosh(z), 2.0 * damped * half * half
    else:
        plus, minus = _displaced(x, y, g + 2.0 * u), _displaced(x, y, g - 2.0 * u)
        sh, ch = 0.5 * (plus - minus), 0.5 * (plus + minus)
        bend = ch - decay * overlap
    one_minus = grow * overlap - bend
    return overlap - 0.5 * one_minus, 0.5 * one_minus, 0.5 * sh, 0.5 * ch


def _element(basis: tuple, row_1: tuple, row_2: tuple) -> complex:
    """<x|K(c1, d1)^dag K(c2, d2) D(g)|y> of the meter rows (c1, d1) and (c2, d2), from _basis(arm, x, y, g)."""
    s_plus, s_minus, s_odd, _ = basis
    c1, d1 = row_1[0].conjugate(), row_1[1].conjugate()
    c2, d2 = row_2
    return c1 * c2 * s_plus + d1 * d2 * s_minus + (c1 * d2 - d1 * c2) * s_odd


def _slopes(basis: tuple, row: tuple) -> tuple[complex, complex]:
    """(<x|y> F_z, <x|y> F_zz) of <x|K^dag K|y> = <x|y> F in z, for the meter row (c, d)."""
    _, _, s_odd, s_even = basis
    c, d = row
    spread, kappa = abs(c) ** 2 - abs(d) ** 2, 2j * (c * d.conjugate()).imag
    return spread * s_odd - kappa * s_even, spread * s_even - kappa * s_odd


# <F_k|O|F_l> of each Gram key O, from x = y_k*, y = y_l, the arm u and the
# elements t = (t_00, t_01, t_10, t_11), t_ij = w_k w_l <y_k|K_i^dag K_j|y_l>
# with K_0 = K and K_1 = K', by the shift rules of the module docstring;
# n = a^dag a pairs a F_k with a F_l.
_SHIFTS = {
    "1": lambda t, x, y, u: t[0],
    "a": lambda t, x, y, u: y * t[0] + u * t[1],
    "aa": lambda t, x, y, u: (y * y + u * u) * t[0] + 2.0 * u * y * t[1],
    "n": lambda t, x, y, u: x * (y * t[0] + u * t[1]) + u * (y * t[2] + u * t[3]),
}


def probe_sides(ecs: EcsParams) -> tuple[tuple, tuple]:
    """The columns (weight, amplitude) of the probe's factors: mode a's [N|alpha>, |0>]
    and mode b's [|0>, N|beta>], beta = alpha e^{i varphi}."""
    norm, alpha = ecs.normalization, ecs.alpha
    return ((norm, alpha), (1.0, 0j)), ((1.0, 0j), (norm, alpha * cmath.exp(1j * ecs.varphi)))


def side_grams(row: tuple, s: float, side: tuple, keys=("1",)) -> dict[str, tuple]:
    """{key: (G_00, G_01, G_10, G_11)}: the Grams <F_k|O|F_l> of one side's factor
    F_k = w_k K|y_k> for the meter row (c, d) at coupling s, for each key of _SHIFTS.

    Raises _arm's ValueError when 2u^2 overflows.
    """
    arm = _arm(s)
    # Only the ladder keys need K' = K(d, c).
    pairs = [(row, row)]
    if keys != ("1",):
        swapped = (row[1], row[0])
        pairs += [(row, swapped), (swapped, row), (swapped, swapped)]
    shifts = [_SHIFTS[key] for key in keys]
    cells = []
    for (w_k, y_k), (w_l, y_l) in itertools.product(side, repeat=2):
        basis, weight, x = _basis(arm, y_k, y_l), w_k * w_l, y_k.conjugate()
        t = [weight * _element(basis, *pair) for pair in pairs]
        cells.append([shift(t, x, y_l, arm[0]) for shift in shifts])
    return dict(zip(keys, zip(*cells)))


def parity_grams(row: tuple, s: float, side: tuple, gammas) -> list[tuple]:
    """The Gram <F_k|D(2 gamma) Pi|F_l> of side_grams' factor at each real gamma.

    Pi F_l = w_l K(c, -d)|-y_l>, and D(2 gamma) commutes with the meter, so
    each element is _element at x = y_k, y = -y_l and g = 2 gamma.  The joint
    parity P_J(gamma, beta) = <D_a(gamma) Pi_a D_a(-gamma) (x) D_b(beta) Pi_b
    D_b(-beta)> of the normalized pointer state is contract(GA(gamma),
    GB(beta)) / P_s.
    """
    arm = _arm(s)
    flipped = (row[0], -row[1])
    pairs = list(itertools.product(side, repeat=2))
    return [
        tuple(w_k * w_l * _element(_basis(arm, y_k, -y_l, 2.0 * g), row, flipped) for (w_k, y_k), (w_l, y_l) in pairs)
        for g in gammas
    ]


def contract(g_a: tuple, g_b: tuple) -> complex:
    """sum_kl g_a[kl] g_b[kl]: the moment <O_a (x) O_b> of the raw pointer state from each side's Gram."""
    return g_a[0] * g_b[0] + g_a[1] * g_b[1] + g_a[2] * g_b[2] + g_a[3] * g_b[3]


def pointer_qfi(ecs: EcsParams, wv: WeakValueParams, coupling: CouplingParams) -> float:
    """QFI in varphi of the post-selected pointer family at one point, in closed form.

    The pointer state is A X^T (side_grams' factors), and d/dvarphi |beta> =
    i n |beta>, so only X's second column, X_1 (indices from 0), moves.
    With GA and GB the 2 x 2 Grams of A and X, P = sum_kl GA_kl GB_kl,
    col_k = <X_k|dX_1> and D = <dX_1|dX_1>,

        Q = 4 [ GA_11 D / P - |sum_k GA_k1 col_k / P|^2 ].

    The creation operator is a derivative of the unnormalized coherent
    state, a^dag e^{|y|^2/2}|y> = d/dy e^{|y|^2/2}|y>, so with <x|K^dag K|y> =
    <x|y> F the number operator turns into derivatives of F in z (_slopes):

        <x|K^dag K n|y>   = y <x|y> (x* F - 2u F_z),
        <y|n K^dag K n|y> = |y|^2 [(1 + |y|^2) F + z F_z - 4u^2 F_zz].

    Raises DegeneratePostSelectionError when P is below DEFAULT_P_FLOOR, and
    ValueError for an arm whose 2u^2 overflows or a Q that is not finite.
    """
    row_a, row_b = _meter_rows(wv)
    arm_a, arm_b = _arm(coupling.s1), _arm(coupling.s2)
    alpha, norm, zero = ecs.alpha, ecs.normalization, 0j
    beta = alpha * cmath.exp(1j * ecs.varphi)
    # The Gram entries 00, 01 and 11 of side_grams' key "1", as its elements.
    ga_00 = norm * norm * _element(_basis(arm_a, alpha, alpha), row_a, row_a)
    ga_01 = norm * _element(_basis(arm_a, alpha, zero), row_a, row_a)
    ga_11 = _element(_basis(arm_a, zero, zero), row_a, row_a)
    basis_0, basis = _basis(arm_b, zero, beta), _basis(arm_b, beta, beta)
    f = _element(basis, row_b, row_b)
    gb_00 = _element(_basis(arm_b, zero, zero), row_b, row_b)
    gb_01, gb_11 = norm * _element(basis_0, row_b, row_b), norm * norm * f
    p_s = (ga_00 * gb_00 + ga_11 * gb_11).real + 2.0 * (ga_01 * gb_01).real
    _check_p_floor(p_s)
    u = arm_b[0]
    f_z0 = _slopes(basis_0, row_b)[0]
    f_z, f_zz = _slopes(basis, row_b)
    z = 2.0 * u * (beta.conjugate() - beta)
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
