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
keys 1, n, a and aa, of the QFI's varphi-derivative keys d and dd
(side_grams, with _slopes), and of the displaced parity D(2 gamma) Pi of
the Wigner function (parity_grams), are a few elements each, and a moment
<O_a (x) O_b> is sum_kl GA_kl GB_kl (contract).

Three rules keep every digit and every intermediate finite.  1 - rho is
-expm1(-a) - 2 e^{-a} sinh^2(z/2), which keeps its digits at small u.
Where |Re z| > 1, e^{+-z - a} is only ever formed together with
<x|D(g)|y>, as the one exponential <x|D(g +- 2u)|y>, whose modulus is at
most 1.  d and dd take n from _slopes, not from the shift rules, which
cancel at large u.  All of it is scalar math, exact at any cutoff, no numpy.
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


# <F_k|O|F_l> of each Gram key O, from x = y_k*, y = y_l, the arm u, the
# elements t = (t_00, t_01, t_10, t_11), t_ij = w_k w_l <y_k|K_i^dag K_j|y_l>
# with K_0 = K and K_1 = K', and f = w_k w_l _slopes, by the shift rules of the
# module docstring: n pairs a F_k with a F_l, and d and dd pair F_k and dF_k with dF_l = i w_l K n|y_l>.
_SHIFTS = {
    "1": lambda t, f, x, y, u: t[0],
    "a": lambda t, f, x, y, u: y * t[0] + u * t[1],
    "aa": lambda t, f, x, y, u: (y * y + u * u) * t[0] + 2.0 * u * y * t[1],
    "n": lambda t, f, x, y, u: x * (y * t[0] + u * t[1]) + u * (y * t[2] + u * t[3]),
    "d": lambda t, f, x, y, u: 1j * y * (x * t[0] - 2.0 * u * f[0]),
    "dd": lambda t, f, x, y, u: x * y * ((1.0 + x * y) * t[0] + 2.0 * u * (x - y) * f[0] - 4.0 * u * u * f[1]),
}


# The keys whose Gram is Hermitian: <F_k|O|F_l> with O = 1, a^dag a, or the Gram of the dF_k.
_HERMITIAN = {"1", "n", "dd"}


def probe_sides(ecs: EcsParams) -> tuple[tuple, tuple]:
    """The columns (weight, amplitude) of the probe's factors: mode a's [N|alpha>, |0>]
    and mode b's [|0>, N|beta>], beta = alpha e^{i varphi}."""
    norm, alpha = ecs.normalization, ecs.alpha
    return ((norm, alpha), (1.0, 0j)), ((1.0, 0j), (norm, alpha * cmath.exp(1j * ecs.varphi)))


def side_grams(row: tuple, s: float, side: tuple, keys=("1",)) -> dict[str, tuple]:
    """{key: (G_00, G_01, G_10, G_11)}: the Grams <F_k|O|F_l> of one side's factor
    F_k = w_k K|y_k> for the meter row (c, d) at coupling s, for each key of _SHIFTS.
    When every key is Hermitian (1, n, dd), G_10 is conj(G_01), not built.

    Raises _arm's ValueError when 2u^2 overflows.
    """
    arm = _arm(s)
    # Only the ladder keys need K' = K(d, c), and only "d" and "dd" the slopes.
    pairs = [(row, row)]
    if {"a", "aa", "n"} & set(keys):
        swapped = (row[1], row[0])
        pairs += [(row, swapped), (swapped, row), (swapped, swapped)]
    hermitian = set(keys) <= _HERMITIAN
    cells = []
    for (w_k, y_k), (w_l, y_l) in itertools.product(side, repeat=2):
        if hermitian and len(cells) == 2:
            cells.append([value.conjugate() for value in cells[1]])
            continue
        basis, weight, x = _basis(arm, y_k, y_l), w_k * w_l, y_k.conjugate()
        t = [weight * _element(basis, *pair) for pair in pairs]
        f = [weight * slope for slope in _slopes(basis, row)] if "d" in keys or "dd" in keys else None
        cells.append([_SHIFTS[key](t, f, x, y_l, arm[0]) for key in keys])
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

    The pointer state is A X^T (side_grams' factors), d/dvarphi |beta> =
    i n |beta>, and with A's Gram GA and X's keys 1, d and dd, P =
    contract(GA, GB_1) and (Braunstein and Caves, PRL 72, 3439 (1994))

        Q = 4 [ contract(GA, GB_dd) / P - |contract(GA, GB_d) / P|^2 ].

    With <x|K^dag K|y> = <x|y> F(z), z = 2u (x* - y), a^dag acting as d/dy on
    e^{|y|^2/2}|y> turns n into derivatives of F in z (_slopes), 0 at y = 0:

        <x|K^dag K n|y>   = y <x|y> (x* F - 2u F_z),
        <x|n K^dag K n|y> = x* y <x|y> [(1 + x* y) F + z F_z - 4u^2 F_zz].

    Raises DegeneratePostSelectionError when P is below DEFAULT_P_FLOOR, and
    ValueError for an arm whose 2u^2 overflows or a Q that is not finite.
    """
    (row_a, row_b), (side_a, side_b) = _meter_rows(wv), probe_sides(ecs)
    g_a = side_grams(row_a, coupling.s1, side_a)["1"]
    g_b = side_grams(row_b, coupling.s2, side_b, ("1", "d", "dd"))
    p_s = contract(g_a, g_b["1"]).real
    _check_p_floor(p_s)
    cross = contract(g_a, g_b["d"]) / p_s
    q = 4.0 * (contract(g_a, g_b["dd"]).real / p_s - (cross.real * cross.real + cross.imag * cross.imag))
    if not math.isfinite(q):
        raise ValueError(
            f"the closed-form QFI at r = {ecs.r!r}, s1 = {coupling.s1!r}, s2 = {coupling.s2!r} is {q!r}, "
            "not a finite double"
        )
    return q


def qcrb(qfi: float) -> float:
    """The single-shot quantum Cramer-Rao bound delta_phi = 1 / sqrt(qfi); ValueError unless qfi > 0 is finite."""
    if not (qfi > 0.0 and math.isfinite(qfi)):
        raise ValueError(f"qcrb requires qfi > 0, got {qfi!r}")
    return 1.0 / math.sqrt(qfi)
