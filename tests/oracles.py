"""Independent reference constructions used to cross-check the library.

Everything here is built from first principles with plain numpy/scipy so
that agreement with the package is meaningful: coherent amplitudes come
from explicit factorials, displacement operators from their own matrix
exponential, the post-selected pointer state from the full
qubit x qubit x Fock tensor with eigenprojector-expanded couplings, and
the four-branch weights of that expansion from the explicit weak values.
exact_success_probability and exact_moments need no cutoff at all: they sum
closed-form coherent-state overlaps in 40-digit mpmath arithmetic.  No computation is
shared with the code under test.
"""

import math

import mpmath
import numpy as np
from scipy.linalg import expm

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)


def coherent_vector(alpha, n_max):
    """e^{-|alpha|^2/2} alpha^n / sqrt(n!) from explicit factorials."""
    out = np.zeros(n_max + 1, dtype=complex)
    for n in range(n_max + 1):
        out[n] = alpha**n / math.sqrt(math.factorial(n))
    return np.exp(-abs(alpha) ** 2 / 2.0) * out


def ladder_down(n_max):
    mat = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    for n in range(1, n_max + 1):
        mat[n - 1, n] = math.sqrt(n)
    return mat


def create(arr, axis):
    """Creation on one Fock index of an array (a grid, a stack of grids or a
    stack of single-mode factors), grown by one level so it is exact."""
    shape = list(arr.shape)
    shape[axis] += 1
    out = np.zeros(shape, dtype=complex)
    out.swapaxes(axis, -1)[..., 1:] = np.sqrt(np.arange(1.0, shape[axis])) * arr.swapaxes(axis, -1)
    return out


def top_level_mass(amps):
    """Probability mass on the top retained level of either mode, over the
    last two axes of an amplitude grid or a stack of them; the corner cell
    sits in both edges and counts once."""
    top_a = np.sum(np.abs(amps[..., -1, :]) ** 2, axis=-1)
    return top_a + np.sum(np.abs(amps[..., :-1, -1]) ** 2, axis=-1)


def displacement(gamma, n_max):
    a = ladder_down(n_max)
    return expm(gamma * a.conj().T - np.conj(gamma) * a)


def meter_two_pass(u, c, d, factor):
    """k+ D(u) F + k- D(-u) F with k+- = (c +- d) / 2: a meter operator on a
    factor F (dim x m), built from two expm displacements."""
    n_max = factor.shape[0] - 1
    return 0.5 * ((c + d) * displacement(u, n_max) @ factor + (c - d) * displacement(-u, n_max) @ factor)


def displaced_parity(amp, d_a, d_b):
    """(P_J, top-level mass) of the displaced grid d_a @ amp @ d_b^T.

    d_a and d_b are displacement(-gamma, .) and displacement(-beta, .), so
    P_J is the joint-parity Wigner value at (gamma, beta) of a normalized
    amp.  The top-level mass is the weight on the top row plus the top
    column, counting the corner cell once.
    """
    prob = np.abs(d_a @ amp @ d_b.T) ** 2
    sign_a = (-1.0) ** np.arange(prob.shape[0])
    sign_b = (-1.0) ** np.arange(prob.shape[1])
    return float(sign_a @ prob @ sign_b), float(prob[-1, :].sum() + prob[:-1, -1].sum())


def ecs_amplitudes(r, mu, varphi, n_max):
    """Normalized two-mode probe amplitudes on an (n_max+1)^2 grid."""
    alpha = r * np.exp(1j * mu)
    col_a = coherent_vector(alpha, n_max)
    col_b = coherent_vector(alpha * np.exp(1j * varphi), n_max)
    vac = np.zeros(n_max + 1, dtype=complex)
    vac[0] = 1.0
    prefactor = 1.0 / math.sqrt(2.0 * (1.0 + math.exp(-r * r)))
    return prefactor * (np.outer(col_a, vac) + np.outer(vac, col_b))


def qubit_state(theta, delta):
    return np.array(
        [math.cos(theta / 2.0), np.exp(1j * delta) * math.sin(theta / 2.0)],
        dtype=complex,
    )


def meter_overlap(theta1, theta2):
    """omega = cos(theta1 / 2) cos(theta2 / 2), the double |H> overlap."""
    return math.cos(theta1 / 2.0) * math.cos(theta2 / 2.0)


def branch_terms(theta1, delta1, theta2, delta2):
    """Four (weight, sign_a, sign_b) branches of the two-meter expansion.

    Expanding both couplings over their eigenprojectors P_+- gives four
    branches D_a(sign_a u1) D_b(sign_b u2), weighted by (omega / 4) times
    these weights, with w_x = e^{i delta1} tan(theta1 / 2) and
    w_y = -i e^{i delta2} tan(theta2 / 2).  Ordering is fixed: A+ (+,+),
    A- (-,-), B+ (-,+), B- (+,-).  The weights sum to 4, which is what
    collapses the state back to the probe at zero coupling.
    """
    w_x = np.exp(1j * delta1) * math.tan(theta1 / 2.0)
    w_y = -1j * np.exp(1j * delta2) * math.tan(theta2 / 2.0)
    return [
        ((1.0 + w_x) * (1.0 + w_y), +1.0, +1.0),
        ((1.0 - w_x) * (1.0 - w_y), -1.0, -1.0),
        ((1.0 - w_x) * (1.0 + w_y), -1.0, +1.0),
        ((1.0 + w_x) * (1.0 - w_y), +1.0, -1.0),
    ]


def controlled_displacement(sigma, u, n_max):
    """P_+ kron D(+u) + P_- kron D(-u) over the +-1 eigenprojectors of sigma.

    This is the eigenprojector expansion of the coupling unitary
    exp(sigma kron (u a^dag - u* a)).
    """
    eye = np.eye(2, dtype=complex)
    p_plus = (eye + sigma) / 2.0
    p_minus = (eye - sigma) / 2.0
    return np.kron(p_plus, displacement(u, n_max)) + np.kron(
        p_minus, displacement(-u, n_max)
    )


def pivot_phase(amp):
    """Rotate so the largest-magnitude entry is real positive (first flat
    index wins ties), matching the library's output convention."""
    flat = amp.ravel()
    idx = int(np.argmax(np.abs(flat)))
    pivot = flat[idx]
    mag = abs(pivot)
    if mag == 0.0:
        return amp
    return amp * (mag / pivot)


def brute_force_raw_pointer(r, mu, varphi, theta1, delta1, theta2, delta2, s1, s2,
                            n_max, scale=0.5):
    """Unnormalized post-selected pointer amplitudes from the explicit tensor
    construction.

    Meter qubit 1 couples through sigma_x to mode a, meter qubit 2 through
    sigma_y to mode b, with displacement arms u_i = scale * s_i.  Both
    qubits are post-selected on their first basis state.
    """
    dim = n_max + 1
    field = ecs_amplitudes(r, mu, varphi, n_max)
    q1 = qubit_state(theta1, delta1)
    q2 = qubit_state(theta2, delta2)
    joint = np.einsum("i,j,kl->ijkl", q1, q2, field)

    u1_full = controlled_displacement(SIGMA_X, scale * s1, n_max)
    u2_full = controlled_displacement(SIGMA_Y, scale * s2, n_max)
    u1r = u1_full.reshape(2, dim, 2, dim)
    u2r = u2_full.reshape(2, dim, 2, dim)

    joint = np.einsum("AKik,ijkl->AjKl", u1r, joint)
    joint = np.einsum("BLjl,ijkl->iBkL", u2r, joint)

    return joint[0, 0, :, :]


def brute_force_pointer(r, mu, varphi, theta1, delta1, theta2, delta2, s1, s2,
                        n_max, scale=0.5):
    """Normalized phase-fixed pointer amplitudes and the success probability."""
    amp = brute_force_raw_pointer(
        r, mu, varphi, theta1, delta1, theta2, delta2, s1, s2, n_max, scale
    )
    p_s = float(np.sum(np.abs(amp) ** 2))
    return pivot_phase(amp / math.sqrt(p_s)), p_s


def qfi_from_family(family, phi0, h=1e-5):
    """Central-difference QFI of a normalized pure-state family at phi0.

    family(phi) returns an amplitude array.  Q = 4 [ <d psi|d psi> -
    |<psi|d psi>|^2 ], whose projection term makes the value invariant
    under any phi-dependent global phase of the family.
    """
    psi = np.asarray(family(phi0))
    dpsi = (np.asarray(family(phi0 + h)) - np.asarray(family(phi0 - h))) / (2.0 * h)
    return 4.0 * (np.vdot(dpsi, dpsi).real - abs(np.vdot(psi, dpsi)) ** 2)


def _pointer_terms(r, mu, varphi, theta1, delta1, theta2, delta2, s1, s2, scale):
    """The raw pointer state as eight product coherent states (weight, y_a, y_b),
    in the current mpmath precision.

    They are the two probe terms N |alpha>|0> and N |0>|beta> times the
    branches k_a+- D(+-u1) (x) k_b+- D(+-u2), with k_i+- = (c_i +- d_i) / 2,
    u_i = scale s_i and D(v)|x> = e^{(v x* - v* x) / 2} |x + v>.
    """
    mp = [mpmath.mpf(v) for v in (r, mu, varphi, theta1, delta1, theta2, delta2, s1, s2, scale)]
    r, mu, varphi, theta1, delta1, theta2, delta2, s1, s2, scale = mp
    alpha = r * mpmath.expj(mu)
    beta = alpha * mpmath.expj(varphi)
    norm = 1 / mpmath.sqrt(2 * (1 + mpmath.exp(-r * r)))
    meters = [
        (scale * s1, mpmath.cos(theta1 / 2), mpmath.expj(delta1) * mpmath.sin(theta1 / 2)),
        (scale * s2, mpmath.cos(theta2 / 2), -1j * mpmath.expj(delta2) * mpmath.sin(theta2 / 2)),
    ]

    def branches(x, meter):
        u, c, d = meter
        return [((c + sign * d) / 2 * mpmath.exp((sign * u * mpmath.conj(x) - sign * u * x) / 2), x + sign * u)
                for sign in (1, -1)]

    terms = []
    for x_a, x_b in ((alpha, 0), (0, beta)):
        for w_a, y_a in branches(x_a, meters[0]):
            for w_b, y_b in branches(x_b, meters[1]):
                terms.append((norm * w_a * w_b, y_a, y_b))
    return terms


def _overlap(y, x):
    """<y|x> = exp(-|x|^2/2 - |y|^2/2 + y* x)."""
    return mpmath.exp(-abs(x) ** 2 / 2 - abs(y) ** 2 / 2 + mpmath.conj(y) * x)


def exact_success_probability(r, mu, varphi, theta1, delta1, theta2, delta2, s1, s2, scale=0.5):
    """Untruncated P_s to 40 digits: the 64-term sum of the closed-form
    overlaps of _pointer_terms' eight product coherent states."""
    with mpmath.workdps(40):
        terms = _pointer_terms(r, mu, varphi, theta1, delta1, theta2, delta2, s1, s2, scale)
        total = mpmath.mpf(0)
        for w_i, a_i, b_i in terms:
            for w_j, a_j, b_j in terms:
                total += mpmath.conj(w_i) * w_j * _overlap(a_i, a_j) * _overlap(b_i, b_j)
        return mpmath.re(total)


# <y|O|x> / <y|x> of each single-mode operator between coherent states y and x.
_FACTORS = {
    "1": lambda y, x: 1,
    "n": lambda y, x: mpmath.conj(y) * x,
    "a": lambda y, x: x,
    "aa": lambda y, x: x * x,
}

# The moments of exact_moments, each as its pair of single-mode operators.
MOMENTS = {
    "P_s": ("1", "1"),
    "n_a": ("n", "1"),
    "n_b": ("1", "n"),
    "ab": ("a", "a"),
    "a2b2": ("aa", "aa"),
    "n_a n_b": ("n", "n"),
    "parity": ("parity", "parity"),
}


def exact_moments(r, mu, varphi, theta1, delta1, theta2, delta2, s1, s2, gamma=0.0, beta=0.0, scale=0.5,
                  names=tuple(MOMENTS)):
    """Untruncated moments of the pointer state to 40 digits, as complex numbers.

    "P_s" is the raw state's norm; every other of the names in MOMENTS is the
    moment <O_a (x) O_b> of the normalized state: <n_a>, <n_b>, <a b>,
    <a^2 b^2>, <n_a n_b> and the displaced joint parity
    <D_a(2 gamma) Pi_a (x) D_b(2 beta) Pi_b>, the Wigner value P_J(gamma, beta).
    Each is the 64-term sum over _pointer_terms with one factor per operator
    inside each overlap <y_i|y_j>: n gives y_i* y_j, a gives y_j, a^2 gives
    y_j^2, and D(2 g) Pi|x> = e^{g* x - g x*} |2 g - x>.
    """
    with mpmath.workdps(40):
        terms = _pointer_terms(r, mu, varphi, theta1, delta1, theta2, delta2, s1, s2, scale)
        shifts = [mpmath.mpc(gamma), mpmath.mpc(beta)]

        def element(op, mode, y, x):
            if op == "parity":
                g = shifts[mode]
                return mpmath.exp(mpmath.conj(g) * x - g * mpmath.conj(x)) * _overlap(y, 2 * g - x)
            return _FACTORS[op](y, x) * _overlap(y, x)

        sums = {}
        for name in {"P_s", *names}:
            op_a, op_b = MOMENTS[name]
            total = mpmath.mpc(0)
            for w_i, a_i, b_i in terms:
                for w_j, a_j, b_j in terms:
                    total += mpmath.conj(w_i) * w_j * element(op_a, 0, a_i, a_j) * element(op_b, 1, b_i, b_j)
            sums[name] = total
        p_s = sums["P_s"]
        return {name: complex(sums[name] if name == "P_s" else sums[name] / p_s) for name in names}
