"""Exact state algebra for one particle carrying two two-level degrees of freedom.

The Hilbert space is the four-dimensional tensor product of a spin-1/2 and a
two-beam path qubit. Basis order is spin-major:

    index 0: |up, beam I>      index 1: |up, beam II>
    index 2: |down, beam I>    index 3: |down, beam II>

Two commuting families of rank-2 projectors are implemented: spin analyzers
at azimuthal angle ``alpha`` acting only on the spin factor, and path
analyzers (interferometer phase ``chi``) acting only on the path factor.
The ``+1`` spin outcome projects onto (|up> + exp(-i*alpha)|down>)/sqrt(2),
the ``+1`` path outcome onto (|I> + exp(i*chi)|II>)/sqrt(2); the spin angle
deliberately enters with the opposite rotation sense so that the entangled
state built by :func:`bell_state` shows joint fringes in ``alpha + chi``:

    expectation(bell_state(), Setting(alpha, chi)) == cos(alpha + chi)

Preparing the spin along +x/-x instead of up/down only relabels the spin
basis and changes nothing observable, so no second convention is offered.

Everything here is exact linear algebra on 4x4 complex matrices; counting
statistics and instrument imperfections live in :mod:`spinpath.apparatus`
and :mod:`spinpath.montecarlo`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .angles import canonical_angle
from .errors import DomainError, PreconditionError
from .report import format_real

_SIGNS = (1, -1)

_EYE2 = np.eye(2)
_EYE4 = np.eye(4)


def _readonly(array: np.ndarray) -> np.ndarray:
    out = np.array(array, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Setting:
    """One joint analyzer setting (spin angle, path phase), both in radians.

    Angles are stored canonicalized to [0, 2*pi). Non-finite input raises
    :class:`DomainError`.
    """

    alpha: float
    chi: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", canonical_angle(self.alpha))
        object.__setattr__(self, "chi", canonical_angle(self.chi))


@dataclass(frozen=True)
class JointState:
    """Pure state of the spin-path pair, four complex amplitudes, unit norm."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.shape != (4,):
            raise DomainError(f"state needs 4 amplitudes, got shape {amps.shape}")
        if not (np.all(np.isfinite(amps.real)) and np.all(np.isfinite(amps.imag))):
            raise DomainError("state amplitudes must be finite")
        norm = float(np.sum(np.abs(amps) ** 2))
        if abs(norm - 1.0) > 1e-9:
            raise PreconditionError(f"state norm deviates from 1 by {abs(norm - 1.0):.3e}")
        object.__setattr__(self, "amplitudes", _readonly(amps))

    def density(self) -> "DensityOperator":
        return DensityOperator(np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class Operator4:
    """A 4x4 complex operator; ``projector=True`` enforces P = P^dag = P^2."""

    matrix: np.ndarray
    projector: bool = False

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise DomainError(f"operator must be 4x4, got shape {m.shape}")
        if self.projector:
            if np.max(np.abs(m - m.conj().T)) > 1e-12:
                raise PreconditionError("projector is not Hermitian within 1e-12")
            if np.max(np.abs(m @ m - m)) > 1e-12:
                raise PreconditionError("projector is not idempotent within 1e-12")
        object.__setattr__(self, "matrix", _readonly(m))

    def __array__(self, dtype=None, copy=None):
        return np.array(self.matrix, dtype=dtype)


@dataclass(frozen=True)
class DensityOperator:
    """Mixed state: Hermitian, unit trace, positive semidefinite 4x4 matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise DomainError(f"density operator must be 4x4, got shape {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > 1e-12:
            raise PreconditionError("density operator is not Hermitian within 1e-12")
        if abs(np.trace(m).real - 1.0) > 1e-12 or abs(np.trace(m).imag) > 1e-12:
            raise PreconditionError("density operator trace deviates from 1 beyond 1e-12")
        if float(np.linalg.eigvalsh(m)[0]) < -1e-10:
            raise PreconditionError("density operator has an eigenvalue below -1e-10")
        object.__setattr__(self, "matrix", _readonly(m))


def bell_state() -> JointState:
    """Maximally entangled spin-path state (|down,I> + |up,II>)/sqrt(2)."""
    s = 1.0 / math.sqrt(2.0)
    return JointState(np.array([0.0, s, s, 0.0], dtype=complex))


def _check_sign(sign: int) -> int:
    if sign not in _SIGNS:
        raise DomainError(f"outcome sign must be +1 or -1, got {sign!r}")
    return sign


def _spin_qubit_projector(alpha: float, sign: int) -> np.ndarray:
    # Projector onto (|up> + sign*exp(-i*alpha)|down>)/sqrt(2) in the (up, down) basis.
    alpha = canonical_angle(alpha)
    s = _check_sign(sign)
    off = s * cmath.exp(1j * alpha)
    return 0.5 * np.array([[1.0, off], [off.conjugate(), 1.0]])


def _path_qubit_projector(chi: float, sign: int) -> np.ndarray:
    # Projector onto (|I> + sign*exp(i*chi)|II>)/sqrt(2) in the (I, II) basis.
    chi = canonical_angle(chi)
    p = _check_sign(sign)
    off = p * cmath.exp(-1j * chi)
    return 0.5 * np.array([[1.0, off], [off.conjugate(), 1.0]])


def _spin4(alpha: float, sign: int) -> np.ndarray:
    return np.kron(_spin_qubit_projector(alpha, sign), _EYE2)


def _path4(chi: float, sign: int) -> np.ndarray:
    return np.kron(_EYE2, _path_qubit_projector(chi, sign))


def spin_projector(alpha: float, sign: int) -> Operator4:
    """Spin analyzer projector for outcome ``sign`` at angle ``alpha``, tensored
    with the path identity. Satisfies P(alpha, -1) == P(alpha + pi, +1)."""
    return Operator4(_spin4(alpha, sign), projector=True)


def path_projector(chi: float, sign: int) -> Operator4:
    """Path analyzer projector for outcome ``sign`` at phase ``chi``, tensored
    with the spin identity."""
    return Operator4(_path4(chi, sign), projector=True)


def spin_observable(alpha: float) -> Operator4:
    """Dichotomic spin observable P(alpha,+1) - P(alpha,-1)."""
    m = spin_projector(alpha, +1).matrix - spin_projector(alpha, -1).matrix
    return Operator4(m)


def path_observable(chi: float) -> Operator4:
    """Dichotomic path observable P(chi,+1) - P(chi,-1)."""
    m = path_projector(chi, +1).matrix - path_projector(chi, -1).matrix
    return Operator4(m)


def joint_probability(state: JointState, setting: Setting, spin_sign: int, path_sign: int) -> float:
    """Probability of the joint outcome (spin_sign, path_sign) on ``state``.

    Spin and path projections commute, so the successive-measurement
    probability <psi| P_spin P_path |psi> is order-independent and real.
    For the state of :func:`bell_state` it equals
    (1 + spin_sign*path_sign*cos(alpha + chi)) / 4.
    """
    amps = _checked_amplitudes(state)
    op = _spin4(setting.alpha, spin_sign) @ _path4(setting.chi, path_sign)
    return float(np.real(amps.conj() @ op @ amps))


def _checked_amplitudes(state: JointState) -> np.ndarray:
    if not isinstance(state, JointState):
        raise PreconditionError("expected a JointState")
    amps = state.amplitudes
    norm = float(np.sum(np.abs(amps) ** 2))
    if abs(norm - 1.0) > 1e-9:
        raise PreconditionError(f"state norm deviates from 1 by {abs(norm - 1.0):.3e}")
    return amps


def expectation(state: JointState, setting: Setting) -> float:
    """Joint correlation: sum over the four outcomes of sign product times
    probability. Equals cos(alpha + chi) for :func:`bell_state`.

    The minus-sign projectors are the exact complements I - P(+), so each
    analyzer matrix is built once per call.
    """
    amps = _checked_amplitudes(state)
    spin = {1: _spin4(setting.alpha, +1)}
    path = {1: _path4(setting.chi, +1)}
    spin[-1] = _EYE4 - spin[1]
    path[-1] = _EYE4 - path[1]
    total = 0.0
    for s in _SIGNS:
        for p in _SIGNS:
            prob = float(np.real(amps.conj() @ (spin[s] @ path[p]) @ amps))
            total += s * p * prob
    return total


def expectation_mixed(rho: DensityOperator, setting: Setting) -> float:
    """Joint correlation of a mixed state, Tr[rho * S_spin * S_path]."""
    if not isinstance(rho, DensityOperator):
        raise PreconditionError("expectation_mixed expects a DensityOperator")
    op = spin_observable(setting.alpha).matrix @ path_observable(setting.chi).matrix
    return float(np.real(np.trace(rho.matrix @ op)))


def _as_density(state) -> np.ndarray:
    if isinstance(state, JointState):
        return np.outer(state.amplitudes, state.amplitudes.conj())
    if isinstance(state, DensityOperator):
        return np.array(state.matrix)
    raise PreconditionError("expected a JointState or DensityOperator")


def _dephase(state, visibility: float, index_of) -> DensityOperator:
    v = float(visibility)
    if not (math.isfinite(v) and 0.0 <= v <= 1.0):
        raise DomainError(f"visibility must lie in [0, 1], got {format_real(v)}")
    rho = _as_density(state)
    scale = np.empty((4, 4))
    for i in range(4):
        for j in range(4):
            scale[i, j] = 1.0 if index_of(i) == index_of(j) else v
    return DensityOperator(rho * scale)


def dephase_path(state, visibility: float) -> DensityOperator:
    """Scale coherences between the two beams by ``visibility``.

    visibility=1 returns the input unchanged (as a density operator);
    visibility=0 kills all path coherence, and the joint fringe amplitude of
    the entangled state scales linearly: V * cos(alpha + chi).
    """
    return _dephase(state, visibility, lambda i: i % 2)


def dephase_spin(state, visibility: float) -> DensityOperator:
    """Same channel in the spin basis; composing both multiplies the fringe
    amplitudes, so a single effective visibility is their product."""
    return _dephase(state, visibility, lambda i: i // 2)


def reduced_spin(state) -> np.ndarray:
    """Partial trace over the path factor, a 2x2 spin density matrix."""
    rho = _as_density(state)
    return rho.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)


def reduced_path(state) -> np.ndarray:
    """Partial trace over the spin factor, a 2x2 path density matrix."""
    rho = _as_density(state)
    return rho.reshape(2, 2, 2, 2).trace(axis1=0, axis2=2)


def spin_marginal_expectation(state: JointState, alpha: float) -> float:
    """Expectation of the spin observable alone (path ignored)."""
    amps = state.amplitudes
    return float(np.real(amps.conj() @ spin_observable(alpha).matrix @ amps))


def path_marginal_expectation(state: JointState, chi: float) -> float:
    """Expectation of the path observable alone (spin ignored)."""
    amps = state.amplitudes
    return float(np.real(amps.conj() @ path_observable(chi).matrix @ amps))


def factorized_expectation(alpha: float, chi: float) -> float:
    """Joint correlation a separable preparation with the same single-side
    fringes would give: the product cos(alpha)*cos(chi). The entangled state's
    cos(alpha + chi) cannot be written in this form, which is what the
    correlation experiment certifies."""
    return math.cos(canonical_angle(alpha)) * math.cos(canonical_angle(chi))
