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
from functools import lru_cache

import numpy as np

from .angles import canonical_angle
from .errors import DomainError, PreconditionError, check_array, check_int, check_real

_SIGNS = (1, -1)


def _readonly(array: np.ndarray) -> np.ndarray:
    out = np.array(array, dtype=complex)
    out.setflags(write=False)
    return out


def _check_norm(amps: np.ndarray) -> None:
    norm = float(np.vdot(amps, amps).real)
    if abs(norm - 1.0) > 1e-9:
        raise PreconditionError(f"state norm deviates from 1 by {abs(norm - 1.0):.3e}")


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
        amps = check_array(self.amplitudes, "state amplitudes must be complex numbers", complex)
        amps = amps.reshape(-1)
        if amps.shape != (4,):
            raise DomainError(f"state needs 4 amplitudes, got shape {amps.shape}")
        if not (np.all(np.isfinite(amps.real)) and np.all(np.isfinite(amps.imag))):
            raise DomainError("state amplitudes must be finite")
        _check_norm(amps)
        amps = _readonly(amps)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "_normed", amps)  # not a field: outside == and repr

    def density(self) -> "DensityOperator":
        # The squared norm may be off by 1e-9; DensityOperator needs 1e-12.
        amps = self.amplitudes
        return DensityOperator(np.outer(amps, amps.conj()) / float(np.vdot(amps, amps).real))


@dataclass(frozen=True)
class DensityOperator:
    """Mixed state: Hermitian, unit trace, positive semidefinite 4x4 matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = check_array(self.matrix, "density operator entries must be complex numbers", complex)
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


# A factor's analyzer P onto (|0> + sign*exp(-i*phase)|1>)/sqrt(2), tensored
# with the other factor's identity, holds 0.5 on the diagonal,
# 0.5*sign*exp(i*phase) on the two entries above it that join the factor's
# two levels and 0.5 times the conjugate on the two below: spin joins basis
# index k with k + 2, path 2m with 2m + 1. A factor is (the sense in which its
# angle enters the phase, those entries as flat indices into a (2, 4, 4)
# stack: upper, upper, lower, lower, then the same four in the second plane,
# which holds I - P).
_SPIN = (1, np.array([2, 7, 8, 13, 18, 23, 24, 29]))
_PATH = (-1, np.array([1, 11, 4, 14, 17, 27, 20, 30]))
# The diagonal of P and of I - P, and the +0.0 of every other entry.
_HALF_EYES = np.array([0.5 * np.eye(4, dtype=complex)] * 2)
_HALF_EYES.setflags(write=False)


def _with_complement(factor: tuple, angle: float, sign: int) -> np.ndarray:
    # The read-only (2, 4, 4) stack of a factor's analyzer P at ``angle`` and
    # its exact complement I - P, written into a copy of _HALF_EYES. Each
    # entry is the one that 0.5 * [[1, off], [conj(off), 1]] embedded by
    # np.kron and np.eye(4) - P give, except that every zero is +0.0: an
    # entry x of P is 0j - x in I - P, as np.subtract forms it.
    sense, entries = factor
    s = check_int(sign, "outcome sign", -1, 1)
    if s == 0:
        raise DomainError(f"outcome sign must be +1 or -1, got {sign!r}")
    off = s * cmath.exp(1j * (sense * canonical_angle(angle)))
    upper, lower = (0.5 * np.array([off, off.conjugate()])).tolist()
    out = _HALF_EYES.copy()
    out.put(entries, (upper, upper, lower, lower, 0j - upper, 0j - upper, 0j - lower, 0j - lower))
    out.setflags(write=False)
    return out


def _spin4(alpha: float, sign: int) -> np.ndarray:
    # P (x) I, the +1 outcome on (|up> + exp(-i*alpha)|down>)/sqrt(2).
    return _with_complement(_SPIN, alpha, sign)[0]


def _path4(chi: float, sign: int) -> np.ndarray:
    # I (x) P, the +1 outcome on (|I> + exp(i*chi)|II>)/sqrt(2).
    return _with_complement(_PATH, chi, sign)[0]


def spin_projector(alpha: float, sign: int) -> np.ndarray:
    """Spin analyzer projector for outcome ``sign`` at angle ``alpha``, tensored
    with the path identity, as a read-only 4x4 array. Satisfies
    P(alpha, -1) == P(alpha + pi, +1)."""
    return _readonly(_spin4(alpha, sign))


def path_projector(chi: float, sign: int) -> np.ndarray:
    """Path analyzer projector for outcome ``sign`` at phase ``chi``, tensored
    with the spin identity, as a read-only 4x4 array."""
    return _readonly(_path4(chi, sign))


def spin_observable(alpha: float) -> np.ndarray:
    """Dichotomic spin observable P(alpha,+1) - P(alpha,-1), read-only."""
    return _readonly(_spin4(alpha, +1) - _spin4(alpha, -1))


def path_observable(chi: float) -> np.ndarray:
    """Dichotomic path observable P(chi,+1) - P(chi,-1), read-only."""
    return _readonly(_path4(chi, +1) - _path4(chi, -1))


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
    # The read-only array __post_init__ checked and stored passes as it is;
    # one put in its place since, through object.__setattr__, is checked again.
    amps = state.amplitudes
    if amps is not getattr(state, "_normed", None):
        _check_norm(amps)
    return amps


# A CHSH quadruple reads each of its two spin and two path analyzers in two
# of its four terms; these caches let the second read reuse the stack. Keys
# are canonical angles, so -0.0 never meets 0.0.
@lru_cache(maxsize=8)
def _spin_stack(alpha: float) -> np.ndarray:
    return _with_complement(_SPIN, alpha, +1)


@lru_cache(maxsize=8)
def _path_stack(chi: float) -> np.ndarray:
    return _with_complement(_PATH, chi, +1)


def expectation(state: JointState, setting: Setting) -> float:
    """Joint correlation: sum over the four outcomes of sign product times
    probability. Equals cos(alpha + chi) for :func:`bell_state`.

    The minus-sign projectors are the exact complements I - P(+). Each
    factor's (P(+), I - P(+)) stack comes from a read-only cache of the last
    8 canonical angles, one for spin and one for path: the four terms of a
    CHSH quadruple read each of its analyzers twice, so a quadruple builds 4
    stacks, not 8. The four spin-path products, and then the four bra rows,
    are each one stacked ``matmul``; both give the values the 2-D products
    give, bit for bit. The last step stays four 1-D ``row @ amps`` dots: a
    stacked (2, 2, 4) @ (4,) product runs another kernel, and over random
    states and settings it differs from them in the last ulp in about 40% of
    the probabilities.
    """
    if not isinstance(setting, Setting):
        raise PreconditionError("expectation expects a Setting")
    amps = _checked_amplitudes(state)
    spin = _spin_stack(setting.alpha)
    path = _path_stack(setting.chi)
    rows = amps.conj() @ (spin[:, None] @ path)  # rows[i, j]: bra spin[i] path[j]
    total = 0.0
    for i, s in enumerate(_SIGNS):
        for j, p in enumerate(_SIGNS):
            prob = float((rows[i, j] @ amps).real)
            total += s * p * prob
    return total


def expectation_mixed(rho: DensityOperator, setting: Setting) -> float:
    """Joint correlation of a mixed state, Tr[rho * S_spin * S_path]."""
    if not isinstance(rho, DensityOperator):
        raise PreconditionError("expectation_mixed expects a DensityOperator")
    observable = spin_observable(setting.alpha) @ path_observable(setting.chi)
    return float(np.real(np.trace(rho.matrix @ observable)))


# True where row and column lie in the same beam (basis index mod 2).
_SAME_BEAM = np.equal.outer(np.arange(4) % 2, np.arange(4) % 2)


def dephase_path(state: JointState | DensityOperator, visibility: float) -> DensityOperator:
    """Scale coherences between the two beams by ``visibility``.

    visibility=1 returns the input unchanged (as a density operator);
    visibility=0 kills all path coherence, and the joint fringe amplitude of
    the entangled state scales linearly: V * cos(alpha + chi). Applied to
    :func:`bell_state` at V(alpha), this is the instrument model of
    :func:`spinpath.apparatus.predicted_rate`.
    """
    v = check_real(visibility, "visibility", 0.0, 1.0)
    rho = state.density() if isinstance(state, JointState) else state
    if not isinstance(rho, DensityOperator):
        raise PreconditionError("expected a JointState or DensityOperator")
    return DensityOperator(rho.matrix * np.where(_SAME_BEAM, 1.0, v))
