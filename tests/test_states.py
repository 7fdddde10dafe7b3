"""Quantum core: basis conventions, projector algebra, correlation laws."""

import cmath
import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinpath import (
    DensityOperator,
    DomainError,
    JointState,
    PreconditionError,
    Setting,
    bell_state,
    dephase_path,
    expectation,
    expectation_mixed,
    joint_probability,
    path_observable,
    path_projector,
    spin_observable,
    spin_projector,
)
from spinpath.angles import canonical_angle
from spinpath.states import _path4, _path_stack, _spin4, _spin_stack

RT2 = math.sqrt(2.0)


def random_state(rng) -> JointState:
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps /= np.linalg.norm(amps)
    return JointState(tuple(amps))


def random_product_state(rng) -> JointState:
    spin = rng.normal(size=2) + 1j * rng.normal(size=2)
    path = rng.normal(size=2) + 1j * rng.normal(size=2)
    spin /= np.linalg.norm(spin)
    path /= np.linalg.norm(path)
    return JointState(tuple(np.kron(spin, path)))


def test_bell_state_amplitudes():
    state = bell_state()
    want = np.array([0.0, 1.0 / RT2, 1.0 / RT2, 0.0])
    assert np.allclose(np.asarray(state.amplitudes), want, atol=1e-15)
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12


def test_bell_state_marginals_maximally_mixed():
    # partial traces over the path and over the spin factor
    blocks = bell_state().density().matrix.reshape(2, 2, 2, 2)
    assert np.allclose(blocks.trace(axis1=1, axis2=3), np.eye(2) / 2.0, atol=1e-12)
    assert np.allclose(blocks.trace(axis1=0, axis2=2), np.eye(2) / 2.0, atol=1e-12)


def test_joint_state_validation():
    with pytest.raises(PreconditionError):
        JointState((1.0, 1.0, 0.0, 0.0))  # unnormalized
    with pytest.raises(DomainError):
        JointState((1.0, 0.0, 0.0))  # wrong length
    with pytest.raises(DomainError):
        JointState((math.nan, 0.0, 0.0, 0.0))


def test_setting_canonicalization():
    s = Setting(-math.pi / 2.0, 5.0 * math.pi)
    assert 0.0 <= s.alpha < 2.0 * math.pi
    assert 0.0 <= s.chi < 2.0 * math.pi
    assert abs(s.alpha - 1.5 * math.pi) < 1e-12
    assert abs(s.chi - math.pi) < 1e-12
    with pytest.raises(DomainError):
        Setting(math.inf, 0.0)


def test_spin_projector_structure():
    p = np.asarray(spin_projector(0.0, +1))
    # rank-1 spin projector tensored with the 2-dim path identity
    assert abs(np.trace(p).real - 2.0) < 1e-14
    assert np.allclose(p, p.conj().T, atol=1e-14)
    assert np.allclose(p @ p, p, atol=1e-14)


def test_projector_completeness():
    rng = np.random.default_rng(11)
    for _ in range(50):
        angle = rng.uniform(0.0, 2.0 * math.pi)
        total_s = np.asarray(spin_projector(angle, +1)) + np.asarray(spin_projector(angle, -1))
        total_p = np.asarray(path_projector(angle, +1)) + np.asarray(path_projector(angle, -1))
        assert np.allclose(total_s, np.eye(4), atol=1e-14)
        assert np.allclose(total_p, np.eye(4), atol=1e-14)


def test_projector_shift_identity():
    rng = np.random.default_rng(12)
    for _ in range(50):
        angle = rng.uniform(-10.0, 10.0)
        assert np.allclose(
            np.asarray(spin_projector(angle, -1)),
            np.asarray(spin_projector(angle + math.pi, +1)),
            atol=1e-14,
        )
        assert np.allclose(
            np.asarray(path_projector(angle, -1)),
            np.asarray(path_projector(angle + math.pi, +1)),
            atol=1e-14,
        )


def test_spin_path_projectors_commute():
    rng = np.random.default_rng(13)
    for _ in range(50):
        alpha = rng.uniform(0.0, 2.0 * math.pi)
        chi = rng.uniform(0.0, 2.0 * math.pi)
        for s in (+1, -1):
            for p in (+1, -1):
                a = np.asarray(spin_projector(alpha, s))
                b = np.asarray(path_projector(chi, p))
                comm = a @ b - b @ a
                assert np.max(np.abs(comm)) < 1e-14


def test_projector_sign_validation():
    with pytest.raises(DomainError):
        spin_projector(0.0, 0)
    with pytest.raises(DomainError):
        path_projector(0.0, 2)
    with pytest.raises(DomainError):
        spin_projector(math.nan, 1)
    with pytest.raises(DomainError, match=r"outcome sign must be \+1 or -1, got 0"):
        path_projector(0.3, 0)
    # An outcome sign is an integer argument: a bool or a float is refused.
    for bad in (True, -1.0, np.float64(-1.0)):
        with pytest.raises(DomainError, match="outcome sign must be an integer"):
            spin_projector(0.3, bad)
        with pytest.raises(DomainError, match="outcome sign must be an integer"):
            joint_probability(bell_state(), Setting(0.3, 0.2), 1, bad)
    assert np.array_equal(spin_projector(0.3, np.int64(-1)), spin_projector(0.3, -1))


def test_spin_projector_on_up_path_one():
    # half-pi analyzer applied to |up, I>: squared norm drops to 1/2
    state = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    p = np.asarray(spin_projector(math.pi / 2.0, +1))
    out = p @ state
    assert abs(np.vdot(out, out).real - 0.5) < 1e-12


def test_joint_probability_values():
    state = bell_state()
    # (+,+) channel at (0, 0): (1 + cos 0)/4 = 1/2
    assert abs(joint_probability(state, Setting(0.0, 0.0), +1, +1) - 0.5) < 1e-12
    # extinguished channel
    assert abs(joint_probability(state, Setting(math.pi, 0.0), +1, +1)) < 1e-12


def test_joint_probability_normalization_property():
    rng = np.random.default_rng(14)
    for _ in range(1000):
        state = random_state(rng)
        setting = Setting(rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 2.0 * math.pi))
        total = 0.0
        for s in (+1, -1):
            for p in (+1, -1):
                prob = joint_probability(state, setting, s, p)
                assert -1e-12 <= prob <= 1.0 + 1e-12
                total += prob
        assert abs(total - 1.0) < 1e-12


def test_joint_probability_rejects_unnormalized_state():
    state = bell_state()
    object.__setattr__(state, "amplitudes", (0.5, 0.5, 0.0, 0.0))
    with pytest.raises(PreconditionError):
        joint_probability(state, Setting(0.0, 0.0), +1, +1)


def test_expectation_rechecks_only_a_replaced_amplitude_array():
    # Only the array the constructor checked skips the norm check: one put
    # in its place is checked, even a read-only one. The record is no field.
    state = bell_state()
    assert "_normed" not in repr(state)
    halved = np.array([0.0, 0.5, 0.5, 0.0], dtype=complex)
    halved.setflags(write=False)
    object.__setattr__(state, "amplitudes", halved)
    with pytest.raises(PreconditionError, match="state norm deviates"):
        expectation(state, Setting(0.0, 0.0))


def test_expectation_sinusoid_law():
    state = bell_state()
    assert abs(expectation(state, Setting(math.pi / 2.0, -math.pi / 4.0)) - math.cos(math.pi / 4.0)) < 1e-12
    assert abs(expectation(state, Setting(0.0, math.pi / 2.0))) < 1e-12
    rng = np.random.default_rng(15)
    for _ in range(200):
        alpha = rng.uniform(-8.0, 8.0)
        chi = rng.uniform(-8.0, 8.0)
        got = expectation(state, Setting(alpha, chi))
        assert abs(got - math.cos(alpha + chi)) < 1e-12


def test_expectation_equals_signed_probability_sum():
    rng = np.random.default_rng(16)
    for _ in range(100):
        state = random_state(rng)
        setting = Setting(rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 2.0 * math.pi))
        direct = expectation(state, setting)
        summed = sum(
            s * p * joint_probability(state, setting, s, p)
            for s in (+1, -1)
            for p in (+1, -1)
        )
        assert abs(direct - summed) < 1e-12
        assert -1.0 - 1e-12 <= direct <= 1.0 + 1e-12


def test_observables_are_projector_differences():
    alpha = 0.83
    want = np.asarray(spin_projector(alpha, +1)) - np.asarray(spin_projector(alpha, -1))
    assert np.allclose(np.asarray(spin_observable(alpha)), want, atol=1e-14)
    chi = 2.31
    want = np.asarray(path_projector(chi, +1)) - np.asarray(path_projector(chi, -1))
    assert np.allclose(np.asarray(path_observable(chi)), want, atol=1e-14)


def test_expectation_mixed_matches_pure():
    state = bell_state()
    rho = state.density()
    rng = np.random.default_rng(17)
    for _ in range(50):
        setting = Setting(rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 2.0 * math.pi))
        assert abs(expectation_mixed(rho, setting) - expectation(state, setting)) < 1e-12


def test_expectation_mixed_maximally_mixed_is_zero():
    rho = DensityOperator(np.eye(4) / 4.0)
    rng = np.random.default_rng(18)
    for _ in range(20):
        setting = Setting(rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 2.0 * math.pi))
        assert abs(expectation_mixed(rho, setting)) < 1e-12


def test_density_operator_validation():
    with pytest.raises(PreconditionError):
        DensityOperator(np.eye(4))  # trace 4
    bad = np.diag([0.5, 0.5, 0.5, -0.5])
    with pytest.raises(PreconditionError):
        DensityOperator(bad)
    asym = np.eye(4) / 4.0
    asym = asym.astype(complex)
    asym[0, 1] = 0.3j
    with pytest.raises(PreconditionError):
        DensityOperator(asym)


@pytest.mark.parametrize("scale", [1.0 - 4.9e-10, 1.0 + 1e-10, 1.0 + 4.9e-10])
def test_every_accepted_state_has_a_density_operator(scale):
    # JointState accepts a squared norm off by up to 1e-9, DensityOperator
    # only a trace off by 1e-12: density() normalizes
    state = JointState(bell_state().amplitudes * scale)
    assert abs(np.trace(state.density().matrix) - 1.0) < 1e-12
    setting = Setting(0.3, 1.1)
    got = expectation_mixed(dephase_path(state, 0.5), setting)
    assert abs(got - 0.5 * expectation(bell_state(), setting)) < 1e-12


def test_dephase_path_scales_expectation():
    state = bell_state()
    for v in (0.0, 0.25, 0.5, 0.707, 0.73, 1.0):
        rho = dephase_path(state, v)
        for alpha, chi in ((0.3, 1.1), (2.7, 5.5), (0.79 * math.pi, 1.29 * math.pi)):
            got = expectation_mixed(rho, Setting(alpha, chi))
            want = v * expectation(state, Setting(alpha, chi))
            assert abs(got - want) < 1e-12


def test_dephase_composition_multiplies_contrasts():
    # dephasing a density operator again multiplies the two contrasts
    state = bell_state()
    rho = dephase_path(dephase_path(state, 0.95), 0.91)
    got = expectation_mixed(rho, Setting(1.0, 0.5))
    assert abs(got - 0.95 * 0.91 * math.cos(1.5)) < 1e-12


def test_dephase_validation():
    state = bell_state()
    with pytest.raises(DomainError):
        dephase_path(state, 1.2)
    with pytest.raises(DomainError):
        dephase_path(state, -0.1)
    with pytest.raises(PreconditionError):
        dephase_path((1.0, 0.0, 0.0, 0.0), 0.5)


def test_dephase_identity_and_full():
    state = bell_state()
    rho1 = dephase_path(state, 1.0)
    assert np.allclose(rho1.matrix, state.density().matrix, atol=1e-14)
    rho0 = dephase_path(state, 0.0)
    for alpha, chi in ((0.0, 0.0), (1.0, 2.0)):
        assert abs(expectation_mixed(rho0, Setting(alpha, chi))) < 1e-12


def test_marginals_vanish_on_bell_state():
    amps = bell_state().amplitudes
    rng = np.random.default_rng(19)
    for _ in range(100):
        assert abs(amps.conj() @ spin_observable(rng.uniform(0.0, 7.0)) @ amps) < 1e-12
        assert abs(amps.conj() @ path_observable(rng.uniform(0.0, 7.0)) @ amps) < 1e-12


def test_non_factorizability_witness():
    state = bell_state()
    got = expectation(state, Setting(math.pi / 4.0, math.pi / 4.0))
    product = math.cos(math.pi / 4.0) * math.cos(math.pi / 4.0)
    assert abs(got) < 1e-12
    assert abs(product - 0.5) < 1e-12
    assert abs(abs(got - product) - 0.5) < 1e-12


def test_product_state_expectation_factorizes():
    rng = np.random.default_rng(20)
    for _ in range(100):
        state = random_product_state(rng)
        alpha = rng.uniform(0.0, 2.0 * math.pi)
        chi = rng.uniform(0.0, 2.0 * math.pi)
        joint = expectation(state, Setting(alpha, chi))
        amps = state.amplitudes
        spin = (amps.conj() @ spin_observable(alpha) @ amps).real
        path = (amps.conj() @ path_observable(chi) @ amps).real
        assert abs(joint - spin * path) < 1e-12


def test_expectation_rejects_a_non_setting():
    with pytest.raises(PreconditionError, match="Setting"):
        expectation(bell_state(), (0.1, 0.2))


def test_marginals_of_a_density_operator():
    # path dephasing leaves the spin marginal Tr[rho O] alone and scales the path one
    rng = np.random.default_rng(21)
    for _ in range(20):
        state = random_state(rng)
        pure = state.density().matrix
        rho = dephase_path(state, 0.5).matrix
        angle = rng.uniform(0.0, 2.0 * math.pi)
        spin, path = spin_observable(angle), path_observable(angle)
        assert abs(np.trace(rho @ spin) - np.trace(pure @ spin)) < 1e-12
        assert abs(np.trace(rho @ path) - 0.5 * np.trace(pure @ path)) < 1e-12


_ANGLE = st.floats(min_value=-20.0, max_value=20.0)
_COMPONENT = st.floats(min_value=-1.0, max_value=1.0)


def _qubit(off):
    # The 2x2 projector with off-diagonal ``off`` in its upper right.
    return 0.5 * np.array([[1.0, off], [off.conjugate(), 1.0]])


def _kron_spin(alpha, s):
    """P (x) I from the documented spin analyzer, built with np.kron."""
    return np.kron(_qubit(s * cmath.exp(1j * canonical_angle(alpha))), np.eye(2))


def _kron_path(chi, p):
    """I (x) P from the documented path analyzer, built with np.kron."""
    return np.kron(np.eye(2), _qubit(p * cmath.exp(-1j * canonical_angle(chi))))


def _kron_expectation(state, setting):
    """The expectation as built with np.kron factors: the reference the
    block-built analyzers must match bit for bit."""
    amps = state.amplitudes
    spin = {1: _kron_spin(setting.alpha, +1)}
    path = {1: _kron_path(setting.chi, +1)}
    spin[-1] = np.eye(4) - spin[1]
    path[-1] = np.eye(4) - path[1]
    total = 0.0
    for s in (1, -1):
        for p in (1, -1):
            total += s * p * float(np.real(amps.conj() @ (spin[s] @ path[p]) @ amps))
    return total


@given(
    parts=st.lists(_COMPONENT, min_size=8, max_size=8).filter(
        lambda xs: sum(x * x for x in xs) > 1e-3
    ),
    alpha=_ANGLE,
    chi=_ANGLE,
)
def test_expectation_is_bit_identical_to_kron_reference(parts, alpha, chi):
    amps = np.array(parts[:4]) + 1j * np.array(parts[4:])
    state = JointState(amps / np.linalg.norm(amps))
    setting = Setting(alpha, chi)
    assert expectation(state, setting) == _kron_expectation(state, setting)
    kron_spin = {}
    kron_path = {}
    for sign in (1, -1):
        kron_spin[sign] = _kron_spin(alpha, sign)
        kron_path[sign] = _kron_path(chi, sign)
        assert np.array_equal(spin_projector(alpha, sign), kron_spin[sign])
        assert np.array_equal(path_projector(chi, sign), kron_path[sign])
    spin_obs = kron_spin[1] - kron_spin[-1]
    path_obs = kron_path[1] - kron_path[-1]
    assert np.array_equal(spin_observable(alpha), spin_obs)
    assert np.array_equal(path_observable(chi), path_obs)
    rho = state.density()
    want = float(np.real(np.trace(rho.matrix @ (spin_obs @ path_obs))))
    assert expectation_mixed(rho, setting) == want


def _looped_expectation(state, setting):
    """The expectation as four sandwiches bra @ (spin @ path) @ amps, each a
    2-D product: the reference the stacked products must match bit for bit."""
    amps = state.amplitudes
    bra = amps.conj()
    spin = {1: _spin4(setting.alpha, +1)}
    path = {1: _path4(setting.chi, +1)}
    spin[-1] = np.eye(4) - spin[1]
    path[-1] = np.eye(4) - path[1]
    total = 0.0
    for s in (1, -1):
        for p in (1, -1):
            total += s * p * float((bra @ (spin[s] @ path[p]) @ amps).real)
    return total


_WIDE_ANGLE = st.floats(min_value=-1e6, max_value=1e6) | st.floats(min_value=-20.0, max_value=0.0)


@given(
    parts=st.lists(_COMPONENT, min_size=8, max_size=8).filter(
        lambda xs: sum(x * x for x in xs) > 1e-3
    ),
    alpha=_WIDE_ANGLE,
    chi=_WIDE_ANGLE,
)
def test_stacked_expectation_equals_the_looped_sandwiches(parts, alpha, chi):
    amps = np.array(parts[:4]) + 1j * np.array(parts[4:])
    state = JointState(amps / np.linalg.norm(amps))
    setting = Setting(alpha, chi)
    assert expectation(state, setting) == _looped_expectation(state, setting)
    assert expectation(bell_state(), setting) == _looped_expectation(bell_state(), setting)


def test_analyzer_builders_return_read_only_arrays():
    for build in (spin_projector, path_projector):
        for sign in (1, -1):
            matrix = build(0.3, sign)
            assert isinstance(matrix, np.ndarray) and matrix.shape == (4, 4)
            assert not matrix.flags.writeable
    for build in (spin_observable, path_observable):
        matrix = build(0.3)
        assert isinstance(matrix, np.ndarray) and matrix.shape == (4, 4)
        assert not matrix.flags.writeable


@given(
    parts=st.lists(_COMPONENT, min_size=32, max_size=32).filter(
        lambda xs: sum(x * x for x in xs) > 1e-3
    ),
    angles=st.lists(_ANGLE, min_size=4, max_size=4),
)
def test_tsirelson_bound_for_density_operators(parts, angles):
    # rho = A A^dag / Tr(A A^dag) is a density operator for any nonzero A
    a = (np.array(parts[:16]) + 1j * np.array(parts[16:])).reshape(4, 4)
    m = a @ a.conj().T
    m = (m + m.conj().T) / 2.0
    rho = DensityOperator(m / np.trace(m).real)
    a1, a2, c1, c2 = angles
    e = [expectation_mixed(rho, Setting(a, c)) for a in (a1, a2) for c in (c1, c2)]
    for value in e:
        assert abs(value) <= 1.0 + 1e-12
    for negated in range(4):
        signs = [1, 1, 1, 1]
        signs[negated] = -1
        assert abs(sum(sg * v for sg, v in zip(signs, e))) <= 2.0 * RT2 + 1e-12


# SHA-256 of repr of the 64 expectations of _quadruple_settings() per state:
# they pin the last-ulp bits of expectation. The oracle reads correlations
# in quadruples, (a1, c1), (a1, c2), (a2, c1), (a2, c2); so does this list,
# which revisits every angle once.
_FROZEN_STATES = {
    "bell": (0.0, 1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0), 0.0),
    "product": (0.36, 0.48, 0.48j, 0.64j),
    "entangled": (0.5, 0.5j, -0.5, 0.5),
    "generic": (0.2 + 0.5j, 0.5 - 0.1j, 0.3 + 0.4j, -0.2 + 0.4j),
}
_FROZEN_EXPECTATION_DIGESTS = {
    "bell": "e73985c009cd8a4a0cbe779106a6f23642465739a563a57e7d51218430e905c6",
    "product": "c1a76f3886fb5467250c5ce7232ece37cfa2ec8034c088d7787224c6c49ff22e",
    "entangled": "eec2872fff647541754881880efea0a2683c24be93fe8dfa5e662e9cd13ebf5e",
    "generic": "acdecdf392da7f0849f18ea505e9c4a8b779c0741e065fe0cacef6bba20c2089",
}


def _quadruple_settings() -> list:
    angles = np.random.default_rng(20221).uniform(-4.0 * math.pi, 4.0 * math.pi, size=(16, 4))
    return [Setting(a, c) for a1, a2, c1, c2 in angles.tolist() for a in (a1, a2) for c in (c1, c2)]


@pytest.mark.parametrize("name", sorted(_FROZEN_STATES))
def test_expectation_bits_are_frozen(name):
    state = bell_state() if name == "bell" else JointState(np.array(_FROZEN_STATES[name]))
    assert np.array_equal(state.amplitudes, np.array(_FROZEN_STATES[name], dtype=complex))
    values = [expectation(state, setting) for setting in _quadruple_settings()]
    assert len(values) == 64
    digest = hashlib.sha256(repr(values).encode("ascii")).hexdigest()
    assert digest == _FROZEN_EXPECTATION_DIGESTS[name]


def _uncached_expectation(state, setting):
    """The expectation with both analyzer stacks built afresh from the block
    builders and np.eye(4) - P, through the same stacked product and four
    1-D dots: the reference the cached stacks must match bit for bit."""
    amps = state.amplitudes
    spin_plus = _spin4(setting.alpha, +1)
    path_plus = _path4(setting.chi, +1)
    spin = np.stack([spin_plus, np.eye(4) - spin_plus])
    path = np.stack([path_plus, np.eye(4) - path_plus])
    rows = amps.conj() @ (spin[:, None] @ path)
    total = 0.0
    for i, s in enumerate((1, -1)):
        for j, p in enumerate((1, -1)):
            total += s * p * float((rows[i, j] @ amps).real)
    return total


# Quarter turns, the float just below 2*pi, negative zero and turns, and
# any angle of either sign.
_CACHE_ANGLE = (
    st.sampled_from(
        [0.0, math.pi / 2.0, math.pi, 1.5 * math.pi, math.nextafter(2.0 * math.pi, 0.0)]
        + [-0.0, -math.pi / 2.0, -2.0 * math.pi]
    )
    | _ANGLE
)


@given(
    parts=st.lists(_COMPONENT, min_size=8, max_size=8).filter(
        lambda xs: sum(x * x for x in xs) > 1e-3
    ),
    angles=st.lists(_CACHE_ANGLE, min_size=4, max_size=4),
)
def test_cached_analyzer_stacks_keep_the_bits(parts, angles):
    amps = np.array(parts[:4]) + 1j * np.array(parts[4:])
    state = JointState(amps / np.linalg.norm(amps))
    a1, a2, c1, c2 = angles
    quadruple = [Setting(a, c) for a in (a1, a2) for c in (c1, c2)]
    # Each setting twice in a row, then the quadruple interleaved twice, so
    # every angle is read both as a miss and as a hit.
    order = [quadruple[0], quadruple[0], *quadruple, *reversed(quadruple)]
    _spin_stack.cache_clear()
    _path_stack.cache_clear()
    for setting in order:
        assert expectation(state, setting) == _uncached_expectation(state, setting)
    for stack in (_spin_stack, _path_stack):
        info = stack.cache_info()
        assert info.hits > 0 and info.misses > 0
        assert info.maxsize <= 8


def _embedded_stack(phase, sign, axes):
    """The analyzer and its complement as np.eye(4) - P, the analyzer's 2x2
    projector written into a zeroed (spin row, path row, spin column, path
    column) array through a view whose axes put the analyzed factor first:
    the reference the template-built stacks must match byte for byte."""
    qubit = _qubit(sign * cmath.exp(1j * phase))
    out = np.zeros((2, 2, 2, 2), dtype=complex)
    view = out.transpose(axes)
    view[:, 0, :, 0] = qubit
    view[:, 1, :, 1] = qubit
    plus = out.reshape(4, 4)
    return np.stack([plus, np.eye(4) - plus])


# Quarter turns, zeros, the float below 2*pi, subnormal angles whose half
# sine rounds to zero, and any angle of either sign.
_TEMPLATE_ANGLE = (
    st.sampled_from([5e-324, -5e-324, 1e-323, 2.2250738585072014e-308, -3 * math.pi / 2])
    | st.floats(min_value=-1e-300, max_value=1e-300)
    | _CACHE_ANGLE
)


@given(angle=_TEMPLATE_ANGLE)
def test_template_built_analyzers_keep_the_bytes_of_the_embedded_ones(angle):
    c = canonical_angle(angle)
    for sign in (1, -1):
        spin = _embedded_stack(c, sign, (0, 1, 2, 3))
        path = _embedded_stack(-c, sign, (1, 0, 3, 2))
        assert _spin4(angle, sign).tobytes() == spin[0].tobytes()
        assert _path4(angle, sign).tobytes() == path[0].tobytes()
    assert _spin_stack(c).tobytes() == _embedded_stack(c, 1, (0, 1, 2, 3)).tobytes()
    assert _path_stack(c).tobytes() == _embedded_stack(-c, 1, (1, 0, 3, 2)).tobytes()


def test_cached_analyzer_stacks_are_read_only():
    for stack, build in ((_spin_stack, _spin4), (_path_stack, _path4)):
        cached = stack(0.3)
        assert cached.shape == (2, 4, 4) and not cached.flags.writeable
        assert np.array_equal(cached[0], build(0.3, +1))
        assert np.array_equal(cached[1], np.eye(4) - build(0.3, +1))
        with pytest.raises(ValueError):
            cached[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            cached[1] += 1.0
        assert stack(0.3) is cached


def test_a_density_operator_that_is_not_4x4_is_a_domain_error():
    with pytest.raises(DomainError, match=r"^density operator must be 4x4, got shape \(3, 3\)$"):
        DensityOperator(np.eye(3) / 3)


_INFINITE_PAIR = np.diag([0.5, 0.5, 0.0, 0.0])
_INFINITE_PAIR[0, 1] = _INFINITE_PAIR[1, 0] = np.inf


@pytest.mark.parametrize(
    "matrix",
    [np.full((4, 4), np.nan), np.diag([np.nan, 0.5, 0.5, 0.0]), _INFINITE_PAIR],
    ids=["all NaN", "a NaN on the diagonal", "an infinite off-diagonal pair"],
)
def test_a_density_operator_entry_that_is_not_finite_is_a_domain_error(matrix):
    # Unchecked, the first and last end in numpy's bare LinAlgError, the last
    # after a RuntimeWarning, and the second is taken with NaN expectations.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="^density operator entries must be finite$"):
            DensityOperator(matrix)


def test_joint_probability_of_a_density_operator_is_a_precondition_error():
    rho = DensityOperator(np.eye(4) / 4)
    with pytest.raises(PreconditionError, match="^expected a JointState$"):
        joint_probability(rho, Setting(0.3, 0.2), 1, 1)


def test_expectation_mixed_of_a_joint_state_is_a_precondition_error():
    with pytest.raises(PreconditionError, match="^expectation_mixed expects a DensityOperator$"):
        expectation_mixed(bell_state(), Setting(0.3, 0.2))
