from dataclasses import fields

import numpy as np
import pytest

from holosim.chain import ChainLayout, logical_frame
from holosim.compiler import (
    Reflection,
    Rotation,
    XYGate,
    circuit_unitary,
    compile_circuit,
    compile_rotation,
)
from holosim.gates import compose_rule, extract_logical_gate, one_qubit_gate
from holosim.pulses import OneQubitPulse, ThreeSitePulse, run_schedule, schedule_propagator

from oracles import kron_logical, random_unit_vector, taylor_expm

X_AXIS = (1.0, 0.0, 0.0)
Y_AXIS = (0.0, 1.0, 0.0)
Z_AXIS = (0.0, 0.0, 1.0)


def rotation_matrix(axis, angle):
    """Reference exp(-i angle/2 axis.sigma), via the Taylor-series oracle."""
    return taylor_expm(0.5 * angle * one_qubit_gate(np.asarray(axis, dtype=float)), 1.0)


class TestCompileRotation:
    def test_zero_angle_gives_equal_axes(self):
        n, m = compile_rotation(Z_AXIS, 0.0)
        assert np.allclose(n, m, atol=1e-15)
        assert np.allclose(compose_rule(n, m), np.eye(2), atol=1e-14)

    def test_quarter_turn_about_z(self):
        n, m = compile_rotation(Z_AXIS, np.pi / 2)
        assert np.allclose(n, [1, 0, 0], atol=1e-15)
        assert np.allclose(m, [np.sqrt(2) / 2, np.sqrt(2) / 2, 0], atol=1e-15)
        assert np.max(np.abs(compose_rule(n, m) - rotation_matrix(Z_AXIS, np.pi / 2))) < 1e-12

    def test_half_turn_about_x(self):
        n, m = compile_rotation(X_AXIS, np.pi)
        assert np.allclose(n, [0, 1, 0], atol=1e-15)
        assert np.allclose(m, [0, 0, 1], atol=1e-12)
        got = compose_rule(n, m)
        assert np.max(np.abs(got - np.array([[0, -1j], [-1j, 0]]))) < 1e-12
        assert np.max(np.abs(got - rotation_matrix(X_AXIS, np.pi))) < 1e-12

    @pytest.mark.parametrize("seed", range(25))
    def test_split_invariants(self, seed):
        rng = np.random.default_rng(500 + seed)
        axis = random_unit_vector(rng)
        angle = rng.uniform(-2 * np.pi, 2 * np.pi)
        n, m = compile_rotation(axis, angle)
        assert abs(np.linalg.norm(n) - 1.0) < 1e-12
        assert abs(np.linalg.norm(m) - 1.0) < 1e-12
        assert abs(np.dot(n, m) - np.cos(angle / 2)) < 1e-12
        assert np.linalg.norm(np.cross(n, m) - np.sin(angle / 2) * axis) < 1e-12
        assert np.max(np.abs(compose_rule(n, m) - rotation_matrix(axis, angle))) < 1e-11

    def test_zero_axis_rejected(self):
        # the squares of a tiny axis underflow to a zero norm: refused too, with no division warning
        for axis in ((0.0, 0.0, 0.0), (1e-200, 0.0, 0.0), (0.0, 5e-324, 0.0)):
            with pytest.raises(ValueError, match="nonzero"):
                compile_rotation(axis, 1.0)

    def test_arrays_of_rotations_equal_single_splits(self):
        rng = np.random.default_rng(31)
        axes = rng.normal(size=(40, 3))
        axes[:3] = [X_AXIS, Y_AXIS, (0.0, 0.0, -2.0)]  # basis axes pick the second basis direction
        angles = rng.uniform(-2 * np.pi, 2 * np.pi, 40)
        n, m = compile_rotation(axes, angles)
        for k in range(40):
            n1, m1 = compile_rotation(axes[k], angles[k])
            assert np.array_equal(n[k], n1) and np.array_equal(m[k], m1)
        with pytest.raises(ValueError, match="nonzero"):
            compile_rotation([X_AXIS, (0.0, 0.0, 0.0)], [1.0, 2.0])
        with pytest.raises(ValueError, match="angle must be finite"):
            compile_rotation([X_AXIS, Y_AXIS], [1.0, np.nan])


# distances from a basis axis around the old 1e-6 near-parallel tolerance, where the split lost digits
_NEAR_OFFSETS = (1e-9, 1e-7, 1.0001e-6, 1.1e-6, 1.5e-6, 1e-5, 1e-3)


def _near_basis_axes():
    """Unit axes at each offset from +-x, +-y and +-z along two sides, and on both sides of a_x^2 = 0.99."""
    eye, axes = np.eye(3), []
    for k in range(3):
        for sign in (1.0, -1.0):
            for side in (eye[(k + 1) % 3], eye[(k + 2) % 3] - eye[(k + 1) % 3]):
                axes += [sign * eye[k] + d * side for d in _NEAR_OFFSETS]
    axes += [(np.sqrt(s), np.sqrt(1.0 - s), 0.0) for s in (0.99 - 1e-6, 0.99 + 1e-6)]
    axes = np.array(axes)
    return axes / np.linalg.norm(axes, axis=1, keepdims=True)


class TestNearBasisAxes:
    ANGLES = np.linspace(-6.0, 6.0, 13)

    def test_split_invariants_are_exact_next_to_every_basis_axis(self):
        base = _near_basis_axes()
        axes, angles = np.repeat(base, len(self.ANGLES), axis=0), np.tile(self.ANGLES, len(base))
        n, m = compile_rotation(axes, angles)
        assert np.max(np.abs(np.linalg.norm(n, axis=1) - 1.0)) <= 1e-13
        assert np.max(np.abs(np.linalg.norm(m, axis=1) - 1.0)) <= 1e-13
        assert np.max(np.abs(np.einsum("ij,ij->i", n, m) - np.cos(angles / 2))) <= 1e-13
        assert np.max(np.linalg.norm(np.cross(n, m) - np.sin(angles / 2)[:, None] * axes, axis=1)) <= 1e-13
        for k in range(len(axes)):
            n_k, m_k = compile_rotation(axes[k], angles[k])
            assert n[k].tobytes() == n_k.tobytes() and m[k].tobytes() == m_k.tobytes()

    def test_compiled_circuits_extract_their_analytic_unitary(self):
        # rotations next to basis axes, mixed with reflections and XY gates; compare up to one global phase
        rng, near = np.random.default_rng(30), _near_basis_axes()
        for _ in range(40):
            n_logical = int(rng.integers(1, 4))
            layout = ChainLayout(n_logical)
            circuit = []
            for _ in range(int(rng.integers(2, 7))):
                kind, qubit = rng.integers(3), int(rng.integers(1, n_logical + 1))
                if kind == 0 or (kind == 2 and n_logical == 1):
                    angle = float(rng.uniform(-2 * np.pi, 2 * np.pi))
                    circuit.append(Rotation(qubit, tuple(near[rng.integers(len(near))]), angle))
                elif kind == 1:
                    circuit.append(Reflection(qubit, tuple(random_unit_vector(rng))))
                else:
                    circuit.append(XYGate(int(rng.integers(1, n_logical)), float(rng.uniform(0, 2 * np.pi))))
            columns = run_schedule(compile_circuit(circuit, layout), logical_frame(layout), layout)
            got = extract_logical_gate(columns, layout).logical_gate
            want = circuit_unitary(circuit, layout)
            overlap = np.vdot(want, got)
            assert np.max(np.abs(got * (abs(overlap) / overlap) - want)) <= 1e-13


class TestCompileCircuit:
    def test_empty_circuit(self):
        assert compile_circuit([], ChainLayout(2)) == []

    def test_reflection_compiles_to_polar_pulse(self):
        schedule = compile_circuit([Reflection(1, Z_AXIS)], ChainLayout(2))
        assert schedule == [OneQubitPulse(qubit=1, theta=0.0, phi=0.0, area=np.pi)]

    def test_rotation_then_xy_structure(self):
        layout = ChainLayout(2)
        circuit = [Rotation(1, Z_AXIS, np.pi / 2), XYGate(1, np.pi / 2)]
        schedule = compile_circuit(circuit, layout)
        assert len(schedule) == 3
        assert isinstance(schedule[0], OneQubitPulse)
        assert isinstance(schedule[1], OneQubitPulse)
        assert isinstance(schedule[2], ThreeSitePulse)
        assert all(p.area == np.pi for p in schedule)

        U = schedule_propagator(schedule, layout)
        report = extract_logical_gate(U[:, layout.logical_indices()], layout,
                                      target=circuit_unitary(circuit, layout))
        assert report.fidelity_vs_target >= 1.0 - 1e-9

    def test_rotation_always_two_pulses_even_for_reflections(self):
        # a pi rotation is a reflection up to phase, but the rotation path
        # keeps the uniform two-pulse cost model
        schedule = compile_circuit([Rotation(1, X_AXIS, np.pi)], ChainLayout(1))
        assert len(schedule) == 2

    def test_order_preserved(self):
        layout = ChainLayout(3)
        circuit = [XYGate(2, 0.3), Reflection(3, X_AXIS), XYGate(1, 0.7)]
        schedule = compile_circuit(circuit, layout)
        assert [type(p) for p in schedule] == [ThreeSitePulse, OneQubitPulse, ThreeSitePulse]
        assert schedule[0].pair == 2 and schedule[2].pair == 1

    def test_determinism(self):
        layout = ChainLayout(2)
        circuit = [Rotation(1, (0.6, 0.0, 0.8), 1.1), XYGate(1, 2.2), Reflection(2, Y_AXIS)]
        assert compile_circuit(circuit, layout) == compile_circuit(circuit, layout)

    def test_out_of_range_indices(self):
        layout = ChainLayout(2)
        with pytest.raises(ValueError, match="gate 0"):
            compile_circuit([Reflection(3, Z_AXIS)], layout)
        with pytest.raises(ValueError, match="out of range"):
            compile_circuit([XYGate(2, 0.1)], layout)

    def test_out_of_range_index_names_the_gate_in_both_routes(self):
        layout = ChainLayout(2)
        circuit = [XYGate(1, 0.1), Reflection(3, Z_AXIS)]
        for route in (compile_circuit, circuit_unitary):
            with pytest.raises(ValueError, match=r"^gate 1: qubit 3 out of range 1\.\.2$"):
                route(circuit, layout)

    def test_unknown_gate_type(self):
        with pytest.raises(TypeError, match="^gate 0: unknown gate type"):
            compile_circuit([object()], ChainLayout(1))
        with pytest.raises(TypeError, match="^gate 1: unknown gate type"):
            compile_circuit([XYGate(1, 0.1), object()], ChainLayout(2))

    def test_unknown_gate_type_is_refused_in_the_same_words_by_both_routes(self):
        layout = ChainLayout(2)
        messages = []
        for route in (compile_circuit, circuit_unitary):
            with pytest.raises(TypeError) as info:
                route([XYGate(1, 0.1), 3], layout)
            messages.append(str(info.value))
        assert messages == ["gate 1: unknown gate type: 3"] * 2


class TestNonFiniteParameters:
    @pytest.mark.parametrize("gate,message", [
        (Reflection(1, (np.nan, 0.0, 0.0)), r"unit vector must be finite, got \[nan, 0\.0, 0\.0\]"),
        (Reflection(1, (0.0, 0.0, np.inf)), r"unit vector must be finite, got \[0\.0, 0\.0, inf\]"),
        (Rotation(1, (np.nan, 0.0, 1.0), 1.0), r"rotation axis must be finite, got \[nan, 0\.0, 1\.0\]"),
        (Rotation(1, (0.0, 0.0, 1.0), np.nan), r"rotation angle must be finite"),
    ], ids=["reflection-nan", "reflection-inf", "rotation-nan", "rotation-angle-nan"])
    def test_rejected_by_compiler_and_closed_form(self, gate, message):
        # NaN passes any > or < check: the closed forms came out all NaN, and a
        # NaN reflection axis failed only later, on the pulse angles
        layout = ChainLayout(1)
        with pytest.raises(ValueError, match=message):
            compile_circuit([gate], layout)
        with pytest.raises(ValueError, match=message):
            circuit_unitary([gate], layout)

    @pytest.mark.parametrize("make,message", [
        (lambda big: OneQubitPulse(1, big, 0.0), r"theta and phi must be finite"),
        (lambda big: ThreeSitePulse(1, 0.3, area=big), r"pulse area must be finite"),
        (lambda big: XYGate(1, big).pulses(ChainLayout(2)), r"vartheta must be finite"),
        (lambda big: XYGate(1, big).logical(ChainLayout(2)), r"vartheta must be finite"),
        (lambda big: Reflection(1, (big, 0, 0)).pulses(ChainLayout(1)),
         r"unit vector must be finite, got \[-?inf, 0\.0, 0\.0\]"),
        (lambda big: Rotation(1, (0, 0, 1), big).pulses(ChainLayout(1)), r"rotation angle must be finite"),
        (lambda big: Rotation(1, (0, 0, 1), big).logical(ChainLayout(1)), r"rotation angle must be finite"),
        (lambda big: Rotation(1, (big, 0, 1), 0.5).logical(ChainLayout(1)),
         r"rotation axis must be finite, got \[-?inf, 0\.0, 1\.0\]"),
    ], ids=["theta", "area", "xy-pulses", "xy-logical", "reflection", "rotation-pulses",
            "rotation-logical", "rotation-axis"])
    @pytest.mark.parametrize("big", [10 ** 400, -(10 ** 400), np.inf, -np.inf], ids=["int", "-int", "inf", "-inf"])
    def test_int_beyond_float_range_is_refused_as_infinity_is(self, make, message, big):
        # float() of such an int raises OverflowError, and numpy's isfinite a TypeError
        with pytest.raises(ValueError, match=message):
            make(big)


class TestVectorShapes:
    @pytest.mark.parametrize("gate,message", [
        (Reflection(1, (1.0, 0.0)), "unit vector must be a 3-vector, got shape (2,)"),
        (Reflection(1, 1.0), "unit vector must be a 3-vector, got shape ()"),
        (Rotation(1, (0.0, 0.0, 1.0, 0.0), 1.0), "rotation axis must be a 3-vector, got shape (4,)"),
        (Rotation(1, [[0.0, 1.0]], 1.0), "rotation axis must be a 3-vector, got shape (1, 2)"),
    ], ids=["reflection-2", "reflection-number", "rotation-4", "rotation-batch-2"])
    def test_shape_is_refused_by_name_in_compiler_and_closed_form(self, gate, message):
        for route in (compile_circuit, circuit_unitary):
            with pytest.raises(ValueError) as err:
                route([gate], ChainLayout(1))
            assert str(err.value) == f"gate 0: {message}"


class TestHugeVectors:
    """Finite vectors whose squares overflow a float: an axis counts by its direction, and a
    reflection vector is not a unit vector; neither is refused as non-finite, nor warns."""

    @pytest.mark.parametrize("huge,direction", [((1e300, 1e300, 0.0), (1.0, 1.0, 0.0)),
                                                ((-1.7e308, 0.0, 1.7e308), (-1.0, 0.0, 1.0))])
    def test_huge_axis_compiles_as_its_direction(self, huge, direction):
        layout = ChainLayout(1)
        got = compile_circuit([Rotation(1, huge, 1.0)], layout)
        want = compile_circuit([Rotation(1, direction, 1.0)], layout)
        for a, b in zip(got, want, strict=True):
            assert abs(a.theta - b.theta) <= 1e-15 and abs(a.phi - b.phi) <= 1e-15
        target = rotation_matrix(np.array(direction) / np.sqrt(2.0), 1.0)
        assert np.allclose(circuit_unitary([Rotation(1, huge, 1.0)], layout), target, rtol=0, atol=1e-15)

    def test_huge_axis_batch_keeps_ordinary_members_bit_for_bit(self):
        axes = np.array([[1e300, 1e300, 0.0], [0.3, -0.4, 1.2], [1.0, 2.0, 2.0]])
        n, m = compile_rotation(axes, np.array([1.0, 0.5, -2.0]))
        for k in (1, 2):
            n_k, m_k = compile_rotation(axes[k], [1.0, 0.5, -2.0][k])
            assert n[k].tobytes() == n_k.tobytes() and m[k].tobytes() == m_k.tobytes()
        assert np.allclose(n[0], compile_rotation((1.0, 1.0, 0.0), 1.0)[0], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", [(1e200, 0.0, 0.0), (1.7e308, 1.7e308, 1.7e308)])
    def test_huge_reflection_vector_is_not_a_unit_vector(self, n):
        for route in (compile_circuit, circuit_unitary):
            with pytest.raises(ValueError, match=r"^gate 0: expected a unit vector, got norm (1e\+200|inf)$"):
                route([Reflection(1, n)], ChainLayout(1))


class TestRoundTrip:
    @staticmethod
    def random_circuit(rng, n_logical, depth):
        gates = []
        for _ in range(depth):
            kind = rng.integers(0, 3)
            if kind == 0:
                gates.append(
                    Rotation(
                        qubit=int(rng.integers(1, n_logical + 1)),
                        axis=tuple(random_unit_vector(rng)),
                        angle=float(rng.uniform(-2 * np.pi, 2 * np.pi)),
                    )
                )
            elif kind == 1:
                gates.append(
                    Reflection(qubit=int(rng.integers(1, n_logical + 1)),
                               n=tuple(random_unit_vector(rng)))
                )
            elif n_logical >= 2:
                gates.append(
                    XYGate(pair=int(rng.integers(1, n_logical)),
                           vartheta=float(rng.uniform(0, 2 * np.pi)))
                )
            else:
                gates.append(Reflection(qubit=1, n=Z_AXIS))
        return gates

    def test_100_random_circuits_reproduce_analytic_product(self):
        rng = np.random.default_rng(2024)
        worst = 1.0
        for _ in range(100):
            n_logical = int(rng.integers(1, 4))
            layout = ChainLayout(n_logical)
            circuit = self.random_circuit(rng, n_logical, int(rng.integers(1, 7)))
            schedule = compile_circuit(circuit, layout)
            U = schedule_propagator(schedule, layout)
            report = extract_logical_gate(U[:, layout.logical_indices()], layout,
                                          target=circuit_unitary(circuit, layout))
            assert report.leakage < 1e-8
            worst = min(worst, report.fidelity_vs_target)
        assert worst >= 1.0 - 1e-8


# one constructor per pulse and gate class, each varying one field with an angle
_BY_ANGLE = {
    "one_qubit": lambda a: OneQubitPulse(1, a, 0.2),
    "three_site": lambda a: ThreeSitePulse(1, a),
    "rotation": lambda a: Rotation(1, Z_AXIS, a),
    "reflection": lambda a: Reflection(1, np.stack([np.cos(a), np.sin(a), np.zeros_like(a)], axis=-1)),
    "xy": lambda a: XYGate(1, a),
}


def _unit_vectors(rng, count):
    v = rng.normal(size=(count, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _every_gate_batch(rng, n_logical, count):
    """Batches of ``count`` gates: every kind on every qubit and pair of the chain, in a random order."""
    gates = ([Rotation(q, _unit_vectors(rng, count), rng.uniform(-2 * np.pi, 2 * np.pi, count))
              for q in range(1, n_logical + 1)]
             + [Reflection(q, _unit_vectors(rng, count)) for q in range(1, n_logical + 1)]
             + [XYGate(p, rng.uniform(0.0, 2 * np.pi, count)) for p in range(1, n_logical)])
    return [gates[k] for k in rng.permutation(len(gates))]


def _member(gate, k):
    """Gate ``k`` of a batch gate, as a single gate of the same kind."""
    first, *params = fields(gate)
    return type(gate)(getattr(gate, first.name), *(getattr(gate, f.name)[k] for f in params))


class TestBatchedGates:
    COUNT = 4

    @pytest.mark.parametrize("n_logical", [1, 2, 3, 4, 5, 6])
    def test_batch_unitary_equals_member_unitaries_bit_for_bit(self, n_logical):
        layout = ChainLayout(n_logical)
        circuit = _every_gate_batch(np.random.default_rng(40 + n_logical), n_logical, self.COUNT)
        U = circuit_unitary(circuit, layout)
        assert U.shape == (self.COUNT, layout.logical_dim, layout.logical_dim)
        for k in range(self.COUNT):
            assert np.array_equal(U[k], circuit_unitary([_member(g, k) for g in circuit], layout))

    @pytest.mark.parametrize("n_logical", [1, 2, 3, 4, 5, 6])
    def test_member_unitaries_equal_the_kron_oracle(self, n_logical):
        # every kind on every qubit and pair, alone and as one circuit
        layout = ChainLayout(n_logical)
        circuit = _every_gate_batch(np.random.default_rng(50 + n_logical), n_logical, self.COUNT)
        for k in range(self.COUNT):
            members = [_member(g, k) for g in circuit]
            product = np.eye(layout.logical_dim, dtype=complex)
            for gate in members:
                want = kron_logical(*gate.logical(layout), n_logical)
                assert np.max(np.abs(circuit_unitary([gate], layout) - want)) <= 1e-15
                product = want @ product
            assert np.max(np.abs(circuit_unitary(members, layout) - product)) <= 1e-14

    @pytest.mark.parametrize("n_logical", [1, 2, 3, 4])
    def test_batch_schedule_runs_equal_member_runs(self, n_logical):
        layout = ChainLayout(n_logical)
        circuit = _every_gate_batch(np.random.default_rng(60 + n_logical), n_logical, self.COUNT)
        schedule = compile_circuit(circuit, layout)
        columns = run_schedule(schedule, logical_frame(layout), layout)
        assert columns.shape == (self.COUNT, layout.dim, layout.logical_dim)
        for k in range(self.COUNT):
            member_schedule = compile_circuit([_member(g, k) for g in circuit], layout)
            assert [type(p) for p in member_schedule] == [type(p) for p in schedule]
            assert np.array_equal(columns[k], run_schedule(member_schedule, logical_frame(layout), layout))

    def test_batches_compare_by_shape_and_value(self):
        layout = ChainLayout(2)
        rng = np.random.default_rng(70)
        axes, angles = _unit_vectors(rng, 3), rng.uniform(-2 * np.pi, 2 * np.pi, 3)
        circuit = [Rotation(1, axes, angles), XYGate(1, angles)]
        schedule = compile_circuit(circuit, layout)
        assert compile_circuit(circuit, layout) == schedule
        assert XYGate(1, angles) == XYGate(1, angles.copy())
        other = angles.copy()
        other[1] += 0.5
        assert compile_circuit([Rotation(1, axes, angles), XYGate(1, other)], layout) != schedule
        assert compile_circuit([Rotation(1, axes[:2], angles[:2]), XYGate(1, angles[:2])], layout) != schedule
        assert XYGate(1, angles[None]) != XYGate(1, angles)

    def test_single_gates_and_pulses_compare_as_before(self):
        assert XYGate(1, 0.3) == XYGate(1, 0.3) and XYGate(1, 0.3) != XYGate(1, 0.4)
        assert Reflection(1, (0.0, 0.0, 1.0)) != Reflection(2, (0.0, 0.0, 1.0))
        assert OneQubitPulse(1, 0.3, 0.0) != ThreeSitePulse(1, 0.3)
        assert OneQubitPulse(1, 0.3, 0.0, envelope="sin2") != OneQubitPulse(1, 0.3, 0.0)
        assert hash(ThreeSitePulse(1, 0.3)) == hash(ThreeSitePulse(1, 0.3))

    def test_single_gates_and_pulses_hash_as_frozen_dataclasses(self):
        # the hash a frozen dataclass generates: that of the tuple of its field values
        for single in (OneQubitPulse(2, 0.3, 0.2, envelope="sin2"), ThreeSitePulse(1, 1.1, area=2.0),
                       Rotation(1, (0.0, 0.0, 1.0), 0.4), Reflection(2, (1.0, 0.0, 0.0)), XYGate(1, 0.7)):
            assert hash(single) == hash(tuple(getattr(single, f.name) for f in fields(single)))
        assert len({XYGate(1, 0.3), XYGate(1, 0.3), XYGate(1, 0.4)}) == 2

    @pytest.mark.parametrize("make", list(_BY_ANGLE.values()), ids=list(_BY_ANGLE))
    def test_a_batch_is_unhashable_and_says_so(self, make):
        with pytest.raises(TypeError, match=r"it is a batch \(field '\w+' is an array of shape \(3,"):
            hash(make(np.array([0.3, 1.1, 2.5])))

    @pytest.mark.parametrize("make", list(_BY_ANGLE.values()), ids=list(_BY_ANGLE))
    def test_every_class_compares_batches_fieldwise(self, make):
        angles = np.array([0.3, 1.1, 2.5])
        other = angles.copy()
        other[2] += 0.5
        assert make(angles) == make(angles.copy())
        assert make(angles) != make(other)
        assert make(angles) != make(angles[:2])
        assert make(angles) != make(angles[None])

    @pytest.mark.parametrize("make", list(_BY_ANGLE.values()), ids=list(_BY_ANGLE))
    def test_every_class_compares_single_instances_by_value(self, make):
        assert make(0.3) == make(0.3)
        assert make(0.3) != make(0.4)
        # a batch of one is not the single instance
        assert make(0.3) != make(np.array([0.3]))
        assert make(0.3) != object()

    def test_nan_inside_a_batch_of_angles_names_the_gate(self):
        layout = ChainLayout(2)
        rng = np.random.default_rng(7)
        circuit = [Reflection(2, _unit_vectors(rng, 3)),
                   Rotation(1, _unit_vectors(rng, 3), np.array([0.4, np.nan, -1.2]))]
        for route in (compile_circuit, circuit_unitary):
            with pytest.raises(ValueError, match=r"^gate 1: rotation angle must be finite$"):
                route(circuit, layout)
