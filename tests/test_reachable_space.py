"""States and columns are propagated in the reachable space, 3 levels on a logical site and 2 on an auxiliary
one (see ``chain``).  Mapped into the full three-level chain by the isometry (``oracles.to_full_chain``), they
equal the dense three-level oracle's (``oracles.dense_run``), which propagates every state of the chain with
Taylor propagators embedded by Kronecker products, and in which every auxiliary |e> amplitude stays exactly 0.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holosim.chain import ChainLayout, logical_frame
from holosim.holonomy import check_parallel_transport, trace_subspace
from holosim.pulses import ENVELOPES, OneQubitPulse, ThreeSitePulse, block_hamiltonian, run_schedule

from oracles import chain_dim, dense_propagator, dense_run, reachable_states, to_full_chain

TOL = 1e-13

_ANGLE = st.floats(-7.0, 7.0, allow_nan=False)
_AREA = st.sampled_from([0.0, math.pi, -math.pi]) | _ANGLE  # zero, +-pi and partial areas


# every qubit and every pair of N = 1-3: (n_logical, three_site, first qubit or pair)
SLOTS = ([(n, False, q) for n in (1, 2, 3) for q in range(1, n + 1)]
         + [(n, True, p) for n in (2, 3) for p in range(1, n)])


@st.composite
def _pulse(draw, n_logical, three_site=None, first=None):
    """One pulse with drawn angles, area and envelope: of the kind and on the qubit or pair given, or of a drawn
    kind on a drawn qubit or pair of ``n_logical``."""
    area, envelope = draw(_AREA), draw(st.sampled_from(ENVELOPES))
    if three_site is None:
        three_site = n_logical > 1 and draw(st.booleans())
    if three_site:
        first = draw(st.integers(1, n_logical - 1)) if first is None else first
        return ThreeSitePulse(first, draw(_ANGLE), area=area, envelope=envelope)
    first = draw(st.integers(1, n_logical)) if first is None else first
    return OneQubitPulse(first, draw(_ANGLE), draw(_ANGLE), area=area, envelope=envelope)


def _excited_rows(columns, layout):
    """The rows of full-chain columns that carry |e> on an auxiliary site."""
    return np.delete(columns, reachable_states(layout), axis=-2)


def _random_frame(rng, layout, k):
    Z = rng.normal(size=(layout.dim, k)) + 1j * rng.normal(size=(layout.dim, k))
    return np.linalg.qr(Z)[0]


class TestRunScheduleAgainstTheThreeLevelChain:
    @pytest.mark.parametrize("n_logical, three_site, first", SLOTS)
    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(data=st.data(), batch=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_columns_and_states_equal_the_dense_oracle(self, n_logical, three_site, first, data, batch, seed):
        # the pulse on the slot first, then up to three drawn pulses
        layout = ChainLayout(n_logical)
        schedule = [data.draw(_pulse(n_logical, three_site, first))]
        schedule += data.draw(st.lists(_pulse(n_logical), max_size=3))
        if batch:  # the last pulse's areas are three members and the first pulse's angles two: a (3, 2) batch
            schedule[-1] = replace(schedule[-1], area=np.array([[schedule[-1].area], [1.3], [-5.0]]))
            first = schedule[0]
            angles = np.array([0.3, -2.9]) + (first.theta if isinstance(first, OneQubitPulse) else first.vartheta)
            schedule[0] = (replace(first, theta=angles) if isinstance(first, OneQubitPulse)
                           else replace(first, vartheta=angles))
        rng = np.random.default_rng(seed)
        for columns in (logical_frame(layout), _random_frame(rng, layout, 3)):
            got = to_full_chain(run_schedule(schedule, columns, layout), layout)
            want = dense_run(schedule, to_full_chain(columns, layout), layout)
            assert got.shape == want.shape == ((3, 2) if batch else ()) + (chain_dim(layout), columns.shape[1])
            assert np.max(np.abs(got - want)) <= TOL
            assert not _excited_rows(want, layout).any()  # exactly 0: no pulse populates an auxiliary |e>
        state = _random_frame(rng, layout, 1)
        got = to_full_chain(run_schedule(schedule, state[:, 0], layout)[..., None], layout)
        want = dense_run(schedule, to_full_chain(state, layout), layout)
        assert np.max(np.abs(got - want)) <= TOL and not _excited_rows(want, layout).any()


class TestTraceSubspaceAgainstTheThreeLevelChain:
    @pytest.mark.parametrize("n_logical, three_site, first", SLOTS)
    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_path_frames_and_energies_equal_the_dense_oracle(self, n_logical, three_site, first, data, seed):
        layout = ChainLayout(n_logical)
        pulse = data.draw(_pulse(n_logical, three_site, first))
        rng = np.random.default_rng(seed)
        H = block_hamiltonian(pulse, layout)
        for F0 in (logical_frame(layout), _random_frame(rng, layout, 3)):
            path = trace_subspace(pulse, F0, 9, layout)
            full = to_full_chain(F0, layout)
            frames = np.array([dense_propagator(replace(pulse, area=area), layout) @ full
                               for area in path.table.areas])
            assert not _excited_rows(frames, layout).any()
            for j in range(path.samples):
                assert np.max(np.abs(to_full_chain(path.frame(j), layout) - frames[j])) <= TOL
            energies = frames.conj().swapaxes(-1, -2) @ H @ frames
            residual, eps = check_parallel_transport(path)
            assert abs(residual - np.max(np.linalg.norm(energies, axis=(1, 2)))) <= TOL
            assert np.max(np.abs(eps - np.trace(energies, axis1=1, axis2=2).real / F0.shape[1])) <= TOL
            P0, P1 = (F @ F.conj().T for F in (frames[0], frames[-1]))
            assert abs(path.cyclicity_residual - np.linalg.norm(P1 - P0)) <= TOL
