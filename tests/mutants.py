"""Checked-in mutants of ``src/holosim``: each changes one line, and the tests named with it must fail.

Each mutant is (file under ``src/holosim``, exact old line, new line, test node ids).  For each one the
runner copies ``src/`` to a temporary directory, asserts that the old line occurs exactly once in the
copy's file, replaces it, and runs the mutant's tests with ``PYTHONPATH`` on the copy and
``-p no:cacheprovider -x -q``, from the repository root, so the tests read its pytest settings and write
nothing into the checkout.  It also asserts that the tests imported ``holosim`` from the copy.  A mutant
whose tests pass survives; the runner names every survivor and exits 1.  Run it with

    python tests/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# pytest in the child, then the file ``holosim`` was imported from, on the last line of stdout
_CHILD = "import sys, pytest; code = pytest.main(sys.argv[1:]); import holosim; print(holosim.__file__); sys.exit(code)"

# each pulse's local propagator, and the closed-form exponential of its local block, against the Taylor
# propagator of its block built from the generators (tests/oracles.py)
_TAYLOR = "tests/test_pulses.py::TestLocalPropagator::test_matches_the_taylor_reference"

# a value 10x past each of certify's and wilson_loop's bounds
_BETWEEN = "tests/test_holonomy.py::TestBoundsFromBetween"

MUTANTS = (
    # the checks of the removed helpers, now in their one caller each
    ("pulses.py", "    if steps < 1:", "    if steps < 0:",
     ("tests/test_pulses.py::TestEnvelopes::test_invalid_envelope_and_steps",)),
    ("linalg.py", "    if defect > 1e-12:", "    if defect > 1e-10:",
     ("tests/test_linalg.py::TestExpmHermitian::test_hermiticity_bound_is_1e_12",
      "tests/test_linalg.py::TestStacks::test_any_bad_member_raises")),
    ("chain.py", "    if len(digits) != layout.n_logical or any(d not in (0, 1) for d in digits):",
     "    if len(digits) != layout.n_logical or any(d not in (0, 1, 2) for d in digits):",
     ("tests/test_chain.py::TestChainLayout::test_bad_bits",)),
    ("chain.py", '    psi[int("".join(map(str, digits)), 6)] = 1.0', '    psi[int("".join(map(str, digits)), 9)] = 1.0',
     ("tests/test_chain.py::TestLogicalEncode::test_examples",)),
    ("formats.py", "            if np.shape(value) != ():", "            if np.ndim(value) > 1:",
     ("tests/test_formats.py::TestPulseAndGateDocuments::test_batches_are_rejected_by_field_and_shape",)),
    # simulate's site populations: the running reduction takes the sites from the first
    ("cli.py", "        rest = rest.reshape(d, -1)", "        rest = rest.reshape(-1, d).T",
     ("tests/test_cli.py::TestSimulate::test_site_populations_equal_the_per_site_reductions",)),
    # the signs of the Λ entries: of H = |e><w| + |w><e| and of its closed-form propagator
    ("chain.py", "        entries = [(i, e, 0, re), (e, i, 0, re), (j, e, 0, w_j), (e, j, 0, w_j)]",
     "        entries = [(i, e, 0, re), (e, i, 0, re), (j, e, 0, -w_j), (e, j, 0, -w_j)]", (_TAYLOR,)),
    ("chain.py", "            entries += [(i, e, 1, im), (e, i, 1, -im)]",
     "            entries += [(i, e, 1, -im), (e, i, 1, im)]", (_TAYLOR,)),
    ("chain.py", "    k_re, sin_re, sin_j = k * re, -(sin_a * re), -(sin_a * w_j)",
     "    k_re, sin_re, sin_j = k * re, sin_a * re, -(sin_a * w_j)", (_TAYLOR,)),
    ("chain.py", "    k_re, sin_re, sin_j = k * re, -(sin_a * re), -(sin_a * w_j)",
     "    k_re, sin_re, sin_j = k * re, -(sin_a * re), sin_a * w_j", (_TAYLOR,)),
    ("chain.py", "        entries += [(i, e, 0, sin_im), (e, i, 0, -sin_im), (i, j, 1, k_im), (j, i, 1, -k_im)]",
     "        entries += [(i, e, 0, -sin_im), (e, i, 0, sin_im), (i, j, 1, k_im), (j, i, 1, -k_im)]", (_TAYLOR,)),
    ("chain.py", "        entries += [(i, e, 0, sin_im), (e, i, 0, -sin_im), (i, j, 1, k_im), (j, i, 1, -k_im)]",
     "        entries += [(i, e, 0, sin_im), (e, i, 0, -sin_im), (i, j, 1, -k_im), (j, i, 1, k_im)]", (_TAYLOR,)),
    # fixed bounds and estimates
    ("chain.py", "    check_memory(what, power_bytes(what, 48 * columns, 6, layout.n_logical - 1))",
     "    check_memory(what, power_bytes(what, 16 * columns, 6, layout.n_logical - 1))",
     ("tests/test_chain.py::test_the_column_budget_asks_for_the_columns_bytes",)),
    ("chain.py", "    check_memory(what, power_bytes(what, 96, 12, layout.n_logical - 1))",
     "    check_memory(what, power_bytes(what, 48, 12, layout.n_logical - 1))",
     ("tests/test_chain.py::test_the_column_budget_asks_for_the_columns_bytes",)),
    ("holonomy.py", "                 16 * (3 * layout.dim * K + 9 * K * K + samples * K * K) + 360 * samples)",
     "                 16 * (3 * layout.dim * K + 9 * K * K + samples * K * K) + 36 * samples)",
     ("tests/test_holonomy.py::TestCertify::test_memory_budget_counts_the_term_gram",)),
    ("holonomy.py", "    check_memory(what, power_bytes(what, 2 * 16, size, 2))",
     "    check_memory(what, power_bytes(what, 16, size, 2))",
     ("tests/test_holonomy.py::TestCertify::test_a_huge_chain_is_refused_promptly",)),
    ("holonomy.py", "CERTIFY_CYCLICITY = 1e-8", "CERTIFY_CYCLICITY = 1e-6",
     ("tests/test_certify_corpus.py::test_certify_reproduces_its_record[one_qubit-N2-square-1024]",)),
    # extract_logical_gate reads reachable columns only
    ("gates.py", "    if columns.shape[-2:] != (layout.dim, layout.logical_dim):",
     "    if columns.shape[-1] != layout.logical_dim:",
     ("tests/test_gates.py::TestExtractLogicalGate::test_full_propagator_is_rejected",)),
    ("gates.py", "CYCLIC_LEAKAGE = 1e-8", "CYCLIC_LEAKAGE = 1e-6",
     ("tests/test_gates.py::TestExtractLogicalGate::test_the_cyclic_split_is_at_cyclic_leakage",)),
    ("holonomy.py", "    dyn_phase = float(np.sum(0.5 * (eps[1:] + eps[:-1]) * path.table.area_steps))",
     "    dyn_phase = float(np.sum(eps[1:] * path.table.area_steps))",
     ("tests/test_holonomy.py::TestOneTermGram::test_measurements_equal_separately_computed_ones",)),
    ("compiler.py", "    e = _BASIS_AXES[np.argmax(a * a <= 0.99, axis=-1)]",
     "    e = _BASIS_AXES[np.argmax(a * a <= 0.999999, axis=-1)]",
     ("tests/test_compiler.py::TestNearBasisAxes::test_split_invariants_are_exact_next_to_every_basis_axis",)),
    ("linalg.py", "_COPIES = (5, 2)", "_COPIES = (5, 1)",
     ("tests/test_holonomy.py::TestCertify::test_a_huge_chain_is_refused_promptly",)),
    ("cli.py", "    check_memory(what, power_bytes(what, 16 + 252, 4, layout.n_logical))",
     "    check_memory(what, power_bytes(what, 16 + 100, 4, layout.n_logical))",
     ("tests/test_cli.py::TestLargeChainGuard::test_compile_estimate_covers_the_rendering",)),
    ("holonomy.py", "    scale = math.sqrt(left * right)", "    scale = 1",
     ("tests/test_holonomy.py::TestMinimalChain::test_certify_equals_the_full_chain_path",)),
    ("linalg.py", "        if defect > 1e-8:", "        if defect > 1e-4:",
     ("tests/test_linalg.py::TestGateFidelity::test_unitarity_bound_is_1e_8",)),
    ("linalg.py", "    if smallest <= 1e-8:", "    if smallest <= 1e-12:",
     ("tests/test_linalg.py::TestPolarUnitary::test_singular_value_floor_is_1e_8",)),
    ("gates.py", "        largest = np.linalg.eigvalsh(gram)[..., -1]",
     "        largest = np.trace(gram, axis1=-2, axis2=-1).real",
     ("tests/test_gates.py::TestColumnExtractionAgainstDense::"
      "test_logical_columns_match_full_propagators[0-False-2]",)),
    ("holonomy.py", "    if largest >= np.pi / 2 or product <= 1e-8:", "    if largest >= np.pi or product <= 1e-8:",
     ("tests/test_holonomy.py::TestWilsonLoop::test_each_undersampling_bound_refuses_on_its_own",)),
    ("holonomy.py", "    if largest >= np.pi / 2 or product <= 1e-8:",
     "    if largest >= np.pi / 2 or product <= 1e-12:",
     ("tests/test_holonomy.py::TestWilsonLoop::test_each_undersampling_bound_refuses_on_its_own",)),
    # certify's and wilson_loop's bounds loosened 100-fold, each met by a value 10x past the bound
    ("holonomy.py", "CERTIFY_PARALLEL_TRANSPORT = 1e-9", "CERTIFY_PARALLEL_TRANSPORT = 1e-7",
     (f"{_BETWEEN}::test_parallel_transport_residual",)),
    ("holonomy.py", "CERTIFY_DYNAMICAL_PHASE = 1e-9", "CERTIFY_DYNAMICAL_PHASE = 1e-7",
     (f"{_BETWEEN}::test_dynamical_phase",)),
    ("holonomy.py", "CERTIFY_CROSS_FIDELITY = 1.0 - 1e-6", "CERTIFY_CROSS_FIDELITY = 1.0 - 1e-4",
     (f"{_BETWEEN}::test_cross_fidelity",)),
    ("holonomy.py", "_WILSON_CYCLICITY = 1e-6", "_WILSON_CYCLICITY = 1e-4",
     (f"{_BETWEEN}::test_wilson_loop_refuses_a_residual_between_its_bound_and_100_times_it",)),
    # the package re-exports every library module's __all__
    ("__init__.py", "from .holonomy import *", "",
     ("tests/test_exports.py::test_every_exported_name_resolves", "tests/test_demos.py::test_readme_block_runs[block0]")),
)


def mutated_copy(tmp: Path, file: str, old: str, new: str) -> Path:
    """``src/`` copied under ``tmp`` with the one line ``old`` of ``holosim/file`` replaced by ``new``."""
    src = tmp / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    path = src / "holosim" / file
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines.count(old) == 1, f"{file}: the old line occurs {lines.count(old)} times: {old!r}"
    lines[lines.index(old)] = new
    path.write_text("\n".join(lines), encoding="utf-8")
    return src


def killed(file: str, old: str, new: str, tests) -> bool:
    """Whether the mutant's tests fail on it (pytest's exit status 1); asserts that they ran against the
    mutated copy, and raises if pytest could not run them (a missing test id, say)."""
    with tempfile.TemporaryDirectory() as tmp:
        src = mutated_copy(Path(tmp), file, old, new)
        run = subprocess.run([sys.executable, "-c", _CHILD, "-p", "no:cacheprovider", "-x", "-q", *tests],
                             cwd=ROOT, env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True)
        if run.returncode not in (0, 1):
            raise RuntimeError(f"pytest exited {run.returncode} on {tests}:\n{run.stdout}{run.stderr}")
        imported = run.stdout.rstrip("\n").rsplit("\n", 1)[-1]
        assert Path(imported).is_relative_to(src), f"the tests imported holosim from {imported!r}, not the copy"
        return run.returncode == 1


def main() -> int:
    assert len(MUTANTS) >= 12 and all(tests for *_, tests in MUTANTS)
    survivors = []
    for file, old, new, tests in MUTANTS:
        start = time.perf_counter()
        dead = killed(file, old, new, tests)
        print(f"{'killed' if dead else 'SURVIVED'} in {time.perf_counter() - start:5.1f} s: {file}: {new.strip()}")
        if not dead:
            survivors.append(f"{file}: {old.strip()} -> {new.strip()}")
    print(f"{len(MUTANTS) - len(survivors)}/{len(MUTANTS)} mutants killed")
    for survivor in survivors:
        print(f"survived: {survivor}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
