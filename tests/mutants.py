"""Mutation gate: every mutant below must fail the tests named for it.

Run with ``python tests/mutants.py``; it takes no options.  It uses the standard
library only, and pytest does not collect it (the name has no ``test_`` prefix).

Each mutant names a file, a snippet that must occur in it exactly once, the snippet's
replacement and the test node ids expected to catch it.  The script first runs every
named test on an unmutated copy.  Then, for each mutant, it copies ``src/``, ``tests/``
and ``pyproject.toml`` to a temporary directory, applies the mutant there and runs
``python -m pytest -x -q -p no:cacheprovider --hypothesis-seed=0
--hypothesis-profile=mutants <ids>`` with ``PYTHONPATH=<copy>/src``; that profile
(``tests/conftest.py``) leaves out hypothesis's explain phase.  Exit status 1 counts
as caught and 0 as survived; any other status (a collection error, no test found)
is an error, and so is a snippet that is missing or repeated.  It prints one line per
mutant, with the first failing test of a caught one, and exits 1 unless every mutant
is caught.  This is mutation analysis (DeMillo, Lipton & Sayward, IEEE Computer 11(4),
1978), kept as a gate on the test suite: a refactor that drops the only test catching
a mutant fails it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

CLS = "src/classent/classicalize.py"
CERT = "src/classent/certify.py"
T = "tests/test_classicalize.py::"
PROPERTY = T + "TestOneReference::test_every_route_matches_the_reference"
ROWS = T + "TestDeterminantScreen::test_the_rows_pass_matches_whole_blocks[GRID]"
HALVED = T + "TestConjugationMirror::test_only_real_qubit_c_states_are_halved"
COLLAPSES = T + "TestTAxisCollapse::test_only_an_exactly_zero_block_collapses"
REPORT = T + "TestConditionalScan::test_the_report_matches_whole_blocks"
PLATEAU = T + "TestConditionalScan::test_a_plateau_solves_every_block_but_its_seed"
DEPHASING = "tests/test_certify.py::TestFixedPoint::test_matches_the_kron_dephasing[dims0]"
PAULI_AXIS = ("tests/test_certify.py::TestZeroDiscord::"
              "test_random_basis_with_mixed_marginal_is_found")
PT_MAP = T + "TestDeterminantScreen::test_pt_map_gathers_the_partial_transpose[dims_ab0]"
TWINS = T + "TestRealPass::test_real_passes_match_their_complex_twins"
REAL_KETS = T + "TestRealPass::test_only_exactly_real_passes_get_real_kets"


class Mutant(NamedTuple):
    name: str
    path: str
    snippet: str
    replacement: str
    tests: tuple[str, ...]


MUTANTS = (
    # the partial-transpose map and the outcome-block layout
    Mutant("identity _pt_map", CLS,
           "return _partial_transpose_array(np.arange(d * d).reshape(d, d), dims_ab, (0,))",
           "return np.arange(d * d).reshape(d, d)",
           (PT_MAP, PROPERTY)),
    Mutant("_pt_map transposes B", CLS,
           "reshape(d, d), dims_ab, (0,))", "reshape(d, d), dims_ab, (1,))",
           (PT_MAP, ROWS)),
    Mutant("entry rows written ban", CLS, "{'abn' if rows", "{'ban' if rows", (ROWS, DEPHASING)),
    Mutant("fixed_point_check reads basis for basis.T", CERT,
           "_outcome_blocks(rho, basis.T)", "_outcome_blocks(rho, basis)", (DEPHASING,)),
    Mutant("dephased blocks written cdba", CERT, '"kab,ck,dk->cdab"', '"kab,ck,dk->cdba"',
           (DEPHASING,)),
    # the complement: rho_AB - K on the generic pass, partner rows on pure, collapsed and
    # real ones
    Mutant("complement without rho_AB", CLS,
           "np.subtract(_in_pass(rho_ab, kets), k", "np.subtract(0 * _in_pass(rho_ab, kets), k",
           (PROPERTY, ROWS)),
    Mutant("partner taken mod (n + 1)", CLS,
           "first[(rows + n // 2) % n]", "first[(rows + n // 2) % (n + 1)]",
           (PROPERTY, T + "TestComplementShift::test_partner_rows_agree_bit_for_bit[GRID]")),
    Mutant("shift on the generic pass", CLS,
           "isinstance(state, PureState) or _collapses(state) or _is_real(state)", "True",
           (T + "TestComplementShift::test_the_generic_eigen_pass_keeps_its_complement[GRID]",)),
    Mutant("rows = np.arange(nx + 1)", CLS,
           "rows = np.arange(0, n + 1, n // nx)", "rows = np.arange(nx + 1)",
           (PROPERTY, T + "TestComplementShift::"
            "test_an_odd_n_x_reads_the_even_rows_of_the_doubled_grid[(25, 8)]")),
    Mutant("qutrit-C pure complement without the conjugate", CLS,
           "ket.conj().transpose(0, 2, 1)", "ket.transpose(0, 2, 1)",
           (PROPERTY,)),
    Mutant("Schmidt pairs without the threshold", CLS,
           "np.where(pairs > NEG_EIG_THRESHOLD, pairs, 0.0).sum(axis=1)", "pairs.sum(axis=1)",
           (T + "TestSchmidtKernel::test_threshold_edge[0.99]",)),
    # the walker: mirror, collapse and slices
    Mutant("mirror on complex data", CLS,
           "if dims[2] == 2 and (rep > 1 or real):", "if dims[2] == 2:",
           (PROPERTY, HALVED)),
    Mutant("mirror without its reversal", CLS, "a[:n - len(a)][::-1]", "a[:n - len(a)]",
           (HALVED, PROPERTY)),
    Mutant("mirror evaluates one direction too many", CLS,
           "kets = kets[:(n + 1) // 2]", "kets = kets[:(n + 1) // 2 + 1]", (HALVED,)),
    Mutant("row mirror on real data only", CLS, "(rep > 1 or real)", "(real)", (COLLAPSES,)),
    # the realness of a pass: real data and real kets
    Mutant("real pass on complex kets", CLS,
           "exact = real and not kets.imag.any()", "exact = real",
           (TWINS + "[rho:0.5-GRID]", REAL_KETS)),
    Mutant("real pass on complex data", CLS,
           "exact = real and not kets.imag.any()", "exact = not kets.imag.any()",
           (TWINS + "[sym3-GRID]", REAL_KETS)),
    Mutant("collapse tested by a tolerance", CLS,
           "not c_blocks(state)[[0, 1], [1, 0]].any()",
           "np.abs(c_blocks(state)[[0, 1], [1, 0]]).max() <= 1e-12", (COLLAPSES,)),
    Mutant("pure collapse on the B side only", CLS, " or not (zero @ bar.T).any()", "",
           (COLLAPSES,)),
    Mutant("pure collapse on the A side only", CLS, "not (zero.T @ bar).any() or ", "",
           (COLLAPSES,)),
    Mutant("pure collapse without the conjugate", CLS, "bar = one.conj()", "bar = one",
           (COLLAPSES,)),
    Mutant("pure collapse tested by a tolerance", CLS, "not (zero.T @ bar).any()",
           "np.abs(zero.T @ bar).max() <= 1e-12", (COLLAPSES,)),
    Mutant("collapse builds every t column", CLS,
           "direction_kets(2, (nx, 1))[::2]", "direction_kets(2, grid)[::nt + 1]",
           (T + "TestTAxisCollapse::test_a_collapsed_pass_builds_the_t0_column_only",)),
    Mutant("slices joined in reverse", CLS,
           "for s in _slices(len(kets), dims[0] * dims[1])",
           "for s in _slices(len(kets), dims[0] * dims[1])[::-1]",
           (T + "TestChunkedPass::test_slices_match_one_batch[mixed]", PROPERTY)),
    Mutant("writable ket cache", CLS, "kets.flags.writeable = False", "kets.flags.writeable = True",
           (T + "TestDirectionGrid::test_kets_are_built_once_and_read_only",)),
    # the determinant screen
    Mutant("screen as det > 0", CLS,
           "return det.real - big_m**3 * (32 * 24 * np.finfo(float).eps / 2 * big_m + 1024 * gap)",
           "return det.real",
           (T + "TestDeterminantScreen::test_nearly_product_pure_blocks",
            T + "TestDeterminantScreen::test_validator_slack_is_not_screened_away")),
    Mutant("screen without its G M^3 term", CLS, "/ 2 * big_m + 1024 * gap)", "/ 2 * big_m)",
           (T + "TestDeterminantScreen::test_validator_slack_is_not_screened_away",)),
    # the conditional-PPT scan
    # the floor from the bare determinant: slack + E, with E as _ppt_by_det forms it
    # (G = 4 PSD_TOL + 16 HERM_TOL = 5.6e-9, so 3 G = 1.68e-8 and 1024 G = 5.7344e-6)
    Mutant("scan floor without its margin", CERT, "np.divide(27 * slack,",
           "np.divide(27 * (slack + (m := flat.T[::5].real.max(axis=0) + 1.68e-8) ** 3"
           " * (384 * np.finfo(float).eps * m + 5.7344e-6)),",
           (T + "TestConditionalScan::test_the_floor_keeps_its_margin",)),
    Mutant("scan floor times 2", CERT, "27 * slack", "54 * slack",
           (REPORT + "[heis:5-odd-grid]", REPORT + "[hdk-DEFAULT_GRID]")),
    Mutant("scan chunks solved from the end", CERT,
           "np.flatnonzero(live & ~screened), 0,", "np.flatnonzero(live & ~screened)[::-1], 0,",
           (REPORT + "[late-failure-DEFAULT_GRID]",)),
    Mutant("scan never solves a screened block", CERT,
           "todo = floors <= worst", "todo = floors < 0", (REPORT + "[adma-GRID]",)),
    Mutant("scan counts negligible blocks", CERT,
           "live = probs > ZERO_PROB", "live = probs == probs", (REPORT + "[negligible-GRID]",)),
    Mutant("plateau view one block short at the end", CERT,
           "slice(gaps[0] + 1, None)", "slice(gaps[0] + 2, None)",
           (PLATEAU + "[2]", PLATEAU + "[4]")),
    Mutant("plateau view one block short at the start", CERT,
           "slice(0, gaps[0])", "slice(0, gaps[0] - 1)", (PLATEAU + "[2]", PLATEAU + "[4]")),
    # the discord axis and the negativity threshold
    Mutant("bottom Gram eigenvector as the Pauli axis", CERT,
           ".real)[1][:, -1]", ".real)[1][:, 0]", (PAULI_AXIS,)),
    Mutant("Pauli contraction transposed", CERT, '"kcd,dcab->kab"', '"kcd,cdab->kab"',
           (PAULI_AXIS,)),
    Mutant("negativity without the empty-spectrum guard", "src/classent/measures.py",
           "return float(-w.sum()) if w.size else 0.0", "return float(-w.sum())",
           ("tests/test_measures.py::test_negativity_threshold",)),
)


def _copy(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest)


def _run(dest: Path, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(dest / "src"))
    return subprocess.run([sys.executable, *args], cwd=dest, env=env, capture_output=True,
                          text=True)


def _pytest(dest: Path, ids) -> subprocess.CompletedProcess:
    return _run(dest, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                "--hypothesis-seed=0", "--hypothesis-profile=mutants", *ids)


def _first_failure(out: str) -> str:
    for line in out.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return "no FAILED line in the output"


def _tail(proc: subprocess.CompletedProcess) -> str:
    lines = (proc.stdout + proc.stderr).strip().splitlines()
    return lines[-1] if lines else "no output"


def _apply(dest: Path, mutant: Mutant) -> str | None:
    """Apply ``mutant`` in ``dest``; the reason it cannot be applied, or None."""
    path = dest / mutant.path
    text = path.read_text()
    count = text.count(mutant.snippet)
    if count != 1:
        return f"snippet occurs {count} times in {mutant.path}"
    path.write_text(text.replace(mutant.snippet, mutant.replacement))
    return None


def main() -> int:
    started = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        dest = Path(tmp)
        _copy(dest)
        where = _run(dest, "-c", "import classent; print(classent.__file__)").stdout.strip()
        if not Path(where).resolve().is_relative_to(dest.resolve()):
            print(f"error: classent imports from {where!r}, not from the copy")
            return 1
        ids = list(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        clean = _pytest(dest, ids)
        if clean.returncode != 0:
            print(f"error: the named tests do not pass unmutated (exit {clean.returncode}): "
                  f"{_first_failure(clean.stdout)}; {_tail(clean)}")
            return 1
    print(f"unmutated: {len(ids)} named tests pass", flush=True)
    caught = 0
    for mutant in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            dest = Path(tmp)
            _copy(dest)
            problem = _apply(dest, mutant)
            if problem is None:
                proc = _pytest(dest, mutant.tests)
                if proc.returncode == 1:
                    caught += 1
                    print(f"caught    {mutant.name}: {_first_failure(proc.stdout)}", flush=True)
                    continue
                if proc.returncode == 0:
                    print(f"SURVIVED  {mutant.name}: the named tests pass", flush=True)
                    continue
                problem = f"pytest exit {proc.returncode}: {_tail(proc)}"
            print(f"ERROR     {mutant.name}: {problem}", flush=True)
    print(f"{caught}/{len(MUTANTS)} mutants caught in {time.perf_counter() - started:.0f} s")
    return 0 if caught == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
