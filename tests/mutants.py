"""Mutation check: every rule below is guarded by a test other than a golden.

Each entry is a one-line mutant of ``src/qdasim``: an exact text, which must
occur exactly once in its file, its replacement, and the test files or test
ids that must fail once it is applied. For each mutant the runner copies
``src/``, ``tests/`` and ``pyproject.toml`` to a temporary directory
(pyproject's ``pythonpath = ["src"]`` would otherwise import the unmutated
package), runs the named tests there unmutated, which must pass, then applies
the mutant and runs them again. The reduce golden byte comparison is deselected, so a mutant
that only a stored golden catches survives. A survivor fails the run unless
its entry says why it is equivalent to the original.

Run from anywhere, with pytest (and hypothesis, for the property tests)
installed::

    python tests/mutants.py
"""
from __future__ import annotations

import importlib.util
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = "tests/test_cli.py::TestReduce::test_report_matches_stored_golden_bytes"
# hypothesis draws the same examples on every run, so a verdict is reproducible
SEED = ["--hypothesis-seed=0"] if importlib.util.find_spec("hypothesis") else []


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str  # file name under src/qdasim
    old: str
    new: str
    tests: tuple[str, ...]  # test files or test ids, relative to the repository root
    equivalent: str = ""  # why no test can tell it from the original, if none can


MUTANTS = (
    Mutant("register rounds instead of truncating", "chain.py",
           "registers = np.minimum(np.floor(w * big_t), big_t - 1) / big_t",
           "registers = np.minimum(np.round(w * big_t), big_t - 1) / big_t",
           ("tests/test_chain.py",)),
    Mutant("register clamps at 2^t - 2, not 2^t - 1", "chain.py",
           "registers = np.minimum(np.floor(w * big_t), big_t - 1) / big_t",
           "registers = np.minimum(np.floor(w * big_t), big_t - 2) / big_t",
           ("tests/test_chain.py",)),
    Mutant("kappa filter slack 1e-12 -> 1e-3", "linalg.py",
           "lam_max / kappa_eff * (1.0 - 1e-12)",
           "lam_max / kappa_eff * (1.0 - 1e-3)",
           ("tests/test_linalg.py",)),
    Mutant("qpe_draws quartered", "lda.py",
           "return max(4096, 64 * (1 << t))",
           "return max(4096, 64 * (1 << t)) // 4",
           ("tests/test_lda.py",)),
    Mutant("amplified_bound_stage1 squared", "chain.py",
           "amplified_bound_stage1=outcomes[0].amplified_floor,",
           "amplified_bound_stage1=outcomes[0].amplified_floor**2,",
           ("tests/test_chain.py",)),
    Mutant("stage floor min_amp / 2 in place of min_amp^2", "chain.py",
           "floor=min_amp**2 * support_weight,",
           "floor=0.5 * min_amp * support_weight,",
           ("tests/test_chain.py",)),
    Mutant("rotation constant (1 - eps/2) / max|f|", "chain.py",
           "return (1.0 - eps) / float(np.max(np.abs(f(values))))",
           "return (1.0 - eps / 2) / float(np.max(np.abs(f(values))))",
           ("tests/test_chain.py",)),
    Mutant("copy count kappa / eps^3", "chain.py",
           "ratio = kappa**2 / Fraction(eps) ** 3",
           "ratio = kappa / Fraction(eps) ** 3",
           ("tests/test_chain.py",)),
    Mutant("copy-count near-integer slack 1e-14 -> 1e-12", "chain.py",
           "abs(ratio - round(ratio)) * 10**14 <= ratio",
           "abs(ratio - round(ratio)) * 10**12 <= ratio",
           ("tests/test_chain.py::TestCopyCount::test_count_below_the_near_integer_slack_is_the_ceiling",)),
    Mutant("copy count rounded down", "chain.py",
           "else math.ceil(ratio)",
           "else math.floor(ratio)",
           ("tests/test_chain.py",)),
    Mutant("binomial recurrence off by one", "rotation.py",
           "binomial *= (r - i) / (i + 1)",
           "binomial *= (r - i) / (i + 2)",
           ("tests/test_rotation.py",)),
    Mutant("resolution rule one bit loose", "rotation.py",
           "2.0**-fraction_bits",
           "2.0**-(fraction_bits + 1)",
           ("tests/test_rotation.py",)),
    Mutant("Fejer kernel not squared", "qsim.py",
           "return amp * amp",
           "return amp",
           ("tests/test_qsim.py",)),
    Mutant("Fejer peak weight 0 in place of 1", "qsim.py",
           "out=np.ones(den.shape)",
           "out=np.zeros(den.shape)",
           ("tests/test_qsim.py",)),
    Mutant("blend gamma halved", "lda.py",
           "gamma = 2.0**-t",
           "gamma = 2.0**-t / 2",
           ("tests/test_lda.py",)),
    Mutant("estimates not un-blended", "lda.py",
           "estimates = (samples.eigenvalues[modal] - gamma / n) / (1.0 - gamma)",
           "estimates = samples.eigenvalues[modal]",
           ("tests/test_lda.py",)),
    Mutant("modal bin -> highest bin estimate", "lda.py",
           "estimates = (samples.eigenvalues[modal] - gamma / n) / (1.0 - gamma)",
           "estimates = (samples.eigenvalues[keep] - gamma / n) / (1.0 - gamma)",
           ("tests/test_lda.py",)),
    Mutant("drawn eigenvalue one bin high", "qsim.py",
           "eigenvalues=drawn / probs.size,",
           "eigenvalues=(drawn + 1) / probs.size,",
           ("tests/test_qsim.py",)),
    Mutant("noise floor half as high", "lda.py",
           "(samples.probabilities >= 1.0 / (1 << t))",
           "(samples.probabilities >= 0.5 / (1 << t))",
           ("tests/test_lda.py",)),
    Mutant("shot estimate biased by 1/shots", "qsim.py",
           "estimate=2.0 * p_hat - 1.0,",
           "estimate=2.0 * p_hat - 1.0 + 1.0 / shots,",
           ("tests/test_qsim.py",)),
    Mutant("shot standard error halved", "qsim.py",
           "standard_error=2.0 * np.sqrt(",
           "standard_error=np.sqrt(",
           ("tests/test_qsim.py",)),
    Mutant("classify spends shots/4", "qda.py",
           "overlap_test_signed(direction, unit_rows, shots, seeds)",
           "overlap_test_signed(direction, unit_rows, shots // 4, seeds)",
           ("tests/test_qda.py",)),
    Mutant("log prior halved", "qda.py",
           "[math.log(p) for p in priors]",
           "[0.5 * math.log(p) for p in priors]",
           ("tests/test_qda.py",)),
    Mutant("one-class model accepted", "qda.py",
           "if self.k < 2:",
           "if self.k < 1:",
           ("tests/test_qda.py::TestClassifyMany::test_single_class_model_is_rejected",)),
    Mutant("synthetic test set records no seed", "cli.py",
           'test_descriptor["seed"] = args.seed + 1',
           "pass",
           ("tests/test_cli.py::TestDataSourceFlags::test_each_source_records_its_descriptor",)),
    Mutant("synthetic floor back at 2", "data_io.py",
           "if per_class < 1:",
           "if per_class < 2:",
           ("tests/test_cli.py::TestClassify::test_one_synthetic_query_per_class_classifies",)),
    Mutant("feature map in data units", "lda.py",
           "samples = data.samples / (np.max(np.abs(data.samples)) or 1.0)",
           "samples = data.samples",
           ("tests/test_lda.py", "tests/test_cli.py")),
)


def _pytest(root: Path, tests: tuple[str, ...]) -> int:
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-W", "error", "-p", "no:cacheprovider",
            *SEED, "--deselect", GOLDEN, *tests]
    return subprocess.run(argv, cwd=root, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def verdict(mutant: Mutant) -> str:
    """'killed', 'survived', or why the mutant could not be tried."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for tree in ("src", "tests"):
            shutil.copytree(ROOT / tree, root / tree, ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", root)
        target = root / "src" / "qdasim" / mutant.module
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return f"error: the text occurs {text.count(mutant.old)} times in {mutant.module}"
        if _pytest(root, mutant.tests) != 0:
            return "error: the named tests fail unmutated"
        target.write_text(text.replace(mutant.old, mutant.new))
        # pytest exits 1 when a test failed; any other code is no verdict
        code = _pytest(root, mutant.tests)
        return {0: "survived", 1: "killed"}.get(code, f"error: pytest exited {code}")


def main() -> int:
    failed = 0
    for mutant in MUTANTS:
        result = verdict(mutant)
        if result == "survived" and mutant.equivalent:
            result = f"survived, equivalent: {mutant.equivalent}"
        elif result != "killed":
            failed += 1
        print(f"{result}: {mutant.name} ({', '.join(mutant.tests)})", flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed or equivalent")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
