#!/usr/bin/env python3
"""Require every listed mutant of the cmkz package to fail its command.

Each mutant is one textual edit of one module, whose target text must
occur exactly once.  For each mutant the package is copied to a temporary
directory, the edit is applied there, and the mutant's command runs
against that copy as `python -W error -m cmkz ...`: it must exit 1 after
writing its JSON report, so that a crash does not count as a caught
mutant.  The unmutated copy must exit 0 on every command in the list.
Prints one line per run and exits 1 if any mutant survives.

    python3 scripts/mutant_scan.py
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

VERIFY = ("verify", "--seed", "2024")


class Mutant(NamedTuple):
    name: str
    module: str
    target: str
    replacement: str
    command: tuple = VERIFY


MUTANTS = (
    Mutant(
        "Gaudin weights scaled by 1 + 1e-6",
        "tensor_gaudin.py",
        'np.einsum("...ab,abij->...aij", 1.0 / gaps,',
        'np.einsum("...ab,abij->...aij", (1.0 + 1e-6) / gaps,',
    ),
    Mutant(
        "Gaudin weights negated",
        "tensor_gaudin.py",
        'np.einsum("...ab,abij->...aij", 1.0 / gaps,',
        'np.einsum("...ab,abij->...aij", -1.0 / gaps,',
    ),
    Mutant(
        "sign of q flipped in generalized_gaudin",
        "tensor_gaudin.py",
        "H[..., diag, diag] += q[",
        "H[..., diag, diag] -= q[",
    ),
    Mutant(
        "Calogero-Moser off-diagonal scaled by 1 + 1e-6",
        "calogero_moser.py",
        "Q = 1.0 / d\n",
        "Q = (1.0 + 1e-6) / d\n",
    ),
    Mutant(
        "content c(mu) negated in the singular-space filter",
        "tensor_gaudin.py",
        "X = _class_sum(basis, X) - c * X",
        "X = _class_sum(basis, X) + c * X",
    ),
    Mutant(
        "every e_k of elementary_symmetric negated",
        "polyalg.py",
        "(-1.0) ** np.arange(1, monic.shape[-1])",
        "(-1.0) ** np.arange(2, monic.shape[-1] + 1)",
    ),
    Mutant(
        "e_3 of elementary_symmetric scaled by 1 + 1e-3",
        "polyalg.py",
        "(-1.0) ** np.arange(1, monic.shape[-1])",
        "(-1.0) ** np.arange(1, monic.shape[-1])"
        " * np.where(np.arange(1, monic.shape[-1]) == 3, 1.0 + 1e-3, 1.0)",
    ),
    Mutant(
        "sign of the roots flipped in the Wronski operator table, (c - e) -> (c + e)",
        "wronski.py",
        "[lo + (c - e) * hi for",
        "[lo + (c + e) * hi for",
    ),
    Mutant(
        "power-basis coefficients read as falling-factorial ones in the operator table",
        "wronski.py",
        "[lo + (c - e) * hi for",
        "[lo + (0 - e) * hi for",
    ),
    Mutant(
        "falling-factorial weight (x + 1)_k for (x)_k in the annihilation gather",
        "wronski.py",
        "math.perm(x, k)",
        "math.perm(x + 1, k)",
    ),
    Mutant(
        "poly_det without the sign of its column order",
        "polyalg.py",
        "return -det if inversions & 1 else det",
        "return det",
    ),
    Mutant(
        "sign of the diagonal term flipped in the Berkowitz recurrence",
        "polyalg.py",
        "series[..., n + 1] = np.diagonal(",
        "series[..., n + 1] = -np.diagonal(",
    ),
    Mutant(
        "each lockstep Wronski row solved against the previous stream's target",
        "wronski.py",
        "- sigma[owner[rows]]",
        "- sigma[owner[rows] - 1]",
    ),
    Mutant(
        "each q = 0 limit listed once in the collision match, not d_lam times",
        "harness.py",
        "for _ in range(irrep_dimension(lam))",
        "for _ in range(1)",
    ),
    Mutant(
        "adjacent-level charge -1 scaled by 1.001 in the Bethe charge matrix",
        "master_function.py",
        "[1.0, 2.0, -1.0]",
        "[1.0, 2.0, -1.001]",
    ),
    Mutant(
        "own-level charge 2 scaled by 1.001 in the Bethe charge matrix",
        "master_function.py",
        "[1.0, 2.0, -1.0]",
        "[1.0, 2.002, -1.0]",
    ),
    Mutant(
        "position-pair charge 1 scaled by 1.001 in the Bethe charge matrix",
        "master_function.py",
        "[1.0, 2.0, -1.0]",
        "[1.001, 2.0, -1.0]",
    ),
    Mutant(
        "each spectrum repeats its first point in place of its last",
        "tensor_gaudin.py",
        "return [SpectralPoint(z, p, res) for p, _, res in entries]",
        "return [SpectralPoint(z, p, res) for p, _, res in entries[:1] + entries[:-1]]",
        ("verify", "--n-max", "6", "--suite", "l0"),
    ),
)


def _run(package: Path, command: tuple) -> tuple[int, bool, float]:
    """Exit code of `python -W error -m cmkz *command` on the package's
    copy, whether its stdout is a JSON document, and its wall time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(package.parent), env.get("PYTHONPATH")) if p
    )
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "cmkz", *command],
        env=env,
        capture_output=True,
        text=True,
    )
    seconds = time.perf_counter() - t0
    try:
        json.loads(proc.stdout)
        reported = True
    except json.JSONDecodeError:
        reported = False
    return proc.returncode, reported, seconds


def _copy(source: Path, root: Path) -> Path:
    package = root / "cmkz"
    shutil.copytree(source, package, ignore=shutil.ignore_patterns("__pycache__"))
    return package


def main() -> int:
    source = Path(importlib.util.find_spec("cmkz").origin).parent
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        clean = _copy(source, Path(tmp) / "clean")
        for command in dict.fromkeys(m.command for m in MUTANTS):
            code, _, seconds = _run(clean, command)
            print(f"unmutated, {' '.join(command)}: exit {code} in {seconds:.2f} s", flush=True)
            if code != 0:
                survivors.append(f"unmutated ({' '.join(command)})")
        for k, mutant in enumerate(MUTANTS):
            package = _copy(source, Path(tmp) / f"mutant{k}")
            path = package / mutant.module
            text = path.read_text(encoding="utf-8")
            hits = text.count(mutant.target)
            if hits != 1:
                raise SystemExit(
                    f"{mutant.name}: target text occurs {hits} times in {mutant.module}"
                )
            path.write_text(text.replace(mutant.target, mutant.replacement), encoding="utf-8")
            code, reported, seconds = _run(package, mutant.command)
            caught = code == 1 and reported
            print(f"{'caught' if caught else 'SURVIVED'}: {mutant.name}, "
                  f"{' '.join(mutant.command)}: exit {code} in {seconds:.2f} s", flush=True)
            if not caught:
                survivors.append(mutant.name)
    print(f"{len(MUTANTS) - len(survivors)}/{len(MUTANTS)} mutants caught"
          + (f"; failed: {survivors}" if survivors else ""))
    return 1 if survivors else 0


if __name__ == "__main__":
    raise SystemExit(main())
