"""Every bundled sweep must reproduce the CSV bytes in tests/golden/ at
two pinned settings: seed 1 and 256 trials, one partial block, in
tests/golden/*.csv, and seed 7 and 40000 trials, three full blocks, in
tests/golden/t40000/, which also pins the benchmark's precision_point
spec.  A change that alters the draws on purpose recaptures these files
and says so in CHANGES.md:

    for s in $(ios-noma list-specs); do
      ios-noma run --spec $s --out tests/golden/$s.csv --seed 1 --trials 256
    done
    for s in $(ios-noma list-specs) perfbench/specs/precision_point.ini; do
      ios-noma run --spec $s --out tests/golden/t40000/$(basename $s .ini).csv \\
        --seed 7 --trials 40000
    done
"""

from pathlib import Path

import pytest

from ios_noma.experiments import (bundled_spec_names, load_spec,
                                  rows_to_csv_text, run_sweep,
                                  spec_with_overrides)

GOLDEN_DIR = Path(__file__).parent / "golden"
PRECISION_POINT = Path(__file__).parents[1] / "perfbench" / "specs" / "precision_point.ini"
# (golden file, spec, trials, seed), the 40000-trial files under t40000/
PINNED = ([(f"{name}.csv", name, 256, 1) for name in bundled_spec_names()]
          + [(f"t40000/{Path(spec).stem}.csv", spec, 40_000, 7)
             for spec in (*bundled_spec_names(), str(PRECISION_POINT))])


def first_difference(new: str, old: str) -> str:
    """The first CSV line where two texts differ, numbered from 1."""
    new_lines, old_lines = new.splitlines(), old.splitlines()
    for number, (a, b) in enumerate(zip(new_lines, old_lines), start=1):
        if a != b:
            return f"line {number}: {a!r} != golden {b!r}"
    return f"{len(new_lines)} lines != golden {len(old_lines)} lines"


@pytest.mark.parametrize("golden, spec, trials, seed", PINNED,
                         ids=[golden.removesuffix(".csv") for golden, *_ in PINNED])
def test_bundled_csv_is_byte_identical(golden, spec, trials, seed):
    spec = spec_with_overrides(load_spec(spec), trials=trials, master_seed=seed)
    text = rows_to_csv_text(run_sweep(spec))
    expected = (GOLDEN_DIR / golden).read_bytes()
    assert text.encode("utf-8") == expected, first_difference(text, expected.decode("utf-8"))
