"""Every bundled sweep, rerun at seed 1 and 256 trials, must reproduce
the CSV bytes in tests/golden/.  A change that alters the draws on
purpose recaptures these files and says so in CHANGES.md:

    for s in $(ios-noma list-specs); do
      ios-noma run --spec $s --out tests/golden/$s.csv --seed 1 --trials 256
    done
"""

from pathlib import Path

import pytest

from ios_noma.experiments import (bundled_spec_names, load_spec,
                                  rows_to_csv_text, run_sweep,
                                  spec_with_overrides)

GOLDEN_DIR = Path(__file__).parent / "golden"


def first_difference(new: str, old: str) -> str:
    """The first CSV line where two texts differ, numbered from 1."""
    new_lines, old_lines = new.splitlines(), old.splitlines()
    for number, (a, b) in enumerate(zip(new_lines, old_lines), start=1):
        if a != b:
            return f"line {number}: {a!r} != golden {b!r}"
    return f"{len(new_lines)} lines != golden {len(old_lines)} lines"


@pytest.mark.parametrize("name", bundled_spec_names())
def test_bundled_csv_is_byte_identical(name):
    spec = spec_with_overrides(load_spec(name), trials=256, master_seed=1)
    text = rows_to_csv_text(run_sweep(spec))
    golden = (GOLDEN_DIR / f"{name}.csv").read_bytes()
    assert text.encode("utf-8") == golden, first_difference(text, golden.decode("utf-8"))
