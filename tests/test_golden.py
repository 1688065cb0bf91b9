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


@pytest.mark.parametrize("name", bundled_spec_names())
def test_bundled_csv_is_byte_identical(name):
    spec = spec_with_overrides(load_spec(name), trials=256, master_seed=1)
    text = rows_to_csv_text(run_sweep(spec))
    assert text.encode("utf-8") == (GOLDEN_DIR / f"{name}.csv").read_bytes()
