"""The package's public names: adding or dropping an export is a choice
made here, not a side effect."""

import ast
from pathlib import Path

import ios_noma

INIT = Path(ios_noma.__file__)

PUBLIC = {
    "RateBound", "Scenario", "large_snr_limit", "rate_bound",
    "ConfigError", "Perfect", "PhaseErrorModel", "Quantized", "SystemParams",
    "UniformFull", "VonMises", "pathloss", "phase_error_from_string",
    "Point", "ResultRow", "ScenarioSpec", "SweepSpec", "build_point",
    "bundled_spec_names", "load_spec", "run_sweep", "write_csv",
    "ArrayGeometry", "trace_rbar_sq",
    "McConfig", "McEstimate", "mc_estimates",
}


def test_exported_names_are_pinned():
    # the names __init__ imports or assigns, read as the benchmark counts them
    names = set()
    for node in ast.parse(INIT.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ImportFrom):
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    assert {name for name in names if not name.startswith("_")} == PUBLIC
    assert len(PUBLIC) == 27
    assert [name for name in sorted(PUBLIC) if not hasattr(ios_noma, name)] == []
