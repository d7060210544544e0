"""The comparison grid's configs: every point parses, so the same-bits diff covers all of them."""

import importlib.util
from pathlib import Path

from wcmc.harness.config import SCHEMES, parse_config

SPEC = importlib.util.spec_from_file_location(
    "compare_grid", Path(__file__).resolve().parent.parent / "tools" / "compare_grid.py"
)
compare_grid = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(compare_grid)


def test_every_grid_point_parses_with_every_scheme():
    # 16 points x 2 trials x 7 schemes = the 224 rows the script prints
    points = list(compare_grid.grid())
    assert len(points) == 16
    assert len({label for label, _ in points}) == 16
    for _, doc in points:
        cfg = parse_config(doc)
        assert list(cfg.schemes) == list(SCHEMES)
        assert cfg.trials == 2
