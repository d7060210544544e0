"""The comparison grid's configs: every point parses, so the same-bits diff covers all of them."""

import importlib.util
import math
from pathlib import Path

from wcmc.harness import runner
from wcmc.harness.config import SCHEMES, parse_config

SPEC = importlib.util.spec_from_file_location(
    "compare_grid", Path(__file__).resolve().parent.parent / "tools" / "compare_grid.py"
)
compare_grid = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(compare_grid)


def test_every_grid_point_parses_with_every_scheme():
    # 18 points x 2 trials x 7 schemes = the 252 rows the script prints
    points = list(compare_grid.grid())
    assert len(points) == 18
    assert len({label for label, _ in points}) == 18
    for _, doc in points:
        cfg = parse_config(doc)
        assert list(cfg.schemes) == list(SCHEMES)
        assert cfg.trials == 2


def test_a_grid_point_reaches_the_quadrature_reference():
    # the N = 3000 points' reference is the quadrature, which reports its step
    label, doc = list(compare_grid.grid())[-1]
    assert "n=3000" in label
    world = runner.build_world(parse_config(doc), 0)
    assert isinstance(world.reference_error, float) and math.isfinite(world.reference_error)
