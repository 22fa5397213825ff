import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import meanineq
from meanineq import Configuration


def run_fresh(args, **kwargs):
    """Run ``python *args`` in a fresh interpreter on the meanineq this suite imports.

    The interpreter turns a RuntimeWarning into an error, as the suite's
    own warning filter does, so a warning a command prints fails its test.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(meanineq.__file__).resolve().parents[1]),
               PYTHONWARNINGS="error::RuntimeWarning")
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          **kwargs)


def rst_table_rows(doc: str) -> list[tuple[str, ...]]:
    """The body rows of the first RST simple table in ``doc``, as tuples of cells.

    A line whose first cell is blank continues the row above it; each of
    its cells is joined to that row's cell with one space.
    """
    lines = doc.split("\n")
    rules = [i for i, line in enumerate(lines) if re.fullmatch(r"=+( =+)*", line)]
    starts = [m.start() for m in re.finditer(r"=+", lines[rules[0]])]
    rows: list[list[str]] = []
    for line in lines[rules[1] + 1:rules[2]]:
        cells = [line[a:b].strip() for a, b in zip(starts, [*starts[1:], None])]
        if cells[0]:
            rows.append(cells)
        else:
            rows[-1] = [" ".join(filter(None, pair)) for pair in zip(rows[-1], cells)]
    return [tuple(row) for row in rows]


def sample_config(rng, n_max=8, zero_prob=0.0, log_spread=1.0):
    """One random configuration: lognormal samples, Dirichlet weights."""
    n = int(rng.integers(2, n_max + 1))
    x = np.exp(rng.normal(0.0, log_spread, n))
    if zero_prob and rng.random() < zero_prob:
        x[np.argmin(x)] = 0.0
    return Configuration(x, rng.dirichlet(np.ones(n)))


def pinned_config(rng, n, q_target, zero_prob=0.0, max_tries=500):
    """A configuration whose minimum weight equals q_target exactly."""
    for _ in range(max_tries):
        rest = (1.0 - q_target) * rng.dirichlet(np.ones(n - 1))
        if rest.min() >= q_target:
            w = np.insert(rest, int(rng.integers(n)), q_target)
            x = np.sort(rng.uniform(0.0, 1.0, n))
            if zero_prob and rng.random() < zero_prob:
                x[0] = 0.0
            if x[-1] - x[0] < 0.05 * max(x[-1], 1e-12):
                x[-1] = x[-1] + 1.0
            return Configuration(x, w)
    return None


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
