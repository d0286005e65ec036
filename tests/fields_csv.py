"""Read a `fields.csv` written by `quenchctrl simulate` back into arrays."""

from pathlib import Path

import numpy as np

from quenchctrl.cli import _INDEX_HEADER


def read_fields_csv(path: Path) -> dict[str, np.ndarray]:
    """Read fields.csv back into arrays keyed by column name.

    Shapes are inferred from the index columns; parsing the 17-digit
    decimals reproduces the written float64 values exactly.
    """
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        table = np.loadtxt(fh, delimiter=",", ndmin=2)
    n_idx = sum(name in _INDEX_HEADER for name in header)
    shape = tuple(int(table[:, i].max()) + 1 for i in range(n_idx))
    return {name: table[:, n_idx + k].reshape(shape) for k, name in enumerate(header[n_idx:])}
