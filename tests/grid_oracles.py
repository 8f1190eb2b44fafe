"""The former coordinate table of a level, kept as an oracle.

A level evaluates functions on the open mesh of its axes and builds no
``(node_count, N)`` table of node coordinates; the tests build that table
here, as the level once did, and compare against it bit for bit.
"""

import numpy as np


def coordinate_table(level):
    """Flat ``(node_count, N)`` array of node coordinates, in C order."""
    mesh = np.meshgrid(*level.axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)
