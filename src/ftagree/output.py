"""Trajectory CSV serialization.

Format: UTF-8, LF line endings, header `t,x1,...,xn,V1,V2,spread,sum`,
one row per retained sample, all numbers with 9 significant digits.
"""

import os
from typing import Union

from .engine import Trajectory
from .errors import ValidationError


def trajectory_csv_text(traj: Trajectory) -> str:
    if not traj.t.size:
        raise ValidationError("trajectory has no samples")
    n = traj.x.shape[1]
    header = "t," + ",".join(f"x{i + 1}" for i in range(n)) + ",V1,V2,spread,sum"
    row = ",".join(["%.9g"] * (n + 5))
    lines = [header]
    tails = zip(traj.v1.tolist(), traj.v2.tolist(), traj.spread.tolist(), traj.sum.tolist())
    for t, x, tail in zip(traj.t.tolist(), traj.x, tails):
        lines.append(row % (t, *x.tolist(), *tail))
    return "\n".join(lines) + "\n"


def write_trajectory_csv(traj: Trajectory, destination: Union[str, os.PathLike]) -> int:
    """Write the trajectory CSV to a file; returns the number of bytes written."""
    data = trajectory_csv_text(traj).encode("utf-8")
    with open(destination, "wb") as fh:
        fh.write(data)
    return len(data)
