"""Deterministic JSON/CSV rendering with fixed 17-significant-digit floats."""

from __future__ import annotations

import numpy as np

from .flow import speed_profile


def fmt_float(x: float) -> str:
    if isinstance(x, float) and (np.isnan(x) or np.isinf(x)):
        return '"%s"' % repr(x)
    return format(float(x), ".17g")


def dumps(obj, indent=0) -> str:
    """Render JSON with floats in fixed 17-significant-digit form.

    Key order is preserved as constructed, so identical inputs render
    byte-identically.
    """
    pad = "  " * indent
    pad_in = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad_in}"{k}": {dumps(v, indent + 1)}' for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(np.asarray(obj).tolist()) if isinstance(obj, np.ndarray) else list(obj)
        if not seq:
            return "[]"
        flat = all(not isinstance(v, (dict, list, tuple, np.ndarray)) for v in seq)
        if flat:
            return "[" + ", ".join(dumps(v) for v in seq) + "]"
        items = [pad_in + dumps(v, indent + 1) for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt_float(float(obj))
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    raise TypeError(f"cannot serialize {type(obj)}")


def write_json(path, obj) -> str:
    """Write obj as JSON plus a trailing newline; return the text without it."""
    text = dumps(obj)
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return text


def write_csv(path, header, rows):
    """Rows of floats with 17 significant digits."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in np.asarray(rows, dtype=float):
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")


def write_trajectory_csv(path, surface, traj) -> np.ndarray:
    """Columns t, x1..xm, y1..ym, speed; return the speed column, the
    g-norm of the velocity at every sample."""
    m = surface.dim
    speeds = speed_profile(surface, traj)
    header = ["t"] + [f"x{i+1}" for i in range(m)] + [f"y{i+1}" for i in range(m)] + ["speed"]
    write_csv(path, header, np.column_stack([traj.times, traj.states, speeds]))
    return speeds
