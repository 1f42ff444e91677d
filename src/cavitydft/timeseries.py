"""Uniformly sampled observable records and the one tab-separated table format.

Every text output is a :func:`write_table` table that :func:`read_table` reads
back: '#' ``key = value`` metadata lines, '#' note lines, a header row naming
every column, then the rows.  All values are atomic units.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError

_AXES = ("x", "y", "z")


@dataclass
class TimeSeries:
    """Column-oriented record of observables along a propagation.

    ``columns`` maps column name to a 1D float array; every column has the
    same length and ``t`` is always present.  ``meta`` carries the run
    parameters needed by post-processing (time step, kick strength, cavity
    frequency, ...).
    """

    columns: dict
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if "t" not in self.columns:
            raise UsageError("a time series needs a 't' column")
        n = len(self.columns["t"])
        for name, col in self.columns.items():
            col = np.asarray(col, dtype=float)
            if col.shape != (n,):
                raise UsageError(f"column {name!r} has shape {col.shape}, expected ({n},)")
            if not np.all(np.isfinite(col)):
                raise UsageError(f"column {name!r} contains non-finite samples")
            self.columns[name] = col

    @property
    def t(self) -> np.ndarray:
        return self.columns["t"]

    @property
    def n_samples(self) -> int:
        return len(self.t)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.columns[name]

    def __contains__(self, name: str) -> bool:
        return name in self.columns

    def dipole(self, axis: int = 0) -> np.ndarray:
        return self.columns[f"D{_AXES[axis]}"]

    def sector_dipole(self, sector: int, axis: int = 0) -> np.ndarray:
        name = f"D{_AXES[axis]}_s{sector}"
        if name not in self.columns:
            raise UsageError(f"series has no sector-resolved dipole column {name!r}")
        return self.columns[name]

    @property
    def n_sector_columns(self) -> int:
        return sum(1 for name in self.columns if name.startswith("Dx_s"))

    def write(self, path, extra_meta: dict | None = None) -> None:
        write_table(path, {**self.meta, **(extra_meta or {})}, self.columns)

    @classmethod
    def read(cls, path) -> "TimeSeries":
        meta, columns = read_table(path)
        return cls(columns=columns, meta=meta)


def write_table(path, meta: dict, columns: dict, notes=()) -> None:
    """Sorted '# key = value' lines, one '# note' line per note, then the table.

    Metadata values are written with ``str``, which is exact for Python
    floats.  The table is a tab-separated header row of the column names
    and one row per sample, every value written exactly (``%.17g``).
    """
    with open(path, "w") as fh:
        for key in sorted(meta):
            fh.write(f"# {key} = {meta[key]}\n")
        for note in notes:
            fh.write(f"# {note}\n")
        fh.write("\t".join(columns) + "\n")
        for row in zip(*columns.values()):
            fh.write("\t".join(f"{v:.17g}" for v in row) + "\n")


def read_table(path) -> tuple[dict, dict]:
    """The ``(meta, columns)`` that :func:`write_table` wrote to ``path``.

    Numeric metadata values come back as ``int`` or ``float`` (exactly as
    written), the rest as strings; note lines, which carry no ' = ', are
    skipped.  Every column is a float array.  A file that is not text, has a
    cell that is not a number or stops inside a line raises :class:`UsageError`.
    """
    meta = {}
    names = None
    rows = []
    try:
        with open(path) as fh:
            text = fh.read()
        # write_table ends every line in a newline, the last row's too
        if text and not text.endswith("\n"):
            raise UsageError(f"{path} stops inside a line: the table was cut short")
        for line in text.split("\n"):
            if not line.strip():
                continue
            if line.startswith("#"):
                key, sep, value = line[1:].partition(" = ")
                if sep:
                    meta[key.strip()] = _parse_meta_value(value.strip())
            elif names is None:
                names = line.split("\t")
            else:
                rows.append([float(tok) for tok in line.split("\t")])
    except ValueError as exc:  # a UnicodeDecodeError too
        raise UsageError(f"{path} is not a text table of numbers: {exc}") from exc
    if names is None or not rows:
        raise UsageError(f"no tabular data found in {path}")
    if any(len(row) != len(names) for row in rows):
        raise UsageError(f"column count mismatch in {path}")
    data = np.asarray(rows, dtype=float)
    return meta, {name: data[:, i].copy() for i, name in enumerate(names)}


def _parse_meta_value(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


def axis_name(axis: int) -> str:
    return _AXES[axis]


def axis_index(name: str) -> int:
    """The axis number of ``name`` ('x', 'y' or 'z')."""
    if name not in _AXES:
        raise UsageError(f"unknown axis {name!r}; expected one of {', '.join(_AXES)}")
    return _AXES.index(name)
