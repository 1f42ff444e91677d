"""Versioned checkpoints: orbitals, their grid and their cavity, for ``propagate``.

A checkpoint is one ``np.savez`` archive with the keys ``version``, ``shape``,
``h``, ``order``, ``occupations`` and ``psi``, plus ``omega``, ``coupling`` and
``n_fock`` when there is a cavity.  Round trips are bit-exact, and numpy dates
every entry 1980-01-01, so one state always gives the same bytes.  Anything
else read as a checkpoint raises :class:`UsageError`.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass

import numpy as np

from .cavity import CavityMode, OrbitalSet
from .errors import CavityDftError, UsageError
from .grid import Grid

VERSION = 4


@dataclass
class Checkpoint:
    """An orbital set and the cavity it belongs to."""

    orbitals: OrbitalSet
    cavity: CavityMode | None


def save_checkpoint(path, chk: Checkpoint) -> None:
    orb = chk.orbitals
    grid = orb.grid
    arrays = {"version": VERSION, "shape": grid.shape, "h": grid.h, "order": grid.order,
              "occupations": orb.occupations, "psi": orb.psi}
    if chk.cavity is not None:
        arrays.update(omega=chk.cavity.omega, coupling=chk.cavity.coupling,
                      n_fock=chk.cavity.n_fock)
    # an open file, so that np.savez does not append ".npz" to the name
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path) -> Checkpoint:
    if not zipfile.is_zipfile(path):
        raise UsageError(f"no numpy archive at {path}, so no cavitydft checkpoint")
    try:
        with np.load(path, allow_pickle=False) as archive:
            arrays = dict(archive)
        version = arrays["version"].tolist()
        if version != VERSION:
            raise UsageError(f"unsupported checkpoint version {version}")
        grid = Grid(tuple(arrays["shape"].tolist()), float(arrays["h"]), int(arrays["order"]))
        cavity = None
        if "omega" in arrays:
            cavity = CavityMode(omega=float(arrays["omega"]),
                                coupling=tuple(arrays["coupling"].tolist()),
                                n_fock=int(arrays["n_fock"]))
        orbitals = OrbitalSet(arrays["psi"], arrays["occupations"], grid)
    # zipfile and np.load raise any of these on a damaged archive, the
    # constructors the others on contents that do not fit together
    except (OSError, EOFError, zipfile.BadZipFile, NotImplementedError, RuntimeError,
            CavityDftError, KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"{path} is not a valid cavitydft checkpoint "
                         f"({type(exc).__name__}: {exc})") from exc
    return Checkpoint(orbitals=orbitals, cavity=cavity)
