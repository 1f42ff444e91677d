"""Versioned binary checkpoints: orbitals, their grid and their cavity.

That is what ``propagate`` reads back; the command line checks the grid and
the cavity against the run configuration.  Layout (little-endian throughout):
an 8-byte magic string, a version integer, grid metadata (stencil order
included), cavity metadata, the orbital and sector counts, then the
occupation and orbital arrays in C order.  Round trips are bit-exact.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .cavity import CavityMode, OrbitalSet
from .errors import UsageError
from .grid import Grid

MAGIC = b"CVDFTCHK"
VERSION = 3

_HEAD = struct.Struct("<8sI")
_GEOM = struct.Struct("<Id3qI")         # dim, h, shape (padded to 3), stencil order
_CAV = struct.Struct("<Bd3dI")          # has_cavity, omega, lambda (padded), n_fock
_STATE = struct.Struct("<II")           # n_orbitals, n_sectors


@dataclass
class Checkpoint:
    """An orbital set and the cavity it belongs to."""

    orbitals: OrbitalSet
    cavity: CavityMode | None


def save_checkpoint(path, chk: Checkpoint) -> None:
    orb = chk.orbitals
    grid = orb.grid
    shape3 = list(grid.shape) + [0] * (3 - grid.dim)
    lam3 = ([*chk.cavity.lam] if chk.cavity is not None else []) + [0.0] * 3
    with open(path, "wb") as fh:
        fh.write(_HEAD.pack(MAGIC, VERSION))
        fh.write(_GEOM.pack(grid.dim, grid.h, *shape3[:3], grid.order))
        fh.write(_CAV.pack(
            1 if chk.cavity is not None else 0,
            chk.cavity.omega if chk.cavity is not None else 0.0,
            *lam3[:3],
            chk.cavity.n_fock if chk.cavity is not None else 0))
        fh.write(_STATE.pack(orb.n_orbitals, orb.n_sectors))
        fh.write(np.ascontiguousarray(orb.occupations, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(orb.psi, dtype="<c16").tobytes())


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        magic, version = _HEAD.unpack(fh.read(_HEAD.size))
        if magic != MAGIC:
            raise UsageError(f"{path} is not a cavitydft checkpoint")
        if version != VERSION:
            raise UsageError(f"unsupported checkpoint version {version}")
        dim, h, *shape3, order = _GEOM.unpack(fh.read(_GEOM.size))
        grid = Grid(tuple(shape3[:dim]), h, order)
        has_cav, omega, lx, ly, lz, n_fock = _CAV.unpack(fh.read(_CAV.size))
        cavity = None
        if has_cav:
            cavity = CavityMode(omega=omega, coupling=tuple([lx, ly, lz][:dim]),
                                n_fock=n_fock)
        n_orb, n_sec = _STATE.unpack(fh.read(_STATE.size))
        occ = np.frombuffer(fh.read(8 * n_orb), dtype="<f8").copy()
        count = n_orb * n_sec * grid.n_points
        psi = np.frombuffer(fh.read(16 * count), dtype="<c16").copy()
        psi = psi.reshape((n_orb, n_sec) + grid.shape)
    return Checkpoint(orbitals=OrbitalSet(psi, occ, grid), cavity=cavity)
