"""Catalog of the benchmark matrices and an opt-in downloader.

Nothing here touches the network unless download=True is passed explicitly;
experiments reference matrices by local path for offline reproducibility.
"""

from __future__ import annotations

import gzip
import io
import os
import posixpath
import shutil
import tarfile
import urllib.request
from dataclasses import dataclass
from pathlib import Path

_MM_BASE = "https://math.nist.gov/pub/MatrixMarket2"
_SS_BASE = "https://suitesparse-collection-website.herokuapp.com/MM"


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    n: int
    nnz: int
    description: str
    mm_set: str | None  # Matrix Market directory, e.g. "harwell-boeing/sherman"
    ss_group: str  # SuiteSparse collection group

    @property
    def urls(self) -> list[str]:
        out = []
        if self.mm_set:
            out.append(f"{_MM_BASE}/{self.mm_set}/{self.name}.mtx.gz")
        out.append(f"{_SS_BASE}/{self.ss_group}/{self.name}.tar.gz")
        return out


CATALOG = [
    CatalogEntry("epb1", 14734, 95053, "Plate-fin heat exchanger", None, "Averous"),
    CatalogEntry("fidap024", 2283, 48733, "Computational fluid dynamics", "SPARSKIT/fidap", "FIDAP"),
    CatalogEntry("fidap028", 2603, 77653, "Computational fluid dynamics", "SPARSKIT/fidap", "FIDAP"),
    CatalogEntry("fidap031", 3909, 115299, "Computational fluid dynamics", "SPARSKIT/fidap", "FIDAP"),
    CatalogEntry("fidap036", 3079, 53851, "Computational fluid dynamics", "SPARSKIT/fidap", "FIDAP"),
    CatalogEntry("nos3", 960, 8402, "Biharmonic equation", "harwell-boeing/lanpro", "HB"),
    CatalogEntry("nos6", 675, 1965, "Poisson equation", "harwell-boeing/lanpro", "HB"),
    CatalogEntry("orsreg_1", 2205, 14133, "Oil reservoir simulation, Jacobian", "harwell-boeing/oilgen", "HB"),
    CatalogEntry("orsirr_1", 1030, 6858, "Oil reservoir, coalesced cells", "harwell-boeing/oilgen", "HB"),
    CatalogEntry("orsirr_2", 886, 5970, "Oil reservoir, coarser grid", "harwell-boeing/oilgen", "HB"),
    CatalogEntry("pores_2", 1224, 9613, "Reservoir simulation", "harwell-boeing/pores", "HB"),
    CatalogEntry("sherman1", 1000, 3750, "Oil reservoir, 10x10x10 grid", "harwell-boeing/sherman", "HB"),
    CatalogEntry("sherman2", 1080, 23094, "Oil reservoir, 6x6x5 grid", "harwell-boeing/sherman", "HB"),
    CatalogEntry("sherman3", 5005, 20033, "Oil reservoir, 35x11x13 grid", "harwell-boeing/sherman", "HB"),
    CatalogEntry("sherman4", 1104, 3786, "Oil reservoir, 16x23x3 grid", "harwell-boeing/sherman", "HB"),
    CatalogEntry("sherman5", 3312, 20793, "Oil reservoir, 16x23x3 grid", "harwell-boeing/sherman", "HB"),
]

BY_NAME = {entry.name: entry for entry in CATALOG}


def _copy_to(src, dest: Path):
    """Copy the stream ``src`` to ``dest`` through a temporary file beside
    it, so a copy that fails (a truncated payload, say) leaves no ``dest``
    that a later call would take as present."""
    tmp = dest.with_name(f".{dest.name}.part")
    try:
        with open(tmp, "wb") as out:
            shutil.copyfileobj(src, out)
        os.replace(tmp, dest)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _store_gz(payload: bytes, dest: Path):
    with gzip.open(io.BytesIO(payload), "rb") as gz:
        _copy_to(gz, dest)


def _store_tar(payload: bytes, name: str, dest: Path):
    """Store the archive's regular file whose basename is ``<name>.mtx``."""
    with tarfile.open(fileobj=io.BytesIO(payload), mode="r:gz") as tar:
        member = next(
            (m for m in tar.getmembers()
             if m.isfile() and posixpath.basename(m.name) == f"{name}.mtx"),
            None,
        )
        if member is None:
            raise RuntimeError(f"no {name}.mtx inside archive")
        with tar.extractfile(member) as src:
            _copy_to(src, dest)


def fetch_matrix(name: str, dest_dir, download: bool = False, timeout: float = 60.0) -> Path:
    """Resolve a catalog matrix to a local .mtx path.

    With download=False (the default) only checks for an existing file and
    raises if absent; download=True tries the public collection mirrors.
    """
    if name not in BY_NAME:
        raise KeyError(f"unknown matrix {name!r}; see the catalog")
    dest_dir = Path(dest_dir)
    dest = dest_dir / f"{name}.mtx"
    if dest.exists():
        return dest
    gz = dest_dir / f"{name}.mtx.gz"
    if gz.exists():
        return gz
    if not download:
        raise FileNotFoundError(
            f"{dest} not present and downloading is opt-in (pass download=True)"
        )
    dest_dir.mkdir(parents=True, exist_ok=True)
    errors = []
    for url in BY_NAME[name].urls:
        try:
            with urllib.request.urlopen(url, timeout=timeout) as resp:
                payload = resp.read()
            if url.endswith(".tar.gz"):
                _store_tar(payload, name, dest)
            else:
                _store_gz(payload, dest)
            return dest
        except Exception as exc:  # noqa: BLE001 - report every mirror failure
            errors.append(f"{url}: {exc}")
    raise RuntimeError("all download sources failed:\n" + "\n".join(errors))
