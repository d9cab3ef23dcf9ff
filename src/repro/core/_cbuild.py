"""On-demand compilation and loading of the C kernel library.

The ``cext`` backend (:mod:`repro.core.backend`) reaches
``_kernels.c`` through plain exported symbols via :mod:`ctypes`, so
any C compiler can produce a usable artifact — no Python headers, no
build isolation, no setuptools required at runtime.  Artifacts are
found, in order:

1. a ``setup.py build_ext``-produced ``_kernels*.so``/``.pyd`` next to
   the source (what a wheel or an in-place build ships);
2. a content-addressed artifact in the user cache directory,
   ``_kernels-abi<N>-<hash>.so`` — the hash covers the C source, so a
   stale cache entry is simply never matched;
3. failing both, the source is compiled on demand with ``$CC``/
   ``gcc``/``cc`` into the cache directory (or next to the source when
   that is writable and the cache is not).

Every loaded artifact must report the expected ABI stamp through
``repro_abi_version()``; anything else (an old build, a truncated
file) is rejected and the next candidate is tried.  All failures raise
:class:`KernelBuildError` with enough detail for ``repro backend`` to
display; the backend layer turns that into the single fallback
warning.

``-fwrapv`` is mandatory: int64 overflow in values no answer reads
(the totals of a row without a bound) must wrap as numpy's does, not
be undefined behaviour.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

#: Must match REPRO_KERNELS_ABI in _kernels.c.
KERNELS_ABI = 6

SOURCE = Path(__file__).resolve().with_name("_kernels.c")

_CFLAGS = ("-O2", "-shared", "-fPIC", "-fwrapv", "-fvisibility=default")


class KernelBuildError(RuntimeError):
    """The kernel library could not be located, built, or validated."""


def _source_hash() -> str:
    return hashlib.sha256(SOURCE.read_bytes()).hexdigest()[:16]


def cache_dir() -> Path:
    """Directory for on-demand builds (override: ``REPRO_KERNEL_CACHE``)."""
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    root = Path(xdg) if xdg else Path.home() / ".cache"
    return root / "repro-kernels"


def compiler() -> str | None:
    """The C compiler to use, or None when the box has none."""
    explicit = os.environ.get("CC")
    if explicit:
        return explicit if shutil.which(explicit) else None
    for cand in ("gcc", "cc", "clang"):
        path = shutil.which(cand)
        if path:
            return path
    return None


def _candidates() -> list[Path]:
    """Existing artifacts worth trying, in preference order."""
    found: list[Path] = []
    pkg_dir = SOURCE.parent
    for pattern in ("_kernels*.so", "_kernels*.pyd", "_kernels*.dylib"):
        found.extend(sorted(pkg_dir.glob(pattern)))
    cached = cache_dir() / f"_kernels-abi{KERNELS_ABI}-{_source_hash()}.so"
    if cached.exists():
        found.append(cached)
    return found


def _validate(path: Path) -> ctypes.CDLL:
    """Load an artifact and check its ABI stamp and symbols."""
    lib = ctypes.CDLL(str(path))
    try:
        probe = lib.repro_abi_version
    except AttributeError as exc:
        raise KernelBuildError(f"{path.name}: no repro_abi_version") from exc
    probe.restype = ctypes.c_int64
    probe.argtypes = ()
    found = int(probe())
    if found != KERNELS_ABI:
        raise KernelBuildError(
            f"{path.name}: ABI {found}, expected {KERNELS_ABI}"
        )
    for symbol in ("repro_run_levels", "repro_sim_run"):
        if not hasattr(lib, symbol):
            raise KernelBuildError(f"{path.name}: missing {symbol}")
    return lib


def build(target: Path | None = None) -> Path:
    """Compile ``_kernels.c``, returning the artifact path."""
    cc = compiler()
    if cc is None:
        raise KernelBuildError("no C compiler found (set CC, or install gcc)")
    if target is None:
        target = cache_dir() / f"_kernels-abi{KERNELS_ABI}-{_source_hash()}.so"
    target.parent.mkdir(parents=True, exist_ok=True)
    # Build into a temp name then rename: concurrent builders (pool
    # workers racing on a cold cache) each win or lose atomically.
    fd, tmp = tempfile.mkstemp(
        suffix=".so", prefix=target.stem + ".", dir=str(target.parent)
    )
    os.close(fd)
    cmd = [cc, *_CFLAGS, str(SOURCE), "-o", tmp]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=120
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        os.unlink(tmp)
        raise KernelBuildError(f"{cc} failed to run: {exc}") from exc
    if proc.returncode != 0:
        os.unlink(tmp)
        tail = (proc.stderr or proc.stdout or "").strip().splitlines()[-8:]
        raise KernelBuildError(
            f"{cc} exited {proc.returncode}: " + " | ".join(tail)
        )
    os.replace(tmp, target)
    return target


def load() -> tuple[ctypes.CDLL, Path]:
    """Locate (or build) and validate the kernel library.

    Returns ``(library, artifact_path)``; raises
    :class:`KernelBuildError` when nothing usable can be produced.
    """
    if not SOURCE.exists():
        raise KernelBuildError(f"kernel source missing: {SOURCE}")
    errors: list[str] = []
    for path in _candidates():
        try:
            return _validate(path), path
        except (OSError, KernelBuildError) as exc:
            errors.append(str(exc))
    try:
        built = build()
    except KernelBuildError as exc:
        errors.append(str(exc))
        raise KernelBuildError("; ".join(errors)) from exc
    try:
        return _validate(built), built
    except (OSError, KernelBuildError) as exc:
        errors.append(str(exc))
        raise KernelBuildError("; ".join(errors)) from exc
