"""Build, cache and load the native bloomRF probe kernel (``_probe.c``).

At import the kernel source is compiled with the interpreter's configured
C compiler (``sysconfig`` ``CC``, else ``cc``; ``-O2 -shared -fPIC``) and
loaded with
:mod:`ctypes`.  The shared library is cached per user under
``~/.cache/repro/``, named by a hash of the source, the compiler command
and the compiler binary, so only the first import after a change compiles;
when that directory cannot be used the library is built in a private
temporary directory instead.  When no compiler or library is available,
:data:`kernel` is None and :class:`~repro.core.bloomrf.BloomRF` runs its
NumPy sweep — the platform decides, nothing else.

:data:`engine` says which engine the batched probes use: ``"native"`` or
``"numpy: <reason>"``; :data:`build_log` holds the compiler's stderr of a
failed build.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
from pathlib import Path

__all__ = ["FIELDS", "build_log", "compiler", "engine", "kernel"]

#: uint64 geometry fields per PMHF layer; must match ``BRF_FIELDS``.
FIELDS = 9

_SOURCE = Path(__file__).with_name("_probe.c")
_FLAGS = ("-O2", "-shared", "-fPIC")


class _BuildError(Exception):
    """The compiler rejected the kernel source; carries its stderr."""


def compiler() -> list[str] | None:
    """The configured C compiler command (else ``cc``), or None when
    neither is on PATH."""
    for command in (sysconfig.get_config_var("CC") or "", "cc"):
        argv = shlex.split(command)
        path = shutil.which(argv[0]) if argv else None
        if path:
            return [path, *argv[1:]]
    return None


def _compile(cc: list[str], target: Path) -> Path:
    partial = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    try:
        done = subprocess.run(
            [*cc, *_FLAGS, "-o", str(partial), str(_SOURCE)],
            capture_output=True, text=True, timeout=300, check=False,
        )
        if done.returncode != 0:
            raise _BuildError(done.stderr.strip() or f"exit status {done.returncode}")
        os.replace(partial, target)  # concurrent builders race benignly
    finally:
        partial.unlink(missing_ok=True)
    return target


def _open(path: Path) -> ctypes.CDLL:
    lib = ctypes.CDLL(str(path))
    lib.brf_fields.argtypes = []
    lib.brf_fields.restype = ctypes.c_int
    if lib.brf_fields() != FIELDS:
        raise OSError(f"kernel expects {lib.brf_fields()} geometry fields")
    ptr, i64, u64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_uint64
    head = [ptr, i64, ptr, ptr, ptr, u64]  # geometry, layers, seeds, words
    lib.brf_point.argtypes = [*head, ptr, i64, ptr]
    lib.brf_range.argtypes = [*head, u64, ptr, i64, ptr]
    lib.brf_point.restype = lib.brf_range.restype = None
    return lib


def _load() -> tuple[ctypes.CDLL | None, str, str]:
    cc = compiler()
    if cc is None:
        return None, "numpy: no C compiler on PATH", ""
    try:
        source = _SOURCE.read_bytes()
        stat = os.stat(cc[0])
    except OSError as exc:
        return None, f"numpy: {exc}", ""
    identity = repr((cc, _FLAGS, stat.st_size, stat.st_mtime_ns, platform.machine()))
    digest = hashlib.sha256(source + identity.encode()).hexdigest()[:16]
    name = f"_probe-{digest}.so"
    try:
        try:
            cache = Path.home() / ".cache" / "repro"
            cache.mkdir(parents=True, exist_ok=True)
            lib = cache / name
            if not lib.exists():
                _compile(cc, lib)
            return _open(lib), "native", ""
        except (OSError, RuntimeError):
            # Unusable cache directory (or a stale library there): build
            # privately.  A loaded library survives its file's removal.
            with tempfile.TemporaryDirectory(prefix="repro-probe-") as tmp:
                return _open(_compile(cc, Path(tmp) / name)), "native", ""
    except _BuildError as exc:
        return None, "numpy: kernel build failed", str(exc)
    except (OSError, subprocess.SubprocessError) as exc:
        return None, f"numpy: kernel unavailable ({exc})", ""


kernel, engine, build_log = _load()
