"""The compiled bSOM training pass: ``bsom_train.c``, built once per user.

:meth:`BinarySom._train_pass <repro.core.bsom.BinarySom>` runs each pass
through the ``bsom_train_pass`` that :func:`training_pass` returns, and
runs its NumPy pass where that is ``None``; the two are bit for bit the
same.

The library is compiled from the C source shipped beside this module with
``cc -O2 -shared -fPIC`` the first time a process trains, and cached in
the per-user cache directory (``$XDG_CACHE_HOME``, else ``~/.cache``,
then ``repro/``) as ``bsom_train-<SHA-256 of the source>.so``, so later
processes load it without building.  It is compiled to a temporary file
there and renamed into place: a process never loads another's partial
build.  No ``cc`` on ``PATH``, a cache directory that cannot be written
or a library that does not load leave :func:`training_pass` returning
``None``.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import threading
from pathlib import Path

_SOURCE = Path(__file__).with_name("bsom_train.c")
#: The type of ``BitGenerator.ctypes.next_double``.
_NEXT_DOUBLE = ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_void_p)
_ARGTYPES = (
    [ctypes.c_void_p] * 3  # care, value, patterns
    + [ctypes.c_int64] * 4  # n_patterns, n_neurons, n_words, n_bits
    + [ctypes.c_void_p] * 3  # offsets, rows, probabilities
    + [ctypes.c_int32] * 2  # winner_rule, neighbour_rule
    + [_NEXT_DOUBLE, ctypes.c_void_p, ctypes.c_void_p]  # next_double, state, winners
)
_NOT_LOADED = object()
_load_lock = threading.Lock()
#: What :func:`training_pass` returns once it has tried to load the
#: library; a test sets it to ``None`` to train on the NumPy pass.
_training_pass = _NOT_LOADED


def _cache_dir() -> Path:
    """The per-user directory the built library is cached in."""
    root = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(root) / "repro"


def _build(library: Path) -> None:
    """Compile :data:`_SOURCE` to ``library``, renamed into place when whole."""
    library.parent.mkdir(parents=True, exist_ok=True)
    handle, partial = tempfile.mkstemp(dir=library.parent, suffix=".tmp")
    os.close(handle)
    try:
        subprocess.run(
            ["cc", "-O2", "-shared", "-fPIC", "-o", partial, str(_SOURCE)],
            check=True,
            capture_output=True,
        )
        os.replace(partial, library)
    except BaseException:
        os.unlink(partial)
        raise


def training_pass():
    """The compiled ``bsom_train_pass``, built and loaded by the first call,
    or ``None`` where no library can be built or loaded."""
    global _training_pass
    with _load_lock:
        if _training_pass is _NOT_LOADED:
            _training_pass = _load()
        return _training_pass


def _load():
    """Load the library, building it if the cache lacks it; ``None`` on failure."""
    try:
        digest = hashlib.sha256(_SOURCE.read_bytes()).hexdigest()
        library = _cache_dir() / f"bsom_train-{digest}.so"
        if not library.exists():
            _build(library)
        train_pass = ctypes.CDLL(str(library)).bsom_train_pass
    except (OSError, AttributeError, subprocess.SubprocessError):
        return None
    train_pass.argtypes = _ARGTYPES
    train_pass.restype = None
    return train_pass
