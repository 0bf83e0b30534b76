"""Output files that appear whole or not at all.

``atomic_output`` is the package's one way to write a file: catalogs, models,
playlists, compare reports, loss histories and transition CSVs all go through
it. It writes to a temporary file beside the target and renames it over the
target only when writing completes, so an interrupted or failed write leaves
the previous file as it was. It is not made durable with ``fsync``: a power
loss may still lose the new file.
"""

from __future__ import annotations

import os
import stat
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterator


@contextmanager
def atomic_output(path: str | Path) -> Iterator[BinaryIO]:
    """A binary handle whose bytes replace ``path`` once the ``with`` block completes.

    Symlinks are resolved first, so a link keeps pointing at the file it
    names. The temporary is created by name in the real file's directory, with
    the process umask's permissions; when the target exists, its permission
    bits are copied. When the block raises, the temporary is removed and the
    target is untouched. A target that exists but is not a regular file (a
    FIFO, a device) and a name under ``/dev`` or ``/proc`` (``/dev/stdout``)
    are written in place, as an ordinary ``open`` would.
    """
    target = Path(path)
    try:
        mode = target.stat().st_mode
    except FileNotFoundError:
        mode = None
    in_place = mode is not None and not stat.S_ISREG(mode)
    in_place |= target.absolute().parts[1:2] in (("dev",), ("proc",))  # e.g. /dev/stdout
    if in_place:
        with target.open("wb") as handle:
            yield handle
        return
    real = Path(os.path.realpath(target))
    temporary = real.with_name(f".{real.name}.{os.urandom(4).hex()}.tmp")
    try:
        handle = temporary.open("xb")
    except OSError as exc:  # name the file asked for, not the temporary
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with handle:
            if mode is not None:
                os.chmod(handle.fileno(), stat.S_IMODE(mode))
            yield handle
        os.replace(temporary, real)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise
