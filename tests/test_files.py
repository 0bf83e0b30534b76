"""Atomic output files: a file is replaced whole or left as it was."""

import os
import stat
import subprocess
import sys
import threading

import pytest

import segue.files
from segue.files import atomic_output


def _names(directory):
    return sorted(p.name for p in directory.iterdir())


def test_new_file_gets_umask_permissions(tmp_path):
    path = tmp_path / "out.bin"
    umask = os.umask(0o022)
    try:
        with atomic_output(path) as handle:
            handle.write(b"data")
    finally:
        os.umask(umask)
    assert path.read_bytes() == b"data"
    assert stat.S_IMODE(path.stat().st_mode) == 0o644
    assert _names(tmp_path) == ["out.bin"]


def test_existing_file_keeps_its_permission_bits(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old")
    path.chmod(0o640)
    with atomic_output(path) as handle:
        handle.write(b"new")
    assert path.read_bytes() == b"new"
    assert stat.S_IMODE(path.stat().st_mode) == 0o640


def test_failure_removes_the_temporary_and_keeps_the_target(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old")
    with pytest.raises(KeyboardInterrupt):
        with atomic_output(path) as handle:
            handle.write(b"partial")
            assert _names(tmp_path) != ["out.bin"]  # written beside the target
            raise KeyboardInterrupt
    assert path.read_bytes() == b"old"
    assert _names(tmp_path) == ["out.bin"]


def test_missing_directory_names_the_target(tmp_path):
    path = tmp_path / "absent" / "out.bin"
    with pytest.raises(FileNotFoundError) as caught:
        with atomic_output(path):
            pass
    assert caught.value.filename == str(path)


def test_dangling_symlink_creates_its_target(tmp_path):
    link, real = tmp_path / "link.bin", tmp_path / "real.bin"
    link.symlink_to(real)
    with atomic_output(link) as handle:
        handle.write(b"data")
    assert link.is_symlink() and real.read_bytes() == b"data"


def test_fifo_is_written_in_place(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    with atomic_output(fifo) as handle:
        handle.write(b"streamed")
    reader.join(timeout=10)
    assert received == [b"streamed"]
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert _names(tmp_path) == ["pipe"]


def test_dev_stdout_is_written_in_place(tmp_path):
    # Redirected to a regular file, /dev/stdout resolves to that file; it is
    # still written through the descriptor, not replaced by a new file.
    out = tmp_path / "out.txt"
    out.write_bytes(b"")
    inode = out.stat().st_ino
    script = "from segue.files import atomic_output\n" \
             "with atomic_output('/dev/stdout') as handle:\n    handle.write(b'streamed')\n"
    src = os.path.dirname(os.path.dirname(segue.files.__file__))
    with out.open("ab") as handle:
        subprocess.run([sys.executable, "-c", script], stdout=handle, check=True,
                       env={**os.environ, "PYTHONPATH": src})
    assert out.read_bytes() == b"streamed"
    assert out.stat().st_ino == inode
    assert _names(tmp_path) == ["out.txt"]
