"""Seeded fuzzing of every file segue reads: bad input fails with a typed error.

The CLI promises exit 0, or exit 2 with one ``segue: error:`` line; a
traceback (exit 1 from ``python -m segue``) breaks that promise. Six seed
files (three desk catalogs, a model, a playlist and a transition CSV) are
mutated by a seeded stdlib ``random`` mutator: byte flips, deletions,
truncations, duplicated spans, inserted or substituted tokens (``NaN``,
``Infinity``, ``1e309``, ``true``, ``null``, 400- and 5,000-digit integers,
100,000 opening brackets, NUL, CRLF) and a leading BOM or CRLF line ends. Each
mutated file runs in-process through what reads it, and the tracemalloc peak
of each run stays below ``PEAK_PER_INPUT_BYTE`` times the fuzzed file's size
plus ``PEAK_ALLOWANCE``, so a file cannot claim memory out of proportion to
its length.

Input ``index`` of seed ``name`` is ``mutate(seed, random.Random(f"{name}:{index}"))``,
so every input can be rebuilt from its name. A failing input is also kept
under the test's temporary directory (``--basetemp`` keeps it after the
run); add it to ``REGRESSIONS`` once it is mended.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from segue import cli
from segue.catalog import Catalog, Track, load_catalog, save_catalog
from segue.playlist import read_transition_csv

INPUTS_PER_SEED = 48
PEAK_PER_INPUT_BYTE = 40
PEAK_ALLOWANCE = 8 << 20

BIG, DEEP = b"1" + b"0" * 400, b"[" * 100_000  # beyond float range; beyond any recursion limit
TOKENS = (b"NaN", b"Infinity", b"-Infinity", b"1e309", b"true", b"null", BIG, b"9" * 5000, DEEP,
          b"\xef\xbb\xbf", b"\x00", b"\r\n")
NUMBER = re.compile(rb"-?[0-9][0-9.eE+-]*")


def mutate(data: bytes, rng: random.Random) -> bytes:
    """One to three seeded edits of ``data``."""
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(data) + 1)
        edit = rng.randrange(8)
        if edit == 0 and data:  # flip one bit
            at = min(at, len(data) - 1)
            data = data[:at] + bytes([data[at] ^ 1 << rng.randrange(8)]) + data[at + 1 :]
        elif edit == 1:
            data = data[:at] + data[at + rng.randint(1, 16) :]
        elif edit == 2:
            data = data[:at]
        elif edit == 3:
            span = data[at : at + rng.randint(1, 64)]
            there = rng.randrange(len(data) + 1)
            data = data[:there] + span + data[there:]
        elif edit == 4:
            data = data[:at] + rng.choice(TOKENS) + data[at:]
        elif edit == 5 and (numbers := list(NUMBER.finditer(data))):  # a token for a number
            number = rng.choice(numbers)
            data = data[: number.start()] + rng.choice(TOKENS) + data[number.end() :]
        elif edit == 6:
            data = b"\xef\xbb\xbf" + data
        else:
            data = data.replace(b"\n", b"\r\n")
    return data


def run_cli(args: list[str]) -> int:
    with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
        return cli.main(args)


def read_csv(path: Path) -> int:
    try:
        read_transition_csv(path)
    except ValueError:
        return 2
    return 0


@pytest.fixture(scope="module")
def seeds(tmp_path_factory):
    """The six seed files, and the segmented catalog and model the fuzzed ones run with."""
    root = tmp_path_factory.mktemp("fuzz-seeds")
    raw, rounded = root / "raw.jsonl", root / "rounded.jsonl"
    files = {name: root / name for name in ("segmented.jsonl", "rounded-segmented.jsonl",
                                            "model.sgm", "playlist.json", "transitions.csv")}
    assert run_cli(["synth", "--tracks", "3", "--dim", "4", "--strong-dims", "2",
                    "--weak-dims", "1", "--clusters", "2", "--min-segments", "3",
                    "--max-segments", "3", "--min-segment-frames", "16",
                    "--max-segment-frames", "18", "--seed", "5", "-o", str(raw)]) == 0
    save_catalog(Catalog.from_tracks(Track(id=track.id, frames=np.round(track.frames, 6))
                                     for track in load_catalog(raw)), rounded)
    assert run_cli(["segment", "-i", str(raw), "-o", str(files["segmented.jsonl"])]) == 0
    assert run_cli(["segment", "-i", str(rounded),
                    "-o", str(files["rounded-segmented.jsonl"])]) == 0
    assert run_cli(["train", "-i", str(files["segmented.jsonl"]), "-o", str(files["model.sgm"]),
                    "--hidden", "4", "--context-length", "3", "--epochs", "2", "--seed", "0"]) == 0
    assert run_cli(["generate", "-i", str(files["segmented.jsonl"]), "-m", str(files["model.sgm"]),
                    "--seed-track", "t00", "--length", "3", "--metric", "dcg",
                    "-o", str(files["playlist.json"]),
                    "--transitions-out", str(files["transitions.csv"])]) == 0
    return {"rounded.jsonl": rounded, **files}


def readers(name: str, path: Path, seeds: dict, out: Path) -> list:
    """What reads the seed file ``name``, as calls on the fuzzed copy at ``path``."""
    generate = ["generate", "--seed-track", "t00", "--length", "3", "--metric", "cosine",
                "-o", str(out / "playlist.json"), "--transitions-out", str(out / "t.csv")]
    if name.endswith(".jsonl"):
        calls = [lambda: run_cli(["segment", "-i", str(path), "-o", str(out / "seg.jsonl")])]
        if "segmented" in name:
            calls.append(lambda: run_cli([*generate, "-i", str(path), "-m", str(seeds["model.sgm"])]))
        return calls
    if name == "model.sgm":
        return [lambda: run_cli([*generate, "-i", str(seeds["segmented.jsonl"]), "-m", str(path)])]
    if name == "playlist.json":
        return [lambda: run_cli(["export-transitions", "-i", str(seeds["segmented.jsonl"]),
                                 "-p", str(path), "-o", str(out / "t.csv")])]
    return [lambda: read_csv(path)]


def faults(name: str, data: bytes, seeds: dict, out: Path) -> list[str]:
    """Run ``data`` as a fuzzed copy of seed ``name``; what broke the contract, if anything."""
    path = out / f"fuzzed-{name}"
    path.write_bytes(data)
    bound = PEAK_PER_INPUT_BYTE * len(data) + PEAK_ALLOWANCE
    found = []
    for call in readers(name, path, seeds, out):
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        try:
            code = call()
        except Exception as exc:  # any escape is the finding
            found.append(f"escaped {type(exc).__name__}: {exc}"[:300])
            continue
        peak = tracemalloc.get_traced_memory()[1] - start
        if code not in (0, 2):
            found.append(f"exit code {code}")
        if peak > bound:
            found.append(f"traced peak {peak} bytes over {bound}")
    return found


@contextlib.contextmanager
def traced():
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()


SEED_NAMES = ("segmented.jsonl", "rounded.jsonl", "rounded-segmented.jsonl",
              "model.sgm", "playlist.json", "transitions.csv")


@pytest.mark.parametrize("name", SEED_NAMES)
def test_mutated_inputs_exit_0_or_2_within_the_memory_bound(name, seeds, tmp_path):
    seed = seeds[name].read_bytes()
    failures = []
    with traced():
        for index in range(INPUTS_PER_SEED):
            data = mutate(seed, random.Random(f"{name}:{index}"))
            found = faults(name, data, seeds, tmp_path)
            if found:
                kept = tmp_path / "failing" / f"{index}-{name}"
                kept.parent.mkdir(exist_ok=True)
                kept.write_bytes(data)
                failures.append(f"{name}:{index} (kept as {kept}): {'; '.join(found)}")
    assert not failures, "\n".join(failures)


def first_value(key: bytes, token: bytes):
    """The edit that puts ``token`` in place of the first number after ``key``."""
    pattern = re.compile(re.escape(key) + rb"([^0-9-]*)" + NUMBER.pattern)
    return lambda seed: pattern.sub(lambda match: key + match[1] + token, seed, count=1)


REGRESSIONS = {
    # each exited 1 with a traceback
    "prediction-of-a-400-digit-integer": ("playlist.json", first_value(b'"prediction"', BIG)),
    "playlist-nested-100000-deep": ("playlist.json", lambda seed: DEEP + b"]" * 100_000),
    "catalog-frames-nested-100000-deep": ("segmented.jsonl", first_value(b'"frames"', DEEP)),
    # before Python 3.11 the csv module refuses a NUL byte with its own csv.Error
    "transition-csv-with-a-nul": ("transitions.csv", first_value(b"seg:t00:0,", b"\x00")),
}


@pytest.mark.parametrize("case", REGRESSIONS)
def test_regression_inputs_exit_0_or_2_within_the_memory_bound(case, seeds, tmp_path):
    name, edit = REGRESSIONS[case]
    data = edit(seeds[name].read_bytes())
    assert data != seeds[name].read_bytes()
    with traced():
        assert faults(name, data, seeds, tmp_path) == []
