"""The seeded streams against numpy, their oracle: every draw and state word equal."""

import ast
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import satchain
from satchain.cli import main
from satchain.harness import derive_seed
from satchain.stream import Stream, generate_state

ORACLE = settings(derandomize=True, max_examples=300, deadline=None, database=None)

# bare integer seeds (the form `satchain.checks` uses) and lists of parts,
# each part one 32-bit word or several
ENTROPIES = st.one_of(
    st.just(0),
    st.integers(0, 2**32 - 1),
    st.integers(2**64, 2**130),
    st.lists(st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**70)), max_size=9),
)
# spans of one value (no draw), narrow, 32-bit Lemire, the raw 32-bit word,
# 64-bit Lemire and the raw 64-bit word
SPANS = st.one_of(
    st.just(1),
    st.integers(2, 64),
    st.integers(2, 2**32 - 1),
    st.just(2**32),
    st.integers(2**32 + 1, 2**64 - 1),
    st.just(2**64),
)
RANGES = SPANS.flatmap(lambda span: st.integers(-(2**63), 2**63 - span).map(lambda low: (low, low + span)))


def numpy_draws(entropy, ranges):
    rng = np.random.default_rng(np.random.SeedSequence(entropy))
    return [int(rng.integers(low, high)) for low, high in ranges]


@ORACLE
@given(entropy=ENTROPIES, ranges=st.lists(RANGES, max_size=30))
@example(entropy=0, ranges=[(0, 10), (5, 11)])
@example(entropy=[0], ranges=[(3, 4), (0, 10), (7, 8), (7, 8), (0, 3)])
@example(entropy=[1, 2, 3, 2**64 + 5, 7], ranges=[(0, 2**32), (0, 5), (0, 2**32), (-5, 2**32 - 5)])
@example(entropy=12345, ranges=[(0, 6), (0, 2**40), (1, 3), (0, 2**63), (0, 9), (-(2**63), 2**63), (4, 9)])
def test_draws_equal_numpy_draw_for_draw(entropy, ranges):
    stream = Stream(entropy)
    assert [stream.integers(low, high) for low, high in ranges] == numpy_draws(entropy, ranges)


@ORACLE
@given(entropy=ENTROPIES, n_words=st.integers(0, 9))
def test_state_words_equal_numpy(entropy, n_words):
    sequence = np.random.SeedSequence(entropy)
    assert generate_state(entropy, n_words) == sequence.generate_state(n_words).tolist()
    assert generate_state(entropy, n_words, 64) == sequence.generate_state(n_words, np.uint64).tolist()


@ORACLE
@given(master=st.integers(0, 2**64), parts=st.lists(st.integers(0, 2**40), max_size=4))
def test_derive_seed_equals_numpy(master, parts):
    state = np.random.SeedSequence([master, *parts]).generate_state(1, np.uint64)[0]
    assert derive_seed(master, *parts) == int(state % (2**63))


@pytest.mark.parametrize(
    "low, high", [(0, 0), (5, 5), (5, 3), (0, -1), (-(2**63) - 1, 0), (0, 2**63 + 1), (-(2**64), 2**64)]
)
def test_empty_or_out_of_int64_range_raises_as_numpy_does(low, high):
    with pytest.raises(ValueError) as expected:
        np.random.default_rng(1).integers(low, high)
    with pytest.raises(ValueError) as got:
        Stream(1).integers(low, high)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("entropy", [-1, [3, -2]])
def test_negative_entropy_raises_as_numpy_does(entropy):
    with pytest.raises(ValueError):
        np.random.SeedSequence(entropy)
    with pytest.raises(ValueError):
        Stream(entropy)


def test_batch_runs_without_numpy(capsys):
    # with numpy and statistics blocked, any import of either in the library fails the run
    argv = ["batch", "--nodes", "6", "--seed", "1"]
    src = str(Path(satchain.__file__).resolve().parents[1])
    blocked = "sys.modules['numpy'] = sys.modules['statistics'] = None"
    code = f"import sys\n{blocked}\nsys.path.insert(0, {src!r})\nfrom satchain.cli import main\n"
    done = subprocess.run(
        [sys.executable, "-c", code + f"sys.exit(main({argv!r}))"],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert main(argv) == 0
    assert done.stdout == capsys.readouterr().out


def test_library_imports_only_the_pinned_standard_modules():
    # `import satchain` loads every module of the package, and `bench/run.py` times that
    # import as part of `setup_s`, so a new module has to be added here on purpose
    pinned = {
        "__future__", "argparse", "contextlib", "csv", "dataclasses", "enum", "heapq", "io", "json", "math",
        "sys", "typing", "warnings",
    }
    imported = set()
    for source in Path(satchain.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(source.read_text(), str(source))):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module)
    assert imported == pinned
