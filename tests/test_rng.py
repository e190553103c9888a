import math
import re
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from fwlab._rng import mean_stderr


def test_mean_stderr_small_cases():
    assert mean_stderr([2.5]) == (2.5, 0.0)
    est, err = mean_stderr([1.0, 2.0, 3.0, 4.0])
    assert est == 2.5
    assert err == math.sqrt((2.25 + 0.25 + 0.25 + 2.25) / 3 / 4)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=40).flatmap(
        lambda xs: st.tuples(st.just(xs), st.permutations(xs))
    )
)
def test_mean_stderr_is_bit_identical_under_permutation(pair):
    values, permuted = pair
    assert mean_stderr(permuted) == mean_stderr(values)


SOURCES = Path(__file__).resolve().parent.parent / "src" / "fwlab"
GENERATOR_CONSTRUCTORS = re.compile(r"default_rng|random\.seed|RandomState|SeedSequence|PCG64")


def test_only_the_substream_helper_constructs_generators():
    # stochastic code takes an rng argument or derives a substream from
    # (seed, run, stream); it never seeds a generator of its own
    found = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(SOURCES.glob("*.py"))
        if path.name != "_rng.py"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if GENERATOR_CONSTRUCTORS.search(line)
    ]
    assert SOURCES.joinpath("_rng.py").is_file() and found == []
