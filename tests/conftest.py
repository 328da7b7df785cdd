import pathlib
import statistics
import sys
import time

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))  # for llgen

from ll2fun import (  # noqa: E402
    MachineState, load_memory_image, parse_file, translate_module,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def occurrences_path() -> pathlib.Path:
    return FIXTURES / "occurrences.ll"


@pytest.fixture(scope="session")
def occurrences_module(occurrences_path):
    return parse_file(str(occurrences_path))


@pytest.fixture(scope="session")
def occurrences_program(occurrences_module):
    return translate_module(occurrences_module)


@pytest.fixture(scope="session")
def array_image() -> dict[int, int]:
    return load_memory_image(str(FIXTURES / "occurrences_array.mem"))


@pytest.fixture()
def array_state(array_image) -> MachineState:
    return MachineState(retval=0, stack=0xFFFF0000, frame=0xFFFF0000,
                        mem=dict(array_image))


@pytest.fixture(scope="session")
def nestsum_module():
    return parse_file(str(FIXTURES / "nestsum.ll"))


@pytest.fixture(scope="session")
def nestsum_program(nestsum_module):
    return translate_module(nestsum_module)


def paired_ratio(build, small, large) -> tuple[float, list]:
    """The median over 7 back-to-back pairs of build(large)'s CPU time over
    build(small)'s, and the pairs.  The median of the pairs' ratios cancels
    the machine's drift between pairs, which a ratio of the two inputs'
    best times does not."""
    pairs = []
    for _ in range(7):
        times = []
        for arg in (small, large):
            t0 = time.process_time()
            build(arg)
            times.append(time.process_time() - t0)
        pairs.append(times)
    return statistics.median(b / a for a, b in pairs), pairs
