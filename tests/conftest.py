import pytest

from fsdim.cli import gen_pool
from fsdim.digits import FileDigitStream
from fsdim.fst import Fst, make_identity

POOL_SEED = 20260823
POOL_COUNT = 200


@pytest.fixture(scope="session")
def pool():
    """Seeded pool used by the acceptance criteria: base 2, <= 4 states,
    output bursts of length <= 2."""
    return gen_pool(POOL_SEED, POOL_COUNT, max_states=4, base=2, max_burst=2)


@pytest.fixture(scope="session")
def identity2():
    return make_identity(2)


@pytest.fixture(scope="session")
def doubling2():
    """One state, every symbol emitted twice."""
    return Fst(2, 1, 0, (((0, (0, 0)), (0, (1, 1))),))


@pytest.fixture()
def file_reads(monkeypatch):
    """The paths FileDigitStream.from_file reads, in order, while the test runs."""
    reads = []
    from_file = FileDigitStream.from_file.__func__

    def counting(cls, fname, base):
        reads.append(fname)
        return from_file(cls, fname, base)

    monkeypatch.setattr(FileDigitStream, "from_file", classmethod(counting))
    return reads


def all_words(base: int, max_len: int):
    words = [""]
    frontier = [""]
    for _ in range(max_len):
        frontier = [w + chr(48 + d) for w in frontier for d in range(base)]
        words.extend(frontier)
    return words
