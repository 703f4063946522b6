"""Metamorphic properties of the shared search core and of the CLI output.

Renumbering a transducer's states changes no answer: the search reaches the
same configurations in the same order, so kt and kdelta return the same
status, cost and witness. CLI output does not depend on the hash seed.
"""

import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import fsdim
from fsdim.digits import RealSpec
from fsdim.fst import Fst, format_fst, make_identity
from fsdim.infocontent import kt
from fsdim.precision import PrecisionQuery, kdelta

from conftest import POOL_COUNT

SRC = Path(fsdim.__file__).resolve().parent.parent  # where the package under test is imported from
POINTS = [RealSpec.rational(1, 3), RealSpec.rational(5, 24), RealSpec.rational(0, 1),
          RealSpec.dyadic("101"), RealSpec.champernowne()]


def renumbered(t: Fst, perm) -> Fst:
    """T with state q renamed perm[q]; transitions and outputs unchanged."""
    rows = [None] * t.state_count
    for q, row in enumerate(t.transitions):
        rows[perm[q]] = tuple((perm[nxt], out) for nxt, out in row)
    return Fst(t.base, t.state_count, perm[t.start], tuple(rows))


@st.composite
def machine_and_renumbering(draw, pool):
    _, t = pool[draw(st.integers(0, POOL_COUNT - 1))]
    perm = draw(st.permutations(range(t.state_count)))
    return t, renumbered(t, perm)


class TestStateRenumbering:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), w=st.text(alphabet="01", max_size=10))
    def test_kt(self, pool, data, w):
        t, u = data.draw(machine_and_renumbering(pool))
        assert kt(u, w, cap=12) == kt(t, w, cap=12)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), x=st.sampled_from(POINTS), n=st.integers(0, 12),
           cap_input=st.integers(0, 16))
    def test_kdelta(self, pool, data, x, n, cap_input):
        t, u = data.draw(machine_and_renumbering(pool))
        q = PrecisionQuery.at_scale(x, 2, n, cap_input)
        assert kdelta(u, q) == kdelta(t, q)


def _run_cli(argv, cwd, hash_seed: str) -> bytes:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from fsdim.cli import dispatch; sys.exit(dispatch(sys.argv[1:]))",
         *argv], cwd=cwd, env=env, capture_output=True, check=True)
    return proc.stdout


class TestHashSeedIndependence:
    def test_dim_set_and_targeted_sedim(self, pool, tmp_path):
        fam = tmp_path / "fam"
        fam.mkdir()
        (fam / "id.fst").write_text(format_fst(make_identity(2)))
        for name, t in pool[:6]:
            (fam / name).write_text(format_fst(t))
        commands = [
            ["dim", "set", "--fsts", "fam", "--x", "rat:1/3", "--x", "periodic:001", "--nmax", "12", "--json"],
            ["sedim", "--f", "targeted:rat:1/3", "--fsts", "fam", "--x", "rat:1/3", "--nmax", "10",
             "--max-input-len", "10", "--json"],
        ]
        for argv in commands:
            out0 = _run_cli(argv, tmp_path, "0")
            assert out0.startswith(b'{"estimate"')
            assert _run_cli(argv, tmp_path, "1") == out0
