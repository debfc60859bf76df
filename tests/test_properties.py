"""Property tests: the CLI answers arbitrary input with exit 0 or 2, never a traceback."""

import contextlib
import io
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from algconn.cli import main
from algconn.spectral import DENSE_CEILING

SUBCOMMANDS = st.sampled_from(["alpha", "invariants", "classify"])


def run_on_stdin(argv: list[str], text: str) -> int:
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), contextlib.redirect_stdout(
        out
    ), contextlib.redirect_stderr(err):
        return main(argv)


# At most 48 characters lets a valid graph6 line reach order 24, the matching
# DP's ceiling; above it `invariants` exits 2 on non-trees.
@settings(max_examples=60, deadline=None)
@given(sub=SUBCOMMANDS, text=st.text(max_size=48))
def test_arbitrary_graph6_text_exits_zero_or_two(sub, text):
    assert run_on_stdin([sub, "-"], text) in (0, 2)


@st.composite
def edge_list_texts(draw):
    n = draw(
        st.integers(min_value=-1, max_value=12)
        | st.sampled_from([DENSE_CEILING, DENSE_CEILING + 1, 100_000, 10**8])
    )
    pairs = draw(
        st.lists(
            st.tuples(st.integers(-1, 13), st.integers(-1, 13)), max_size=20
        )
    )
    declared = draw(st.sampled_from([len(pairs), len(pairs) + 1]))
    lines = [f"{n} {declared}"] + [f"{u} {v}" for u, v in pairs]
    lines += draw(st.lists(st.text(max_size=6), max_size=2))
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(sub=SUBCOMMANDS, text=edge_list_texts())
def test_arbitrary_edge_list_exits_zero_or_two(sub, text):
    assert run_on_stdin([sub, "-", "--format", "edgelist"], text) in (0, 2)
