"""``sorted_unique``: numpy's ``np.unique`` values by one sort.

The workload layer dedupes block and vertex arrays with
:func:`repro.workloads.sorted_unique` instead of a plain ``np.unique``,
which on this numpy runs through a hash table.  These tests pin the
helper against ``np.unique`` itself, the Kronecker CSR build against an
oracle that still dedupes with ``np.unique``, and the workload sources
against any plain ``np.unique`` call creeping back in.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

import repro.workloads
from repro.workloads import sorted_unique
from repro.workloads.graph.generator import Graph, _rmat_edges, kronecker

WORKLOADS_DIR = Path(repro.workloads.__file__).parent

_INT_DTYPES = st.sampled_from([np.int32, np.int64, np.uint64])


@st.composite
def _int_arrays(draw):
    dtype = np.dtype(draw(_INT_DTYPES))
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=2, min_side=0,
                                  max_side=40))
    if draw(st.booleans()):
        # Heavy repeats: a handful of distinct values.
        lo = 0 if dtype.kind == "u" else -3
        elements = st.integers(lo, lo + 3)
    else:
        info = np.iinfo(dtype)
        elements = st.integers(int(info.min), int(info.max))
    return draw(hnp.arrays(dtype, shape, elements=elements))


@given(a=_int_arrays())
def test_sorted_unique_matches_np_unique(a):
    got, want = sorted_unique(a), np.unique(a)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("a", [
    np.empty(0, np.int64),
    np.array([7], np.int32),
    np.array([-5, -5, 3, -9, 3], np.int64),
    np.array([[3, 1], [1, 2]], np.uint64),
], ids=["empty", "single", "negative", "2d"])
def test_sorted_unique_edge_cases(a):
    got, want = sorted_unique(a), np.unique(a)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def _csr_oracle(n: int, edges: np.ndarray) -> Graph:
    """The CSR build as it was written with ``np.unique`` and a stable sort."""
    edges = np.asarray(edges, dtype=np.int64)
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    keep = src != dst
    src, dst = src[keep], dst[keep]
    key = np.unique(src * n + dst)
    src = (key // n).astype(np.int64)
    dst = (key % n).astype(np.int32)
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    lo, hi = np.minimum(src, dst), np.maximum(src, dst)
    weights = ((lo * 2654435761 + hi * 40503) % 255 + 1).astype(np.int32)
    return Graph(n, indptr, dst.astype(np.int32), weights)


@pytest.mark.parametrize("scale", range(4, 13))
@pytest.mark.parametrize("edgefactor,seed", [(16, 2), (8, 5)])
def test_kronecker_matches_np_unique_oracle(scale, edgefactor, seed):
    got = kronecker(scale, edgefactor, seed)
    want = _csr_oracle(1 << scale, _rmat_edges(scale, edgefactor, seed))
    assert got.n == want.n
    for name in ("indptr", "indices", "weights"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype, name
        assert np.array_equal(g, w), name


def _plain_unique_lines(source: str):
    """Lines of ``np.unique(...)`` / ``numpy.unique(...)`` calls without ``return_*``."""
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "unique"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("np", "numpy")):
            continue
        if any(kw.arg and kw.arg.startswith("return_") for kw in node.keywords):
            continue
        yield node.lineno


def test_plain_unique_guard_flags_only_plain_calls():
    source = ("a = np.unique(x)\n"
              "b, inv = np.unique(x, return_inverse=True)\n"
              "c = numpy.unique(x, axis=None)\n")
    assert list(_plain_unique_lines(source)) == [1, 3]


def test_no_plain_np_unique_in_workloads():
    sources = sorted(WORKLOADS_DIR.rglob("*.py"))
    assert sources
    offenders = [f"{p.relative_to(WORKLOADS_DIR)}:{line}" for p in sources
                 for line in _plain_unique_lines(p.read_text())]
    assert not offenders, (
        "plain np.unique is hash-based; use repro.workloads.sorted_unique: "
        + ", ".join(offenders))
