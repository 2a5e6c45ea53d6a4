"""Unit tests for the CSR RID index (paper §5, Figure 2)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.rid_index import RIDIndex

# Running example: Follows' materialized RID1 column is [0, 2, 0, 1, 0]
_RID1 = pd.Series([0, 2, 0, 1, 0])
_RID2 = pd.Series([1, 3, 2, 2, 3])


def _idx(ext=True) -> RIDIndex:
    return RIDIndex.build(_RID1, n_p=4, ext_values=_RID2 if ext else None)


def test_figure2_offsets():
    idx = _idx()
    assert idx.offsets.tolist() == [0, 3, 4, 5, 5]


def test_figure2_lists():
    idx = _idx()
    # Person RID 0 (Mahinda) -> Follows rows 0, 2, 4 pointing at persons 1,2,3.
    assert idx.lookup_many(np.array([0])).tolist() == [0, 2, 4]
    assert idx.lookup_many(np.array([1])).tolist() == [3]
    assert idx.lookup_many(np.array([2])).tolist() == [1]
    assert idx.lookup_many(np.array([3])).tolist() == []


def test_figure2_ext_payload():
    idx = _idx()
    _, f, ext = idx.pairs(np.array([0]))
    assert f.tolist() == [0, 2, 4]
    assert ext.tolist() == [1, 2, 3]


def test_degree():
    idx = _idx()
    assert np.diff(idx.offsets).tolist() == [3, 1, 1, 0]


def test_lookup_many_concatenates():
    idx = _idx()
    assert idx.lookup_many(np.array([1, 0])).tolist() == [3, 0, 2, 4]


def test_lookup_many_empty():
    idx = _idx()
    assert idx.lookup_many(np.array([], dtype=np.int64)).tolist() == []


def test_pairs_requires_ext():
    with pytest.raises(ValueError):
        _idx(ext=False).pairs(np.array([0]))


def test_pairs_multiplicity_preserved():
    # Two F rows pointing at the same (p1, p2) pair must yield two pairs.
    idx = RIDIndex.build(pd.Series([0, 0]), n_p=1, ext_values=pd.Series([5, 5]))
    src, f, ext = idx.pairs(np.array([0]))
    assert len(f) == 2 and ext.tolist() == [5, 5]


def test_empty_key_batch_on_empty_lists():
    idx = _idx()
    src, f, ext = idx.pairs(np.array([3]))  # person 3 has no followers
    assert len(src) == len(f) == len(ext) == 0


def test_big_random_roundtrip():
    g = np.random.default_rng(0)
    n_f, n_p = 5000, 300
    rid_p = pd.Series(g.integers(0, n_p, n_f))
    idx = RIDIndex.build(rid_p, n_p)
    # Every F row appears exactly once across all lists, under its key.
    assert int(np.diff(idx.offsets).sum()) == n_f
    for key in (0, 17, n_p - 1):
        expect = sorted(np.flatnonzero(rid_p.to_numpy() == key).tolist())
        assert sorted(idx.lookup_many(np.array([key])).tolist()) == expect
