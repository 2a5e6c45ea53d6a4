"""Unit tests for the SIP zone/row bitmasks (paper §4 Step 2)."""
import numpy as np
import pytest

from repro.core.bitmask import SemiJoinMasks


def test_row_bits_set():
    m = SemiJoinMasks.from_rids(np.array([0, 2, 2, 5]), n_rows=8, zone_size=4)
    assert m.row.tolist() == [True, False, True, False, False, True, False, False]


def test_zone_bits_set():
    m = SemiJoinMasks.from_rids(np.array([0, 2, 5]), n_rows=8, zone_size=4)
    assert m.zone.tolist() == [True, True]


def test_zone_skipped_when_no_match():
    m = SemiJoinMasks.from_rids(np.array([1]), n_rows=8, zone_size=4)
    assert m.zone.tolist() == [True, False]
    assert m.rows_in_active_zones() == 4


def test_paper_example_bitmasks():
    # Example 2: RID 2 only -> row [0,0,1,0], zone [0,1] with zone size 2.
    m = SemiJoinMasks.from_rids(np.array([2]), n_rows=4, zone_size=2)
    assert m.row.tolist() == [False, False, True, False]
    assert m.zone.tolist() == [False, True]
    assert m.rows_in_active_zones() == 2


def test_empty_rids():
    m = SemiJoinMasks.from_rids(np.array([], dtype=np.int64), n_rows=10, zone_size=4)
    assert m.selected_rows() == 0
    assert m.rows_in_active_zones() == 0


def test_duplicate_rids_idempotent():
    m = SemiJoinMasks.from_rids(np.array([3, 3, 3]), n_rows=4, zone_size=2)
    assert m.selected_rows() == 1


def test_out_of_range_raises():
    with pytest.raises(ValueError):
        SemiJoinMasks.from_rids(np.array([10]), n_rows=4, zone_size=2)
    with pytest.raises(ValueError):
        SemiJoinMasks.from_rids(np.array([-1]), n_rows=4, zone_size=2)


def test_ragged_last_zone_accounting():
    # 10 rows, zone 4 -> zones of size 4, 4, 2; only last zone active.
    m = SemiJoinMasks.from_rids(np.array([9]), n_rows=10, zone_size=4)
    assert m.rows_in_active_zones() == 2


def test_all_zones_active_counts_all_rows():
    m = SemiJoinMasks.from_rids(np.arange(10), n_rows=10, zone_size=4)
    assert m.rows_in_active_zones() == 10
    assert m.selected_rows() == 10


def test_combine_intersects():
    a = SemiJoinMasks.from_rids(np.array([0, 1, 4]), n_rows=8, zone_size=2)
    b = SemiJoinMasks.from_rids(np.array([1, 4, 7]), n_rows=8, zone_size=2)
    c = a.combine(b)
    assert np.flatnonzero(c.row).tolist() == [1, 4]
    assert c.zone.tolist() == [True, False, True, False]


def test_combine_shape_mismatch_raises():
    a = SemiJoinMasks.from_rids(np.array([0]), n_rows=8, zone_size=2)
    b = SemiJoinMasks.from_rids(np.array([0]), n_rows=6, zone_size=2)
    with pytest.raises(ValueError):
        a.combine(b)


def test_single_row_table():
    m = SemiJoinMasks.from_rids(np.array([0]), n_rows=1, zone_size=2048)
    assert m.rows_in_active_zones() == 1


def test_zone_count_rounding():
    m = SemiJoinMasks.from_rids(np.arange(9), n_rows=9, zone_size=4)
    assert m.zone.shape[0] == 3
