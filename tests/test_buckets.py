import pytest

from tabling.buckets import BucketArray, Direct, Indirect, bucket_cell
from tabling.errors import ConfigurationError


def test_direct_cell_below_starting_size():
    assert bucket_cell(5, 32, 32) == Direct(5)


def test_first_indirect_cell():
    assert bucket_cell(32, 32, 32) == Indirect(0, 0)


def test_division_and_remainder():
    # (100 - 32) = 68; 68 // 32 = 2, 68 % 32 = 4
    assert bucket_cell(100, 32, 32) == Indirect(2, 4)


def test_out_of_capacity():
    with pytest.raises(ConfigurationError):
        bucket_cell(32 + 32 * 32, 32, 32)
    with pytest.raises(ConfigurationError):
        bucket_cell(-1, 32, 32)


def test_mapping_total_and_injective():
    seen = set()
    for t in range(32 + 32 * 32):
        cell = bucket_cell(t)
        key = (0, cell.index) if isinstance(cell, Direct) else (1, cell.first, cell.second)
        assert key not in seen
        seen.add(key)
    assert len(seen) == 32 + 32 * 32


def test_get_or_create_direct_and_indirect():
    ba = BucketArray()
    v, made, made_level = ba.get_or_create(3, list)
    assert made and not made_level
    v2, made, made_level = ba.get_or_create(3, list)
    assert v2 is v and not made and not made_level
    w, made, made_level = ba.get_or_create(100, list)
    assert made and made_level
    w2, made, made_level = ba.get_or_create(101, list)
    assert made and not made_level  # same second-level array as t=100
    assert ba.get(100) is w
    assert ba.get(200) is None  # untouched indirect region


def test_clear_empties_only_its_cell():
    ba = BucketArray()
    for t in (40, 2, 100):
        ba.get_or_create(t, lambda t=t: t)
    ba.clear(40)
    ba.clear(500)  # no second-level array there: nothing to clear
    assert [ba.get(t) for t in (2, 40, 100, 500)] == [2, None, 100, None]
    value, made, made_level = ba.get_or_create(40, lambda: "again")
    assert (value, made, made_level) == ("again", True, False)


def test_capacity_guard():
    ba = BucketArray()
    capacity = 32 + 32 * 32
    assert ba.get_or_create(capacity - 1, list)[1]
    for t in (-1, capacity):
        with pytest.raises(ConfigurationError):
            ba.get_or_create(t, list)
        with pytest.raises(ConfigurationError):
            ba.get(t)
        with pytest.raises(ConfigurationError):
            ba.clear(t)


def test_every_thread_id_gets_its_own_cell():
    ba = BucketArray()
    ids = range(32 + 32 * 32)
    for t in ids:
        value, made, _ = ba.get_or_create(t, lambda t=t: [t])
        assert made and value == [t]
    # a shared cell would hold a later thread's value
    assert [ba.get(t) for t in ids] == [[t] for t in ids]
    assert all(level is not None for level in ba.indirect)
