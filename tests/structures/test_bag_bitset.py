"""Bag (the R set)."""

from repro.structures.bag import Bag


# ----------------------------------------------------------------- Bag
def test_bag_push_pop_multiset():
    b = Bag()
    for x in [3, 1, 4, 1, 5]:
        b.push(x)
    out = sorted(b.pop() for _ in range(5))
    assert out == [1, 1, 3, 4, 5]
    assert not b


def test_bag_drain_returns_all_and_empties():
    b = Bag([2, 7, 2])
    arr = b.drain()
    assert sorted(arr.tolist()) == [2, 2, 7]
    assert len(b) == 0
    assert b.drain().size == 0


def test_bag_extend_counters_iter_clear():
    b = Bag()
    b.extend([1, 2, 3])
    assert b.n_pushes == 3
    assert sorted(b) == [1, 2, 3]
    b.pop()
    assert b.n_pops == 1
    b.clear()
    assert len(b) == 0


def test_bag_init_from_iterable():
    assert len(Bag(range(4))) == 4
