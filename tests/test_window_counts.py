"""WindowCounts against a plain-dict reference counter.

The reference is the obvious ``{(node, window): count}`` dict the three
holders used to keep.  Every batch fold is checked for the counts it
reports from before the merge, its stable order and its changed keys;
any split of the same records must end in the same columns.
"""

import json

import numpy as np
import pytest

from repro.window_counts import WindowCounts


def _records(rng, n, lo=-50, hi=50, n_nodes=6):
    """Random (node, window) pairs; negative windows included."""
    return rng.integers(0, n_nodes, size=n), rng.integers(lo, hi, size=n)


def _splits(rng, n, k):
    cuts = np.sort(rng.choice(np.arange(1, n), size=k - 1, replace=False))
    return np.split(np.arange(n), cuts)


def _check_add(counter, ref, changed, nodes, windows):
    """Fold one batch into both; assert everything ``add`` reports."""
    added = counter.add(nodes, windows)
    keys = sorted(set(zip(nodes.tolist(), windows.tolist())))
    assert added.starts.size == len(keys)
    sn, sw = nodes[added.order], windows[added.order]
    assert list(zip(sn[added.starts].tolist(), sw[added.starts].tolist())) \
        == keys
    # Stable: each key's records keep their input order.
    assert all(
        np.all(np.diff(added.order[s:s + c]) > 0)
        for s, c in zip(added.starts.tolist(), added.counts.tolist())
    )
    assert added.prev.tolist() == [ref.get(k, 0) for k in keys]
    for k, c in zip(keys, added.counts.tolist()):
        ref[k] = ref.get(k, 0) + c
        changed.add(k)


def _as_dict(counter):
    return {(n, w): c for n, w, c in counter.rows()}


class TestAgainstDictReference:
    @pytest.mark.parametrize("seed", range(8))
    def test_any_batch_split(self, seed):
        rng = np.random.default_rng(seed)
        nodes, windows = _records(rng, 600)
        counter, ref, changed = WindowCounts(), {}, set()
        for i, part in enumerate(_splits(rng, nodes.size, 1 + seed * 3)):
            _check_add(counter, ref, changed, nodes[part], windows[part])
            got = {(n, w) for n, w, _ in counter.rows(changed=True)}
            assert got == changed
            if i % 3 == 2:
                counter.clear_changes()
                changed.clear()
                assert counter.rows(changed=True) == []
        assert _as_dict(counter) == ref
        rows = counter.rows()
        assert [r[:2] for r in rows] == sorted(r[:2] for r in rows)

        one = WindowCounts()
        one.add(nodes, windows)
        assert one.rows() == counter.rows()

    def test_extreme_keys_keep_lexicographic_order(self):
        big = np.iinfo(np.int64).max
        nodes = np.array([0, 2**40, 0, -5, 2**40, -5])
        windows = np.array([-big, big, big, 0, -big, 0])
        counter, ref, changed = WindowCounts(), {}, set()
        _check_add(counter, ref, changed, nodes[:3], windows[:3])
        _check_add(counter, ref, changed, nodes[3:], windows[3:])
        assert _as_dict(counter) == ref
        keys = list(zip(counter.nodes.tolist(), counter.windows.tolist()))
        assert keys == sorted(ref)

    def test_batches_outgrowing_the_packing(self):
        # Far-apart windows and nodes force the packed keys to be rebuilt
        # (or replaced by ranks) between batches; the counts must not care.
        rng = np.random.default_rng(3)
        counter, ref, changed = WindowCounts(), {}, set()
        for lo, hi, n_nodes in ((0, 9, 4), (2**40, 2**40 + 9, 4),
                                (-2**62, 2**62, 4), (0, 9, 2**40), (0, 9, 4)):
            nodes, windows = _records(rng, 50, lo, hi, n_nodes)
            _check_add(counter, ref, changed, nodes, windows)
        assert _as_dict(counter) == ref

    def test_empty_batch_is_a_no_op(self):
        counter = WindowCounts()
        counter.add([3], [7])
        counter.clear_changes()
        added = counter.add(np.zeros(0, np.int64), np.zeros(0, np.int64))
        assert added.prev.size == added.starts.size == 0
        assert counter.rows() == [[3, 7, 1]]
        assert counter.rows(changed=True) == []


class TestMergeAndRows:
    @pytest.mark.parametrize("seed", range(4))
    def test_merge_equals_one_shot(self, seed):
        rng = np.random.default_rng(100 + seed)
        nodes, windows = _records(rng, 400)
        whole = WindowCounts()
        whole.add(nodes, windows)
        left, right = WindowCounts(), WindowCounts()
        cut = int(rng.integers(0, nodes.size))
        left.add(nodes[:cut], windows[:cut])
        right.add(nodes[cut:], windows[cut:])
        left.clear_changes()
        left.merge(right)
        assert left.rows() == whole.rows()
        # Every key the merge touched is marked changed.
        got = {(n, w) for n, w, _ in left.rows(changed=True)}
        assert got == set(zip(right.nodes.tolist(), right.windows.tolist()))

    def test_rows_round_trip_through_json(self):
        rng = np.random.default_rng(9)
        counter = WindowCounts()
        counter.add(*_records(rng, 300))
        rows = json.loads(json.dumps(counter.rows()))
        back = WindowCounts.from_rows(rows)
        assert back.rows() == counter.rows()
        assert back.rows(changed=True) == []
        assert WindowCounts.from_rows([]).rows() == []

    def test_from_rows_sorts(self):
        counter = WindowCounts.from_rows([[2, 1, 3], [0, 5, 4], [2, -1, 5]])
        assert counter.rows() == [[0, 5, 4], [2, -1, 5], [2, 1, 3]]


def test_module_imports_no_other_repro_module():
    import subprocess
    import sys

    code = (
        "import sys, repro.window_counts; "
        "print(sorted(m for m in sys.modules if m.startswith('repro')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True,
    ).stdout
    assert out.split() == ["['repro',", "'repro.window_counts']"]
