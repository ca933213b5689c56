import hashlib

import numpy as np
import pytest

from wafermesh.fabric import CapacityError, PlmrConfig
from wafermesh.kvcache import (
    KvMeshState,
    dump_counts_csv,
    kv_append_concat,
    kv_append_shift,
    kv_capacity_ratio,
)

CFG = PlmrConfig(width=16, height=16)


class TestConcat:
    def test_first_token_single_core(self):
        state = KvMeshState(4, 4, 8, 64)
        kv_append_concat(CFG, state, 0)
        counts = state.counts_grid()
        assert counts.sum() == 4  # one chunk per column, all on the bottom row
        assert counts[3].sum() == 4
        assert counts[:3].sum() == 0

    def test_skew_grows_with_tokens(self):
        state = KvMeshState(4, 4, 8, 64)
        for t in range(5):
            kv_append_concat(CFG, state, t)
            assert state.spread() == t + 1

    def test_overflow_with_empty_mesh(self):
        state = KvMeshState(4, 4, 3, 64)
        for t in range(3):
            kv_append_concat(CFG, state, t)
        with pytest.raises(CapacityError):
            kv_append_concat(CFG, state, 3)
        # the rest of the mesh never stored anything
        assert state.counts_grid()[:3].sum() == 0

    def test_order_preserved(self):
        state = KvMeshState(3, 3, 10, 64)
        for t in range(7):
            kv_append_concat(CFG, state, t)
        assert state.token_order() == list(range(7))


class TestShift:
    def test_first_token_lands_bottom_no_shift(self):
        state = KvMeshState(4, 4, 8, 64)
        report = kv_append_shift(CFG, state, 0)
        assert report.meta["transfers"] == 0
        assert state.counts_grid()[3].sum() == 4

    def test_fill_to_total_capacity_then_error(self):
        state = KvMeshState(4, 4, 3, 64)
        total = 3 * 4
        for t in range(total):
            kv_append_shift(CFG, state, t)
        with pytest.raises(CapacityError):
            kv_append_shift(CFG, state, total)

    def test_balance_invariant_over_insertions(self):
        for h in (2, 5, 8, 16):
            state = KvMeshState(h, h, -(-500 // h) + 1, 64)
            for t in range(500):
                kv_append_shift(CFG, state, t)
                assert state.spread() <= 1, (h, t)

    def test_balance_on_random_length_sequences(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            h = int(rng.integers(2, 16))
            count = int(rng.integers(1, 200))
            state = KvMeshState(h, h, 300, 64)
            for t in range(count):
                kv_append_shift(CFG, state, t)
            assert state.spread() <= 1

    def test_order_preserved(self):
        state = KvMeshState(4, 4, 30, 64)
        for t in range(100):
            kv_append_shift(CFG, state, t)
        assert state.token_order() == list(range(100))
        for col in range(4):
            assert state.token_order(col) == list(range(100))

    def test_transfers_adjacent_only(self):
        state = KvMeshState(4, 4, 30, 64)
        for t in range(60):
            report = kv_append_shift(CFG, state, t)
            for step in report.steps:
                assert step.comm.hops_critical == 1

    @pytest.mark.parametrize("height", [1, 2, 3, 5, 8, 13, 32])
    def test_append_onto_t_tokens_moves_t_mod_height_chunks(self, height):
        # The closed form the layer plan charges: no placement is replayed there.
        for width in sorted({1, 3, height}):
            state = KvMeshState(width, height, -(-600 // height), 64)
            for t in range(600):
                report = kv_append_shift(CFG, state, t)
                moved = t % height
                assert report.meta["transfers"] == moved, (width, t)
                assert bool(report.steps_labeled("shift")) == (moved > 0), (width, t)
                assert max(state.row_counts()) == -(-(t + 1) // height), (width, t)

    def test_shift_cost_includes_serialization(self):
        state = KvMeshState(4, 4, 30, chunk_bytes=256)
        kv_append_shift(CFG, state, 0)
        report = kv_append_shift(CFG, state, 1)  # triggers one upward shift
        step = report.steps[0]
        assert step.comm.latency_cycles == CFG.alpha
        assert step.compute_cycles == 256 // 4
        assert step.cycles == CFG.alpha + 64


class TestCapacity:
    def test_ratio_equals_rows(self):
        for h in (1, 4, 16):
            state = KvMeshState(4, h, 10, 64)
            assert kv_capacity_ratio(state) == h

    def test_empirical_ratio(self):
        cap = 5
        h = 4
        concat_state = KvMeshState(h, h, cap, 64)
        stored = 0
        try:
            while True:
                kv_append_concat(CFG, concat_state, stored)
                stored += 1
        except CapacityError:
            pass
        shift_state = KvMeshState(h, h, cap, 64)
        stored_shift = 0
        try:
            while True:
                kv_append_shift(CFG, shift_state, stored_shift)
                stored_shift += 1
        except CapacityError:
            pass
        assert stored == cap
        assert stored_shift == cap * h
        assert stored_shift // stored == h


def test_counts_csv_dump(tmp_path):
    state = KvMeshState(3, 2, 10, 64)
    for t in range(4):
        kv_append_shift(CFG, state, t)
    path = tmp_path / "counts.csv"
    dump_counts_csv(state, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "col0,col1,col2"
    assert len(lines) == 3  # header + one row per mesh row


def _fill_lines(append, width, height, capacity):
    """Every report, grid and column order while filling one mesh past capacity."""
    state = KvMeshState(width, height, capacity, chunk_bytes=4 * width + 6)
    yield f"mesh {width}x{height} cap {capacity} {append.__name__}"
    for t in range(capacity * height + 1):
        token = (37 * t + 11) % 1009  # out of id order, so a reordering shows
        try:
            report = append(CFG, state, token)
        except CapacityError as exc:
            yield f"full at {t}: {exc}"
            break
        for s in report.steps:
            c = s.comm
            yield (f"{s.label}|{c.hops_critical}|{c.routing_stages_critical}|"
                   f"{c.latency_cycles}|{c.bytes_moved}|{s.compute_cycles}|{int(s.overlap)}")
        yield "meta " + " ".join(f"{k}={report.meta.get(k)}"
                                 for k in ("spread", "tokens", "transfers"))
        grid = state.counts_grid()
        yield f"grid {grid.shape} {grid.tolist()}"
        for x in range(width):
            yield f"order {x} {state.token_order(x)}"


# SHA-256 over _fill_lines for both append modes on square and non-square
# meshes, as first recorded; a transposed grid or a column out of step shows.
KV_FILL_SHA = "e74066e4eab3ea7c4bd025e5c1ee3e4d479c5eb27a986a6c78bc610f74cdab70"


def test_fill_reports_grids_and_orders_are_pinned():
    lines = [line
             for width, height, capacity in ((1, 4, 3), (4, 1, 5), (5, 3, 4), (3, 5, 4),
                                             (7, 2, 6), (16, 16, 3))
             for append in (kv_append_shift, kv_append_concat)
             for line in _fill_lines(append, width, height, capacity)]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == KV_FILL_SHA


class TestOneStoredColumn:
    def test_every_column_is_the_stored_column(self):
        state = KvMeshState(64, 64, 4, 64)
        for t in range(100):
            kv_append_shift(CFG, state, t)
        assert len(state.columns) == 64
        assert all(column is state.columns[0] for column in state.columns)

    def test_equal_columns_argument_is_stored_once(self):
        state = KvMeshState(2, 2, 4, 8, columns=[[[1], [2]], [[1], [2]]])
        assert state.columns[1] is state.columns[0]
        assert state.token_order(1) == [1, 2]

    @pytest.mark.parametrize("columns", [
        [[[1], [2]], [[1], [3]]],  # entries differ
        [[[1], [2]]],  # one column for a width of 2
        [[[1], [2]], [[1], [2]], [[1], [2]]],  # three columns
        [[[1]], [[1]]],  # one cell for a height of 2
    ], ids=["differ", "short", "long", "wrong_height"])
    def test_bad_columns_argument_is_rejected(self, columns):
        with pytest.raises(ValueError, match="2 identical columns of 2 cells"):
            KvMeshState(2, 2, 4, 8, columns=columns)

