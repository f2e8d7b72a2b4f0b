import pytest
from hypothesis import given, strategies as st

from pfo.interp import Footprint, FootprintTable, Sink
from pfo.memory import (
    AccessEvent,
    AdversaryModel,
    EventKind,
    LayoutError,
    MemoryLayout,
    PageModelError,
    observe_profile,
    page_of,
    split_extents,
)

CF = EventKind.CODE_FETCH
DR = EventKind.DATA_READ
DW = EventKind.DATA_WRITE


def ev(kind, page, step):
    return AccessEvent(kind, page, step)


class TestObserveProfile:
    def test_infinite_memory_profile_is_empty(self):
        trace = [ev(CF, 7, 0), ev(DR, 9, 1), ev(CF, 7, 2), ev(DR, 12, 3)]
        assert observe_profile(trace, AdversaryModel.infinite_memory()) == []

    def test_single_instruction_cold_start(self):
        trace = [ev(CF, 7, 0), ev(DR, 9, 1)]
        assert observe_profile(trace, AdversaryModel.pigeonhole()) == [7, 9]

    def test_code_page_stays_resident_data_page_evicted(self):
        # Two instructions on code page 7: the first reads page 9, the
        # second reads page 12.  Hand-replay of the resident-set rule:
        # after instr 1 the resident set is {7, 9}; instr 2 needs {7, 12},
        # so only 12 faults (7 stayed resident, 9 was evicted).
        trace = [ev(CF, 7, 0), ev(DR, 9, 1), ev(CF, 7, 2), ev(DR, 12, 3)]
        assert observe_profile(trace, AdversaryModel.pigeonhole()) == [7, 9, 12]

    def test_canonical_order_code_then_operands(self):
        trace = [ev(CF, 3, 0), ev(DR, 1, 1), ev(DW, 2, 2)]
        assert observe_profile(trace, AdversaryModel.pigeonhole()) == [3, 1, 2]

    def test_four_page_instruction_rejected(self):
        trace = [ev(CF, 0, 0), ev(DR, 1, 1), ev(DR, 2, 2), ev(DW, 3, 3)]
        with pytest.raises(PageModelError):
            observe_profile(trace, AdversaryModel.pigeonhole())

    def test_nonmonotone_steps_rejected(self):
        trace = [ev(CF, 0, 1), ev(DR, 1, 1)]
        with pytest.raises(PageModelError):
            observe_profile(trace, AdversaryModel.pigeonhole())


# Random instruction streams: (code_page, data operand pages).
instr_strategy = st.tuples(
    st.integers(0, 5),
    st.lists(st.integers(0, 5), max_size=2),
)


def trace_of(instrs):
    out = []
    step = 0
    for code, data in instrs:
        out.append(ev(CF, code, step))
        step += 1
        for p in data:
            out.append(ev(DR, p, step))
            step += 1
    return out


class TestObserveProfileProperties:
    @given(st.lists(instr_strategy, max_size=30))
    def test_deterministic_and_infinite_empty(self, instrs):
        trace = trace_of(instrs)
        model = AdversaryModel.pigeonhole()
        assert observe_profile(trace, model) == observe_profile(trace, model)
        assert observe_profile(trace, AdversaryModel.infinite_memory()) == []

    @given(st.lists(instr_strategy, max_size=30), st.integers(0, 30))
    def test_prefix_of_trace_gives_prefix_of_profile(self, instrs, cut):
        model = AdversaryModel.pigeonhole()
        full = observe_profile(trace_of(instrs), model)
        partial = observe_profile(trace_of(instrs[:cut]), model)
        assert full[: len(partial)] == partial

    @given(st.lists(instr_strategy, min_size=1, max_size=30))
    def test_incremental_observer_matches(self, instrs):
        # the interpreter's incremental rule against the trace replay, fed
        # interned footprints (shared page sets take the fast path) and
        # footprints built one per step (never shared)
        expected = observe_profile(trace_of(instrs), AdversaryModel.pigeonhole())
        for footprint in (FootprintTable(), Footprint):
            sink = Sink(pigeonhole=True, collect=False)
            for code, data in instrs:
                sink.instr(footprint(code, tuple(data), (DR,) * len(data)))
            assert sink.faults == expected


def word_table_layout(page_size, placements):
    data_map = {
        name: split_extents(page_size, page, offset, length)
        for name, (page, offset, length) in placements.items()
    }
    return MemoryLayout(page_size=page_size, data_map=data_map)


class TestPageOf:
    def test_word_table_first_byte(self):
        layout = word_table_layout(4096, {"t": (3, 0, 1024 * 4)})
        assert page_of(layout, "t", 0) == 3

    def test_split_at_0x1c_boundary(self):
        # 256-entry 4-byte table placed so its first 112 bytes (28 entries,
        # indexes 0x00..0x1B) sit at the end of page 1 and the rest on
        # page 2.  Index 0x1B is the last entry on the first page.
        layout = word_table_layout(4096, {"t": (1, -112, 256 * 4)})
        assert page_of(layout, "t", 4 * 0x1B) == 1
        assert page_of(layout, "t", 4 * 0x1C) == 2

    def test_three_page_span_arithmetic(self):
        layout = word_table_layout(64, {"t": (5, 0, 3 * 64)})
        assert page_of(layout, "t", 70) == 70 // 64 + 5 == 6

    def test_unmapped_object(self):
        layout = word_table_layout(64, {})
        with pytest.raises(LayoutError):
            page_of(layout, "missing", 0)

    def test_out_of_bounds_index(self):
        layout = word_table_layout(64, {"t": (0, 0, 32)})
        with pytest.raises(LayoutError):
            page_of(layout, "t", 32)


class TestLayoutValidation:
    def test_overlap_rejected(self):
        with pytest.raises(LayoutError):
            MemoryLayout(
                page_size=64,
                data_map={
                    "a": split_extents(64, 0, 0, 32),
                    "b": split_extents(64, 0, 16, 16),
                },
            )

    def test_bad_page_size_rejected(self):
        with pytest.raises(LayoutError):
            MemoryLayout(page_size=48)
        with pytest.raises(LayoutError):
            MemoryLayout(page_size=8)


class TestSerialization:
    @given(st.lists(instr_strategy, max_size=20))
    def test_profile_serialization_deterministic(self, instrs):
        model = AdversaryModel.pigeonhole()
        p1 = observe_profile(trace_of(instrs), model)
        p2 = observe_profile(trace_of(instrs), model)
        assert isinstance(p1, list) and p1 == p2
