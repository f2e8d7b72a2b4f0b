import pytest
from hypothesis import given, strategies as st

from pfo.exectree import balance, build_execution_tree
from pfo.interp import AstExecutable, Footprint, FootprintTable, Sink, Summary, TreeExecutable
from pfo.lang import parse
from pfo.layouts import build_ast_layout, build_tree_layout, word_runs
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
from pfo.optimize import build_defense
from pfo.suites import case_source

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

    @given(st.lists(instr_strategy, max_size=20), st.lists(instr_strategy, max_size=20),
           st.booleans())
    def test_summary_matches_charging_each_step(self, before, segment, pigeonhole):
        # a segment summarised once, accounted after any prefix, leaves the
        # sink as charging its steps one by one does
        table = FootprintTable()

        def charges(instrs):
            return tuple(table(code, tuple(data), (DR,) * len(data)) for code, data in instrs)

        summary = Summary(charges(segment))
        stepped, summed = Sink(pigeonhole, collect=True), Sink(pigeonhole, collect=True)
        for sink in (stepped, summed):
            sink.charge(charges(before))
        stepped.charge(charges(segment))
        summed.account(summary)
        assert (summed.steps, summed.faults, summed.footprints, summed.resident) \
            == (stepped.steps, stepped.faults, stepped.footprints, stepped.resident)


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

    @given(st.integers(4, 12), st.integers(0, 3), st.integers(1, 1200), st.data())
    def test_word_runs_put_each_word_on_the_page_of_its_first_byte(
            self, log_size, page, words, data):
        # a pin at any offset, word-aligned or not
        page_size = 1 << log_size
        offset = data.draw(st.integers(-page_size, page_size - 1))
        layout = word_table_layout(page_size, {"t": (page, offset, 4 * words)})
        runs = word_runs(layout.data_extents("t"))
        assert all(n > 0 for _, _, n in runs)
        assert [first + k for _, first, n in runs for k in range(n)] == list(range(words))
        assert [p for p, _, n in runs for _ in range(n)] == \
            [page_of(layout, "t", 4 * i) for i in range(words)]


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


def _pinned_u(place: str, body: str) -> str:
    return (f"#pragma page_size 32\n#pragma place data u {place}\n"
            "secret int<2> s;\noutput int y;\nint u[8];\n"
            f"fn main() {{\n  #pragma begin_pf_sensitive\n{body}\n"
            "  #pragma end_pf_sensitive\n}\n")


def _code_pages(layout: MemoryLayout) -> set[int]:
    return {e.page for extents in layout.code_map.values() for e in extents}


class TestPinnedData:
    """Unpinned code never lands on the bytes of a pinned array: a unit that
    would overlap one starts on the page after it."""

    # 13 instructions: 52 bytes from page 0 would reach bytes 0-19 of page 1
    STRAIGHT = "y = s;\n" + "".join(f"y = y + {k};\n" for k in range(1, 7))
    # one block per trip (16 bytes each): about 50 pages of code
    LONG = ("y = s;\nfor (i = 0; i < 100; i = i + 1) { y = y + i; }\n"
            "u[1] = y; y = y + u[1];")

    def test_function_moves_past_pinned_data(self):
        program = parse(_pinned_u("1 16", self.STRAIGHT))
        assert len(program.lowered.functions["main"].instrs) == 13
        layout = build_ast_layout(program.lowered, 32)
        assert layout.data_map["u"] == split_extents(32, 1, 16, 32)
        assert [e.page for e in layout.code_map["main"]] == [3, 4]
        assert AstExecutable(program).run(secret={"s": 2}).outputs["y"] == 23

    def test_tree_group_moves_past_pinned_data(self):
        program = parse(_pinned_u("40 16", self.LONG))
        tree = build_execution_tree(program)
        layout = build_tree_layout(tree, 32)
        assert layout.data_map["u"] == split_extents(32, 40, 16, 32)
        pages = _code_pages(layout)
        assert min(pages) == 42 and not pages & {40, 41}
        exes = [AstExecutable(program), TreeExecutable(balance(tree)),
                build_defense(program).executable()]
        for s in range(4):
            ys = [exe.run(secret={"s": s}).outputs["y"] for exe in exes]
            assert ys == [2 * (s + 4950)] * 3, s

    def test_unpinned_data_starts_on_the_first_page_no_pinned_array_touches(self):
        # past the code (page 0), pages 1-2 are free: `v` fills them, and `w`,
        # which would land on `u`'s page 3, starts after it
        program = parse(_pinned_u("3 0", "y = v[s] + w[s];").replace(
            "int u[8];", "int u[8];\nint v[16];\nint w[4];"))
        for layout in (build_ast_layout(program.lowered, 32),
                       build_tree_layout(build_execution_tree(program), 32)):
            assert layout.data_map["u"] == split_extents(32, 3, 0, 32)
            assert layout.data_map["v"] == split_extents(32, 1, 0, 64)
            assert layout.data_map["w"] == split_extents(32, 4, 0, 16)

    def test_code_beside_pinned_data_stays(self):
        # main's 4 instructions fill bytes 0-15 of page 0, which `u` leaves free
        program = parse(_pinned_u("0 16", "y = s + 1;\ny = y * 2;"))
        layout = build_ast_layout(program.lowered, 32)
        assert layout.code_map["main"] == split_extents(32, 0, 0, 16)
        assert layout.data_map["u"] == split_extents(32, 0, 16, 32)

    def test_pinned_code_on_pinned_data_names_the_pin(self):
        # main's 2 instructions pinned to bytes 0-7 of page 0, where `u` is
        program = parse("#pragma place code main 0 0\n" + _pinned_u("0 0", "y = s + 1;"))
        with pytest.raises(LayoutError, match=r"^place code main 0 0: its 8 bytes "
                           r"overlap pinned array u on page 0$"):
            build_ast_layout(program.lowered, 32)

    @pytest.mark.parametrize("passes", [(), ("O4",)], ids=["plain", "O4"])
    def test_pinned_tree_group_on_pinned_data_names_the_pin(self, passes):
        # powm at 8 bits pins `main` to page 1 and `seed_tab` to page 3, and
        # main's blocks run on past page 3
        program = parse(case_source("powm", 8))
        with pytest.raises(LayoutError, match=r"^place code main 1 0: its 25860 bytes "
                           r"overlap pinned array seed_tab on page 3$"):
            build_defense(program, passes)


class TestSerialization:
    @given(st.lists(instr_strategy, max_size=20))
    def test_profile_serialization_deterministic(self, instrs):
        model = AdversaryModel.pigeonhole()
        p1 = observe_profile(trace_of(instrs), model)
        p2 = observe_profile(trace_of(instrs), model)
        assert isinstance(p1, list) and p1 == p2
