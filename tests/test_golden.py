"""The corpus suites are deterministic, so their seed-0 JSON reports are the
oracle for behaviour: `pfo corpus` must print them byte for byte.

The reports under `golden/` were written with
`pfo corpus <suite> --json --seed 0` (plus `--opt all` for defenses_all),
and the two contract sweeps with
`pfo contract --program corpus/powm.pfo --sweep --policy naive|fake`:
every single-page steal at every step, 26 313 strategies over 64 secrets.
`golden/run_results.jsonl` holds what single runs observe (see
`run_result_cases`), `golden/trees.jsonl` the tree shapes and staging
plans of a few programs (see `tree_cases`) and `golden/layouts.jsonl`
where the vanilla and tree layouts put those programs and the corpus
(see `layout_cases`); running this file as a script rewrites all three.
Regenerate one only for a change that is meant to alter what it reports.
"""

import json
from pathlib import Path

import pytest

from pfo.cli import main
from pfo.corpus import eddsa_full_source, eddsa_source, powm_source
from pfo.exectree import balance, build_execution_tree, tree_to_json
from pfo.interp import AstExecutable, TreeExecutable
from pfo.lang import WORD_SIZE, parse
from pfo.layouts import build_ast_layout, build_tree_layout
from pfo.memory import AdversaryModel, PfoError
from pfo.optimize import ALL_PASSES, build_defense, build_staged, opt_if_convert
from pfo.suites import case_source, defended_build

from test_interp import (
    DIV_AT_SECOND_SITE, FUSED_TRAPS_CALLEE, FUSED_TRAPS_MAIN, OOB_AT_SECOND_SITE,
    SPLIT_LOOKUP, TRAP_AFTER_TAIL_RETURN, VALUELESS_CALL,
)
from test_lang import FOO_SOURCE
from test_optimize import AGREEMENT_CASES
from test_transform import (
    LOOKUP_64, MERGED_BEFORE_THREE_WAY, THREE_WAY, TRAPPING_ARM, UNEVEN_ARMS,
)

GOLDEN = Path(__file__).resolve().parent / "golden"
CORPUS = Path(__file__).resolve().parent.parent / "corpus"


@pytest.mark.parametrize("name, argv", [
    ("attacks", ["corpus", "attacks"]),
    ("defenses", ["corpus", "defenses"]),
    ("contracts", ["corpus", "contracts"]),
    ("defenses_all", ["corpus", "defenses", "--opt", "all"]),
])
def test_corpus_report_is_byte_identical(name, argv, capsys):
    code = main(argv + ["--json", "--seed", "0"])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text()


@pytest.mark.parametrize("policy", ["naive", "fake"])
def test_contract_sweep_is_byte_identical(policy, capsys):
    code = main(["contract", "--program", str(CORPUS / "powm.pfo"), "--sweep",
                 "--policy", policy])
    assert code == 0
    expected = (GOLDEN / f"contract_powm_{policy}.json").read_text()
    assert capsys.readouterr().out == expected


# the `labeling` block `pfo parse --json` prints for each corpus program and
# the full EdDSA: (functions, execution_blocks, loops, variables)
PARSE_LABELING = {
    "aes": (2, 2, 0, 7),
    "cast_gcrypt": (2, 2, 0, 6),
    "cast_openssl": (2, 2, 0, 6),
    "eddsa": (5, 10, 1, 14),
    "eddsa_full": (31, 701, 332, 178),
    "foo": (4, 14, 2, 8),
    "powm": (20, 25, 1, 30),
    "powm_sw": (3, 14, 4, 17),
    "seed_gcrypt": (2, 2, 0, 6),
    "seed_openssl": (2, 2, 0, 6),
    "stribog": (2, 2, 0, 9),
    "tiger": (2, 2, 0, 7),
    "whirlpool": (2, 2, 0, 9),
}


@pytest.mark.parametrize("name", sorted(PARSE_LABELING))
def test_parse_labeling_is_unchanged(name, tmp_path, capsys):
    path = CORPUS / f"{name}.pfo"
    if name == "eddsa_full":
        path = tmp_path / "eddsa_full.pfo"
        path.write_text(eddsa_full_source())
    assert main(["parse", str(path), "--json"]) == 0
    labeling = json.loads(capsys.readouterr().out)["labeling"]
    keys = ("functions", "execution_blocks", "loops", "variables")
    assert labeling == dict(zip(keys, PARSE_LABELING[name]))


def run_result_cases():
    """(name, executable, secret, public) for the run-result golden file:
    staged builds with and without passes, multi-block levels, a trapping
    arm, O4's unstaged code, a plain tree run whose split-table load
    accounts for itself, vanilla runs of the attacked programs and of
    callees that trap, return nothing or keep locals, and runs that trap
    inside an op and the move of its result, in `main`, in a summarised
    callee, in a plain tree and in a staged build."""
    foo = parse(FOO_SOURCE)
    foo_inputs = [{"x": 4, "y": 2}, {"x": 8, "y": 9}, {"x": 10, "y": 6}]
    builds = [
        ("foo", build_staged(foo).executable(), foo_inputs, None),
        ("foo-O5-O3A-O1-O2",
         build_defense(foo, ("O5", "O3A", "O1", "O2")).executable(), foo_inputs, None),
        ("aes-16-O1-O2", defended_build("aes", 16).executable(),
         [{"k": 0}, {"k": 0x1234}], {"p": 0}),
        ("lookup64-O4", build_defense(parse(LOOKUP_64), ("O4",)).executable(),
         [{"s": 0}, {"s": 5}], None),
        ("split-lookup-tree",
         TreeExecutable(balance(build_execution_tree(parse(SPLIT_LOOKUP)))),
         [{"s": 2}, {"s": 6}], None),
    ]
    for name, source in [("uneven-arms", UNEVEN_ARMS), ("three-way", THREE_WAY),
                         ("trapping-arm", TRAPPING_ARM)]:
        builds.append((name, build_defense(parse(source)).executable(),
                       [{"s": 0}, {"s": 1}], None))
    trap = build_defense(parse(TRAP_AFTER_TAIL_RETURN)).executable()
    for public in ({"i": 3, "d": 1}, {"i": 1, "d": 0}, {"i": 1, "d": 3}):
        builds.append((f"trap-after-tail-return-{public['i']}-{public['d']}",
                       trap, [{}], public))
    # vanilla (whole-function) runs: the attacked programs, a split table,
    # callees that trap at their second call site, a value-less callee
    # used as a value and callee locals
    vanilla = [
        ("eddsa-8-vanilla", eddsa_source(8), "k", [0, 0xA5, 0xFF]),
        ("powm-8-1-vanilla", powm_source(8, 1), "d", [0, 0x5B, 0xFF]),
        ("split-lookup-vanilla", SPLIT_LOOKUP, "s", [2, 6]),
        ("div-at-second-site", DIV_AT_SECOND_SITE, "s", [0, 1, 2]),
        ("oob-at-second-site", OOB_AT_SECOND_SITE, "s", [0, 2, 3]),
        ("valueless-call", VALUELESS_CALL, "s", [0, 3]),
        ("callee-locals-vanilla", AGREEMENT_CASES["callee_locals"], "s", [0, 3]),
    ]
    for name, source, secret_name, values in vanilla:
        builds.append((name, AstExecutable(parse(source)),
                       [{secret_name: v} for v in values], None))
    fused_main, fused_callee = parse(FUSED_TRAPS_MAIN), parse(FUSED_TRAPS_CALLEE)
    every_s = [{"s": v} for v in range(4)]
    builds += [
        ("fused-traps-main-vanilla", AstExecutable(fused_main), every_s, None),
        ("fused-traps-callee-vanilla", AstExecutable(fused_callee), every_s, None),
        ("fused-traps-callee-tree",
         TreeExecutable(balance(build_execution_tree(fused_callee))), every_s, None),
        ("fused-traps-main-staged", build_staged(fused_main).executable(), every_s, None),
    ]
    for name, exe, secrets, public in builds:
        for secret in secrets:
            yield name, exe, secret, public


def run_results_document() -> str:
    """Every run-result case traced and untraced under both adversary
    models, one JSON document per line."""
    lines = []
    for name, exe, secret, public in run_result_cases():
        for model in (AdversaryModel.pigeonhole(), AdversaryModel.infinite_memory()):
            for traced in (False, True):
                doc = exe.run(secret=secret, public=public, model=model,
                              collect_trace=traced).to_json_dict()
                lines.append(json.dumps({
                    "case": name, "secret": secret, "public": public,
                    "model": model.variant.value, "traced": traced, "result": doc,
                }, sort_keys=True, separators=(",", ":")))
    return "\n".join(lines) + "\n"


def test_run_results_are_byte_identical():
    assert run_results_document() == (GOLDEN / "run_results.jsonl").read_text()


def tree_cases():
    """(name, source) for the tree golden file: nested branches, padded
    arms, a three-way level, a split table and three 16-bit table cases."""
    yield "foo", FOO_SOURCE
    yield "uneven-arms", UNEVEN_ARMS
    yield "three-way", THREE_WAY
    yield "lookup64", LOOKUP_64
    for name in ("aes", "cast_gcrypt", "whirlpool"):
        yield f"{name}-16", case_source(name, 16)


TREE_PASSES = ((), ("O3A",), ("O4",), ("O1", "O2"), ALL_PASSES)


def trees_document() -> str:
    """Each tree case's tree before and after `balance`, then the plan of
    `build_defense` under each of `TREE_PASSES` (or the error it raises),
    one JSON document per line."""
    lines = []

    def line(doc: dict) -> None:
        lines.append(json.dumps(doc, sort_keys=True, separators=(",", ":")))

    for name, source in tree_cases():
        program = parse(source)
        tree = build_execution_tree(program)
        line({"case": name, "tree": tree_to_json(tree)})
        line({"case": name, "balanced": tree_to_json(balance(tree))})
        for passes in TREE_PASSES:
            try:
                doc = {"plan": build_defense(program, passes).plan.to_json_dict()}
            except PfoError as e:
                doc = {"error": str(e)}
            line({"case": name, "passes": list(passes), **doc})
    return "\n".join(lines) + "\n"


def test_trees_and_plans_are_byte_identical():
    assert trees_document() == (GOLDEN / "trees.jsonl").read_text()


def gamma_cases():
    """Each tree case under all of `TREE_PASSES`, a compacted plan whose
    O3A group puts a level past the one before, and each corpus program but
    powm_sw (whose tree outgrows the budget) under O5, O3A, O1, O2."""
    for name, source in tree_cases():
        yield pytest.param(source, TREE_PASSES, id=name)
    yield pytest.param(MERGED_BEFORE_THREE_WAY, (("O3A",),), id="merged-before-three-way")
    for path in sorted(CORPUS.glob("*.pfo")):
        if path.stem != "powm_sw":
            yield pytest.param(path.read_text(), (("O5", "O3A", "O1", "O2"),),
                               id=f"corpus-{path.stem}")


@pytest.mark.parametrize("source, pipelines", gamma_cases())
def test_gamma_agrees_with_the_fetches(source, pipelines):
    # every block whose code a level plan fetches runs on that plan's
    # level, from where its first copy lands (basic) or from past its
    # level's dummy slot (compacted).  A compacted level takes its dummy
    # slot and its run slot, each as large as its largest block, so its
    # base is what the levels its group covers before it take.  A block's
    # later copies (its code straddles a source page) land right after the
    # one before, and no copy lands on the run slot of an earlier level's
    # block in the same fetch
    program = parse(source)
    for passes in pipelines:
        try:
            build = build_defense(program, passes)
        except PfoError:
            continue  # the tree golden file holds the error
        tree, plan = build.tree, build.plan
        blocks = {b.name(): b for b in tree.blocks}
        for lp in plan.levels:
            base: dict[int, int] = {}
            taken = 0
            for level in lp.covers:
                base[level] = taken
                taken += 2 * max(x.slot_size for x in tree.levels[level - 1])
            ends: dict[str, int] = {}
            runs: list[tuple[int, int, int]] = []  # (level, first, end) bytes
            for c in lp.fetch:
                if c.kind != "code":
                    continue
                b = blocks[c.unit]
                if c.unit in ends:
                    assert c.dst_offset == ends[c.unit], (passes, b.name())
                else:
                    if plan.mode == "basic":
                        offset = c.dst_offset
                    else:
                        offset = base[b.level] + max(
                            x.slot_size for x in tree.levels[b.level - 1])
                    assert plan.gamma[b.id] == (lp.level, offset), (passes, b.name())
                    runs.append((b.level, offset, offset + b.code_size))
                end = ends[c.unit] = c.dst_offset + c.words * WORD_SIZE
                assert not any(level < b.level and first < end and c.dst_offset < stop
                               for level, first, stop in runs), (passes, b.name())


def laid_out_cases():
    """Each tree case under each of `TREE_PASSES`, and each corpus program
    but powm_sw staged under O5, O3A, O1, O2 and in place under O5, O2, O4."""
    for name, source in tree_cases():
        for passes in TREE_PASSES:
            yield pytest.param(source, passes, False, id=f"{name}-{'+'.join(passes) or 'mux'}")
    for path in sorted(CORPUS.glob("*.pfo")):
        if path.stem != "powm_sw":
            source = path.read_text()
            yield pytest.param(source, ("O5", "O3A", "O1", "O2"), False,
                               id=f"corpus-{path.stem}-staged")
            yield pytest.param(source, ("O5", "O2", "O4"), True,
                               id=f"corpus-{path.stem}-in-place")


@pytest.mark.parametrize("source, passes, in_place", laid_out_cases())
def test_a_build_is_laid_out_from_its_program(source, passes, in_place):
    # every pass records its layout decisions as pins on the program, so
    # the one rule lays the build's program (and tree) out as the build has
    build = build_defense(parse(source), passes, in_place=in_place)
    page_size = build.source_layout.page_size
    if in_place:
        assert build.source_layout == build_ast_layout(build.program.lowered, page_size)
    else:
        assert build.tree.program is build.program
        assert build.source_layout == build_tree_layout(build.tree, page_size)


def layout_cases():
    """(name, program, tree program) for the layout golden file: each tree
    case, and each corpus program, whose tree is built after O5: without
    it the trees of the corpus's secret-branching programs exceed the
    tree budget."""
    for name, source in tree_cases():
        program = parse(source)
        yield name, program, program
    for path in sorted(CORPUS.glob("*.pfo")):
        program = parse(path.read_text(), path.name)
        yield path.stem, program, opt_if_convert(program)[0]


def _extent_lists(units: dict) -> list:
    """A layout map as `[name, [[page, offset, length], ...]]` pairs, in
    map order."""
    return [[name, [[e.page, e.offset, e.length] for e in extents]]
            for name, extents in units.items()]


def layouts_document() -> str:
    """Each layout case's vanilla layout and the layout of its tree
    program's balanced tree (or the error building it raises), one JSON
    document per line."""
    lines = []
    for name, program, tree_program in layout_cases():
        page_size = program.resolve_page_size()
        for kind in ("ast", "tree"):
            try:
                if kind == "ast":
                    layout = build_ast_layout(program.lowered, page_size)
                else:
                    layout = build_tree_layout(
                        balance(build_execution_tree(tree_program)), page_size)
                doc = {"code": _extent_lists(layout.code_map),
                       "data": _extent_lists(layout.data_map)}
            except PfoError as e:
                doc = {"error": str(e)}
            lines.append(json.dumps({"case": name, "layout": kind, **doc},
                                    sort_keys=True, separators=(",", ":")))
    return "\n".join(lines) + "\n"


def test_layouts_are_byte_identical():
    assert layouts_document() == (GOLDEN / "layouts.jsonl").read_text()


if __name__ == "__main__":
    # rewrite the run-result, tree and layout golden files: only for a
    # change that is meant to alter what a run observes, how a program is
    # staged or where its code and data sit
    (GOLDEN / "run_results.jsonl").write_text(run_results_document())
    (GOLDEN / "trees.jsonl").write_text(trees_document())
    (GOLDEN / "layouts.jsonl").write_text(layouts_document())
