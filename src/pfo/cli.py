"""Command-line front end.

Subcommands: parse, analyze, transform, simulate, verify, leak, attack,
contract, corpus.  Exit codes: 0 ok, 1 assertion failure, 2 usage error,
3 internal error.  A command accepts --page-size, --seed and --out only
where they take effect, and rejects a --sample below 1.  Only verify,
leak, contract and corpus sample, each driven by --seed (verify and leak
take it only with --sample: else they enumerate the domain), and reports
are emitted with stable ordering, so identical invocations produce
identical bytes.  `corpus` runs every suite from one table, `_SUITES`.
`transform` and every `--transformed` run build their defense
through `optimize.build_defense`, the single entry point that composes
passes; the multiplexing mode it plans with follows from whether each
level's blocks fit one page.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .contract import (
    FAKE_EXECUTE,
    NAIVE_TERMINATE,
    OsStrategy,
    check_contract_indistinguishability,
    derive_contract,
    run_contractual,
)
from .exectree import balance, build_execution_tree, check_balanced, tree_to_dot, tree_to_json
from .interp import AstExecutable
from .labeling import label_sensitivity
from .lang import ParseError, parse, pretty
from .leakage import (
    DEFAULT_EXHAUSTIVE_LIMIT,
    SecretDomain,
    attack_eddsa,
    attack_powm,
    quantify_leakage,
    verify_pfo,
)
from .memory import AdversaryModel, PfoError
from .optimize import ALL_PASSES, build_defense
from .reports import emit, markdown_table, to_json
from .suites import attacks_suite, contracts_suite, defenses_suite

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class CliFailure(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _read_program(path: str):
    source = Path(path).read_text()
    return parse(source, path)


def _parse_bindings(pairs):
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise CliFailure(f"expected NAME=VALUE, got {pair!r}", EXIT_USAGE)
        name, value = pair.split("=", 1)
        try:
            out[name] = int(value, 0)
        except ValueError:
            raise CliFailure(f"bad integer {value!r} for {name}", EXIT_USAGE)
    return out


def _model(args):
    if args.model == "infinite":
        return AdversaryModel.infinite_memory()
    return AdversaryModel.pigeonhole()


def cmd_parse(args) -> int:
    program = _read_program(args.program)
    labeled = label_sensitivity(program)
    doc = {
        "functions": [f.name for f in program.functions],
        "secrets": [d.name for d in program.secrets],
        "outputs": [d.name for d in program.outputs],
        "arrays": [d.name for d in program.arrays],
        "int_width": program.int_width,
        "labeling": labeled.summary(),
        "warnings": labeled.warnings,
    }
    if args.json:
        emit(to_json(doc), args.out)
    else:
        emit(pretty(program), args.out)
    for warning in labeled.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return EXIT_OK


def cmd_analyze(args) -> int:
    program = _read_program(args.program)
    tree = build_execution_tree(program)
    if args.balance:
        tree = balance(tree)
    doc = tree_to_json(tree)
    report = check_balanced(tree)
    doc["witness"] = None if report.balanced else {
        "kind": report.witness.kind,
        "first": list(report.witness.first),
        "second": list(report.witness.second),
    }
    if args.dot:
        Path(args.dot).write_text(tree_to_dot(tree))
    emit(to_json(doc), args.out)
    return EXIT_OK


def cmd_transform(args) -> int:
    program = _read_program(args.program)
    opts = _parse_opts(args.opt)
    build = build_defense(
        program, ALL_PASSES if opts == ["all"] else opts, args.page_size)
    out_path = Path(args.output)
    out_path.write_text(pretty(build.program))
    plan_doc = build.plan.to_json_dict()
    # the passes asked for, the ones that changed the build and why others
    # did not (O4's witness, O2's moved arrays)
    plan_doc["pipeline"] = {"mux": build.plan.mode, "opts": opts,
                            "applied": list(build.applied), "notes": list(build.notes)}
    plan_path = out_path.with_suffix(out_path.suffix + ".plan.json")
    plan_path.write_text(to_json(plan_doc))
    print(f"wrote {out_path} and {plan_path}", file=sys.stderr)
    return EXIT_OK


def _parse_opts(spec):
    if not spec:
        return []
    if spec == "all":
        return ["all"]
    opts = [o.strip() for o in spec.split(",") if o.strip()]
    bad = [o for o in opts if o not in ALL_PASSES]
    if bad:
        raise CliFailure(f"unknown optimization(s): {', '.join(bad)}", EXIT_USAGE)
    return opts


def _executable(args, program):
    """The program as written, or under `--transformed` its multiplexed build."""
    if args.transformed:
        return build_defense(program, page_size=args.page_size).executable()
    return AstExecutable(program, page_size=args.page_size)


def _sample(args, default=None):
    """`--sample`, else `default`; a value below 1 is rejected."""
    if args.sample is None:
        return default
    if args.sample < 1:
        raise CliFailure(f"--sample must be at least 1, got {args.sample}",
                         EXIT_USAGE)
    return args.sample


def _inputs(args, program):
    """The secrets to check: `--sample` of them, else the whole domain."""
    domain = SecretDomain.of(program)
    sample = _sample(args)
    if sample is not None:
        return domain.sample(sample, args.seed or 0)
    if args.seed is not None:
        raise CliFailure("--seed needs --sample", EXIT_USAGE)
    if domain.size > DEFAULT_EXHAUSTIVE_LIMIT:
        raise CliFailure(
            f"domain of {domain.size} secrets needs --sample", EXIT_USAGE
        )
    return domain.exhaustive()


def cmd_simulate(args) -> int:
    program = _read_program(args.program)
    secrets = _parse_bindings(args.secret)
    publics = _parse_bindings(args.public)
    exe = _executable(args, program)
    result = exe.run(secret=secrets, public=publics, model=_model(args),
                     collect_trace=args.trace)
    emit(to_json(result.to_json_dict()), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    program = _read_program(args.program)
    inputs = _inputs(args, program)
    exe = _executable(args, program)
    publics = _parse_bindings(args.public)
    result = verify_pfo(lambda s: exe.run(secret=s, public=publics).profile,
                        inputs)
    doc = {
        "oblivious": result.oblivious,
        "classes": result.classes,
        "inputs_checked": result.inputs_checked,
        "counterexample": None if result.counterexample is None else {
            "first": result.counterexample.first,
            "second": result.counterexample.second,
            "divergence_index": result.counterexample.divergence_index,
        },
    }
    emit(to_json(doc), args.out)
    return EXIT_OK if result.oblivious else EXIT_ASSERTION


def cmd_leak(args) -> int:
    program = _read_program(args.program)
    inputs = _inputs(args, program)
    exe = _executable(args, program)
    publics = _parse_bindings(args.public)
    report = quantify_leakage(lambda s: exe.run(secret=s, public=publics).profile,
                              inputs)
    emit(to_json(report.to_json_dict()), args.out)
    return EXIT_OK


def cmd_attack(args) -> int:
    if args.window is None:
        args.window = 1
    elif args.oracle != "powm":
        raise CliFailure("unrecognized arguments: --window (only --oracle powm "
                         "takes it)", EXIT_USAGE)
    if args.window < 1:
        raise CliFailure(f"--window must be at least 1, got {args.window}",
                         EXIT_USAGE)
    program = _read_program(args.program)
    secrets = _parse_bindings(args.secret)
    publics = _parse_bindings(args.public)
    exe = AstExecutable(program, page_size=args.page_size)
    result = exe.run(secret=secrets, public=publics)
    profile = result.profile
    if args.oracle == "eddsa":
        bits = attack_eddsa(profile)
        recovered = int("".join(map(str, bits)), 2) if bits else 0
        doc = {"oracle": "eddsa", "bits": bits, "recovered": recovered}
        truth = secrets.get("k")
        if truth is not None:
            doc["exact"] = recovered == truth
    elif args.oracle == "powm":
        outcome = attack_powm(profile, window=args.window)
        if args.window == 1:
            recovered = int("".join(map(str, outcome)), 2) if outcome else 0
            doc = {"oracle": "powm", "window": 1, "bits": outcome,
                   "recovered": recovered}
            truth = secrets.get("d")
            if truth is not None:
                doc["exact"] = recovered == truth
        else:
            doc = {
                "oracle": "powm", "window": args.window,
                "runs": list(outcome.runs), "trailing": outcome.trailing,
                "known_fraction": round(outcome.known_fraction, 4),
            }
    elif args.oracle == "table":
        doc = {"oracle": "table", "profile": profile}
    else:
        raise CliFailure(f"unknown oracle {args.oracle!r}", EXIT_USAGE)
    emit(to_json(doc), args.out)
    if "exact" in doc and not doc["exact"]:
        return EXIT_ASSERTION
    return EXIT_OK


def _parse_strategy(spec: str) -> OsStrategy:
    if spec == "honest":
        return OsStrategy.honest()
    if spec.startswith("steal:"):
        page, _, step = spec[len("steal:"):].partition("@")
        try:
            return OsStrategy.steal(int(page, 0), int(step, 0))
        except ValueError:
            raise CliFailure(f"--strategy {spec!r}: a steal strategy is steal:PAGE@STEP, "
                             "with integer PAGE and STEP", EXIT_USAGE) from None
    raise CliFailure(f"unknown strategy {spec!r}", EXIT_USAGE)


def _check_contract_flags(args) -> None:
    """Reject flags that the chosen contract mode would ignore."""
    if args.sweep:
        for flag, given in (("--strategy", args.strategy is not None),
                            ("--secret", bool(args.secret))):
            if given:
                raise CliFailure(f"{flag} cannot be used with --sweep", EXIT_USAGE)
        _sample(args)
    elif args.sample is not None:
        raise CliFailure("--sample needs --sweep", EXIT_USAGE)


def cmd_contract(args) -> int:
    _check_contract_flags(args)
    program = _read_program(args.program)
    exe = AstExecutable(program, page_size=args.page_size)
    domain = SecretDomain.of(program)
    probes = list(domain.sample(3, args.seed))
    contract = derive_contract(exe, probes)
    policy = FAKE_EXECUTE if args.policy == "fake" else NAIVE_TERMINATE
    doc = {
        "bucket": contract.size_label,
        "bucket_pages": sorted(contract.bucket),
        "reserved_page": contract.reserved_page,
        "schedule_steps": contract.total_steps,
        "policy": policy,
    }
    ok = True
    if args.sweep:
        secrets = list(domain.sample(_sample(args, 64), args.seed))
        report = check_contract_indistinguishability(exe, contract, secrets, policy)
        doc["sweep"] = report.to_json_dict()
        ok = report.indistinguishable if policy == FAKE_EXECUTE else True
    else:
        strategy = _parse_strategy("honest" if args.strategy is None else args.strategy)
        secrets = _parse_bindings(args.secret)
        _, observable = run_contractual(exe, contract, secrets, strategy, policy)
        doc["observable"] = {
            "os_visible_faults": list(observable.os_visible_faults),
            "termination_step": observable.termination_step,
            "exit_kind": observable.exit_kind,
        }
    emit(to_json(doc), args.out)
    return EXIT_OK if ok else EXIT_ASSERTION


# each suite's function, the keyword --sample sets (without it, the suite's
# own default holds) and its markdown columns, each header's row key
_SUITES = {
    "attacks": (attacks_suite, "samples", {"Case": "case", "Input bits": "input_bits",
                "Leakage": "leakage_display", "%": "percent"}),
    "defenses": (defenses_suite, "sample_pairs", {"Case": "case", "PF(vanilla)": "pf_vanilla",
                 "PF(transformed)": "pf_transformed", "Oblivious": "oblivious"}),
    "contracts": (contracts_suite, "secrets_per_case", {"Case": "case", "Bucket": "bucket",
                  "Fake classes": "fake_classes", "Naive classes": "naive_classes"}),
}


def cmd_corpus(args) -> int:
    if args.suite not in _SUITES:
        raise CliFailure(
            f"unknown suite {args.suite!r} (choose from {sorted(_SUITES)})",
            EXIT_USAGE,
        )
    if args.opt and (args.opt != "all" or args.suite != "defenses"):
        raise CliFailure(
            "corpus takes only --opt all, and only for the defenses suite",
            EXIT_USAGE,
        )
    suite, sample_keyword, columns = _SUITES[args.suite]
    kwargs = {"opt_all": True} if args.opt else {}
    sample = _sample(args)
    if sample is not None:
        kwargs[sample_keyword] = sample
    result = suite(seed=args.seed, **kwargs)
    if args.json:
        emit(to_json(result.to_json_dict()), args.out)
    else:
        rows = [[r[key] for key in columns.values()] for r in result.rows]
        emit(markdown_table(list(columns), rows), args.out)
    return EXIT_OK if result.ok else EXIT_ASSERTION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pfo",
        description="page-fault-oblivious compilation and analysis toolkit",
    )
    # each shared flag goes only to the commands it takes effect in
    shared = {}
    for flag, kwargs in (("--json", {"action": "store_true"}),
                         ("--page-size", {"type": int, "default": None}),
                         ("--seed", {"type": int, "default": 0}),
                         ("--out", {"default": None})):
        shared[flag] = argparse.ArgumentParser(add_help=False)
        shared[flag].add_argument(flag, **kwargs)

    def flags(*names):
        return [shared[n] for n in ("--json",) + names]

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", parents=flags("--out"))
    p.add_argument("program")
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("analyze", parents=flags("--out"))
    p.add_argument("program")
    p.add_argument("--balance", action="store_true")
    p.add_argument("--dot", default=None)
    p.set_defaults(fn=cmd_analyze)

    # no abbreviations, so `--out` is rejected, not read as `--output`
    p = sub.add_parser("transform", parents=flags("--page-size"),
                       allow_abbrev=False)
    p.add_argument("program")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--opt", default="")
    p.set_defaults(fn=cmd_transform)

    p = sub.add_parser("simulate", parents=flags("--page-size", "--out"))
    p.add_argument("--program", required=True)
    p.add_argument("--secret", action="append", default=[])
    p.add_argument("--public", action="append", default=[])
    p.add_argument("--model", choices=["pigeonhole", "infinite"],
                   default="pigeonhole")
    p.add_argument("--transformed", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(fn=cmd_simulate)

    for name, fn in (("verify", cmd_verify), ("leak", cmd_leak)):
        p = sub.add_parser(name, parents=flags("--page-size", "--out"))
        p.add_argument("--program", required=True)
        # no default, so that a --seed without --sample is seen
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--public", action="append", default=[])
        p.add_argument("--transformed", action="store_true")
        p.add_argument("--sample", type=int, default=None)
        p.set_defaults(fn=fn)

    p = sub.add_parser("attack", parents=flags("--page-size", "--out"))
    p.add_argument("--oracle", required=True, choices=["eddsa", "powm", "table"])
    p.add_argument("--program", required=True)
    p.add_argument("--secret", action="append", default=[])
    p.add_argument("--public", action="append", default=[])
    p.add_argument("--window", type=int, default=None)
    p.set_defaults(fn=cmd_attack)

    p = sub.add_parser("contract", parents=flags("--page-size", "--seed", "--out"))
    p.add_argument("--program", required=True)
    p.add_argument("--policy", choices=["fake", "naive"], default="fake")
    p.add_argument("--strategy", default=None)
    p.add_argument("--secret", action="append", default=[])
    p.add_argument("--sweep", action="store_true")
    p.add_argument("--sample", type=int, default=None)
    p.set_defaults(fn=cmd_contract)

    p = sub.add_parser("corpus", parents=flags("--seed", "--out"))
    p.add_argument("suite")
    p.add_argument("--opt", default="")
    p.add_argument("--sample", type=int, default=None)
    p.set_defaults(fn=cmd_corpus)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except CliFailure as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except ParseError as e:
        print(str(e), file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except PfoError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ASSERTION
    except Exception as e:  # pragma: no cover - internal errors
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
