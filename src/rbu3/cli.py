"""Command-line front end.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage, parse or input
error, 3 resource limit.  Text output is human-oriented; the ``--json`` reports are
the stable contract (schema-versioned, sorted keys, byte-identical across
identical invocations).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields

from .matrices import parse_matrix
from .operators import (Ansatz, Operator, check_lemma3, failure_json,
                        generate_system, rb_residual)
from .poly import (MonomialOrder, ParseError, check_fields, parse_poly, read_json,
                   strings, write_json)
from .groebner import (Limits, PolySystem, ResourceLimitExceeded, buchberger)
from .transform import (AutoParams, PsiStep, ThetaStep, Witness,
                        canonicalize_idempotent, canonicalize_nilpotent,
                        find_conjugation)
from . import catalog as cat

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _limits(args) -> Limits:
    return Limits(max_pairs=args.max_pairs, deadline=args.deadline)


def cmd_verify_catalog(args):
    report = cat.verify_all(samples=args.samples, families=args.family or None,
                            seed=args.seed, jobs=args.jobs)
    print(report.to_text())
    return EXIT_OK if report.all_pass() else EXIT_CHECK_FAILED, report.to_json()


def cmd_check(args):
    op = Operator.load(args.file)
    if args.weight is not None:
        op = Operator(op.n, op.columns, args.weight)
    residual = rb_residual(op)
    ok = residual.is_zero()
    print(f"RB weight {op.weight}: {'YES' if ok else 'NO'}")
    data = {"schema": 1, "weight": str(op.weight), "is_rb": ok}
    if not ok:
        failure = data["first_failure"] = failure_json(residual.first_nonzero())
        print(f"  first nonzero residual: pair ({','.join(failure['pair'])}) "
              f"position {failure['position']} value {failure['value']}")
    else:
        data["lemma_checks"] = asdict(check_lemma3(op))
    return EXIT_OK if ok else EXIT_CHECK_FAILED, data


def cmd_system(args):
    if args.preset:
        ansatz = cat.case_preset(args.preset).ansatz()
    else:
        data = read_json(args.ansatz, "constraints")
        n, weight = data.get("n", 3), data.get("weight", "0")
        constraints = data["constraints"]
        check_fields("ansatz", data, (
            ("n", type(n) is int), ("weight", type(weight) in (int, str)),
            ("constraints", type(constraints) is list and strings(constraints))))
        ansatz = Ansatz(n, weight, constraints)
    system, _ = generate_system(ansatz)
    print(f"{len(system.table)} variables, {len(system.gens)} generators")
    return EXIT_OK, system.to_json()


def cmd_gb(args):
    if args.elim is not None and args.order != "elim":
        raise ValueError("--elim needs --order elim")
    system = PolySystem.load(args.file)
    if args.order:
        order = MonomialOrder.from_json(
            {"elim": 1 if args.elim is None else args.elim}
            if args.order == "elim" else args.order)
        system = PolySystem(system.table, system.gens, order)
    gb = buchberger(system, _limits(args))
    print(f"reduced basis with {len(gb.basis)} elements "
          f"({gb.stats.pairs_considered} pairs)")
    for g in gb.basis:
        print(f"  {g.to_str(system.order)}")
    return EXIT_OK, gb.to_json()


def cmd_member(args):
    system = PolySystem.load(args.file)
    poly = parse_poly(args.poly, system.table)
    gb = buchberger(system, _limits(args))
    member = gb.contains(poly)
    print(f"member: {'YES' if member else 'NO'}")
    return (EXIT_OK if member else EXIT_CHECK_FAILED,
            {"schema": 1, "poly": args.poly, "member": member})


def cmd_canonicalize(args):
    matrix = parse_matrix(args.matrix, 3)
    if matrix.is_strictly_upper():
        result = canonicalize_nilpotent(matrix)
    elif matrix.is_idempotent():
        result = canonicalize_idempotent(matrix)
    else:
        raise ValueError("input is neither strictly upper-triangular nor idempotent")
    witness = result.witness.to_json()
    print(f"form: {result.label}")
    print(f"witness: {json.dumps(witness, sort_keys=True)}")
    return EXIT_OK, {"schema": 1, "input": args.matrix, "form": result.label,
                     "witness": witness}


def cmd_conjugate(args):
    op = Operator.load(args.file)
    steps = []
    if args.theta:
        steps.append(ThetaStep())
    given = {f.name: getattr(args, f.name) for f in fields(AutoParams)
             if getattr(args, f.name) is not None}
    if given:
        steps.append(PsiStep(AutoParams(**given)))
    if not steps:
        raise ValueError("give --theta and/or automorphism parameters")
    data = Witness(tuple(steps)).transform_operator(op).to_json()
    if args.json != "-":  # the report always goes to standard output, once
        write_json("-", data)
    return EXIT_OK, data


def cmd_find_conj(args):
    source = Operator.load(args.source)
    target = Operator.load(args.target)
    result = find_conjugation(source, target, allow_theta=args.allow_theta,
                              allow_scaling=args.allow_scaling,
                              limits=_limits(args))
    data = {"schema": 1, "status": result.status}
    if result.status == "found":
        print("witness found")
        data["witness"] = result.witness.to_json()
        write_json("-", data["witness"])
    elif result.status == "disjoint":
        print("none found (unit ideal: no single map and scale fits every "
              "parameter value; members may still be conjugate at some values)")
    else:
        print("none found (no rational witness)")
    return EXIT_OK if result.status == "found" else EXIT_CHECK_FAILED, data


def cmd_rb_index(args):
    op = Operator.load(args.file)
    k = op.power_vanish_index(cap=args.cap)
    print(f"least k with R^k = 0: {k}" if k
          else f"no vanishing power up to cap {args.cap}")
    return EXIT_OK if k else EXIT_CHECK_FAILED, {"schema": 1, "power_vanish_index": k}


def cmd_case(args):
    spec = cat.case_preset(args.preset)
    report = cat.run_case(spec, _limits(args))
    print(report.to_text())
    code = (EXIT_OK if report.all_pass() else
            EXIT_RESOURCE if report.resource_limited else EXIT_CHECK_FAILED)
    return code, report.to_json()


def cmd_export_data(args):
    written = cat.export_data(args.directory)
    for path in written:
        print(path)
    return EXIT_OK, None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbu3",
        description="Exact verification of weight-zero Rota-Baxter operators "
                    "on 3x3 upper-triangular matrices.")
    sub = parser.add_subparsers(dest="command", required=True)
    json_opt = argparse.ArgumentParser(add_help=False)
    json_opt.add_argument("--json", metavar="PATH")
    limits_opt = argparse.ArgumentParser(add_help=False, parents=[json_opt])
    limits_opt.add_argument("--max-pairs", type=int, dest="max_pairs",
                            help="S-pairs per Groebner run")
    limits_opt.add_argument("--deadline", type=float,
                            help="wall-clock seconds for the whole command")

    p = sub.add_parser("verify-catalog", parents=[json_opt],
                       help="certify the family catalog")
    p.add_argument("--family", action="append", metavar="ID",
                   help="restrict to the given family ids")
    p.add_argument("--samples", type=int, default=0,
                   help="randomized closure trials per entry")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1, help="parallel worker cap")
    p.set_defaults(func=cmd_verify_catalog)

    p = sub.add_parser("check", parents=[json_opt],
                       help="check an operator file for the identity")
    p.add_argument("file")
    p.add_argument("--weight", metavar="Q")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("system", parents=[json_opt],
                       help="generate a case polynomial system")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", metavar="NAME")
    group.add_argument("--ansatz", metavar="FILE")
    p.set_defaults(func=cmd_system)

    p = sub.add_parser("gb", parents=[limits_opt],
                       help="reduced Groebner basis of a system file")
    p.add_argument("file")
    p.add_argument("--order", choices=("lex", "grevlex", "elim"))
    p.add_argument("--elim", type=int, metavar="K",
                   help="block size of --order elim (default 1)")
    p.set_defaults(func=cmd_gb)

    p = sub.add_parser("member", parents=[limits_opt],
                       help="ideal membership of a polynomial")
    p.add_argument("file", help="system file")
    p.add_argument("poly")
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("canonicalize", parents=[json_opt],
                       help="orbit form of a nilpotent or idempotent matrix")
    p.add_argument("matrix", help='matrix literal, e.g. "e12 + 2*e13"')
    p.set_defaults(func=cmd_canonicalize)

    p = sub.add_parser("conjugate", parents=[json_opt],
                       help="conjugate an operator by psi/theta")
    p.add_argument("file")
    p.add_argument("--theta", action="store_true")
    for f in fields(AutoParams):
        p.add_argument(f"--{f.name}", metavar="Q")
    p.set_defaults(func=cmd_conjugate)

    p = sub.add_parser("find-conj", parents=[limits_opt],
                       help="search for a conjugation witness")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--allow-theta", action="store_true", dest="allow_theta")
    p.add_argument("--no-scaling", action="store_false", dest="allow_scaling")
    p.set_defaults(func=cmd_find_conj)

    p = sub.add_parser("rb-index", parents=[json_opt],
                       help="least vanishing power of an operator")
    p.add_argument("file")
    p.add_argument("--cap", type=int, default=8)
    p.set_defaults(func=cmd_rb_index)

    p = sub.add_parser("case", parents=[limits_opt],
                       help="replay a classification case")
    p.add_argument("--preset", required=True, metavar="NAME")
    p.set_defaults(func=cmd_case)

    p = sub.add_parser("export-data", help="write the shipped data files")
    p.add_argument("directory")
    p.set_defaults(func=cmd_export_data)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # each command returns its exit code and its --json report, if any
        code, report = args.func(args)
        if report is not None and getattr(args, "json", None):
            write_json(args.json, report)
        return code
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitExceeded as exc:
        print(exc, file=sys.stderr)
        return EXIT_RESOURCE
    except (OSError, KeyError, ValueError) as exc:
        # input errors: a path that cannot be read or written, an unknown
        # name (a KeyError, whose text is its only argument) or a value the
        # input may not take
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}",
              file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
