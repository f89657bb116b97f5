"""Command-line interface.

JSON goes to stdout, human diagnostics to stderr, so every subcommand can be
piped.  Exit codes: 0 success, 1 usage error, 2 validation error (with the
witness on stderr), 3 internal-consistency failure (the LP and the
exhaustive scan disagreed, or an LP optimum failed its certificate).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import analysis, applications, catalog, construct, empirical
from .errors import ContextualityError, InternalConsistencyError, MalformedInput, UnknownLabel
from .scenario import parse_bell_token, party_label, section_values


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's default 2
        raise _UsageError(f"{self.prog}: {message}")


def _load_json(handle):
    try:
        return json.load(handle)
    except RecursionError:
        raise MalformedInput("JSON document is nested too deeply") from None


def _read_model(path):
    if path in (None, "-"):
        data = _load_json(sys.stdin)
    else:
        with open(path, "r", encoding="utf-8") as handle:
            data = _load_json(handle)
    return empirical.model_from_dict(data)


def _emit(obj) -> None:
    print(json.dumps(obj))


def _parse_bits(text: str) -> tuple[int, ...]:
    cleaned = text.replace(",", "").replace(" ", "")
    if cleaned.strip("01"):
        raise _UsageError(f"expected a bit string, got {text!r}")
    return tuple(int(ch) for ch in cleaned)


def _parse_hexbits(text: str) -> tuple[int, ...]:
    try:
        raw = bytes.fromhex(text if len(text) % 2 == 0 else "0" + text)
    except ValueError:
        raise _UsageError(f"expected hex digits, got {text!r}") from None
    return tuple(bit for byte in raw for bit in section_values(byte, 8))


def _parity_system_from_args(args) -> construct.ParitySystem:
    if getattr(args, "preset_file", None):
        with open(args.preset_file, "r", encoding="utf-8") as handle:
            return construct.parity_preset_from_dict(_load_json(handle))
    if args.parities is None:
        raise _UsageError("need --parities or --preset-file")
    bits = _parse_bits(args.parities)
    if args.scenario:
        s = parse_bell_token(args.scenario)
    else:
        # Infer a two-setting Bell scenario from the context count.
        n = len(bits).bit_length() - 1
        if not bits or 1 << n != len(bits):
            raise _UsageError(
                f"cannot infer a scenario from {len(bits)} parities; pass --scenario"
            )
        s = parse_bell_token(f"bell-{n}-2-2")
    return construct.parity_system(s, bits)


def _context_index_from_bits(scenario, bits):
    labels = tuple(
        party_label(i + 1, bit) for i, bit in enumerate(bits)
    )
    for c, ctx in enumerate(scenario.contexts):
        if ctx == labels:
            return c
    raise UnknownLabel(f"no context with setting bits {''.join(map(str, bits))}")


# --- subcommand handlers -----------------------------------------------------


def _cmd_classify(args) -> int:
    model = _read_model(args.model)
    report = analysis.classify(model)
    _emit(report.to_dict(include_avn=not args.no_avn))
    return 0


def _cmd_cf(args) -> int:
    model = _read_model(args.model)
    print(empirical.format_rational(analysis.contextual_fraction(model)))
    return 0


def _cmd_catalog(args) -> int:
    if args.name not in catalog.CATALOG:
        raise _UsageError(
            f"unknown catalog model {args.name!r}; available: {sorted(catalog.CATALOG)}"
        )
    constructor, takes_bits = catalog.CATALOG[args.name]
    if takes_bits:
        model = constructor(args.alpha, args.beta, args.gamma)
    else:
        if (args.alpha, args.beta, args.gamma) != (0, 0, 0):
            raise _UsageError(f"{args.name} takes no --alpha/--beta/--gamma flags")
        model = constructor()
    payload = empirical.model_to_dict(model)
    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
            handle.write("\n")
        print(f"wrote {args.name} to {args.emit}", file=sys.stderr)
    else:
        _emit(payload)
    return 0


def _cmd_parity(args) -> int:
    ps = _parity_system_from_args(args)
    consistent, payload = construct.parity_consistent(ps)
    out = dict(construct.parity_preset_to_dict(ps))
    out["consistent"] = consistent
    if consistent:
        out["solution"] = list(payload)
    else:
        out["certificate"] = list(payload)
    lift = empirical.lift_uniform(construct.parity_to_possibilistic(ps))
    if args.classify:
        out["classification"] = analysis.classify(lift).to_dict(include_avn=False)
    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as handle:
            json.dump(empirical.model_to_dict(lift), handle)
            handle.write("\n")
        print(f"wrote uniform lift to {args.emit}", file=sys.stderr)
    _emit(out)
    return 0


def _cmd_enumerate_parity(args) -> int:
    s = parse_bell_token(args.scenario)
    report = construct.enumerate_parity(s, jobs=args.jobs)
    if args.stream:
        for v in report.to_dict(include_verdicts=True)["verdicts"]:
            _emit(v)
    _emit(report.to_dict())
    return 0


def _cmd_enumerate_csp(args) -> int:
    base, extendable = construct.csp_extension_preset(args.preset)
    report = construct.csp_enumerate_extension(
        base, extendable, jobs=args.jobs, collect=args.stream
    )
    if args.stream:
        for cand in report.passing:
            model = construct.candidate_model(base.scenario, cand.support_masks)
            _emit(
                {
                    "index": cand.index,
                    "tables": empirical.possibilistic_to_dict(model)["tables"],
                }
            )
    _emit(report.to_dict())
    return 0


def _cmd_scan_eight(args) -> int:
    grid = [empirical.parse_rational(v) for v in args.grid.split(",")]
    fixed = {}
    for token in args.fix or ():
        key, _, value = token.partition("=")
        if not value:
            raise _UsageError(f"--fix expects i=value, got {token!r}")
        fixed[int(key)] = empirical.parse_rational(value)
    report = construct.scan_eight_param(grid, fixed)
    payload = report.to_dict(include_points=args.stream)
    if args.stream:
        for point in payload.pop("cf"):
            _emit(point)
    _emit(payload)
    return 0


def _cmd_entropy(args) -> int:
    model = _read_model(args.model)
    bits = _parse_bits(args.context)
    c = _context_index_from_bits(model.scenario, bits)
    subset = tuple(x for x in args.subset.split(",") if x)
    report = applications.min_entropy(model, c, subset)
    _emit(report.to_dict())
    return 0


def _cmd_secret_share(args) -> int:
    ps = _parity_system_from_args(args)
    result = applications.secret_share_simulate(
        ps,
        _parse_hexbits(args.secret),
        rounds=args.rounds,
        test_fraction=empirical.parse_rational(args.test_fraction),
        seed=args.seed,
    )
    sys.stdout.write(result.transcript())
    return 0


# --- parser ------------------------------------------------------------------

_JOBS_HELP = "worker processes, capped at the CPU count; results do not depend on N"


def build_parser() -> _Parser:
    parser = _Parser(prog="amcc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="full contextuality classification of a model")
    p.add_argument("model", nargs="?", help="model JSON path (default: stdin)")
    p.add_argument("--no-avn", action="store_true", help="omit the zero-constraint certificate")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("cf", help="contextual fraction of a model, as an exact rational")
    p.add_argument("model", nargs="?", help="model JSON path (default: stdin)")
    p.set_defaults(handler=_cmd_cf)

    p = sub.add_parser("catalog", help="emit a named fixture model")
    p.add_argument("name", help=f"one of {sorted(catalog.CATALOG)}")
    p.add_argument("--alpha", type=int, default=0)
    p.add_argument("--beta", type=int, default=0)
    p.add_argument("--gamma", type=int, default=0)
    p.add_argument("--emit", metavar="PATH", help="write the model JSON to PATH")
    p.set_defaults(handler=_cmd_catalog)

    p = sub.add_parser("parity", help="build and decide a per-context parity system")
    p.add_argument("--scenario", metavar="BELL", help='e.g. "bell-3-2-2"')
    p.add_argument("--parities", metavar="BITS", help='e.g. "01111111"')
    p.add_argument("--preset-file", metavar="PATH", help="parity preset JSON file")
    p.add_argument("--classify", action="store_true", help="classify the uniform lift")
    p.add_argument("--emit", metavar="PATH", help="write the uniform lift model to PATH")
    p.set_defaults(handler=_cmd_parity)

    p = sub.add_parser("enumerate", help="exhaustive construction experiments")
    esub = p.add_subparsers(dest="experiment", required=True)

    e = esub.add_parser("parity", help="classify every parity vector of a scenario")
    e.add_argument("--scenario", required=True, metavar="BELL")
    e.add_argument("--jobs", type=int, default=1, metavar="N", help=_JOBS_HELP)
    e.add_argument("--stream", action="store_true", help="one verdict JSON per line")
    e.set_defaults(handler=_cmd_enumerate_parity)

    e = esub.add_parser("csp", help="scan support extensions for no-signaling + unsatisfiability")
    e.add_argument("--preset", default="eq40")
    e.add_argument("--jobs", type=int, default=1, metavar="N", help=_JOBS_HELP)
    e.add_argument("--stream", action="store_true", help="one passing candidate per line")
    e.set_defaults(handler=_cmd_enumerate_csp)

    p = sub.add_parser("scan", help="contextual fraction over parameter grids")
    ssub = p.add_subparsers(dest="family", required=True)

    e = ssub.add_parser("eight-param", help="scan the symmetric 8-parameter family")
    e.add_argument("--grid", required=True, metavar="V1,V2,...", help="values for unfixed parameters")
    e.add_argument("--fix", action="append", metavar="I=V", help="pin parameter I (1..8) to V")
    e.add_argument("--stream", action="store_true", help="one grid point per line")
    e.set_defaults(handler=_cmd_scan_eight)

    p = sub.add_parser("entropy", help="guessing probability and min-entropy of a marginal")
    p.add_argument("model", nargs="?", help="model JSON path (default: stdin)")
    p.add_argument("--context", required=True, metavar="BITS", help='setting bits, e.g. "000"')
    p.add_argument("--subset", required=True, metavar="LABELS", help='e.g. "X1,X2"')
    p.set_defaults(handler=_cmd_entropy)

    p = sub.add_parser("secret-share", help="simulate the dealer-key sharing protocol")
    p.add_argument("--scenario", metavar="BELL")
    p.add_argument("--parities", metavar="BITS")
    p.add_argument("--preset-file", metavar="PATH")
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--test-fraction", required=True, metavar="Q", help='e.g. "1/5"')
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--secret", required=True, metavar="HEX", help="secret bits as hex digits")
    p.set_defaults(handler=_cmd_secret_share)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3
    except ContextualityError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream closed the stream (e.g. piping into head); silence the
        # shutdown flush instead of reporting an error.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
        print(f"validation error: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
