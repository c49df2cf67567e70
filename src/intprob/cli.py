"""Command-line interface.

Subcommands: transform, geometry, verify, decide, random. Inputs are
JSON documents holding either a mass function ("masses" key) or an
interval system ("lower"/"upper" keys); the kind is auto-detected.
Exit codes: 0 ok, 1 parse error, 2 domain error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import geometry, intervals, transforms, verify
from .belief import MassFunction, random_mass
from .frame import Frame, FrameSizeError

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_DOMAIN = 2
EXIT_VERIFY = 3


class ParseError(ValueError):
    pass


def _load_document(path: str):
    """Return a MassFunction or IntervalSystem, by document shape."""
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        if "masses" in doc:
            return MassFunction.from_json(doc)
        if "lower" in doc and "upper" in doc:
            return intervals.IntervalSystem.from_json(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed document {path}: {exc}") from exc
    raise ParseError(f"{path}: neither a mass function nor an interval system")


def _emit(doc: dict, output: str | None) -> None:
    text = json.dumps(doc, indent=2)
    if output:
        with open(output, "w") as handle:
            handle.write(text + "\n")
        summary = {
            k: float(f"{v:.6g}") if isinstance(v, float) else v for k, v in doc.items()
        }
        print(json.dumps(summary))
    else:
        print(text)


MASS_TRANSFORMS = {
    "intersection",
    "relative_uncertainty",
    "pignistic",
    "relative_belief",
    "relative_plausibility",
    "prpl",
    "prbel",
    "prnpl",
    "prapl",
}
INTERVAL_TRANSFORMS = {"intersection", "relative_uncertainty", "prapl_interval"}
TRANSFORM_NAMES = sorted(MASS_TRANSFORMS | INTERVAL_TRANSFORMS)


def _apply_transform(obj, name: str) -> transforms.Distribution:
    if isinstance(obj, intervals.IntervalSystem):
        if name not in INTERVAL_TRANSFORMS:
            raise ValueError(
                f"transform {name!r} needs a mass function, not a bare interval system"
            )
        if name == "intersection":
            return transforms.intersection_probability(obj)
        if name == "relative_uncertainty":
            return transforms.relative_uncertainty(obj)
        return transforms.pra_pl_interval(obj)
    if name not in MASS_TRANSFORMS:
        raise ValueError(f"unknown transform {name!r} for a mass function")
    m = obj
    if name == "intersection":
        return transforms.intersection_probability(intervals.from_belief(m))
    if name == "relative_uncertainty":
        return transforms.relative_uncertainty(intervals.from_belief(m))
    if name == "pignistic":
        return transforms.pignistic(m)
    if name == "relative_belief":
        return transforms.relative_belief(m)
    if name == "relative_plausibility":
        return transforms.relative_plausibility(m)
    sudano_name = {"prpl": "PrPl", "prbel": "PrBel", "prnpl": "PrNPl", "prapl": "PraPl"}
    return transforms.sudano(m, sudano_name[name])


def cmd_transform(args) -> int:
    obj = _load_document(args.input)
    result = _apply_transform(obj, args.transform)
    _emit(result.to_json(), args.output)
    return EXIT_OK


def cmd_geometry(args) -> int:
    obj = _load_document(args.input)
    if not isinstance(obj, MassFunction):
        raise ValueError("geometry export needs a mass-function document")
    if obj.frame.size > 8:
        raise FrameSizeError("geometry export enumerates orderings; frame too large")
    _emit(geometry.export_document(obj), args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    reports = verify.run_all(seed=args.seed, trials=args.trials, max_n=args.max_n)
    failed = [r for r in reports if not r.passed]
    for report in reports:
        print(report.to_jsonl())
    if failed:
        for report in failed:
            print(
                f"FAILED {report.theorem}: residual {report.max_residual:.6g} "
                f"> {report.tolerance:.6g}"
                + (f" counterexample {json.dumps(report.counterexample)}"
                   if report.counterexample else ""),
                file=sys.stderr,
            )
        return EXIT_VERIFY
    return EXIT_OK


def cmd_decide(args) -> int:
    obj = _load_document(args.input)
    try:
        with open(args.utilities) as handle:
            utilities = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read {args.utilities}: {exc}") from exc
    if not isinstance(utilities, dict) or not all(
        isinstance(payoffs, dict) for payoffs in utilities.values()
    ):
        raise ParseError(
            f"malformed utilities {args.utilities}: need an object mapping "
            "each option to an object of payoffs by label"
        )
    if not utilities:
        raise ValueError("utilities name no options to choose from")
    dist = _apply_transform(obj, args.transform)
    labels = dist.frame.labels
    ranking = []
    for option in sorted(utilities):
        payoffs = utilities[option]
        missing = [x for x in labels if x not in payoffs]
        if missing:
            raise ValueError(f"option {option!r} is missing payoffs for {missing}")
        eu = sum(dist.value(x) * float(payoffs[x]) for x in labels)
        ranking.append((option, eu))
    ranking.sort(key=lambda pair: (-pair[1], pair[0]))
    for option, eu in ranking:
        print(f"{option} {eu:.6g}")
    print(f"chosen: {ranking[0][0]}")
    return EXIT_OK


def cmd_random(args) -> int:
    frame = Frame(tuple(f"e{i}" for i in range(args.n)))
    m = random_mass(frame, seed=args.seed, profile=args.profile)
    _emit(m.to_json(), args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intprob",
        description="Belief-function transforms, credal geometry and theorem checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="apply a probability transform to a document")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.add_argument("--transform", required=True, choices=TRANSFORM_NAMES)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("geometry", help="export the credal picture of a mass function")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_geometry)

    p = sub.add_parser("verify", help="run the theorem-verification suite")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--max-n", type=int, default=4, dest="max_n")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("decide", help="rank options by expected utility")
    p.add_argument("--input", required=True)
    p.add_argument("--utilities", required=True)
    p.add_argument("--transform", default="intersection", choices=TRANSFORM_NAMES)
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("random", help="generate a seeded random mass function")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--profile", default="dense")
    p.add_argument("--output")
    p.set_defaults(func=cmd_random)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        code = EXIT_PARSE
    except (ValueError, KeyError) as exc:
        print(f"domain error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        code = EXIT_DOMAIN
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
