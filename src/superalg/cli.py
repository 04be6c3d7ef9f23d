"""Command-line interface.

Subcommands: family (emit an SDF file), check (identity residuals), series,
charseq, derivations, annihilator, invariants, catalog, errata, verify.
Exit codes: 0 success / all claims pass, 1 verification failure, 2 input or
write error, 141 stdout closed early.  SDF (a JSON document) is the single
interchange format; every subcommand that analyses an algebra consumes one.

Each run is a fresh process, so importing this module loads only `core`,
`exactmath` and `errors`; `families`, `derivations` and `verify` execute on
first use, by the subcommands that call them.  Of the standard library it
adds `argparse`, `json` and `fractions` (with what they import); the records
are NamedTuples, so no `dataclasses`, `inspect`, `ast`, `dis` or `tokenize`.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import os
import sys

from .core import (EVEN, MAX_BOUND, MAX_SAMPLES, ODD, char_sequence,
                   charseq_note, check_leibniz, check_lie, derived_series,
                   fingerprint, lower_central_series, right_annihilator,
                   sdf_dumps, sdf_loads)
from .errors import (DegenerateSamplingError, InputError, NotNilpotentError,
                     SuperalgError, shown)


def _lazy_submodule(name: str):
    """Package submodule `name`, whose code runs on first attribute access.

    It is registered in sys.modules and on the package, as an import would
    do, so every later import of it shares the one module object.
    """
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    setattr(sys.modules[__package__], name, module)
    spec.loader.exec_module(module)
    return module


families = _lazy_submodule("families")
derivations = _lazy_submodule("derivations")
verify = _lazy_submodule("verify")

# `derivations` prints every basis element as a dense dim x dim matrix; a
# larger payload (dim(space) * dim^2 entries) is refused before it is built.
MAX_PRINTED_ENTRIES = 2 ** 21


def _integer(what: str, raw: str) -> int:
    """raw as an int; the InputError names a long value by its length only."""
    try:
        return int(raw)
    except ValueError:   # also a literal over the int-string digit limit
        raise InputError(f"{what} must be an integer, got {shown(raw)}") from None


def _int_arg(raw: str) -> int:
    """The argparse type of integer options: `int`, with `shown` in the error."""
    try:
        return int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {shown(raw)}") from None


def _default_seed() -> int:
    return _integer("SUPERALG_SEED", os.environ.get("SUPERALG_SEED", "0"))


def _load_algebra(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:   # its text would repeat the path: give only strerror
        raise InputError(f"cannot read {shown(path)}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:   # its text would show the bytes
        raise InputError(f"cannot read {shown(path)}: not UTF-8 text at byte "
                         f"{exc.start}") from None
    return sdf_loads(text)


def _parse_params(pairs: list[str]) -> dict[str, object]:
    params: dict[str, object] = {}
    for pair in pairs:
        if "=" not in pair:
            raise InputError(f"--param expects name=value, got {shown(pair)}")
        name, _, raw = pair.partition("=")
        name = name.strip()
        raw = raw.strip()
        if name in params:
            raise InputError(f"--param {shown(name)} is given more than once")
        # `build` reads any other literal as it reads any parameter value.
        params[name] = _integer("t", raw) if name == "t" else raw
    return params


def _cmd_family(args) -> int:
    info = families.family_info(args.family_id)
    size = args.n if info.size_name == "n" else args.m
    wrong = args.m if info.size_name == "n" else args.n
    if size is None:
        raise InputError(f"{args.family_id} is sized by --{info.size_name}")
    if wrong is not None:
        raise InputError(f"{args.family_id} is sized by --{info.size_name}, "
                         f"not --{'m' if info.size_name == 'n' else 'n'}")
    params = _parse_params(args.param)
    if args.zeros:
        params = families.zero_filled(args.family_id, size, params)
    mode = families.CORRECTED if args.errata is None else args.errata
    algebra = families.build(args.family_id, size, params, mode)
    text = sdf_dumps(algebra)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    return 0


def _cmd_check(args) -> int:
    algebra = _load_algebra(args.file)
    residuals = check_leibniz(algebra) if args.identity == "leibniz" \
        else check_lie(algebra)
    if not residuals:
        print(f"{args.identity}: ok ({algebra.name}, "
              f"dims {algebra.n_even}|{algebra.n_odd})")
        return 0
    print(f"{args.identity}: {len(residuals)} residual(s) in {algebra.name}")
    for r in residuals:
        print(f"  {r}")
    return 1


def _cmd_series(args) -> int:
    algebra = _load_algebra(args.file)
    series = (lower_central_series(algebra) if args.type == "lower-central"
              else derived_series(algebra))
    for idx, term in enumerate(series, start=1):
        de, do = term.dims()
        print(f"term {idx}: dims {de}|{do}")
    last = series[-1]
    print("stabilizes at zero" if last.is_zero()
          else f"stabilizes at dims {last.dims()[0]}|{last.dims()[1]}")
    return 0


def _cmd_charseq(args) -> int:
    algebra = _load_algebra(args.file)
    even, odd = char_sequence(algebra, samples=args.samples, seed=args.seed,
                              bound=args.bound)
    note = charseq_note(algebra, (even, odd))
    print(f"characteristic sequence ({note}, seed={args.seed}, "
          f"samples={args.samples}): "
          f"({', '.join(map(str, even))} | {', '.join(map(str, odd))})")
    return 0


def _cmd_derivations(args) -> int:
    algebra = _load_algebra(args.file)
    degree = EVEN if args.degree == "even" else ODD
    space = derivations.derivation_space(algebra, degree)
    n = algebra.dim
    if (entries := space.dim * n * n) > MAX_PRINTED_ENTRIES:
        raise InputError(f"the {args.degree} derivation basis has {entries} matrix "
                         f"entries; at most MAX_PRINTED_ENTRIES = {MAX_PRINTED_ENTRIES} "
                         f"are printed")
    payload = {
        "degree": args.degree,
        "dim": space.dim,
        "basis": [[[str(cells.get((l, k), 0)) for k in range(n)] for l in range(n)]
                  for cells in space.cells],
    }
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_annihilator(args) -> int:
    algebra = _load_algebra(args.file)
    ann = right_annihilator(algebra)
    de, do = ann.dims()
    print(f"right annihilator dims {de}|{do}")
    for parity, part in zip(("even", "odd"), ann.parts):
        for _, row in part:
            print(f"  {parity}: " + " + ".join(f"{x}*{algebra.label(c)}" for c, x in row))
    return 0


def _cmd_invariants(args) -> int:
    algebra = _load_algebra(args.file)
    fp = fingerprint(algebra, seed=args.seed)
    note = None if fp.charseq is None else charseq_note(algebra, fp.charseq)
    print(json.dumps({**fp._asdict(), "charseq_note": note}, indent=2))
    return 0


def _cmd_catalog(args) -> int:
    print(json.dumps(families.list_families(), indent=2))
    return 0


def _cmd_errata(args) -> int:
    if args.family:
        families.family_info(args.family)  # an unknown id is an InputError
    lo, hi = args.sizes
    if max(-lo, hi) > families.MAX_SIZE:   # before the range is built
        raise InputError(f"errata sizes must be <= MAX_SIZE = {families.MAX_SIZE} in "
                         f"absolute value (got {shown(lo)}..{shown(hi)})")
    entries = families.errata_ledger(list(range(lo, hi + 1)))
    if args.family:
        entries = [e for e in entries if e.family == args.family]
    print(json.dumps([e._asdict() for e in entries], indent=2))
    return 0


def _cmd_verify(args) -> int:
    selected = None
    if args.claims != "all":
        prefixes = [c.strip() for c in args.claims.split(",") if c.strip()]
        selected = [cid for cid in verify.claim_ids()
                    if any(cid == p or cid.startswith(p) for p in prefixes)]
        if not selected:
            raise InputError(f"no claims match {shown(args.claims)}")
    # Opened before the claims run, so a path it cannot write fails at once;
    # with no --report the handle is None, and print writes to stdout.
    with open(args.report, "w", encoding="utf-8") if args.report \
            else contextlib.nullcontext() as handle:
        report = verify.run_claims(selected, args.n_range, args.seed)
        print(json.dumps(report.as_dict(), indent=2) if args.json
              else verify.render_text(report), file=handle)
    if args.report:
        summary = report.summary()
        print(f"report written to {args.report}: {summary['pass']} pass, "
              f"{summary['fail']} fail")
    return 0 if report.all_ok else 1


def _range_pair(text: str) -> tuple[int, int]:
    try:
        lo, _, hi = text.partition("..")
        pair = (int(lo), int(hi))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A..B, got {shown(text)}") from None
    if pair[0] > pair[1]:
        raise argparse.ArgumentTypeError(f"empty range {shown(text)}")
    return pair


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superalg",
        description="Exact construction and verification of the built-in "
                    "catalog of graded algebra families.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("family", help="build a catalog family and emit SDF")
    p.add_argument("family_id", help="a family id from `superalg catalog`")
    p.add_argument("--n", type=_int_arg, default=None)
    p.add_argument("--m", type=_int_arg, default=None)
    p.add_argument("--param", action="append", default=[],
                   metavar="NAME=VALUE")
    p.add_argument("--zeros", action="store_true",
                   help="set every unspecified parameter to 0")
    p.add_argument("--errata", default=None, metavar="MODE",
                   help="table transcription mode, checked by the builder "
                        "(default: the corrected tables)")
    p.add_argument("-o", "--output", default="-", metavar="FILE")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("check", help="evaluate an identity on an SDF algebra")
    p.add_argument("file")
    p.add_argument("--identity", choices=["leibniz", "lie"], default="leibniz")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("series", help="lower central or derived series dims")
    p.add_argument("file")
    p.add_argument("--type", choices=["lower-central", "derived"],
                   default="lower-central")
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("charseq", help="characteristic sequence, certified or sampled")
    p.add_argument("file")
    p.add_argument("--samples", type=_int_arg, default=64,
                   help="after the even basis vectors outside L0^2, draw "
                        "seeded vectors until dim L0 + SAMPLES candidates "
                        "(or 50 * (SAMPLES + 1) draws); default 64, "
                        f"at most {MAX_SAMPLES}")
    p.add_argument("--seed", type=_int_arg, default=None)
    p.add_argument("--bound", type=_int_arg, default=5,
                   help="coordinates are drawn from [-BOUND, BOUND]; "
                        f"default 5, at most {MAX_BOUND}")
    p.set_defaults(func=_cmd_charseq)

    p = sub.add_parser("derivations", help="superderivation space basis")
    p.add_argument("file")
    p.add_argument("--degree", choices=["even", "odd"], default="even")
    p.set_defaults(func=_cmd_derivations)

    p = sub.add_parser("annihilator", help="right annihilator basis")
    p.add_argument("file")
    p.set_defaults(func=_cmd_annihilator)

    p = sub.add_parser("invariants", help="fingerprint of an SDF algebra")
    p.add_argument("file")
    p.add_argument("--seed", type=_int_arg, default=None)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("catalog", help="the family catalog as JSON")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("errata", help="the errata ledger as JSON")
    p.add_argument("--family", default=None)
    p.add_argument("--sizes", type=_range_pair, default=(3, 8), metavar="A..B")
    p.set_defaults(func=_cmd_errata)

    p = sub.add_parser("verify", help="run the claim verification pipeline")
    p.add_argument("--claims", default="all",
                   help="comma-separated claim ids or prefixes (default: all)")
    p.add_argument("--n-range", type=_range_pair, default=None, metavar="A..B")
    p.add_argument("--report", default=None, metavar="PATH")
    p.add_argument("--json", action="store_true")
    p.add_argument("--seed", type=_int_arg, default=None)
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "seed") and args.seed is None:
            args.seed = _default_seed()
        status = args.func(args)
        sys.stdout.flush()   # so a closed pipe raises here, not at interpreter exit
        return status
    except BrokenPipeError:
        # The reader closed stdout: end quietly, as if killed by SIGPIPE, with
        # stdout on the null device so that the flush at exit cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except OSError as exc:
        # A write failed: `open` names an -o or --report path in
        # exc.filename, a failed write or close names none.  If stdout still
        # holds what it could not write, it goes to the null device, as above.
        try:
            sys.stdout.flush()
        except OSError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        target = "output" if exc.filename is None else shown(exc.filename)
        print(f"error: cannot write {target}: {exc.strerror}", file=sys.stderr)
        return 2
    except (InputError, NotNilpotentError, DegenerateSamplingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SuperalgError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
