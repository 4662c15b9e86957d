"""Command-line front end.

Subcommands map one-to-one onto library entry points:

    cohom    direct graded cohomology dimensions
    e1       first page of the polynomial-degree spectral sequence
    pages    E_infinity and its comparison with the graded cohomology
    koszul   regularity certificate and quotient dimensions for a
             named sequence
    hilbert  complete-intersection Hilbert series for a named model:
             each model is the quotient by a koszul sequence, or the
             ring that sequence lives in --
                 cminus  S_k/(c_1..c_k)          (koszul model c)
                 aquot   P_k/(q_1..q_n)          (koszul model q; k >= n)
                 rk      S_k/(what_1..what_k)    (koszul model w)
                 sk      S_k                     (the ring of model w)
    verify   bundled exact-check suites

JSON is the canonical output (schema "weilcoh/1"); CSV is a lossy
projection of the tables.  With a fixed seed the output is byte-identical
across runs apart from the "timing" field.

Every cell carries "stabilized": true, and the CSV column of that name
always reads true: the truncation of the degree window is exact by the
descent lemma of weilcoh.fock, so no cell rests on a sampled
truncation.  The key stays so that the weilcoh/1 schema is unchanged.

The options of each subcommand are rows of one table, COMMANDS.  A
well-formed line, <command> (--flag value)* with exact flags, is read
from that table alone; argparse is imported and its parser built from
the same table only for help and for any other line, so it writes every
help and usage-error text.

Exit codes: 0 success, 1 a verdict failed, 2 invalid arguments (a usage
error or a ValueError), 3 resource-cap abort.  Exits 0, 1 and 3 emit a
document, a capped run with the tables and verdicts that finished before
the cap; exit 2 emits none, and its message goes to stderr.  An e1 run
whose Koszul table fails its regularity certificate (k < n) exits 1 with
that failed verdict and no table, as koszul reports the same failure.
"""

from __future__ import annotations

import json
import sys
import time
from types import SimpleNamespace

from .fock import direct_cohomology_dims
from .koszul import (
    ci_hilbert,
    ideal_quotient_dims,
    named_sequence,
    regular_sequence_check,
)
from .linalg import DEFAULT_MAX_ENTRIES, ResourceCapError, entry_cap
from .polyring import FockRing
from .spectral import IrregularSequenceError, e1_dims, einf_and_converge, \
    regrade
from .verify import SUITES

__all__ = ["main"]


def _cell(ell, degree, dim):
    return {"ell": ell, "degree": degree, "dim": dim, "stabilized": True}


def _page_cells(dims):
    """The cells of an {(ell, degree): dim} page, in the (p, q) order of
    the paper's bigrading."""
    return [_cell(ell, t, dims[ell, t])
            for ell, t in sorted(dims, key=lambda cell: regrade(*cell))]


def _parse_ell(text, n):
    lo, dots, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi if dots else lo)
    except ValueError:
        raise ValueError("--ell must be a level or a range a..b: %s"
                         % text) from None
    if lo > hi:
        raise ValueError("--ell range a..b needs a <= b: %s" % text)
    if not (0 <= lo and hi <= n):
        raise ValueError("--ell out of range 0..%d: %s" % (n, text))
    return range(lo, hi + 1)


# hilbert model -> (koszul model, quotient by its sequence?), as in the
# module docstring
HILBERT_MODELS = {
    "cminus": ("c", True),
    "aquot": ("q", True),
    "rk": ("w", True),
    "sk": ("w", False),
}


def _hilbert_series(args):
    """The complete-intersection series of a hilbert model (HILBERT_MODELS)
    through degree --max-degree."""
    model, quotient = HILBERT_MODELS[args.model]
    if args.model == "aquot" and args.k < args.n:
        # the q_alpha lie in (w_1..w_k), of height k < n
        raise ValueError("hilbert --model aquot needs k >= n: q_1..q_n is "
                         "not a regular sequence for k < n (koszul --model q "
                         "computes its quotient dims)")
    spec = named_sequence(model, args.n, args.k)
    return ci_hilbert(spec.ring.weights, spec.degrees if quotient else (),
                      args.max_degree)


def _cmd_cohom(args, doc):
    ring = FockRing(args.n, args.k)
    for ell in _parse_ell(args.ell, args.n):
        dims = direct_cohomology_dims(ring, args.part, ell, args.max_degree)
        doc["tables"].append({
            "name": "cohomology part=%s ell=%d" % (args.part, ell),
            "cells": [_cell(ell, t, dims[t])
                      for t in range(args.max_degree + 1)],
        })


def _cmd_e1(args, doc):
    try:
        page = e1_dims(FockRing(args.n, args.k), args.part, args.max_degree)
    except IrregularSequenceError as exc:
        # the page is read off a quotient only when its sequence passes
        doc["verdicts"].append({
            "name": "regular sequence model=%s through degree %d"
            % (exc.model, exc.window),
            "pass": False,
            "detail": "failure degrees %s" % exc.failures,
        })
        return
    doc["tables"].append({"name": "E1 part=%s" % args.part,
                          "cells": _page_cells(page)})


def _cmd_pages(args, doc):
    rep = einf_and_converge(FockRing(args.n, args.k), args.part,
                            args.max_degree)
    doc["tables"].append({
        "name": "Einf part=%s r=%d" % (args.part, rep.r_max),
        "cells": _page_cells(rep.einf),
    })
    doc["tables"].append({
        "name": "graded cohomology part=%s" % args.part,
        "cells": _page_cells(rep.gr_dims),
    })
    doc["verdicts"].append({
        "name": "Einf matches graded cohomology",
        "pass": rep.ok,
        "detail": "agreements %d, mismatches %s" % (
            rep.agreements, rep.mismatches),
    })


def _cmd_koszul(args, doc):
    spec = named_sequence(args.model, args.n, args.k)
    D = args.max_degree
    hilb = ideal_quotient_dims(spec, D)
    cert = regular_sequence_check(spec, hilb)
    doc["verdicts"].append({
        "name": "regular sequence through degree %d" % D,
        "pass": cert.regular,
        "detail": "failure degrees %s" % cert.failure_degree
        if not cert.regular else "",
    })
    quo = hilb[-1]
    doc["tables"].append({
        "name": "quotient dims model=%s" % args.model,
        "cells": [_cell(len(spec.sequence), t, quo[t])
                  for t in range(D + 1)],
    })


def _cmd_hilbert(args, doc):
    coeffs = _hilbert_series(args)
    doc["tables"].append({
        "name": "hilbert model=%s" % args.model,
        "cells": [_cell(0, t, c) for t, c in enumerate(coeffs)],
    })


def _cmd_verify(args, doc):
    names = SUITES if args.suite == "all" else (args.suite,)
    for name in names:
        doc["verdicts"].extend(SUITES[name](args.n, args.k, args.seed))


def _emit(doc, fmt, elapsed):
    out = sys.stdout
    doc["timing"] = elapsed
    if fmt == "json":
        json.dump(doc, out, indent=2, sort_keys=True)
        out.write("\n")
    else:
        out.write("table,ell,degree,dim,stabilized\n")
        for table in doc["tables"]:
            for c in table["cells"]:
                out.write("%s,%d,%d,%d,%s\n" % (
                    table["name"].replace(",", ";"), c["ell"], c["degree"],
                    c["dim"], str(c["stabilized"]).lower()))


_N = ("--n", int, None, 2, None)
_K = ("--k", int, None, 1, None)
_PART = ("--part", str, ("plus", "minus", "full"), "full", None)
_MAX_DEGREE = ("--max-degree", int, None, 4, None)
_OUTPUT = (
    ("--format", str, ("json", "csv"), "json", None),
    ("--max-entries", int, None, DEFAULT_MAX_ENTRIES,
     "entry cap of each elimination (default %(default)s)"),
)

# subcommand -> (help, handler, options), each option a (flag, type,
# choices, default, help) row in the order --help lists them; _parse and
# _build_parser both read it
COMMANDS = {
    "cohom": ("direct graded cohomology dims", _cmd_cohom,
              (_N, _K, _PART, _MAX_DEGREE) + _OUTPUT + (
                  ("--ell", str, None, "0..0",
                   "single level or range a..b"),)),
    "e1": ("first spectral page", _cmd_e1,
           (_N, _K, _PART, _MAX_DEGREE) + _OUTPUT),
    "pages": ("E-infinity and convergence report", _cmd_pages,
              (_N, _K, _PART, _MAX_DEGREE) + _OUTPUT),
    "koszul": ("regularity and quotient dims", _cmd_koszul,
               (_N, _K, _MAX_DEGREE) + _OUTPUT + (
                   ("--model", str, ("q", "c", "w"), "q", None),)),
    "hilbert": ("closed-form Hilbert series", _cmd_hilbert,
                (_N, _K, _MAX_DEGREE) + _OUTPUT + (
                    ("--model", str, tuple(HILBERT_MODELS), "cminus",
                     None),)),
    "verify": ("bundled exact-check suites", _cmd_verify,
               (_N, _K) + _OUTPUT + (
                   ("--suite", str, tuple(SUITES) + ("all",), "all", None),
                   ("--seed", int, None, 0, None))),
}


def _dest(flag):
    return flag[2:].replace("-", "_")


def _parse(argv):
    """The arguments of a command line of the form <command> (--flag
    value)*, read from COMMANDS as argparse would read them, or None for
    any other line: help, an unknown or abbreviated flag, --flag=value, a
    value that starts with "-", a bad value.  argparse then reads the
    line and writes its help or error text."""
    if argv is None:
        argv = sys.argv[1:]
    if not argv or argv[0] not in COMMANDS or len(argv) % 2 == 0:
        return None
    _, func, options = COMMANDS[argv[0]]
    rows = {flag: (kind, choices) for flag, kind, choices, _, _ in options}
    args = {_dest(flag): default for flag, _, _, default, _ in options}
    for flag, text in zip(argv[1::2], argv[2::2]):
        if flag not in rows or text.startswith("-"):
            return None
        kind, choices = rows[flag]
        try:
            value = kind(text)
        except ValueError:
            return None
        if choices is not None and value not in choices:
            return None
        args[_dest(flag)] = value  # the last occurrence wins
    return SimpleNamespace(command=argv[0], func=func, **args)


def _build_parser():
    """The argparse parser of COMMANDS, for the lines _parse leaves."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="weilcoh",
        description="Exact cohomology tables for the relative cochain "
                    "complex of so(n,1) with polynomial coefficients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, func, options) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for flag, kind, choices, default, flag_help in options:
            p.add_argument(flag, type=kind, choices=choices,
                           default=default, help=flag_help)
        p.set_defaults(func=func)
    return parser


def _validate(args):
    if not (1 <= args.n <= 8):
        raise ValueError("--n must be in 1..8")
    if not (1 <= args.k <= 8):
        raise ValueError("--k must be in 1..8")
    D = getattr(args, "max_degree", None)
    if D is not None and D < 0:
        raise ValueError("--max-degree must be nonnegative")
    if args.max_entries <= 0:
        raise ValueError("--max-entries must be positive")


def main(argv=None):
    args = _parse(argv)
    if args is None:
        args = _build_parser().parse_args(argv)
    doc = {
        "schema": "weilcoh/1",
        "command": args.command,
        "params": {
            key: value for key, value in sorted(vars(args).items())
            if key not in ("func", "format", "max_entries")
            and value is not None
        },
        "tables": [],
        "verdicts": [],
    }
    start = time.monotonic()
    try:
        _validate(args)
        with entry_cap(args.max_entries):
            args.func(args, doc)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        doc["verdicts"].append({
            "name": "resource cap", "pass": False, "detail": str(exc),
        })
        _emit(doc, args.format, time.monotonic() - start)
        return 3
    _emit(doc, args.format, time.monotonic() - start)
    if any(not v["pass"] for v in doc["verdicts"]):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
