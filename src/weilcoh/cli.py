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

Exit codes: 0 success, 1 a verdict failed, 2 invalid arguments,
3 resource-cap abort.  A document is emitted even on failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .fock import direct_cohomology_dims
from .koszul import (
    ci_hilbert,
    ideal_quotient_dims,
    named_sequence,
    regular_sequence_check,
)
from .linalg import DEFAULT_MAX_ENTRIES, ResourceCapError, entry_cap
from .polyring import FockRing
from .spectral import e1_dims, einf_and_converge, unregrade
from .verify import SUITES, run_suite

__all__ = ["main"]


def _cell(ell, degree, dim):
    return {"ell": ell, "degree": degree, "dim": dim, "stabilized": True}


def _page_cells(dims):
    """The cells of a {(p, q): dim} page, in (p, q) order."""
    return [_cell(*unregrade(p, q), dim)
            for (p, q), dim in sorted(dims.items())]


def _parse_ell(text, n):
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
    else:
        lo = hi = int(text)
    if not (0 <= lo <= hi <= n):
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
        rep = direct_cohomology_dims(ring, args.part, ell, args.max_degree)
        doc["tables"].append({
            "name": "cohomology part=%s ell=%d" % (args.part, ell),
            "cells": [_cell(ell, t, rep.dims[t])
                      for t in range(args.max_degree + 1)],
        })


def _cmd_e1(args, doc):
    page = e1_dims(FockRing(args.n, args.k), args.part, args.max_degree)
    doc["tables"].append({"name": "E1 part=%s" % args.part,
                          "cells": _page_cells(page.dims)})


def _cmd_pages(args, doc):
    rep = einf_and_converge(FockRing(args.n, args.k), args.part,
                            args.max_degree)
    doc["tables"].append({
        "name": "Einf part=%s r=%d" % (args.part, rep.r_max),
        "cells": _page_cells(rep.einf.dims),
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
    doc["verdicts"].extend(run_suite(args.suite, args.n, args.k, args.seed))


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


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="weilcoh",
        description="Exact cohomology tables for the relative cochain "
                    "complex of so(n,1) with polynomial coefficients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, n=True, k=True, part=False, degree=False):
        if n:
            p.add_argument("--n", type=int, default=2)
        if k:
            p.add_argument("--k", type=int, default=1)
        if part:
            p.add_argument("--part", choices=("plus", "minus", "full"),
                           default="full")
        if degree:
            p.add_argument("--max-degree", type=int, default=4)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--max-entries", type=int,
                       default=DEFAULT_MAX_ENTRIES,
                       help="entry cap of each elimination "
                            "(default %(default)s)")

    p = sub.add_parser("cohom", help="direct graded cohomology dims")
    common(p, part=True, degree=True)
    p.add_argument("--ell", default="0..0",
                   help="single level or range a..b")
    p.set_defaults(func=_cmd_cohom)

    p = sub.add_parser("e1", help="first spectral page")
    common(p, part=True, degree=True)
    p.set_defaults(func=_cmd_e1)

    p = sub.add_parser("pages", help="E-infinity and convergence report")
    common(p, part=True, degree=True)
    p.set_defaults(func=_cmd_pages)

    p = sub.add_parser("koszul", help="regularity and quotient dims")
    common(p, degree=True)
    p.add_argument("--model", choices=("q", "c", "w"), default="q")
    p.set_defaults(func=_cmd_koszul)

    p = sub.add_parser("hilbert", help="closed-form Hilbert series")
    common(p, degree=True)
    p.add_argument("--model", choices=tuple(HILBERT_MODELS),
                   default="cminus")
    p.set_defaults(func=_cmd_hilbert)

    p = sub.add_parser("verify", help="bundled exact-check suites")
    common(p)
    p.add_argument("--suite", choices=tuple(SUITES) + ("all",),
                   default="all")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)
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
    parser = _build_parser()
    args = parser.parse_args(argv)
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
