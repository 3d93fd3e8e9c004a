"""Command-line front end: mnv.

Each subcommand is declared once, in ``build_parser``: its arguments sit
next to ``set_defaults(run=handler)``, and the parser is built once per
process.  Exit codes are the machine contract: 0 success / all checks pass,
1 check failure, 2 usage or parse error, 3 cap refusal.  Reports are
deterministic under identical seeds; there is no environment-variable
configuration.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import __version__
from .families import SetFamily, is_acyclic_with_slack
from .formats import (FORMAT_VERSIONS, ParseError, load_path, parse_family,
                      write_betti, write_complex, write_family, write_poset)
from .homology import reduced_betti
from .leray import CapExceeded, format_leray, j_index, leray_number
from .nerve import multinerve, nerve, reduced_multinerve
from .poset import PosetError, SimplicialComplex, barycentric_subdivision
from .verify import (BoundReport, PreconditionError, helly_number,
                     instance_id, random_family, verify_helly_bound,
                     verify_multinerve_theorem, verify_projection_bound)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _load_space(args: argparse.Namespace):
    obj = load_path(args.input)
    if isinstance(obj, SetFamily):
        raise ParseError(args.input, 1, f"{args.command} expects a poset or complex file")
    return obj


def _load_family(args: argparse.Namespace) -> SetFamily:
    with open(args.input, "r", encoding="utf-8") as fh:
        return parse_family(fh.read(), args.input, gamma_dim_override=args.gamma_dim)


def _tag_lines(lp) -> list[str]:
    tags = []
    for tag in lp.tags:
        a = ",".join(str(i) for i in tag.subset)
        c = "-" if tag.component is None else str(tag.component.canon)
        tags.append(f"A={a} C={c}")
    return tags


def _at_least(low: int):
    """argparse type: an int that is at least ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in its "invalid" message
    return parse


def _homology(args) -> None:
    _emit(write_betti(reduced_betti(_load_space(args))), args.out)


def _sd(args) -> None:
    X = _load_space(args)
    if isinstance(X, SimplicialComplex):
        X = X.as_poset()
    _emit(write_complex(barycentric_subdivision(X)), args.out)


def _index(args) -> None:
    index = leray_number if args.command == "leray" else j_index
    rep = index(_load_space(args), cap=args.cap, sample=args.sample,
                seed=args.seed)
    _emit(format_leray(rep, kind=args.command), args.out)


def _nerve(args) -> None:
    _emit(write_complex(nerve(_load_family(args))), args.out)


def _multinerve(args) -> None:
    F = _load_family(args)
    if args.t is None:
        lp = multinerve(F)
    else:
        lp, _ = reduced_multinerve(F, args.t)
    _emit(write_poset(lp.poset, labels=_tag_lines(lp)), args.out)


def _helly(args) -> None:
    F = _load_family(args)
    res = helly_number(F, cap=args.cap)
    q = {"h": res.h, "witness": ",".join(map(str, res.witness))}
    _emit(BoundReport(instance_id(F), q, checks=None).render(), args.out)


def _check_acyclic(args) -> int:
    F = _load_family(args)
    ok, viol = is_acyclic_with_slack(F, args.s)
    q = {"s": args.s, "acyclic_with_slack": "true" if ok else "false"}
    if viol is not None:
        q["violation_subset"] = ",".join(map(str, viol.subset))
        q["violation_dim"] = viol.dim
    _emit(BoundReport(instance_id(F), q, checks=None).render(), args.out)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _verify(args) -> int:
    if args.what == "multinerve" and args.s is None:
        build_parser().error("verify multinerve requires --s")
    F = _load_family(args)
    if args.what == "multinerve":
        report = verify_multinerve_theorem(F, args.s)
    elif args.what == "projection":
        report = verify_projection_bound(F, t=args.t, s=args.s, cap=args.cap)
    else:
        report = verify_helly_bound(F, s=args.s if args.s is not None else 0,
                                    t=args.t, cap=args.cap)
    if args.out:
        # report files are append-only, keyed by the embedded instance
        # hash; failed instances are archived with their full input
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(report.render() + "\n")
        if not report.all_pass:
            archive = Path(args.out).parent / f"{report.instance}.family"
            archive.write_text(write_family(F), encoding="utf-8")
    else:
        sys.stdout.write(report.render())
    return EXIT_OK if report.all_pass else EXIT_CHECK_FAILED


def _gen(args) -> None:
    F = random_family(args.backend, args.n, args.seed,
                      ambient_dim=args.ambient_dim,
                      boxes_per_member=args.boxes_per_member,
                      grid=args.grid,
                      stars_per_member=args.stars_per_member,
                      with_ring=args.with_ring)
    _emit(write_family(F), args.out)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mnv",
        description="multinerves, exact homology, Leray numbers, Helly bounds")
    p.add_argument("--version", action="version",
                   version=f"mnv {__version__} (formats: {' '.join(FORMAT_VERSIONS)})")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("homology", help="reduced Betti numbers of a poset or complex")
    sp.set_defaults(run=_homology)
    sp.add_argument("input")

    sp = sub.add_parser("sd", help="barycentric subdivision of a poset")
    sp.set_defaults(run=_sd)
    sp.add_argument("input")

    for name in ("leray", "j-index"):
        sp = sub.add_parser(name, help=f"{name} of a poset or complex")
        sp.set_defaults(run=_index)
        sp.add_argument("input")
        sp.add_argument("--cap", type=_at_least(0), default=16)
        sp.add_argument("--sample", type=_at_least(0), default=None,
                        help="sampling mode: lower bound from N random draws")
        sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("nerve", help="nerve of a family")
    sp.set_defaults(run=_nerve)
    sp.add_argument("input")
    sp.add_argument("--gamma-dim", type=_at_least(0), default=None)

    sp = sub.add_parser("multinerve", help="multinerve (or reduced multinerve) of a family")
    sp.set_defaults(run=_multinerve)
    sp.add_argument("input")
    sp.add_argument("--t", type=_at_least(1), default=None,
                    help="merge threshold: build the reduced multinerve")
    sp.add_argument("--gamma-dim", type=_at_least(0), default=None)

    sp = sub.add_parser("helly", help="Helly number of a family with empty intersection")
    sp.set_defaults(run=_helly)
    sp.add_argument("input")
    sp.add_argument("--cap", type=_at_least(0), default=16)
    sp.add_argument("--gamma-dim", type=_at_least(0), default=None)

    sp = sub.add_parser("check-acyclic", help="test acyclicity with slack")
    sp.set_defaults(run=_check_acyclic)
    sp.add_argument("input")
    sp.add_argument("--s", type=_at_least(0), required=True)
    sp.add_argument("--gamma-dim", type=_at_least(0), default=None)

    sp = sub.add_parser("verify", help="check the multinerve/projection/Helly bounds on an instance")
    sp.set_defaults(run=_verify)
    sp.add_argument("what", choices=["multinerve", "projection", "helly"])
    sp.add_argument("input")
    sp.add_argument("--s", type=_at_least(0), default=None)
    sp.add_argument("--t", type=_at_least(1), default=1)
    sp.add_argument("--cap", type=_at_least(0), default=16)
    sp.add_argument("--gamma-dim", type=_at_least(0), default=None)

    sp = sub.add_parser("gen", help="generate a reproducible random family")
    sp.set_defaults(run=_gen)
    sp.add_argument("--backend", choices=["box", "subcomplex"], required=True)
    sp.add_argument("--n", type=_at_least(1), required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--ambient-dim", type=_at_least(1), default=1)
    sp.add_argument("--boxes-per-member", type=_at_least(0), default=2)
    sp.add_argument("--grid", type=_at_least(1), default=4)
    sp.add_argument("--stars-per-member", type=_at_least(0), default=2)
    sp.add_argument("--with-ring", action="store_true")

    # every subcommand ends with --out
    for sp in sub.choices.values():
        sp.add_argument("--out", help="write output here instead of stdout")
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a handler writes its output and returns its exit code, or None
        return args.run(args) or EXIT_OK
    except CapExceeded as e:
        hint = " or use sampling mode" if "sample" in args else ""
        print(f"mnv: {e}; raise --cap{hint}", file=sys.stderr)
        return EXIT_CAP
    except (ParseError, PosetError, OSError, UnicodeDecodeError,
            PreconditionError) as e:
        print(f"mnv: {e}", file=sys.stderr)
        return EXIT_CHECK_FAILED if isinstance(e, PreconditionError) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
