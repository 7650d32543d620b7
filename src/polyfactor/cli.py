"""Command-line front-end.

Polynomials come in as expanded sparse text (see the grammar in parse.py);
--expand accepts a parenthesized product and multiplies it out client-side
first.  Results go to stdout as JSON (default) or text.  Exit codes: 0 on
success, 1 on usage/parse errors, 2 on contract violations (promise
violations and cap overruns).
"""

import argparse
import json
import sys

from .config import Config, DEFAULT
from .errors import CapError, PolyError, PromiseViolation
from .parse import parse_poly, parse_product
from . import engine, oracles, isolation
from .divisibility import divides_exact, divisibility_witness, quotient_from_witness
from .parse import render_poly


def _read_poly(args, text, n=None):
    if text == "-":
        text = sys.stdin.read()
    if args.expand:
        return parse_product(text, n=n)
    return parse_poly(text, n=n)


def _emit(args, payload, text_body=None):
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text_body if text_body is not None else payload)


def _factor_text(fl):
    lines = ["scalar %s" % fl.scalar]
    for poly, mult in fl.factors:
        lines.append("%s  ^%d" % (render_poly(poly), mult))
    return "\n".join(lines)


def _make_oracle(spec, n, d, config):
    if spec == "su":
        return oracles.su_oracle(n, d)
    if spec.startswith("constant-degree:"):
        delta = int(spec.split(":", 1)[1])
        return oracles.constant_degree_oracle(delta, n, d, config)
    raise ValueError("unknown oracle %r (use su or constant-degree:<delta>)" % spec)


# the factor commands: each reads one polynomial and prints its FactorList
_FACTOR_COMMANDS = {
    "factor-cd": lambda f, args, config: engine.constant_degree_factors(f, args.delta, config),
    "factor-cd-promise": lambda f, args, config: engine.factor_constant_degree_promise(
        f, args.delta, config
    ),
    "factor-sparse": lambda f, args, config: engine.sparse_factors(
        f, args.sparsity, _make_oracle(args.oracle, f.n, f.degree() or 0, config), config
    ),
    "factor-su": lambda f, args, config: engine.factor_su(f, config),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="polyfactor",
        description="deterministic factor extraction over Q",
    )
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--config", help="key=value configuration file")
    parser.add_argument(
        "--expand",
        action="store_true",
        help="parse the input as a parenthesized product and expand it",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factor-cd", help="constant-degree factors (no promise)")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("poly")

    p = sub.add_parser(
        "factor-cd-promise",
        help="complete factorization under the all-factors-small promise",
    )
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("poly")

    p = sub.add_parser("factor-sparse", help="sparse factors via an oracle")
    p.add_argument("--sparsity", type=int, required=True)
    p.add_argument("--oracle", required=True)
    p.add_argument("poly")

    p = sub.add_parser("factor-su", help="sum-of-univariate factors")
    p.add_argument("poly")

    p = sub.add_parser("divides", help="does G divide F")
    p.add_argument("--witness", action="store_true")
    p.add_argument("f")
    p.add_argument("g")

    p = sub.add_parser("multiplicity", help="multiplicity of irreducible G in F")
    p.add_argument("f")
    p.add_argument("g")

    p = sub.add_parser("pit", help="is the polynomial identically zero")
    p.add_argument("poly")

    p = sub.add_parser("irreducible", help="irreducibility via an oracle")
    p.add_argument("--oracle", required=True)
    p.add_argument("poly")

    p = sub.add_parser("isolate", help="print the scheme factor-cd projects on")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)

    return parser


def run(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    config = DEFAULT
    if args.config:
        try:
            config = Config.from_file(args.config)
        except OSError as exc:
            raise ValueError("cannot read config %s: %s" % (args.config, exc.strerror))

    if args.command in _FACTOR_COMMANDS:
        f = _read_poly(args, args.poly)
        fl = _FACTOR_COMMANDS[args.command](f, args, config)
        _emit(args, fl.to_json_dict(), _factor_text(fl))
        return 0

    if args.command == "divides":
        f = _read_poly(args, args.f)
        g = _read_poly(args, args.g, n=f.n)
        if args.witness:
            w = divisibility_witness(f, g)
            payload = {
                "divides": w.holds,
                "alpha": [str(a) for a in w.alpha],
                "h_tilde": render_poly(w.h_tilde),
            }
            if w.holds:
                payload["quotient"] = render_poly(quotient_from_witness(w))
            _emit(args, payload, str(payload["divides"]).lower())
        else:
            ok, q = divides_exact(f, g)
            payload = {"divides": ok}
            if ok:
                payload["quotient"] = render_poly(q)
            _emit(args, payload, str(ok).lower())
        return 0

    if args.command == "multiplicity":
        f = _read_poly(args, args.f)
        g = _read_poly(args, args.g, n=f.n)
        e = engine.factor_multiplicity(f, g)
        _emit(args, {"multiplicity": e}, str(e))
        return 0

    if args.command == "pit":
        f = _read_poly(args, args.poly)
        zero = f.is_zero()
        _emit(args, {"zero": zero}, "zero" if zero else "nonzero")
        return 0

    if args.command == "irreducible":
        f = _read_poly(args, args.poly)
        oracle = _make_oracle(args.oracle, f.n, f.degree() or 0, config)
        result = engine.sparse_irreducible_test(f, oracle, config)
        _emit(args, {"irreducible": result}, str(result).lower())
        return 0

    if args.command == "isolate":
        scheme = isolation.compact_scheme(args.n, args.delta)
        _emit(
            args,
            json.loads(scheme.to_json()),
            scheme.to_json(),
        )
        return 0

    parser.error("unknown command")


def main(argv=None):
    try:
        return run(argv)
    except (PromiseViolation, CapError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (PolyError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
