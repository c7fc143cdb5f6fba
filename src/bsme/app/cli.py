"""Command line front end.

``bsme commit @session.args --seed 7`` reads flags from an argument file:
flags separated by whitespace, ``#`` to the end of a line a comment; a flag
after the file overrides it.

Exit codes: 0 on success or acceptance; 1 when a session ends in reject or
abort, or a cross-host peer hangs up once connected; 2 on usage errors,
including parameters that ``derive_commit_params`` or ``derive_ot_params``
refuse; 3 when ``feasibility`` finds the point infeasible for commitment, or
an attack, lemma or self-test check misses its bound.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from ..bits import BitString, IndexSet
from ..codes import LinearCode
from ..harness import (
    binding_attack,
    hiding_distance,
    ih_theta_attack,
    lemma_binom_bound,
    lemma_birthday,
    lemma_entropy_hd,
    lemma_subset_hd,
    ot_offbranch_distance,
)
from ..infomath import (
    ParameterError,
    check_code_fit,
    commit_delta_threshold,
    commit_feasible,
    derive_commit_params,
    derive_ot_params,
    ot_feasible_gv,
    ot_gv_delta_threshold,
    rho,
)
from ..reasons import Reason
from .channel import connect_channel, listen_channel
from .runner import commit_party, ot_party, run_commit_session, run_ot_session

__all__ = ["main", "console_main"]

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_USAGE = 2
EXIT_BOUND = 3

# In the order `--code auto` tries them.
_CODES = {
    "hamming": LinearCode.hamming_7_4,
    "repetition3": lambda: LinearCode.repetition(3),
    "repetition5": lambda: LinearCode.repetition(5),
    "trivial": LinearCode.trivial,
}
# `attack --which` runs one of these, or all of them in this order.
_ATTACKS = {
    "binding": lambda args: binding_attack(k=16, digest_len=16, sigma=1 / 16,
                                           trials=args.trials, seed=args.seed),
    "hiding": lambda args: hiding_distance(
        a_positions=IndexSet(12, (2, 3, 6, 7, 10, 11)), stored_positions=IndexSet(12, (0, 1, 2, 3)),
        stored_value=BitString.zeros(4), digest_len=2),
    "offbranch": lambda args: ot_offbranch_distance(LinearCode.repetition(3), out_len=1),
    "theta": lambda args: ih_theta_attack(m=12, t=6, trials=args.trials, seed=args.seed),
}


def _bits_arg(text: str) -> BitString:
    return BitString.from_str(text)


def _positive_int(text: str) -> int:
    if not (text.isascii() and text.isdigit()) or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _addr(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not (port.isascii() and port.isdigit()) or int(port) > 65535:
        raise argparse.ArgumentTypeError("address must be HOST:PORT with a port in 0-65535")
    return host or "127.0.0.1", int(port)


def _add_rates(sub: argparse.ArgumentParser, gamma_default: float) -> None:
    sub.add_argument("--n", type=int, default=4096, help="broadcast length in bits")
    sub.add_argument("--alpha", type=float, default=1.0, help="source entropy rate")
    sub.add_argument("--gamma", type=float, default=gamma_default, help="adversary storage rate")
    sub.add_argument("--delta", type=float, default=0.0, help="noise rate between views")


def _add_transport(sub: argparse.ArgumentParser, roles: tuple[str, str]) -> None:
    sub.add_argument("--transport", choices=("memory", "socket"), default="memory",
                     help="in-process pipe or in-process socket pair")
    address = sub.add_mutually_exclusive_group()
    address.add_argument("--listen", type=_addr, metavar="HOST:PORT",
                         help="run one party, accepting a TCP peer")
    address.add_argument("--connect", type=_addr, metavar="HOST:PORT",
                         help="run one party, dialing a TCP peer")
    sub.add_argument("--role", choices=roles,
                     help="which party to run with --listen/--connect")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bsme",
        description="Commitment and oblivious transfer from a noisy public broadcast "
        "against storage-bounded adversaries.",
        fromfile_prefix_chars="@",
        allow_abbrev=False,
    )
    parser.convert_arg_line_to_args = lambda line: line.partition("#")[0].split()
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("feasibility", help="report achievable regimes for given rates")
    _add_rates(p, gamma_default=0.25)
    p.set_defaults(func=cmd_feasibility)

    p = subs.add_parser("commit", help="run a commitment session")
    _add_rates(p, gamma_default=0.25)
    p.add_argument("--ell", type=int, default=16, help="overlap requirement")
    p.add_argument("--zeta", type=float, default=0.05, help="distance-check slack rate")
    p.add_argument("--value", type=_bits_arg, default=None, help="value to commit, e.g. 0101")
    _add_transport(p, ("committer", "verifier"))
    p.set_defaults(func=cmd_commit)

    p = subs.add_parser("ot", help="run an oblivious transfer session")
    _add_rates(p, gamma_default=0.0)
    # 14 is the C05 point: Hamming(7,4) blocks fit it at the default noise.
    p.add_argument("--ell", type=int, default=14, help="overlap requirement")
    p.add_argument("--xi", type=float, default=0.05, help="decoding slack rate")
    p.add_argument("--code", choices=("auto",) + tuple(_CODES), default="auto")
    p.add_argument("--choice", type=int, choices=(0, 1), default=None)
    p.add_argument("--s0", type=_bits_arg, default=None, help="first secret")
    p.add_argument("--s1", type=_bits_arg, default=None, help="second secret")
    _add_transport(p, ("sender", "receiver"))
    p.set_defaults(func=cmd_ot)

    p = subs.add_parser("attack", help="run desk-scale attacks against their bounds")
    p.add_argument("--which", choices=(*_ATTACKS, "all"), default="all")
    p.add_argument("--trials", type=_positive_int, default=300)
    p.set_defaults(func=cmd_attack)

    p = subs.add_parser("lemmas", help="check the concentration bounds the analysis rests on")
    p.add_argument("--trials", type=_positive_int, default=400)
    p.set_defaults(func=cmd_lemmas)

    p = subs.add_parser("selftest", help="fast end-to-end smoke check")
    p.set_defaults(func=cmd_selftest)

    for name, p in subs.choices.items():
        p.allow_abbrev = False  # a prefix of a flag is refused, not taken for it
        if name != "feasibility":  # the one command that draws no randomness
            p.add_argument("--seed", type=int, default=0, help="session seed")
        p.add_argument("--json", action="store_true", help="emit one JSON object")
    return parser


# --------------------------------------------------------------------------
# commands


def _emit(args, payload: dict, lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def cmd_feasibility(args) -> int:
    s = rho(args.alpha, args.gamma, args.n)
    commit_f = commit_feasible(s, args.delta)
    ot_f = ot_feasible_gv(s, args.delta)
    commit_thr, ot_thr = commit_delta_threshold(s), ot_gv_delta_threshold(s)
    payload = {
        "rho": s,
        "commit": {
            "feasible": commit_f.feasible,
            "margin": commit_f.margin,
            "delta_threshold": commit_thr,
        },
        "ot_gv": {
            "feasible": ot_f.feasible,
            "margin": ot_f.margin,
            "delta_threshold": ot_thr,
        },
    }
    lines = [
        f"rho={s:.6f}",
        f"commit: feasible={commit_f.feasible} margin={commit_f.margin:.6f} "
        f"delta_threshold={commit_thr:.6f}",
        f"ot-gv: feasible={ot_f.feasible} margin={ot_f.margin:.6f} "
        f"delta_threshold={ot_thr:.6f}",
    ]
    _emit(args, payload, lines)
    return EXIT_OK if commit_f.feasible else EXIT_BOUND


def _params_dict(params) -> dict:
    d = asdict(params)
    if "code" in d:
        d["code"] = params.code.descriptor()
    if "rate" in d:
        d["rate"] = float(params.rate)
    return d


def cmd_commit(args) -> int:
    params = derive_commit_params(
        n=args.n, ell=args.ell, alpha=args.alpha, gamma=args.gamma,
        delta=args.delta, zeta=args.zeta,
    )
    if args.role or args.listen or args.connect:
        return _network_party(args, lambda chan: commit_party(
            args.role, chan, params, args.seed, value=args.value))
    outcome = run_commit_session(
        params, value=args.value, seed=args.seed, transport=args.transport
    )
    payload = {
        "params": _params_dict(params),
        "value": outcome.value.to_str(),
        "accepted": outcome.accepted,
        "reason": outcome.reason.label,
        "opened": outcome.opened.to_str() if outcome.opened is not None else None,
        "frames": len(outcome.transcript),
    }
    lines = [
        f"n={params.n} k={params.k} m={params.m} digest={params.digest_len} rho={params.rho:.4f}",
        f"value={outcome.value.to_str()}",
        f"accepted={outcome.accepted} reason={outcome.reason.label}",
        f"frames={len(outcome.transcript)}",
    ]
    _emit(args, payload, lines)
    return EXIT_OK if outcome.accepted else EXIT_REJECTED


def _pick_code(args) -> LinearCode:
    """The named code, or for ``auto`` the first stock code that fits; when
    none does, the last one's refusal."""
    if args.code != "auto":
        return _CODES[args.code]()
    for make in _CODES.values():
        code = make()
        try:
            check_code_fit(args.ell, code, args.delta, args.xi)
            return code
        except ParameterError as refusal:
            last = refusal
    raise last


def cmd_ot(args) -> int:
    params = derive_ot_params(
        n=args.n, ell=args.ell, code=_pick_code(args), alpha=args.alpha,
        gamma=args.gamma, delta=args.delta, xi=args.xi,
    )
    secrets = None
    if (args.s0 is None) != (args.s1 is None):
        raise ValueError("pass both --s0 and --s1 or neither")
    if args.s0 is not None:
        secrets = (args.s0, args.s1)
    if args.role or args.listen or args.connect:
        return _network_party(args, lambda chan: ot_party(
            args.role, chan, params, args.seed, choice=args.choice, secrets=secrets))
    outcome = run_ot_session(
        params, choice=args.choice, secrets=secrets, seed=args.seed,
        transport=args.transport,
    )
    payload = {
        "params": _params_dict(params),
        "choice": outcome.choice,
        "completed": outcome.completed,
        "reason": outcome.reason.label,
        "output": outcome.output.to_str() if outcome.output is not None else None,
        "correct": outcome.correct,
        "frames": len(outcome.transcript),
    }
    lines = [
        f"n={params.n} k={params.k} m={params.m} t={params.t} payload={params.payload_len} "
        f"code=[{params.code.length},{params.code.dimension}]",
        f"choice={outcome.choice}",
        f"completed={outcome.completed} reason={outcome.reason.label} correct={outcome.correct}",
        f"frames={len(outcome.transcript)}",
    ]
    _emit(args, payload, lines)
    return EXIT_OK if outcome.completed else EXIT_REJECTED


def _network_party(args, party) -> int:
    """Run ``party(chan)`` over the --listen or --connect channel and print its
    result.  A failure to listen or connect is a usage error; a connection
    lost once open aborts the session."""
    address = args.listen or args.connect
    if args.role is None or address is None:
        raise ValueError("--role needs --listen or --connect, and they need --role")
    chan = (listen_channel if args.listen else connect_channel)(*address)
    try:
        out = party(chan)
    except ConnectionError as exc:
        print(f"error: lost the peer on {address[0]}:{address[1]}: {exc}", file=sys.stderr)
        return EXIT_REJECTED
    finally:
        chan.close()
    printable = {
        k: (v.to_str() if isinstance(v, BitString) else v)
        for k, v in out.items()
        if k != "reason"
    }
    printable["reason"] = out["reason"].label
    if "secrets" in out:
        printable["secrets"] = [s.to_str() for s in out["secrets"]]
    _emit(args, printable, [f"{k}={v}" for k, v in printable.items()])
    return EXIT_OK if out["reason"] is Reason.OK else EXIT_REJECTED


def _checks(args, reports) -> int:
    """Print each report's line, or one JSON row per report."""
    ok = all(r.passed for r in reports)
    payload = {"checks": [{**asdict(r), "passed": r.passed} for r in reports], "passed": ok}
    _emit(args, payload, [r.line() for r in reports])
    return EXIT_OK if ok else EXIT_BOUND


def cmd_attack(args) -> int:
    names = _ATTACKS if args.which == "all" else (args.which,)
    return _checks(args, [_ATTACKS[name](args) for name in names])


def cmd_lemmas(args) -> int:
    return _checks(args, [
        lemma_birthday(n=2048, ell=16, trials=args.trials, seed=args.seed),
        *lemma_subset_hd(n=4096, r=256, delta=0.05, nu=0.1,
                         trials=args.trials, seed=args.seed),
        lemma_binom_bound(),
        lemma_entropy_hd(n=8, alpha=0.75, delta=0.125, seed=args.seed),
    ])


def cmd_selftest(args) -> int:
    checks: list[tuple[str, bool]] = []

    params = derive_commit_params(n=2048, ell=16, gamma=0.25, delta=0.0, zeta=0.05)
    out = run_commit_session(params, seed=args.seed)
    checks.append(("commit-accepts", out.accepted and out.opened == out.value))

    ot_params = derive_ot_params(n=2048, ell=14, code=LinearCode.hamming_7_4(),
                                 gamma=0.0, delta=0.0)
    ot_out = run_ot_session(ot_params, seed=args.seed)
    checks.append(("ot-correct", ot_out.correct))

    checks.append(("binom-bound", lemma_binom_bound(k_max=16).passed))

    rep = binding_attack(k=12, digest_len=12, sigma=1 / 12, trials=60, seed=args.seed)
    checks.append(("binding-bound", rep.passed))

    ok = all(passed for _, passed in checks)
    lines = [f"{'PASS' if passed else 'FAIL'} {name}" for name, passed in checks]
    payload = {"checks": [{"name": name, "passed": passed} for name, passed in checks],
               "passed": ok}
    _emit(args, payload, lines)
    return EXIT_OK if ok else EXIT_BOUND


# --------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # ParameterError is a ValueError and already names its requirement.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
