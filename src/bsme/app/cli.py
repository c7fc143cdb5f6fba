"""Command line front end.

Exit codes: 0 on success or acceptance; 1 when a session ends in reject or
abort; 2 on usage errors, including parameters that ``derive_commit_params``
or ``derive_ot_params`` refuse; 3 when ``feasibility`` finds the point
infeasible for commitment, or an attack, lemma or self-test check misses its
bound.
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
    commit_delta_threshold,
    commit_feasible,
    derive_commit_params,
    derive_ot_params,
    ot_feasible_gv,
    ot_gv_delta_threshold,
    rho,
)
from .channel import connect_channel, listen_channel
from .runner import commit_party, ot_party, run_commit_session, run_ot_session

__all__ = ["main", "console_main"]

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_USAGE = 2
EXIT_BOUND = 3

_BOOL_KEYS = {"json"}
_CODES = {
    "hamming": LinearCode.hamming_7_4,
    "repetition3": lambda: LinearCode.repetition(3),
    "repetition5": lambda: LinearCode.repetition(5),
    "trivial": LinearCode.trivial,
}


def _load_config(path: str) -> dict:
    values: dict[str, object] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, val = line.partition("=")
            key = key.strip().replace("-", "_")
            val = val.strip()
            if key in _BOOL_KEYS:
                if val.lower() in ("1", "true", "yes", "on"):
                    values[key] = True
                elif val.lower() in ("0", "false", "no", "off"):
                    values[key] = False
                else:
                    raise ValueError(f"{path}:{lineno}: {key} wants a boolean")
            else:
                values[key] = val
    return values


def _apply_config(sub: argparse.ArgumentParser, config: dict) -> None:
    known = {a.dest for a in sub._actions}
    sub.set_defaults(**{k: v for k, v in config.items() if k in known})


def _bits_arg(text: str) -> BitString:
    return BitString.from_str(text)


def _addr(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not port.isdigit():
        raise argparse.ArgumentTypeError("address must be HOST:PORT")
    return host or "127.0.0.1", int(port)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=0, help="session seed")
    sub.add_argument("--json", action="store_true", help="emit one JSON object")
    sub.add_argument("--config", help="key=value defaults file; flags win")


def _add_rates(sub: argparse.ArgumentParser, gamma_default: float) -> None:
    sub.add_argument("--n", type=int, default=4096, help="broadcast length in bits")
    sub.add_argument("--ell", type=int, default=16, help="overlap requirement")
    sub.add_argument("--alpha", type=float, default=1.0, help="source entropy rate")
    sub.add_argument("--gamma", type=float, default=gamma_default, help="adversary storage rate")
    sub.add_argument("--delta", type=float, default=0.0, help="noise rate between views")


def _add_transport(sub: argparse.ArgumentParser, roles: tuple[str, str]) -> None:
    sub.add_argument("--transport", choices=("memory", "socket"), default="memory",
                     help="in-process pipe or in-process socket pair")
    sub.add_argument("--listen", type=_addr, metavar="HOST:PORT",
                     help="run one party, accepting a TCP peer")
    sub.add_argument("--connect", type=_addr, metavar="HOST:PORT",
                     help="run one party, dialing a TCP peer")
    sub.add_argument("--role", choices=roles,
                     help="which party to run with --listen/--connect")


def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    config = config or {}
    parser = argparse.ArgumentParser(
        prog="bsme",
        description="Commitment and oblivious transfer from a noisy public broadcast "
        "against storage-bounded adversaries.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("feasibility", help="report achievable regimes for given rates")
    _add_rates(p, gamma_default=0.25)
    p.add_argument("--eps-prime", type=float, default=2.0**-32)
    _add_common(p)
    _apply_config(p, config)
    p.set_defaults(func=cmd_feasibility)

    p = subs.add_parser("commit", help="run a commitment session")
    _add_rates(p, gamma_default=0.25)
    p.add_argument("--zeta", type=float, default=0.05, help="distance-check slack rate")
    p.add_argument("--tau", type=float, default=None, help="sampling slack rate")
    p.add_argument("--omega", type=float, default=None, help="digest rate")
    p.add_argument("--value", type=_bits_arg, default=None, help="value to commit, e.g. 0101")
    _add_transport(p, ("committer", "verifier"))
    _add_common(p)
    _apply_config(p, config)
    p.set_defaults(func=cmd_commit)

    p = subs.add_parser("ot", help="run an oblivious transfer session")
    _add_rates(p, gamma_default=0.0)
    p.add_argument("--xi", type=float, default=0.05, help="decoding slack rate")
    p.add_argument("--zeta-ih", type=float, default=0.5, help="hash truncation rate")
    p.add_argument("--tau", type=float, default=None, help="sampling slack rate")
    p.add_argument("--m-f", type=float, default=None, help="payload rate")
    p.add_argument("--eps-hat", type=float, default=0.25, help="abort probability budget")
    p.add_argument("--code", choices=("auto",) + tuple(_CODES), default="auto")
    p.add_argument("--choice", type=int, choices=(0, 1), default=None)
    p.add_argument("--s0", type=_bits_arg, default=None, help="first secret")
    p.add_argument("--s1", type=_bits_arg, default=None, help="second secret")
    _add_transport(p, ("sender", "receiver"))
    _add_common(p)
    _apply_config(p, config)
    p.set_defaults(func=cmd_ot)

    p = subs.add_parser("attack", help="run desk-scale attacks against their bounds")
    p.add_argument("--which", choices=("binding", "hiding", "offbranch", "theta", "all"),
                   default="all")
    p.add_argument("--trials", type=int, default=300)
    _add_common(p)
    _apply_config(p, config)
    p.set_defaults(func=cmd_attack)

    p = subs.add_parser("lemmas", help="check the concentration bounds the analysis rests on")
    p.add_argument("--trials", type=int, default=400)
    _add_common(p)
    _apply_config(p, config)
    p.set_defaults(func=cmd_lemmas)

    p = subs.add_parser("selftest", help="fast end-to-end smoke check")
    _add_common(p)
    _apply_config(p, config)
    p.set_defaults(func=cmd_selftest)

    # A key that some other subcommand defines is fine (one file can serve
    # several); a key that none defines is a typo.
    known = {a.dest for sub in subs.choices.values() for a in sub._actions}
    unknown = sorted(set(config) - known)
    if unknown:
        raise ValueError(f"--config sets unknown key(s): {', '.join(unknown)}")
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
    s = rho(args.alpha, args.gamma, args.eps_prime, args.n)
    commit_f = commit_feasible(s, args.delta)
    ot_f = ot_feasible_gv(s, args.delta)
    payload = {
        "rho": s,
        "commit": {
            "feasible": commit_f.feasible,
            "margin": commit_f.margin,
            "delta_threshold": commit_delta_threshold(s),
        },
        "ot_gv": {
            "feasible": ot_f.feasible,
            "margin": ot_f.margin,
            "delta_threshold": ot_gv_delta_threshold(s),
        },
    }
    lines = [
        f"rho={s:.6f}",
        f"commit: feasible={commit_f.feasible} margin={commit_f.margin:.6f} "
        f"delta_threshold={commit_delta_threshold(s):.6f}",
        f"ot-gv: feasible={ot_f.feasible} margin={ot_f.margin:.6f} "
        f"delta_threshold={ot_gv_delta_threshold(s):.6f}",
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
        delta=args.delta, zeta=args.zeta, tau=args.tau, omega=args.omega,
    )
    if args.listen or args.connect:
        return _network_party(args, "commit", params)
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
    if args.code != "auto":
        return _CODES[args.code]()
    reach = args.delta + args.xi
    for name in ("hamming", "repetition3", "repetition5", "trivial"):
        code = _CODES[name]()
        if args.ell % code.length == 0 and reach * code.length <= code.radius + 1e-9:
            return code
    raise ParameterError(
        "(delta + xi) * code.length <= code.radius",
        "no stock code fits this ell and noise; pass --code explicitly",
    )


def cmd_ot(args) -> int:
    params = derive_ot_params(
        n=args.n, ell=args.ell, code=_pick_code(args), alpha=args.alpha,
        gamma=args.gamma, delta=args.delta, xi=args.xi, zeta_ih=args.zeta_ih,
        tau=args.tau, m_f=args.m_f, eps_hat=args.eps_hat,
    )
    secrets = None
    if (args.s0 is None) != (args.s1 is None):
        raise ValueError("pass both --s0 and --s1 or neither")
    if args.s0 is not None:
        secrets = (args.s0, args.s1)
    if args.listen or args.connect:
        return _network_party(args, "ot", params)
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
    dim = params.code.length - params.code.syndrome_len
    lines = [
        f"n={params.n} k={params.k} m={params.m} t={params.t} payload={params.payload_len} "
        f"code=[{params.code.length},{dim}]",
        f"choice={outcome.choice}",
        f"completed={outcome.completed} reason={outcome.reason.label} correct={outcome.correct}",
        f"frames={len(outcome.transcript)}",
    ]
    _emit(args, payload, lines)
    return EXIT_OK if outcome.completed else EXIT_REJECTED


def _network_party(args, protocol: str, params) -> int:
    if args.role is None:
        raise ValueError("--listen/--connect need --role")
    if args.listen and args.connect:
        raise ValueError("pass --listen or --connect, not both")
    host, port = args.listen or args.connect
    label = "A" if args.role in ("committer", "sender") else "B"
    chan = (listen_channel if args.listen else connect_channel)(host, port, label)
    try:
        if protocol == "commit":
            out = commit_party(args.role, chan, params, args.seed, value=args.value)
        else:
            secrets = (args.s0, args.s1) if args.s0 is not None else None
            out = ot_party(args.role, chan, params, args.seed,
                           choice=args.choice, secrets=secrets)
    finally:
        chan.close()
    ok = bool(out.get("accepted", out.get("completed", False)))
    printable = {
        k: (v.to_str() if isinstance(v, BitString) else v)
        for k, v in out.items()
        if k != "reason"
    }
    printable["reason"] = out["reason"].label
    if "secrets" in out:
        printable["secrets"] = [s.to_str() for s in out["secrets"]]
    _emit(args, printable, [f"{k}={v}" for k, v in printable.items()])
    return EXIT_OK if ok else EXIT_REJECTED


def cmd_attack(args) -> int:
    reports = []
    which = args.which
    if which in ("binding", "all"):
        reports.append(binding_attack(k=16, digest_len=16, sigma=1 / 16,
                                      trials=args.trials, seed=args.seed))
    if which in ("hiding", "all"):
        reports.append(hiding_distance(
            n=12, k=6,
            a_positions=IndexSet(12, (2, 3, 6, 7, 10, 11)),
            stored_positions=IndexSet(12, (0, 1, 2, 3)),
            stored_value=BitString.zeros(4),
            digest_len=2,
        ))
    if which in ("offbranch", "all"):
        reports.append(ot_offbranch_distance(LinearCode.repetition(3), out_len=1))
    if which in ("theta", "all"):
        reports.append(ih_theta_attack(m=12, t=6, trials=args.trials, seed=args.seed))
    ok = all(r.passed for r in reports)
    payload = {"checks": [_report_dict(r) for r in reports], "passed": ok}
    _emit(args, payload, [r.line() for r in reports])
    return EXIT_OK if ok else EXIT_BOUND


def _report_dict(rep) -> dict:
    return {**asdict(rep), "passed": rep.passed}


def cmd_lemmas(args) -> int:
    reports = [
        lemma_birthday(n=2048, ell=16, trials=args.trials, seed=args.seed),
        lemma_subset_hd(n=4096, r=256, delta=0.05, nu=0.1,
                        trials=args.trials, seed=args.seed),
    ]
    checks = [_report_dict(r) for r in reports]
    lines = [r.line() for r in reports]
    held, worst = lemma_binom_bound()
    checks.append({"name": "lemma-binom", "worst_ratio": worst, "passed": held})
    lines.append(f"attack=lemma-binom worst_ratio={worst:.6g} pass={held}")
    h_min, lower = lemma_entropy_hd(n=8, alpha=0.75, delta=0.125, seed=args.seed)
    entropy_ok = h_min >= lower - 1e-9
    checks.append({"name": "lemma-entropy-hd", "h_min": h_min, "lower": lower,
                   "passed": entropy_ok})
    lines.append(f"attack=lemma-entropy-hd h_min={h_min:.6g} lower={lower:.6g} "
                 f"pass={entropy_ok}")
    ok = all(c["passed"] for c in checks)
    _emit(args, {"checks": checks, "passed": ok}, lines)
    return EXIT_OK if ok else EXIT_BOUND


def cmd_selftest(args) -> int:
    checks: list[tuple[str, bool]] = []

    params = derive_commit_params(n=2048, ell=16, gamma=0.25, delta=0.0, zeta=0.05)
    out = run_commit_session(params, seed=args.seed)
    checks.append(("commit-accepts", out.accepted and out.opened == out.value))

    ot_params = derive_ot_params(n=2048, ell=14, code=LinearCode.hamming_7_4(),
                                 gamma=0.0, delta=0.0)
    ot_out = run_ot_session(ot_params, seed=args.seed)
    checks.append(("ot-correct", ot_out.correct))

    held, _worst = lemma_binom_bound(k_max=16)
    checks.append(("binom-bound", held))

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
    argv = list(sys.argv[1:] if argv is None else argv)
    config: dict = {}
    try:
        for i, tok in enumerate(argv):
            if tok == "--config" and i + 1 < len(argv):
                config = _load_config(argv[i + 1])
                break
            if tok.startswith("--config="):
                config = _load_config(tok.split("=", 1)[1])
                break
        parser = build_parser(config)
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:
        # ParameterError is a ValueError and already names its requirement.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
