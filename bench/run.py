"""Session and harness benchmark for bsme.

Usage (from the repository root):

    python3 bench/run.py --workload ot_n4096_memory --seed 1 --seconds 35 --trace 0

Each run sets the workload up several times before and after the timed
loop (a fresh import of ``bsme``, parameter derivation, code construction,
input generation and warm-up operations) and reports the median as
``setup_s``.  It runs whole rounds of the workload's fixed operation list
in a closed loop, one caller in one process pinned to one CPU, until
``--seconds`` have passed, and checks every output outside the timed
region.  The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` rounds alternate between
untraced and traced, and the metrics are the per-layer figures of the
traced rounds plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import statistics
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import checks
import spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"

# Set-ups before the timed loop (the last one is measured) and again after
# it, so that setup_s samples the host at both ends of the run.
SETUP_REPS = 4
INCORRECT = "incorrect"
MODULES = (
    "bsme", "bsme.bits", "bsme.source", "bsme.hashing", "bsme.gf2", "bsme.ihash",
    "bsme.subsets", "bsme.codes", "bsme.infomath", "bsme.commit", "bsme.ot",
    "bsme.harness", "bsme.app.framing", "bsme.app.channel", "bsme.app.runner",
)


def fresh_import() -> dict:
    """Import every bsme module anew, dropping any copy already loaded."""
    for name in [n for n in sys.modules if n == "bsme" or n.startswith("bsme.")]:
        del sys.modules[name]
    return {name: importlib.import_module(name) for name in MODULES}


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def host_reference_ms() -> float:
    """A fixed pure-Python loop that touches nothing of bsme; tracks host speed."""
    t0 = time.perf_counter()
    x = 0
    for i in range(1_000_000):
        x = (x * 31 + i) & 0xFFFFFFFF
    return 1e3 * (time.perf_counter() - t0)


# --------------------------------------------------------------------------
# workloads
#
# Each round is a fixed list of operations.  Runner seeds are the first
# ROUND integers, the same for every --seed, so the protocol randomness and
# the mix of outcomes repeat exactly from run to run; --seed picks the
# values the benchmark supplies (choice bits, secrets, committed values) and
# the harness batch seeds.


class Workload:
    """A round of operations; `prepare` builds `ops`, `check` classifies each output."""

    def prepare_checks(self, b: dict) -> None:
        """Draw what the checks compare against, outside set-up and timing."""

    def finish(self) -> None:
        """Checks over the whole run."""


class OTWorkload(Workload):
    """Honest 1-out-of-2 transfer over the memory transport at the C05 point."""

    name = "ot_n4096_memory"
    ROUND = 25
    WARMUP = 3

    def prepare(self, b: dict, seed: int) -> dict:
        code, code_s = timed(b["bsme.codes"].LinearCode.hamming_7_4)
        params, derive_s = timed(
            b["bsme.infomath"].derive_ot_params, n=4096, ell=14, code=code, gamma=0.0,
            delta=0.01, tau=0.02, m_f=Fraction(1, 7), eps_hat=0.25,
        )
        bits = b["bsme.bits"].BitString
        rng = random.Random(f"{self.name}:{seed}")
        self.params = params
        self.inputs = [
            (s, rng.getrandbits(1),
             (bits.random(params.payload_len, rng), bits.random(params.payload_len, rng)))
            for s in range(self.ROUND)
        ]
        runner = b["bsme.app.runner"]
        self.ops = [self._op(runner, *inp) for inp in self.inputs]
        return {"code_s": code_s, "derive_s": derive_s}

    def _op(self, runner, s, choice, secrets):
        params = self.params
        # The runner is looked up at call time so a traced round sees the wrapper.
        return lambda r: runner.run_ot_session(
            params, choice=choice, secrets=secrets, seed=s, transport="memory")

    def check(self, i: int, outcome) -> str:
        _s, choice, secrets = self.inputs[i]
        return checks.check_ot(outcome, choice, secrets, self.params.m)


class CommitWorkload(Workload):
    """Honest commitment over a socket pair at n=65536."""

    name = "commit_n65536_socket"
    ROUND = 10
    WARMUP = 2

    def prepare(self, b: dict, seed: int) -> dict:
        params, derive_s = timed(
            b["bsme.infomath"].derive_commit_params, n=65536, ell=16, alpha=1.0, gamma=0.25,
            delta=0.02,
        )
        bits = b["bsme.bits"].BitString
        rng = random.Random(f"{self.name}:{seed}")
        self.params = params
        self.inputs = [(s, bits.random(params.m, rng)) for s in range(self.ROUND)]
        runner = b["bsme.app.runner"]
        self.ops = [self._op(runner, *inp) for inp in self.inputs]
        return {"code_s": 0.0, "derive_s": derive_s}

    def _op(self, runner, s, value):
        params = self.params
        return lambda r: runner.run_commit_session(
            params, value=value, seed=s, transport="socket")

    def prepare_checks(self, b: dict) -> None:
        # The public string of each runner seed, drawn as the runner's
        # documented seeding does, for comparing the opened W against.
        p = self.params
        source = b["bsme.source"]
        self.broadcast = [
            source.generate(source.SourceConfig(
                n=p.n, alpha=p.alpha, delta=p.delta, seed=f"{s}:source")).x.to_int()
            for s, _ in self.inputs
        ]

    def check(self, i: int, outcome) -> str:
        _s, value = self.inputs[i]
        p = self.params
        return checks.check_commit(outcome, value, self.broadcast[i], p.k, p.digest_len)


class ThetaWorkload(Workload):
    """Batches of the interactive-hashing theta attack at the C08 setting."""

    name = "ih_theta_m12"
    ROUND = 8
    WARMUP = 1
    M, T, TRIALS = 12, 6, 1000

    def prepare(self, b: dict, seed: int) -> dict:
        harness = b["bsme.harness"]
        self.seed = seed
        self.ops = [self._op(harness, i) for i in range(self.ROUND)]
        self.successes = self.trials = 0
        return {"code_s": 0.0, "derive_s": 0.0}

    def _op(self, harness, i):
        # Every batch of every round draws its own trials.
        return lambda r: harness.ih_theta_attack(
            m=self.M, t=self.T, trials=self.TRIALS, seed=f"{self.seed}:{r}:{i}")

    def check(self, i: int, report) -> str:
        if report.trials != self.TRIALS or not 0 <= report.successes <= report.trials:
            raise checks.CheckError("batch reported an impossible count")
        self.successes += report.successes
        self.trials += report.trials
        return checks.OK

    def finish(self) -> None:
        checks.check_theta_rate(self.successes, self.trials, self.M, self.T)


WORKLOADS = {w.name: w for w in (OTWorkload, CommitWorkload, ThetaWorkload)}


# --------------------------------------------------------------------------
# measurement


def set_up(cls, seed: int):
    """One set-up: a fresh import, the workload's inputs and its warm-up operations."""
    gc.collect()  # free the previous copy first, so peak_rss_mb does not hinge on gc timing
    t0 = time.perf_counter()
    modules = fresh_import()
    workload = cls()
    parts = workload.prepare(modules, seed)
    for i in range(workload.WARMUP):
        workload.ops[i % len(workload.ops)](-1 - i)
    return workload, modules, time.perf_counter() - t0, parts


def measure(workload, seconds: float, tracer=None):
    """Whole rounds until `seconds` pass; with a tracer, odd rounds are traced."""
    plain, traced = [], []
    statuses: Counter = Counter()
    problems: list[str] = []
    gc.collect()
    deadline = time.perf_counter() + seconds
    rounds = 0
    while True:
        tracing = tracer is not None and rounds % 2 == 1
        if tracing:
            tracer.install()
        try:
            for i, op in enumerate(workload.ops):
                if tracing:
                    tracer.begin_op()
                t0 = time.perf_counter()
                out = op(rounds)
                t1 = time.perf_counter()
                if tracing:
                    tracer.end_op(t0, t1)
                (traced if tracing else plain).append(t1 - t0)
                try:
                    statuses[workload.check(i, out)] += 1
                except checks.CheckError as exc:
                    statuses[INCORRECT] += 1
                    problems.append(f"operation {i} of round {rounds}: {exc}")
        finally:
            if tracing:
                tracer.uninstall()
        rounds += 1
        if time.perf_counter() >= deadline and (tracer is None or rounds % 2 == 0):
            break
    try:
        workload.finish()
    except checks.CheckError as exc:
        problems.append(str(exc))
    return plain, traced, statuses, rounds, problems


def end_to_end(durations: list[float], setup_s: float) -> dict:
    return {
        "op_p50_ms": (1e3 * statistics.median(durations), "ms"),
        "op_p90_ms": (1e3 * statistics.quantiles(durations, n=10)[-1], "ms"),
        "ops_per_s": (len(durations) / sum(durations), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, plain: list[float], traced: list[float], setup_parts: dict) -> dict:
    out = tracer.metrics()
    out["codes.linear_code.setup_ms"] = (1e3 * setup_parts["code_s"], "ms")
    out["infomath.derive.setup_ms"] = (1e3 * setup_parts["derive_s"], "ms")
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    out["trace.overhead_pct"] = (100.0 * overhead, "%")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "bsme" / "__init__.py").is_file():
        print(f"bench: no bsme package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One CPU for the whole process: a hand-off between the two party
    # threads then never waits for the host to wake an idle vCPU, which made
    # session timings swing with the host's load.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    cls = WORKLOADS[args.workload]
    host_before = host_reference_ms()
    timings = []
    for _ in range(SETUP_REPS):
        workload = modules = None  # let set_up's gc.collect free the previous copy
        workload, modules, secs, parts = set_up(cls, args.seed)
        timings.append((secs, parts))
    workload.prepare_checks(modules)
    tracer = spans.Tracer(modules) if args.trace else None
    if tracer is not None:
        tracer.calibrate()
    plain, traced, statuses, rounds, problems = measure(workload, args.seconds, tracer)
    timings += [set_up(cls, args.seed)[2:] for _ in range(SETUP_REPS)]
    setup_s = statistics.median(secs for secs, _ in timings)
    setup_parts = {key: statistics.median(p[key] for _, p in timings) for key in timings[0][1]}
    host_after = host_reference_ms()
    print(f"host_reference_ms before={host_before:.1f} after={host_after:.1f}")
    for problem in problems[:20]:
        print(f"check failed: {problem}")

    attempted = sum(statuses.values())
    failed = statuses[checks.FAILED]
    aborts = {k.split(":", 1)[1]: v for k, v in statuses.items() if k.startswith("abort:")}
    if tracer is None:
        metrics = end_to_end(plain, setup_s)
    else:
        metrics = per_layer(tracer, plain, traced, setup_parts)
    print(f"workload={workload.name} seed={args.seed} rounds={rounds} attempted={attempted} "
          f"failed={failed} honest_aborts={sum(aborts.values())} {json.dumps(aborts)}")
    if tracer is not None:
        print(f"op mean untraced {1e3 * statistics.fmean(plain):.3f} ms, "
              f"traced {1e3 * statistics.fmean(traced):.3f} ms")
        print(f"tracer cost per span: {1e6 * tracer.inside:.3f} us inside its window, "
              f"{1e6 * tracer.outside:.3f} us in its caller (subtracted from self times)")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload.name}_seed{args.seed}_trace{args.trace}"
    detail = dict(result, honest_aborts=aborts, rounds=rounds, host_reference_ms=[
        host_before, host_after])
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if tracer is not None:
        with open(RESULTS / f"{stem}_spans.jsonl", "w") as fh:
            for rec in tracer.span_records():
                fh.write(json.dumps(rec) + "\n")
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
