"""Correctness checks on the sessions' outputs, returned as lists of problems."""
from __future__ import annotations

import math

import exact

#: A sifted count or error count may sit this many standard errors from its expectation.
Z = 6.0


def binomial_ok(k: int, n: int, p: float) -> bool:
    """k successes in n trials is within Z standard errors of n·p (exact at p = 0 or 1)."""
    if p <= 0.0:
        return k == 0
    if p >= 1.0:
        return k == n
    return abs(k - n * p) <= Z * math.sqrt(n * p * (1.0 - p))


def check_stats(case, doc: dict) -> list[str]:
    """Invariants of a stats document, and its rate and QBER against the exact expectation."""
    problems = []
    trials, sifted, errors = doc["trials"], doc["sifted"], doc["errors"]
    echo = doc["config"]
    if (echo["scheme"], echo["trials"], echo["seed"]) != (case.scheme, case.trials, case.seed):
        problems.append(f"config echo {echo} does not match the request")
    if sum(doc["histogram"].values()) != trials:
        problems.append("histogram does not sum to trials")
    if not 0 <= errors <= sifted <= trials:
        problems.append(f"not 0 <= errors {errors} <= sifted {sifted} <= trials {trials}")
    per_signal = doc["per_signal"].values()
    if sum(s["sent"] for s in per_signal) != trials:
        problems.append("per_signal sent does not sum to trials")
    if sum(s["kept"] for s in per_signal) != sifted:
        problems.append("per_signal kept does not sum to sifted")
    return problems + rate_problems(case.physics, trials, sifted, errors)


def rate_problems(physics: tuple, trials: int, sifted: int, errors: int) -> list[str]:
    """Sifted count and errors against the exact rate and QBER; QBER only if sifted > 0."""
    rate, qber = exact.expected(*physics)
    problems = []
    if not binomial_ok(sifted, trials, rate):
        problems.append(f"sifted {sifted}/{trials}, expected rate {rate:.6g}")
    if sifted and not binomial_ok(errors, sifted, qber):
        problems.append(f"errors {errors}/{sifted}, expected QBER {qber:.6g}")
    return problems


def check_pooled(sessions) -> dict[tuple, list[str]]:
    """Rate and QBER of the summed counts of every config run more than once.

    `sessions` are (case, stats document) pairs; configs are grouped by
    `case.physics`. Returns the problems of each group that fails, so that a
    bias too small to show in one session shows over all of them.
    """
    totals: dict[tuple, list[int]] = {}
    for case, doc in sessions:
        total = totals.setdefault(case.physics, [0, 0, 0, 0])
        for i, count in enumerate((1, doc["trials"], doc["sifted"], doc["errors"])):
            total[i] += count
    failed = {}
    for physics, (n, trials, sifted, errors) in totals.items():
        problems = rate_problems(physics, trials, sifted, errors) if n > 1 else []
        if problems:
            failed[physics] = [f"pooled over {n} sessions: {p}" for p in problems]
    return failed


def check_trace(text: str, trials: int) -> list[str]:
    rows = len(text.splitlines())
    return [] if rows == trials + 1 else [f"trace has {rows} rows, expected {trials + 1}"]
