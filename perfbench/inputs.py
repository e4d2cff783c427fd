"""Seeded input generation for every workload.

Everything a workload feeds the program comes from here, as a pure function
of ``--seed``: the same seed yields byte-identical scripts, schedules and
payloads.  Proportions (tenant skew, read shapes, rates) are fixed across
seeds and only the order and values vary, so that two seeds load the system
equally and the run-to-run spread measures the program, not the generator.
"""

from __future__ import annotations

import json
import random
import textwrap
from dataclasses import dataclass


# --------------------------------------------------------------- record_train
@dataclass(frozen=True)
class TrainScale:
    epochs: int = 3
    steps: int = 40
    #: Runs recorded by the set-up so progress reads start over some history.
    warm_runs: int = 16
    #: Side of the square float64 weight matrix checkpointed every epoch.
    state_dim: int = 48


TRAIN_SCRIPT = textwrap.dedent(
    """
    import numpy as np

    LR = {lr!r}
    MOMENTUM = {momentum!r}
    SEED = {seed!r}

    rng = np.random.default_rng(SEED)
    state = {{"w": rng.standard_normal(({dim}, {dim})), "v": np.zeros(({dim}, {dim}))}}
    target = rng.standard_normal({dim})
    with flor.checkpointing(state=state):
        for epoch in flor.loop("epoch", range({epochs})):
            for step in flor.loop("step", range({steps})):
                w = state["w"]
                err = float(w[step % {dim}] @ target) * 1e-3
                state["v"][step % {dim}] = MOMENTUM * state["v"][step % {dim}] + LR * err
                w[step % {dim}] -= state["v"][step % {dim}]
                flor.log("loss", abs(err) + 1.0 / (1 + epoch * {steps} + step))
                flor.log("acc", 1.0 - abs(err))
                flor.log("lr", LR)
                flor.log("grad_norm", abs(err) * {dim})
            progress(epoch)
    """
).strip() + "\n"

#: ``flor.log`` calls per step in :data:`TRAIN_SCRIPT`.
TRAIN_LOGS_PER_STEP = 4


def train_script(rng: random.Random, scale: TrainScale) -> str:
    """Source of one training run with freshly drawn hyperparameters."""
    return TRAIN_SCRIPT.format(
        lr=round(rng.uniform(0.001, 0.1), 6),
        momentum=round(rng.uniform(0.5, 0.95), 4),
        seed=rng.randrange(1 << 30),
        dim=scale.state_dim,
        epochs=scale.epochs,
        steps=scale.steps,
    )


@dataclass(frozen=True)
class Probe:
    """One hindsight round: the new statement and the epochs it replays."""

    name: str
    source: str
    epochs: tuple[int, ...]


def train_probes(rng: random.Random, latest: str, scale: TrainScale, count: int) -> list[Probe]:
    """New epoch-level log statements, each added to the latest training
    source, with the one epoch each backfill replays."""
    anchor = "        progress(epoch)\n"
    if anchor not in latest:
        raise ValueError("training source lacks the probe anchor")
    probes = []
    for k in range(count):
        name = f"probe_{k}"
        stmt = (f'        flor.log("{name}", float(state["w"][{rng.randrange(scale.state_dim)}].max())'
                f" * {round(rng.uniform(0.5, 2.0), 4)})\n")
        probes.append(Probe(name, latest.replace(anchor, anchor + stmt), (rng.randrange(scale.epochs),)))
    return probes


# ------------------------------------------------------------ socket traffic
@dataclass(frozen=True)
class Request:
    due: float
    method: str
    path: str
    body: bytes | None = None
    #: Label used for per-shape latency and per-tenant bookkeeping.
    kind: str = ""
    tenant: str = ""
    #: Append index (for matching tail deliveries back to their send).
    index: int = -1


ROWS_PER_APPEND = 16
APPEND_NAMES = ("loss", "acc", "lr", "grad_norm")


def append_body(rng: random.Random, index: int, rows: int = ROWS_PER_APPEND) -> bytes:
    """A ``rows``-row append; ``ctx_id`` carries the append index so a tail
    subscriber can attribute every delivered row to its send."""
    records = [
        {"name": APPEND_NAMES[j % len(APPEND_NAMES)], "value": round(rng.random(), 6), "ctx_id": index}
        for j in range(rows)
    ]
    return json.dumps({"records": records, "filename": "client.py"}).encode()


def tenant_names(count: int) -> list[str]:
    return [f"t{i:02d}" for i in range(count)]


def skewed_tenants(rng: random.Random, tenants: list[str], n: int, big: str, big_share: float) -> list[str]:
    """``n`` append targets: exactly ``big_share`` go to ``big``, the rest
    follow a Zipf(1) skew over the other tenants whose rank order is drawn
    from the seed.  Counts per rank are fixed; only the order varies."""
    others = [t for t in tenants if t != big]
    rng.shuffle(others)
    weights = [1.0 / (r + 1) for r in range(len(others))]
    n_big = round(n * big_share)
    n_rest = n - n_big
    total = sum(weights)
    counts = [int(n_rest * w / total) for w in weights]
    counts[0] += n_rest - sum(counts)
    targets = [big] * n_big
    for tenant, c in zip(others, counts):
        targets += [tenant] * c
    rng.shuffle(targets)
    return targets


def bursts(rate: float, burst: int, seconds: float, phase: float = 0.0) -> list[float]:
    """Due times of an open-loop schedule of ``burst`` requests due together,
    at ``rate`` requests/s on average.  Clients batch: a log shipper sends
    the batches a training step produced at once, a dashboard refreshes its
    panels at once.  Requests that follow one another within a few tens of
    milliseconds on one connection are where socket-level stalls show.
    The phase is fixed, not drawn from the seed: how appends line up with
    the reads beside them changes the latencies more than any seeded value."""
    period = burst / rate
    n = max(1, int(seconds / period))
    return [phase + i * period for i in range(n) for _ in range(burst)]
