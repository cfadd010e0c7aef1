"""Seeded observation streams for the detect workload, and their expected outcome.

Each stream is a CSV of (dt, dxi) records: standard Brownian increments
up to a change time drawn from the stream's key, and increments with
drift sqrt(2) after it.  expected_outcome() replays the detection
statistic over the same records in plain Python; it shares no code with
the program, which only ever sees the CSV file.  Records are drawn again
from the key when needed rather than kept in memory.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

DT = 1e-3
TAIL = 500  # records kept after the expected alarm
DRIFT = math.sqrt(2.0)


@dataclass(frozen=True)
class Outcome:
    stopped: bool
    alarm_record: int  # 1-based index of the alarm record; record count if no alarm
    r_final: float
    gain: float        # d r_final / d r0, the product of e^du up to the last record used


@dataclass(frozen=True)
class Stream:
    """Records for false-alarm level gamma, drawn from the string `key`.

    The change time is uniform on [0.5, 1.5]; the post-change part lasts
    2 ln(gamma + 1) + 2 time units, about twice the mean detection delay.
    `n`, when given, keeps only the first n records.
    """

    key: str
    gamma: float
    n: int | None = None

    def records(self):
        rng = random.Random(self.key)
        n_pre = int(rng.uniform(0.5, 1.5) / DT)
        n = n_pre + int((2.0 * math.log(self.gamma + 1.0) + 2.0) / DT)
        if self.n is not None:
            n = min(n, self.n)
        sd = math.sqrt(DT)
        for k in range(n):
            yield DT, (DRIFT * DT if k >= n_pre else 0.0) + rng.gauss(0.0, sd)

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("dt,dxi\n")
            fh.writelines(f"{dt!r},{dxi!r}\n" for dt, dxi in self.records())


def make_stream(key: str, gamma: float, r_star: float) -> Stream:
    """The stream for `key`, ending TAIL records after the alarm expected from r_star.

    A detector stops reading at its alarm, so the records beyond it only
    add parsing; the tail leaves room for a head start slightly off r_star.
    """
    full = Stream(key, gamma)
    out = expected_outcome(full, r_star)
    return Stream(key, gamma, out.alarm_record + TAIL) if out.stopped else full


def expected_outcome(stream: Stream, r0: float) -> Outcome:
    """Run R' = e^du R + (dt/2)(e^du + 1), du = -dt + sqrt(2) dxi, from r0.

    The alarm is the first record after which R >= r0 + gamma.  R is
    affine in r0, and `gain` is its slope, which bounds how far a rounded
    r0 moves the final value.
    """
    A = r0 + stream.gamma
    R = r0
    gain = 1.0
    k = 0
    for k, (dt, dxi) in enumerate(stream.records(), start=1):
        e = math.exp(-dt + DRIFT * dxi)
        R = e * R + 0.5 * dt * (e + 1.0)
        gain *= e
        if R >= A:
            return Outcome(True, k, R, gain)
    return Outcome(False, k, R, gain)
