"""Network model: round-trip times and message accounting.

The paper treats data-centre RTTs as sub-millisecond and second-order for
query delay (Section 4.8.1) but tracks *message counts* carefully because
per-query overheads and cross-sectional bandwidth grow with the partitioning
level (Sections 2.3.2, 4.9.2, Table 6.2).  This module provides a simple
latency model plus a byte/message ledger that experiments read.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

try:  # numpy is required for the bulk draw only; the model stays pure-python.
    import numpy as np
except ImportError:  # pragma: no cover - the image bakes numpy in
    np = None  # type: ignore[assignment]

__all__ = ["NetworkModel", "RTT_VECTOR_MIN", "TrafficLedger"]

#: Below this many draws :meth:`NetworkModel.sample_rtts` keeps the scalar
#: loop: handing the generator state to numpy and back costs about as much
#: as this many :meth:`NetworkModel.sample_rtt` calls (2-core x86-64 VM).
RTT_VECTOR_MIN = 256


@dataclass
class NetworkModel:
    """Latency model for one-hop messages inside a deployment.

    ``rtt`` is the base round-trip time; ``jitter`` adds uniform noise.  A
    data-centre profile is the default; a wide-area profile can be produced
    with :meth:`wide_area`.
    """

    rtt: float = 0.0005  # 0.5 ms, "well under 1ms" per Section 4.8.1
    jitter: float = 0.0001
    rng: random.Random = field(default_factory=random.Random, repr=False)
    #: numpy's twin of ``rng``'s Mersenne Twister, reused by every bulk draw
    _mt: np.random.MT19937 | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def sample_rtt(self) -> float:
        if self.jitter <= 0:
            return self.rtt
        return max(0.0, self.rtt + self.rng.uniform(-self.jitter, self.jitter))

    def sample_rtts(self, n: int) -> "np.ndarray":
        """``n`` :meth:`sample_rtt` draws as one float64 array, same stream.

        The values are the ones ``n`` scalar calls would return, and
        ``rng`` is left in the state they would leave it in (a pending
        ``gauss_next`` included).  From :data:`RTT_VECTOR_MIN` draws up,
        and when ``rng`` is a plain ``random.Random`` (a subclass may
        override ``random()``), the generator state is copied into
        numpy's ``MT19937``, which yields the same 32-bit words; each
        double is built from two words as CPython's ``random()`` builds
        it, then goes through ``uniform``'s and :meth:`sample_rtt`'s float
        ops in their order, and the advanced state is copied back.
        """
        if self.jitter <= 0:
            return np.full(n, self.rtt, dtype=np.float64)
        rng = self.rng
        if n < RTT_VECTOR_MIN or type(rng) is not random.Random:
            return np.array([self.sample_rtt() for _ in range(n)], dtype=np.float64)
        version, internal, gauss_next = rng.getstate()
        if self._mt is None:
            self._mt = np.random.MT19937(0)
        mt = self._mt
        mt.state = {
            "bit_generator": "MT19937",
            "state": {"key": internal[:-1], "pos": internal[-1]},
        }
        words = mt.random_raw(2 * n)
        # random(): (a >> 5) * 2**26 + (b >> 6), scaled by 2**-53 -- exact
        u = ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) * (
            1.0 / 9007199254740992.0
        )
        lo, hi = -self.jitter, self.jitter
        x = self.rtt + (lo + (hi - lo) * u)
        state = mt.state["state"]
        rng.setstate(
            (version, (*state["key"].tolist(), int(state["pos"])), gauss_next)
        )
        return np.where(x > 0.0, x, 0.0)  # max(0.0, x), -0.0 and NaN too

    def one_way(self) -> float:
        return self.sample_rtt() / 2.0

    @classmethod
    def data_center(cls, seed: int | None = None) -> "NetworkModel":
        return cls(rtt=0.0005, jitter=0.0001, rng=random.Random(seed))

    @classmethod
    def wide_area(cls, seed: int | None = None) -> "NetworkModel":
        return cls(rtt=0.08, jitter=0.02, rng=random.Random(seed))

    @classmethod
    def zero(cls) -> "NetworkModel":
        """The Chapter 6 simulator assumption: negligible network delays."""
        return cls(rtt=0.0, jitter=0.0)


@dataclass
class TrafficLedger:
    """Counts messages and bytes by category.

    Categories follow the bandwidth decomposition of Section 2.3.2:
    ``B = r*B_data + p*B_query + B_results`` plus control traffic.
    """

    query_messages: int = 0
    query_bytes: int = 0
    result_messages: int = 0
    result_bytes: int = 0
    update_messages: int = 0
    update_bytes: int = 0
    control_messages: int = 0
    control_bytes: int = 0
    cross_rack_bytes: int = 0

    def record_query(self, n_messages: int, bytes_each: int = 500) -> None:
        self.query_messages += n_messages
        self.query_bytes += n_messages * bytes_each

    def record_result(self, n_messages: int, bytes_each: int = 200) -> None:
        self.result_messages += n_messages
        self.result_bytes += n_messages * bytes_each

    def record_update(self, n_messages: int, bytes_each: int = 500) -> None:
        self.update_messages += n_messages
        self.update_bytes += n_messages * bytes_each

    def record_control(self, n_messages: int, bytes_each: int = 100) -> None:
        self.control_messages += n_messages
        self.control_bytes += n_messages * bytes_each

    @property
    def total_messages(self) -> int:
        return (
            self.query_messages
            + self.result_messages
            + self.update_messages
            + self.control_messages
        )

    @property
    def total_bytes(self) -> int:
        return (
            self.query_bytes + self.result_bytes + self.update_bytes + self.control_bytes
        )

    def merged(self, other: "TrafficLedger") -> "TrafficLedger":
        return TrafficLedger(
            query_messages=self.query_messages + other.query_messages,
            query_bytes=self.query_bytes + other.query_bytes,
            result_messages=self.result_messages + other.result_messages,
            result_bytes=self.result_bytes + other.result_bytes,
            update_messages=self.update_messages + other.update_messages,
            update_bytes=self.update_bytes + other.update_bytes,
            control_messages=self.control_messages + other.control_messages,
            control_bytes=self.control_bytes + other.control_bytes,
            cross_rack_bytes=self.cross_rack_bytes + other.cross_rack_bytes,
        )
